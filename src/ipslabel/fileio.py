"""Atomic file writes, the checked reading of input files (JSON and CSV rows),
deterministic JSON, and the checked dict form of what config, manifest, label
and report files hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import typing

from .errors import ConfigError, UsageError


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, trailing newline. A
    float that no reader accepts (see from_dict) is a UsageError naming its
    dotted key, e.g. ``objects[1].box3d_lidar.center[1]``."""
    _check_written(obj, "")
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _check_written(value, path: str) -> None:
    """Raise a UsageError naming the dotted key ``path`` of the first float in
    ``value`` that no reader accepts: the writers' side of MAX_MAGNITUDE."""
    if isinstance(value, dict):
        for k, v in value.items():
            _check_written(v, f"{path}.{k}" if path else k)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _check_written(v, f"{path}[{i}]")
    elif isinstance(value, float) and not abs(value) <= MAX_MAGNITUDE:
        raise UsageError(
            f"{path or '<root>'}: cannot write {value!r}, beyond {MAX_MAGNITUDE:,.0f}, "
            "the largest magnitude that a reader accepts"
        )


def csv_numbers(values, where: str) -> str:
    """``values`` as comma-separated CSV fields that _csv_rows reads back: the
    repr of each as a float. A number beyond MAX_MAGNITUDE, or not finite, is
    a UsageError naming ``where``."""
    values = [float(v) for v in values]
    for v in values:
        _check_written(v, where)
    return ",".join(map(repr, values))


def to_dict(obj):
    """The dict form of a dataclass, recursively: the attributes its ``FORM``
    names, else its fields; a value with its own ``to_dict`` uses it. Tuples
    become lists, and numpy arrays and scalars Python ones (``tolist()``).
    """
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if hasattr(obj, "FORM"):
        return {k: to_dict(getattr(obj, k)) for k in obj.FORM}
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_dict(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def _check_keys(d: dict, allowed, section: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {section or '<root>'!r}; "
            f"allowed: {sorted(allowed)}"
        )


def _reject(path: str, expected: str, value):
    raise ConfigError(f"{path or '<root>'}: expected {expected}, got {value!r}")


def _build(types: dict, make, value, path: str):
    """``make`` the checked values of mapping ``value``, whose keys and types are ``types``."""
    if not isinstance(value, dict):
        _reject(path, "a mapping", value)
    _check_keys(value, types, path)
    kwargs = {k: from_dict(types[k], v, f"{path}.{k}" if path else k) for k, v in value.items()}
    try:
        return make(kwargs)
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path or '<root>'}: {e}") from e


_SCALARS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
# Largest magnitude of a number read from an input file: far beyond any
# length of a scene in metres or pixels, and small enough that products and
# sums of squares of a few such numbers stay finite and keep their precision.
MAX_MAGNITUDE = 1e6


def from_dict(typ, value, path: str):
    """Inverse of to_dict: build ``typ`` from ``value``, checking every key and value.

    Each value must match its field's type: bool for bool, int (not bool) for
    int, an int or float of magnitude at most MAX_MAGNITUDE (stored as float)
    for float, str for str, a list for a tuple, a mapping (with string keys
    for a dict) for a dict or a nested dataclass. A type whose dict form is
    not its fields declares that form as ``FORM`` ({key: type}) and builds
    itself in ``from_dict(d, *args)``, with the args of an
    ``Annotated[type, *args]`` field. A bad key or value raises ConfigError
    naming the dotted key ``path``, e.g. ``scene.lidar.channels``.
    """
    if typ in _SCALARS:  # most leaves: checked before the container forms
        if typ is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if ok and not abs(value) <= MAX_MAGNITUDE:
                _reject(path, f"a finite number of magnitude at most {MAX_MAGNITUDE:,.0f}", value)
        else:
            ok = isinstance(value, typ) and isinstance(value, bool) == (typ is bool)
        if not ok:
            _reject(path, _SCALARS[typ], value)
        return float(value) if typ is float else value
    args = ()
    if typing.get_origin(typ) is typing.Annotated:
        typ, *args = typing.get_args(typ)
    if hasattr(typ, "FORM"):
        return _build(typ.FORM, lambda kw: typ.from_dict(kw, *args), value, path)
    if dataclasses.is_dataclass(typ):
        hints = typing.get_type_hints(typ, include_extras=True)
        types = {f.name: hints[f.name] for f in dataclasses.fields(typ)}
        return _build(types, lambda kw: typ(**kw), value, path)
    if typing.get_origin(typ) is tuple:
        if not isinstance(value, list):
            _reject(path, "a list", value)
        args = typing.get_args(typ)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            _reject(path, f"a list of {len(args)}", value)
        return tuple(from_dict(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if typing.get_origin(typ) is dict:
        if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
            _reject(path, "a mapping with string keys", value)
        return {k: from_dict(typing.get_args(typ)[1], v, f"{path}.{k}") for k, v in value.items()}
    raise TypeError(f"{path}: no dict form for type {typ!r}")


def require_empty_dir(path: str, command: str) -> None:
    """Refuse an output directory that holds anything: files written beside an
    earlier run's would be read back as one set."""
    if os.path.isdir(path) and os.listdir(path):
        raise UsageError(f"{path} is not empty; {command} into a new or empty directory")


def _sample_ids(dataset: str) -> list:
    """The sample ids of a dataset: its ``samples`` subdirectories, sorted."""
    samples_dir = os.path.join(dataset, "samples")
    ids = sorted(
        name
        for name in os.listdir(samples_dir)
        if os.path.isdir(os.path.join(samples_dir, name))
    )
    if not ids:
        raise UsageError(f"{samples_dir} holds no sample directory")
    return ids


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write a file via temp-then-rename so readers never see partial data.
    The file gets the mode that ``open(path, "w")`` gives, 0o666 less the
    umask (mkstemp makes it 0o600, and the rename keeps that)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_input(path: str, parse, read=None):
    """``parse(read(path))`` of the input file at ``path``; ``read`` is
    read_text unless given. What ``parse`` raises on bad input (KeyError,
    TypeError, ValueError, OverflowError) and a decode error are faults of
    the file: they become a UsageError naming ``path``.
    """
    try:
        return parse((read or read_text)(path))
    except KeyError as e:
        raise UsageError(f"{path}: missing key {e.args[0]!r}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise UsageError(f"{path}: {e}") from e


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # json.loads would keep the last
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def decode_json(text: str):
    """The value of the strict JSON (RFC 8259) ``text``; ValueError for text
    that is not JSON, and for NaN, Infinity, a number beyond the float range
    or a key given twice in one object."""
    return json.loads(
        text, parse_float=_finite, parse_constant=_finite, object_pairs_hook=_unique_keys
    )


def read_json(path: str, parse):
    """read_input for a JSON file, which decode_json reads."""
    return read_input(path, lambda text: parse(decode_json(text)))


def _csv_rows(text: str, header: str, numeric: slice, what: str):
    """(line number, fields, ``numeric`` fields as floats of magnitude at most
    MAX_MAGNITUDE) of each row after ``header``, skipping blank lines; a bad
    row is a UsageError naming it."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise UsageError(f"{what} CSV must start with header {header!r}")
    width = header.count(",") + 1
    for line_no, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"expected {width} fields, got {len(parts)}")
            values = [float(v) for v in parts[numeric]]
            if not all(abs(v) <= MAX_MAGNITUDE for v in values):
                raise ValueError(f"non-finite value, or one of magnitude over {MAX_MAGNITUDE:,.0f}")
        except ValueError as e:
            raise UsageError(f"{what} CSV line {line_no}: {e}") from None
        yield line_no, parts, values
