"""Atomic file writes, the checked reading of input files, deterministic
serialization helpers, the dict form of the config dataclasses, and the
ordered worker map whose results the writers consume.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
import typing
from functools import partial

from .errors import ConfigError, UsageError


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def to_dict(obj):
    """The dict form of a dataclass: its fields by name, recursively.

    A value with its own ``to_dict`` uses it; tuples become lists.
    """
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_dict(v) for v in obj]
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


def from_dict(typ, value, path: str):
    """Inverse of to_dict: build ``typ`` from ``value``, checking every key and value.

    Each value must match its field's type: bool for bool, int (not bool) for
    int, a finite int or float (stored as float) for float, str for str, a
    list for a tuple, a mapping for a nested dataclass. A type whose dict form
    is not shaped like its fields declares that form as ``FORM`` ({key: type})
    and builds itself in ``from_dict(d, *args)``, with the args of an
    ``Annotated[type, *args]`` field. A bad key or value raises ConfigError
    naming the dotted key ``path``, e.g. ``scene.lidar.channels``.
    """
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
    if typ not in _SCALARS:
        raise TypeError(f"{path}: no dict form for type {typ!r}")
    if typ is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, typ)
    if not ok or isinstance(value, bool) != (typ is bool):
        _reject(path, _SCALARS[typ], value)
    return float(value) if typ is float else value


def ordered_map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, on ``jobs`` worker processes when jobs > 1.

    Results come back in input order, so a caller that writes them in turn
    writes the same files for every ``jobs``.
    """
    if jobs == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: only a pool pays it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def require_empty_dir(path: str, command: str) -> None:
    """Refuse an output directory that holds anything: files written beside an
    earlier run's would be read back as one set."""
    if os.path.isdir(path) and os.listdir(path):
        raise UsageError(f"{path} is not empty; {command} into a new or empty directory")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write a file via temp-then-rename so readers never see partial data."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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


def read_json(path: str, parse):
    """read_input for a JSON file; NaN, Infinity and numbers beyond the float
    range are rejected."""
    decode = partial(json.loads, parse_float=_finite, parse_constant=_finite)
    return read_input(path, lambda text: parse(decode(text)))
