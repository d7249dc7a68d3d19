"""Shared fixtures: small simulated datasets and a CLI runner."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tracemalloc

import pytest

from ipslabel.cli import main
from ipslabel.config import SceneConfig
from ipslabel.sim import generate_dataset

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse errors exit instead of returning
            code = int(e.code) if e.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def traced_peak(fn, *args, **kwargs):
    """(result, bytes): ``fn``'s result and the peak of the memory that
    tracemalloc traced during the call (numpy reports its array buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def tree_digest(root):
    """Map of relative path -> sha256 of file bytes, for whole-tree equality."""
    digest = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                digest[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def noise_free_scene() -> SceneConfig:
    from dataclasses import replace

    return replace(SceneConfig(), beacon_noise=0.0, pixel_noise_sigma=0.0)


def noisy_scene() -> SceneConfig:
    from dataclasses import replace

    return replace(SceneConfig(), pixel_noise_sigma=1.0)


@pytest.fixture(scope="session")
def noise_free_dataset(tmp_path_factory):
    """Three noise-free samples plus calibration files, generated once."""
    root = tmp_path_factory.mktemp("ds_clean")
    generate_dataset(noise_free_scene(), str(root), n_samples=3, seed=5)
    return str(root)


@pytest.fixture(scope="session")
def noisy_dataset(tmp_path_factory):
    """Three samples with default beacon noise and 1 px pixel noise."""
    root = tmp_path_factory.mktemp("ds_noisy")
    generate_dataset(noisy_scene(), str(root), n_samples=3, seed=11)
    return str(root)
