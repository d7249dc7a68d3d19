"""Deterministic, splittable RNG streams.

Every randomized stage draws from its own child stream derived from
(seed, namespace, index...). Streams never depend on execution order, so
parallel evaluation reproduces sequential results bit-for-bit.
"""

from __future__ import annotations

import numpy as np

# Stream namespaces. Keep these stable: changing them changes every
# seeded output in the project.
NS_CALIB_RANSAC = 0
NS_POSE = 3
NS_BEACON = 4
NS_CALSET = 5
NS_DOWNSAMPLE = 6
NS_JOB = 8
NS_GROUND_PLANE = 9
NS_REFINE_DRAWS = 10
# Retired; never reuse them, because a reused namespace would change seeded
# outputs: 1 and 2 named the ground-plane and refine streams of the one
# Generator call per draw that refine made before its draws became arrays,
# and 7 named a pixel-noise stream nothing drew from.


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *key: int) -> int:
    """Collapse a stream identity into a plain integer seed."""
    return int(substream(seed, *key).integers(0, 2**63 - 1))


def distinct_rows(rng: np.random.Generator, n: int, size: int, count: int) -> np.ndarray:
    """``count`` rows of ``size`` distinct indices in [0, n), uniform over
    ordered samples, drawn as ``size`` arrays.

    Column c comes from ``rng.integers(n - c, size=count)``; each value then
    steps over the row's earlier picks, taken in ascending order, which maps
    [0, n - c) one-to-one onto the indices not yet picked.
    """
    rows = np.empty((count, size), dtype=np.intp)
    for c in range(size):
        v = rng.integers(n - c, size=count)
        for taken in np.sort(rows[:, :c], axis=1).T:
            v += v >= taken
        rows[:, c] = v
    return rows
