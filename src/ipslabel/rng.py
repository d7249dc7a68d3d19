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
NS_PLANE_RANSAC = 1
NS_REFINE = 2
NS_POSE = 3
NS_BEACON = 4
NS_CALSET = 5
NS_DOWNSAMPLE = 6
# 7 is retired (it named a pixel-noise stream nothing drew from). Do not
# reuse it: reusing a namespace changes seeded outputs.
NS_JOB = 8


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *key: int) -> int:
    """Collapse a stream identity into a plain integer seed."""
    return int(substream(seed, *key).integers(0, 2**63 - 1))
