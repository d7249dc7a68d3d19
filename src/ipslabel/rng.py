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


# numpy's Generator makes ``integers(r + 1)`` (0 < r < 2**32) and each draw of
# ``choice(n, s, replace=False)`` (s <= 3) from one 32-bit word of its bit
# generator, by Lemire's bounded method (Lemire, "Fast Random Integer
# Generation in an Interval", ACM TOMACS 2019), redrawing from the next word
# when the draw would be biased. A bound of 0 reads no word. ``choice`` is
# Floyd's sampler (Bentley & Floyd, "A Sample of Brilliance", CACM 1987)
# followed by a shuffle. The functions below rebuild those draws from the
# words, so a long run of them can be computed as arrays; tests/test_rng.py
# pins them to numpy's own draws.
_WORD = 2**32


class WordStream:
    """A generator's 32-bit words, read ahead into ``words``; ``pos`` is the next unread."""

    def __init__(self, rng: np.random.Generator, ahead: int):
        self._rng = rng
        self._ahead = int(ahead)
        self.words = np.empty(0, dtype=np.uint64)
        self.pos = 0

    def have(self, count: int) -> np.ndarray:
        """``words``, extended so that at least ``count`` lie past ``pos``."""
        short = self.pos + count - len(self.words)
        if short > 0:
            more = self._rng.integers(0, _WORD, size=max(short, self._ahead), dtype=np.uint64)
            self.words = np.concatenate([self.words, more])
        return self.words

    def integer(self, r: int) -> int:
        """``Generator.integers(r + 1)`` from the words at ``pos``: a value in [0, r]."""
        if r == 0:
            return 0
        threshold = (_WORD - 1 - r) % (r + 1)
        while True:
            m = int(self.have(1)[self.pos]) * (r + 1)
            self.pos += 1
            if m % _WORD >= threshold:
                return m // _WORD

    def choice(self, n: int, s: int) -> list[int]:
        """``Generator.choice(n, size=s, replace=False)`` from the words at ``pos``."""
        out = []
        for j in range(n - s, n):
            v = self.integer(j)
            out.append(j if v in out else v)
        for i in range(s - 1, 0, -1):
            t = self.integer(i)
            out[t], out[i] = out[i], out[t]
        return out


def choice_bounds(n: int, s: int) -> np.ndarray:
    """The bounds r of the 2s - 1 draws of ``choice(n, s, replace=False)``:
    Floyd's n - s ... n - 1, then the shuffle's s - 1 ... 1."""
    return np.array([*range(n - s, n), *range(s - 1, 0, -1)], dtype=np.uint64)


def lemire(words: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """Values in [0, r] that the bounded draws take from ``words`` (uint64),
    and where a draw might instead be redrawn from the next word.

    ``r`` broadcasts against ``words`` and is a uint64 array or an int.
    A bound of 0 gives 0 and is never redrawn; such a draw reads no word,
    which the caller accounts for.
    """
    m = words * (np.asarray(r, dtype=np.uint64) + np.uint64(1))
    low = m & np.uint64(_WORD - 1)
    return (m >> np.uint64(32)).astype(np.intp), (low <= r) & (r > 0)


def choice_rows(values: np.ndarray, n: int, s: int) -> np.ndarray:
    """Rows of ``choice(n, s, replace=False)`` from their draws' values.

    ``values`` is (B, 2s - 1), the values of the draws whose bounds
    ``choice_bounds(n, s)`` gives, as ``lemire`` computes them.
    """
    out = np.empty((len(values), s), dtype=np.intp)
    for c in range(s):
        v = values[:, c]
        taken = (out[:, :c] == v[:, None]).any(axis=1)
        out[:, c] = np.where(taken, n - s + c, v)
    rows = np.arange(len(values))
    for c, i in enumerate(range(s - 1, 0, -1), start=s):
        t = values[:, c]
        swapped = out[rows, t]
        out[rows, t] = out[:, i]
        out[:, i] = swapped
    return out
