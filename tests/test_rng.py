"""ipslabel.rng rebuilds numpy Generator draws from the raw 32-bit words.

refine's RANSAC draws are computed from these rebuilt algorithms, so these
tests pin them to numpy's own ``Generator.integers`` and ``Generator.choice``.
"""

import numpy as np
import pytest

from ipslabel.rng import WordStream, choice_bounds, choice_rows, lemire

SEEDS = [0, 1, 7, 2023]


def changed(what: str) -> str:
    return (
        f"Generator.{what} no longer draws what ipslabel.rng rebuilds: a numpy "
        "upgrade changed Generator's algorithm, and refine's draws must follow it"
    )


def consumed_words(seed: int, count: int, used: np.random.Generator) -> bool:
    """Whether ``used`` read exactly ``count`` words of the stream of ``seed``."""
    fresh = np.random.default_rng(seed)
    fresh.integers(0, 2**32, size=count, dtype=np.uint64)
    return fresh.bit_generator.state == used.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("r", [1, 2, 3, 299, 2**20 + 7, 2**31, 2**31 + 1, 2**32 - 2])
def test_integer_is_generator_integers(seed, r):
    numpy_rng = np.random.default_rng(seed)
    want = [int(numpy_rng.integers(r + 1)) for _ in range(200)]
    words = WordStream(np.random.default_rng(seed), ahead=64)
    got = [words.integer(r) for _ in range(200)]
    assert got == want, changed(f"integers({r} + 1)")
    assert consumed_words(seed, words.pos, numpy_rng), changed(f"integers({r} + 1)")
    if r in (2**31, 2**31 + 1):  # about half of the words are redrawn
        assert words.pos > 300


def test_a_bound_of_zero_reads_no_word():
    numpy_rng = np.random.default_rng(3)
    assert numpy_rng.integers(1) == 0
    assert consumed_words(3, 0, numpy_rng), changed("integers(1)")
    words = WordStream(np.random.default_rng(3), ahead=8)
    assert words.integer(0) == 0 and words.pos == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n, s", [(n, s) for n in (2, 3, 4, 300, 10001, 20000) for s in (2, 3) if s <= n]
)
def test_choice_is_generator_choice(seed, n, s):
    numpy_rng = np.random.default_rng(seed)
    want = [numpy_rng.choice(n, size=s, replace=False).tolist() for _ in range(100)]
    words = WordStream(np.random.default_rng(seed), ahead=64)
    got = [words.choice(n, s) for _ in range(100)]
    assert got == want, changed(f"choice({n}, {s}, replace=False)")
    assert consumed_words(seed, words.pos, numpy_rng), changed(f"choice({n}, {s}, replace=False)")

    # the same draws as arrays: one row per choice, one column per draw
    bounds = choice_bounds(n, s)
    reads = bounds > 0
    raw = np.random.default_rng(seed).integers(0, 2**32, size=(100, reads.sum()), dtype=np.uint64)
    columns = np.zeros((100, len(bounds)), dtype=np.uint64)
    columns[:, reads] = raw
    values, maybe = lemire(columns, bounds)
    assert not maybe.any()  # no word of these seeds is redrawn
    assert choice_rows(values, n, s).tolist() == want, changed(f"choice({n}, {s}, replace=False)")


@pytest.mark.parametrize("r", [1, 2, 299, 2**31 + 1, 2**32 - 2])
def test_lemire_flags_every_redraw_and_matches_the_rest(r):
    raw = np.random.default_rng(r).integers(0, 2**32, size=4000, dtype=np.uint64)
    values, maybe = lemire(raw, r)
    threshold = (2**32 - 1 - r) % (r + 1)
    for word, value, flagged in zip(raw.tolist(), values.tolist(), maybe.tolist()):
        m = word * (r + 1)
        if m % 2**32 < threshold:
            assert flagged
        elif not flagged:
            assert value == m // 2**32
