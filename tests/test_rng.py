"""ipslabel.rng: seeded child streams and the distinct-index draws of RANSAC.

``distinct_rows`` gives the ground-plane triples, refine's samples and the
calibration's 6-point samples, so these tests pin it to its stated
construction (one ``Generator.integers`` array per column, mapped one-to-one
onto the indices not yet picked) and to uniformity over ordered samples.
"""

import numpy as np
import pytest

import ipslabel.rng as rng_module
from ipslabel.rng import derive_seed, distinct_rows, substream

SEEDS = [0, 1, 7, 2023]
RETIRED_NAMESPACES = {0, 1, 2, 7}


def reference_rows(seed: int, n: int, size: int, count: int):
    """Rows built from the same column draws by picking, for each draw v,
    the v-th smallest index not yet in the row; and the generator after."""
    gen = np.random.default_rng(seed)
    columns = [gen.integers(n - c, size=count) for c in range(size)]
    rows = []
    for r in range(count):
        free = np.ones(n, dtype=bool)
        picked = []
        for c in range(size):
            picked.append(int(np.flatnonzero(free)[columns[c][r]]))
            free[picked[-1]] = False
        rows.append(picked)
    return rows, gen


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n, s", [(n, s) for n in (2, 3, 4, 300, 10001, 20000) for s in (1, 2, 3) if s <= n]
)
def test_distinct_rows_is_columnwise_generator_integers(seed, n, s):
    count = 100
    gen = np.random.default_rng(seed)
    rows = distinct_rows(gen, n, s, count)
    assert rows.shape == (count, s)
    assert rows.min() >= 0 and rows.max() < n
    assert all(len(set(row)) == s for row in rows.tolist())
    want, used = reference_rows(seed, n, s, count)
    assert rows.tolist() == want
    # it reads exactly the words of its column draws, so later draws of the
    # same stream (the ground-plane fit's scoring subset) do not shift
    assert gen.bit_generator.state == used.bit_generator.state


@pytest.mark.parametrize("n, s", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3)])
def test_distinct_rows_is_uniform_over_ordered_samples(n, s):
    count = 60_000
    rows = distinct_rows(np.random.default_rng(n * 10 + s), n, s, count)
    samples, counts = np.unique(rows, axis=0, return_counts=True)
    ordered = int(np.prod(np.arange(n - s + 1, n + 1)))  # n! / (n - s)!
    assert len(samples) == ordered
    # each count is Binomial(count, 1 / ordered); allow five standard deviations
    mean = count / ordered
    sd = np.sqrt(count * (1 / ordered) * (1 - 1 / ordered))
    assert mean - 5 * sd <= counts.min() and counts.max() <= mean + 5 * sd


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_does_not_depend_on_draw_order(seed):
    first = substream(seed, 3, 1).integers(0, 2**32, size=8)
    second = substream(seed, 3, 2).integers(0, 2**32, size=8)
    again_second = substream(seed, 3, 2).integers(0, 2**32, size=8)
    again_first = substream(seed, 3, 1).integers(0, 2**32, size=8)
    np.testing.assert_array_equal(first, again_first)
    np.testing.assert_array_equal(second, again_second)
    assert not np.array_equal(first, second)


@pytest.mark.parametrize("seed", SEEDS)
def test_derive_seed_is_a_stable_nonnegative_int(seed):
    value = derive_seed(seed, 8, 5)
    assert isinstance(value, int)
    assert 0 <= value < 2**63 - 1
    assert value == derive_seed(seed, 8, 5)
    assert value == int(substream(seed, 8, 5).integers(0, 2**63 - 1))
    assert value != derive_seed(seed, 8, 6)


def test_different_keys_give_different_streams():
    keys = [(7, 1), (7, 1, 0), (7, 0, 1), (8, 1), (7, 10), (7, 9)]
    firsts = {tuple(substream(*key).integers(0, 2**32, size=4).tolist()) for key in keys}
    assert len(firsts) == len(keys)


def test_namespaces_are_distinct_and_retired_ones_unused():
    namespaces = {
        name: value for name, value in vars(rng_module).items() if name.startswith("NS_")
    }
    assert len(set(namespaces.values())) == len(namespaces)
    assert not RETIRED_NAMESPACES & set(namespaces.values())
