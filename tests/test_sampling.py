import itertools
import math
from collections import Counter

import numpy as np
import pytest

from fpboot import Population, Sample, make_rng, srswor


def small_pop(n=10):
    return Population(np.linspace(0.5, 5.0, n), [i % 3 == 0 for i in range(n)])


class TestMakeRng:
    def test_same_key_same_stream(self):
        a = make_rng(42, 0).generator.random(1000)
        b = make_rng(42, 0).generator.random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(42, 0).generator.random(1000)
        b = make_rng(42, 1).generator.random(1000)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        # Monte Carlo check; tolerance well beyond 3 sigma = 3/sqrt(12e6)
        draws = make_rng(42, 7).generator.random(10**6)
        assert abs(draws.mean() - 0.5) < 0.002

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_key_range_validated(self, seed, stream):
        with pytest.raises(ValueError):
            make_rng(seed, stream)


# The first draws of each numpy call the streams depend on, under one fixed
# Philox key. numpy does not promise these across versions; a change shows
# here, by name, before it moves the golden report hashes.
NUMPY_DRAWS = {
    "choice-tail-shuffle": (
        lambda g: g.choice(6224, 6, replace=False, shuffle=False), [1393, 5637, 122, 2246, 3571, 4274]
    ),
    "choice-floyd": (
        lambda g: g.choice(100_000, 6, replace=False, shuffle=False), [22403, 90637, 1971, 36107, 57398, 68683]
    ),
    "multivariate-hypergeometric-masks": (
        lambda g: g.multivariate_hypergeometric(np.ones(8, dtype=np.int64), 3, size=2, method="count"),
        [[1, 0, 0, 1, 1, 0, 0, 0], [0, 1, 0, 0, 1, 1, 0, 0]],
    ),
    "multivariate-hypergeometric-copies": (
        lambda g: g.multivariate_hypergeometric(np.array([3, 3, 2, 2, 1]), 5, size=2, method="count"),
        [[1, 3, 0, 1, 0], [0, 1, 2, 2, 0]],
    ),
    "random": (lambda g: g.random(3), [0.9064099609907826, 0.3610786816616818, 0.6868371135960316]),
    "standard-normal": (
        lambda g: g.standard_normal(3), [0.33692092310762356, -1.3044888951283518, 0.7096492832271353]
    ),
    "integers-above-2**16": (
        lambda g: g.integers(0, 70_000, size=6), [15683, 63448, 1380, 25275, 40179, 48078]
    ),
    "random-raw": (
        lambda g: g.bit_generator.random_raw(3), [0xE80A7BB3395B2863, 0x5C6FA709050C4376, 0xAFD48E9C92F13671]
    ),
}


@pytest.mark.parametrize("call", sorted(NUMPY_DRAWS))
def test_numpy_draws_are_pinned(call):
    draw, expected = NUMPY_DRAWS[call]
    assert draw(make_rng(2018, 7).generator).tolist() == expected


class TestSrswor:
    def test_full_draw_is_permutation(self):
        pop = Population([1.0, 2.0, 3.0], [False, True, False])
        for stream in range(20):
            s = srswor(pop, 3, make_rng(9, stream))
            assert sorted(s.ncs.tolist()) == [1.0, 2.0, 3.0]
            assert sorted(s.indices.tolist()) == [0, 1, 2]

    def test_sample_invariants(self):
        pop = small_pop(10)
        s = srswor(pop, 4, make_rng(3, 1))
        assert s.n == 4
        assert s.f == 0.4
        assert len(set(s.indices.tolist())) == 4
        assert np.array_equal(pop.ncs[s.indices], s.ncs)

    def test_inclusion_probability(self):
        # each unit included with probability n/N = 0.4; 3 sigma binomial band
        pop = small_pop(10)
        K = 10**5
        counts = np.zeros(10)
        for r in range(K):
            s = srswor(pop, 4, make_rng(11, r))
            counts[s.indices] += 1
        freq = counts / K
        assert np.all(np.abs(freq - 0.4) < 0.005)

    def test_determinism(self):
        pop = small_pop(50)
        a = srswor(pop, 20, make_rng(5, 77))
        b = srswor(pop, 20, make_rng(5, 77))
        assert np.array_equal(a.indices, b.indices)

    def test_pairs_equally_likely(self):
        # every one of the C(5, 2) = 10 two-subsets of N = 5 is drawn, each
        # within 5 Monte Carlo standard deviations of K / 10 times
        pop = small_pop(5)
        rng = make_rng(21, 0)
        K, p = 20_000, 0.1
        counts = Counter(tuple(srswor(pop, 2, rng).indices.tolist()) for _ in range(K))
        assert sorted(counts) == list(itertools.combinations(range(5), 2))
        sd = math.sqrt(K * p * (1 - p))
        assert all(abs(c - K * p) <= 5 * sd for c in counts.values()), counts

    @pytest.mark.parametrize("n", [0, 11])
    def test_bad_size_rejected(self, n):
        with pytest.raises(ValueError):
            srswor(small_pop(10), n, make_rng(0, 0))


class TestDomainTypes:
    def test_population_validation(self):
        with pytest.raises(ValueError):
            Population([], [])
        with pytest.raises(ValueError):
            Population([-1.0], [False])
        with pytest.raises(ValueError):
            Population([np.nan], [False])
        with pytest.raises(ValueError):
            Population([1.0, 2.0], [False])

    def test_population_arrays_read_only(self):
        pop = small_pop()
        with pytest.raises(ValueError):
            pop.ncs[0] = 3.0

    def test_sample_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Sample([0, 0], [1.0, 1.0], [False, False], 5)

    @pytest.mark.parametrize("indices", [[3, 1, 3], [4, 0, 2, 0]])
    def test_sample_rejects_unsorted_duplicates(self, indices):
        k = len(indices)
        with pytest.raises(ValueError, match="distinct"):
            Sample(indices, [1.0] * k, [False] * k, 5)

    @pytest.mark.parametrize("indices", [[-1, 2], [4, 5], [3, 0, 7]])
    def test_sample_rejects_out_of_range(self, indices):
        k = len(indices)
        with pytest.raises(ValueError, match="out of population range"):
            Sample(indices, [1.0] * k, [False] * k, 5)

    def test_sample_rejects_oversize(self):
        with pytest.raises(ValueError):
            Sample([0, 1, 2], [1.0, 1.0, 1.0], [0, 0, 0], 2)
