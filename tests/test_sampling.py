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
