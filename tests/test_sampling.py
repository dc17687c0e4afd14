import numpy as np
import pytest

from fpboot import Population, Sample, make_rng, srswor
from fpboot.sampling import _partial_permutation


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

    @pytest.mark.parametrize("n_take,pool", [(1, 1), (7, 7), (50, 1000), (300, 301)])
    def test_partial_permutation_matches_dense_shuffle(self, n_take, pool):
        # the sparse shuffle picks what swaps on a full range(pool) pick
        for stream in range(10):
            picked = _partial_permutation(make_rng(21, stream).generator, n_take, pool)
            js = make_rng(21, stream).generator.integers(np.arange(n_take, dtype=np.int64), pool)
            perm = np.arange(pool)
            for i, j in enumerate(js):
                perm[[i, j]] = perm[[j, i]]
            assert picked.dtype == np.int64
            assert np.array_equal(picked, perm[:n_take])

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
