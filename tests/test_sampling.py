import itertools
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from fpboot import (
    EstimatorKind,
    Population,
    Sample,
    StudyConfig,
    coverage_study,
    fpc,
    make_rng,
    mirror_match_bootstrap,
    mirror_match_plan,
    ppb_bootstrap,
    srswor,
    standard_bootstrap,
)


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

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (True, 0), (0, False)])
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
    @pytest.mark.parametrize(
        "ncs,top10,message",
        [
            ([], [], "at least one record"),
            ([-1.0], [False], "^each ncs value must be a finite number >= 0, got -1.0$"),
            ([np.nan], [False], "^each ncs value must be a finite number >= 0, got nan$"),
            ([1.0, np.nan, -3.0], [0, 0, 1], "^each ncs value must be a finite number >= 0, got nan$"),
            ([1.0, np.inf], [0, 1], "^each ncs value must be a finite number >= 0, got inf$"),
            (["1.5", "2"], [1, 0], "^each ncs value must be a finite number >= 0, got '1.5'$"),
            ([True, False], [1, 0], "^each ncs value must be a finite number >= 0, got True$"),
            ([1.0, 2.0], [False], "equal length"),
            ([[1.0, 2.0]], [[0, 1]], "1-d"),
        ],
    )
    def test_records_checked_as_outside_input(self, ncs, top10, message):
        with pytest.raises(ValueError, match=message):
            Population(ncs, top10)
        with pytest.raises(ValueError, match=message):
            Sample(list(range(len(ncs))), ncs, top10, 10)

    def test_population_arrays_read_only(self):
        pop = small_pop()
        with pytest.raises(ValueError):
            pop.ncs[0] = 3.0

    def test_pickled_population_round_trips_read_only(self):
        # the copy a pool worker unpickles is rebuilt by the constructor
        pop = small_pop(30)
        copy = pickle.loads(pickle.dumps(pop))
        assert type(copy) is Population
        for name in ("ncs", "top10"):
            arr, orig = getattr(copy, name), getattr(pop, name)
            assert arr.dtype == orig.dtype and np.array_equal(arr, orig)
            assert not arr.flags.writeable

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

    @pytest.mark.parametrize("indices", [[0, 1], [[0, 1, 2]]])
    def test_sample_indices_match_the_records(self, indices):
        with pytest.raises(ValueError, match="indices, ncs and top10 must be 1-d arrays of equal length"):
            Sample(indices, [1.0, 2.0, 3.0], [0, 0, 1], 10)

    @pytest.mark.parametrize(
        "indices", [[0.5, 1.7], [True, False], ["1", "0"], [2**70, 0]], ids=["float", "bool", "str", "2**70"]
    )
    def test_sample_indices_are_integers(self, indices):
        # floats were truncated ([0.5, 1.7] -> [0, 1]), bools and numeric
        # strings converted, and 2**70 raised OverflowError
        message = re.escape(f"sample indices must be integers, got dtype {np.array(indices).dtype}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sample(indices, [1.0, 2.0], [0, 0], 10)

    def test_sample_takes_any_integer_dtype(self):
        sample = Sample(np.array([3, 1], dtype=np.uint8), [1.0, 2.0], [0, 0], 10)
        assert sample.indices.dtype == np.int64 and sample.indices.tolist() == [3, 1]
        # uint64 up to the int64 maximum
        sample = Sample(np.array([2**63 - 1, 0], np.uint64), [1.0, 2.0], [0, 0], 2**64 - 1)
        assert sample.indices.tolist() == [2**63 - 1, 0]

    @pytest.mark.parametrize("index", [2**63, 2**64 - 1], ids=["2**63", "2**64-1"])
    def test_sample_indices_past_int64_rejected(self, index):
        # the int64 cast wrapped 2**63 to -2**63, reported as out of range
        message = re.escape(f"sample indices must fit in int64 (at most 2**63 - 1), got {index}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sample(np.array([index], np.uint64), [1.0], [0], 2**64 - 1)

    def test_sample_rejects_oversize(self):
        with pytest.raises(ValueError):
            Sample([0, 1, 2], [1.0, 1.0, 1.0], [0, 0, 0], 2)

    @pytest.mark.parametrize("size", [3.9, 3.0, True, -1, "5"])
    def test_sample_rejects_non_integer_population_size(self, size):
        # int(3.9) would make the sample a census of N = 3
        with pytest.raises(ValueError, match="population_size"):
            Sample([0, 1, 2], [1.0, 1.0, 1.0], [False] * 3, size)

    def test_sample_takes_numpy_population_size(self):
        assert Sample([0, 1], [1.0, 1.0], [False] * 2, np.int64(5)).population_size == 5

    @pytest.mark.parametrize("flags", [[0.5, 2, 0], [True, 2, False], ["no", "no", "no"], [np.nan, 0, 1]])
    def test_flags_must_be_bools_or_0_1(self, flags):
        with pytest.raises(ValueError, match="flags"):
            Population([1.0, 2.0, 3.0], flags)
        with pytest.raises(ValueError, match="flags"):
            Sample([0, 1, 2], [1.0, 2.0, 3.0], flags, 5)

    @pytest.mark.parametrize("flags", [[1, 0, 0], [1.0, 0.0, 0.0], np.array([1, 0, 0], np.uint8), [True, False, False]])
    def test_flags_equal_to_0_or_1_accepted(self, flags):
        pop = Population([1.0, 2.0, 3.0], flags)
        assert pop.top10.dtype == bool and pop.top10.tolist() == [True, False, False]

    def test_bool_flags_are_copied(self):
        flags = np.array([True, False])
        pop = Population([1.0, 2.0], flags)
        flags[1] = True
        assert pop.top10.tolist() == [True, False]


_POP = small_pop()
_SAMPLE = Sample(np.arange(5), np.linspace(1.0, 2.0, 5), [0, 0, 1, 0, 1], 10)
_SEEDS = "in [0, 2**64 - 1]"
# each public count argument: its call on a value and a stream, its name and its range
COUNT_CALLS = {
    "srswor.n": (lambda v, rng: srswor(_POP, v, rng), "n", "in [1, 10]"),
    "standard_bootstrap.B": (lambda v, rng: standard_bootstrap(_SAMPLE, v, EstimatorKind.MNCS, rng), "B", ">= 2"),
    "ppb_bootstrap.B": (lambda v, rng: ppb_bootstrap(_SAMPLE, 10, v, EstimatorKind.MNCS, rng), "B", ">= 2"),
    "mirror_match_bootstrap.B": (
        lambda v, rng: mirror_match_bootstrap(_SAMPLE, 10, v, EstimatorKind.MNCS, rng), "B", ">= 2",
    ),
    "coverage_study.workers": (
        lambda v, rng: coverage_study(StudyConfig("absent.csv", (5,), B=10, repetitions=2), workers=v),
        "workers", ">= 1",
    ),
    "make_rng.master_seed": (lambda v, rng: make_rng(v, 0), "master_seed", _SEEDS),
    "make_rng.stream_id": (lambda v, rng: make_rng(0, v), "stream_id", _SEEDS),
    "fpc.n": (lambda v, rng: fpc(v, 100), "n", "in [1, 100]"),
    "fpc.N": (lambda v, rng: fpc(10, v), "N", "in [2, 2**64 - 1]"),
    "mirror_match_plan.n": (lambda v, rng: mirror_match_plan(v, 100), "n", "in [2, 100]"),
    "mirror_match_plan.N": (lambda v, rng: mirror_match_plan(10, v), "N", "in [2, 2**64 - 1]"),
    "ppb_bootstrap.N": (lambda v, rng: ppb_bootstrap(_SAMPLE, v, 10, EstimatorKind.MNCS, rng), "N", "in [2, 2**64 - 1]"),
    "mirror_match_bootstrap.N": (
        lambda v, rng: mirror_match_bootstrap(_SAMPLE, v, 10, EstimatorKind.MNCS, rng), "N", "in [2, 2**64 - 1]",
    ),
    "Sample.population_size": (lambda v, rng: Sample([0, 1], [1.0, 1.0], [0, 0], v), "population_size", _SEEDS),
}


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call", list(COUNT_CALLS))
def test_counts_are_value_errors_that_name_the_argument(call, value):
    # not numpy's TypeError from inside a draw: one rule, before the stream moves
    run, name, span = COUNT_CALLS[call]
    rng = make_rng(15, 0)
    message = re.escape(f"{name} must be a whole number {span}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(value, rng)
    assert rng.generator.random() == make_rng(15, 0).generator.random()
