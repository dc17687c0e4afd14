import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpboot import (
    BootstrapReplicates,
    EstimatorKind,
    Method,
    MirrorMatchPlan,
    Sample,
    SynthSpec,
    bootstrap_variance,
    corrected_variance,
    estimate,
    fpc,
    make_rng,
    mirror_match_bootstrap,
    mirror_match_plan,
    ppb_bootstrap,
    sample_variance,
    srswor,
    standard_bootstrap,
    synth_population,
    unit_values,
)
from fpboot.resampling import (
    _mirror_counts,
    _pseudo_population,
    _reduce,
    _workspace,
)
from fpboot.study import SYNTH_STREAM_ID


def lognormal_sample(n, N, seed=0):
    # fixture sample: skewed positive scores, deterministic
    gen = np.random.default_rng(seed)
    ncs = gen.lognormal(mean=0.0, sigma=1.0, size=n)
    flags = gen.random(n) < 0.12
    return Sample(np.arange(n), ncs, flags, N)


def constant_sample(n, N, value=2.5):
    return Sample(np.arange(n), np.full(n, value), np.zeros(n, bool), N)


def assert_mean_counts(counts, expected):
    # each unit's mean count within 5 Monte Carlo standard errors
    mean = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / math.sqrt(counts.shape[0])
    assert np.all(np.abs(mean - expected) <= 5 * se)


class TestFpc:
    def test_worked_example(self):
        factors = fpc(100, 6224)
        assert factors.one_minus_f == pytest.approx(0.983933, abs=1e-6)
        assert factors.bias_adjusted == pytest.approx(0.984091, abs=1e-6)

    def test_census(self):
        factors = fpc(500, 500)
        assert factors.one_minus_f == 0.0
        assert factors.bias_adjusted == 0.0

    def test_single_unit(self):
        assert fpc(1, 873).bias_adjusted == 1.0

    @pytest.mark.parametrize("n,N", [(5, 4), (0, 4), (1, 1), (2.5, 10), (True, 10), (3, 10.0), (3, 10.5)])
    def test_invalid_rejected(self, n, N):
        with pytest.raises(ValueError):
            fpc(n, N)

    @given(st.integers(2, 10_000))
    @settings(max_examples=60)
    def test_factor_ratio(self, N):
        n = max(1, N // 3)
        if n == N:
            return
        factors = fpc(n, N)
        assert factors.bias_adjusted / factors.one_minus_f == pytest.approx(N / (N - 1), rel=1e-12)

    def test_corrected_variance_machine_exact(self):
        gen = np.random.default_rng(42)
        for _ in range(100):
            v = float(gen.random() * 10)
            n, N = 137, 6224
            assert corrected_variance(v, n, N) == fpc(n, N).bias_adjusted * v

    @pytest.mark.parametrize("v_star", [-1.0, math.nan, math.inf, True], ids=repr)
    def test_corrected_variance_rejects_non_variances(self, v_star):
        with pytest.raises(ValueError, match=f"^v_star must be a finite number >= 0, got {v_star!r}$"):
            corrected_variance(v_star, 10, 100)


class TestBootstrapVariance:
    def test_textbook(self):
        reps = BootstrapReplicates(np.array([1.0, 2.0, 3.0]))
        assert bootstrap_variance(reps) == 1.0

    def test_constant_is_exact_zero(self):
        reps = BootstrapReplicates(np.full(5, 1.7))
        assert bootstrap_variance(reps) == 0.0

    def test_hand_computed(self):
        reps = BootstrapReplicates(np.array([0.0, 0.0, 0.0, 4.0]))
        assert bootstrap_variance(reps) == 4.0

    def test_B_is_the_number_of_estimates(self):
        assert [f.name for f in fields(BootstrapReplicates)] == ["estimates", "t_variances"]
        reps = BootstrapReplicates(np.arange(5.0))
        assert reps.B == 5 and reps.t_variances is None

    def test_equality_is_identity(self):
        # == used to compare the arrays as a truth value and raise
        a, b = BootstrapReplicates(np.arange(3.0)), BootstrapReplicates(np.arange(3.0))
        assert a == a
        assert a != b and not a == b
        assert np.array_equal(a.estimates, b.estimates)

    @pytest.mark.parametrize("estimates", [[1.0], [], 2.0], ids=["one", "none", "scalar"])
    def test_needs_two(self, estimates):
        # one replicate used to build, then fail in each consumer
        message = re.escape(f"estimates must be a 1-d array of at least two values, got shape {np.shape(estimates)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            BootstrapReplicates(estimates)

    def test_replicates_validated(self):
        with pytest.raises(ValueError, match=r"^t_variances must be a 1-d array of 2 values, got shape \(3,\)$"):
            BootstrapReplicates(np.array([1.0, 2.0]), np.ones(3))
        with pytest.raises(ValueError, match="^each t_variance must be a finite number >= 0, got -0.1$"):
            BootstrapReplicates(np.array([1.0, 2.0]), np.array([0.1, -0.1]))

    @pytest.mark.parametrize("name", ["estimates", "t_variances"])
    def test_replicates_are_1d(self, name):
        # a 2-d array of B values used to build, then fail or flatten downstream
        arrays = {"estimates": np.arange(6.0), "t_variances": np.ones(6), name: np.ones((2, 3))}
        rule = "of at least two values" if name == "estimates" else "of 6 values"
        message = re.escape(f"{name} must be a 1-d array {rule}, got shape (2, 3)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            BootstrapReplicates(arrays["estimates"], arrays["t_variances"])


class TestVarianceAgainstBruteForce:
    # Each engine's bootstrap variance against an independent plain-Python
    # resampler of the same design on the same sample: the reference
    # implementations of the three designs.
    def test_standard(self):
        s = lognormal_sample(60, 10_000, seed=5)
        values = s.ncs.tolist()
        prng = random.Random(987)
        means = []
        for _ in range(20_000):
            total = 0.0
            for _ in range(60):
                total += values[prng.randrange(60)]
            means.append(total / 60)
        mu = sum(means) / len(means)
        oracle = sum((m - mu) ** 2 for m in means) / (len(means) - 1)
        reps = standard_bootstrap(s, 20_000, EstimatorKind.MNCS, make_rng(8, 1))
        assert bootstrap_variance(reps) == pytest.approx(oracle, rel=0.08)

    def test_ppb(self):
        # SRSWOR redraws from the engine's one pseudo-population, whose
        # completion is the first draw of its stream
        s = lognormal_sample(24, 60, seed=13)
        copies = _pseudo_population(make_rng(3, 3).generator, 24, 60)
        pseudo = np.repeat(s.ncs, copies).tolist()
        prng = random.Random(4321)
        means = []
        for _ in range(20_000):
            resample = prng.sample(pseudo, 24)
            means.append(sum(resample) / 24)
        mu = sum(means) / len(means)
        oracle = sum((m - mu) ** 2 for m in means) / (len(means) - 1)
        reps = ppb_bootstrap(s, 60, 20_000, EstimatorKind.MNCS, make_rng(3, 3))
        assert bootstrap_variance(reps) == pytest.approx(oracle, rel=0.10)

    def test_mirror_match(self):
        s = lognormal_sample(30, 60, seed=19)
        values = s.ncs.tolist()
        prng = random.Random(7654)
        means = []  # k = 2 subsamples of n' = 15, concatenated
        for _ in range(20_000):
            resample = prng.sample(values, 15) + prng.sample(values, 15)
            means.append(sum(resample) / 30)
        mu = sum(means) / len(means)
        oracle = sum((m - mu) ** 2 for m in means) / (len(means) - 1)
        reps = mirror_match_bootstrap(s, 60, 20_000, EstimatorKind.MNCS, make_rng(6, 3))
        assert bootstrap_variance(reps) == pytest.approx(oracle, rel=0.10)


def mirror_target(n, N, n_prime):
    """f' = n'/n and the k target max(1, (n - n') N / (n' (N - n))), in exact rationals; 1 at the census."""
    den = n_prime * (N - n)
    return Fraction(n_prime, n), max(Fraction(1), Fraction((n - n_prime) * N, den)) if den else Fraction(1)


class TestMirrorMatchPlan:
    def test_plan_is_its_four_numbers(self):
        assert [f.name for f in fields(MirrorMatchPlan)] == ["n_prime", "k_low", "k_high", "p_high"]

    def test_half_fraction(self):
        plan = mirror_match_plan(100, 200)
        f_prime, k_target = mirror_target(100, 200, plan.n_prime)
        assert plan.n_prime == 50
        assert f_prime == Fraction(1, 2)
        assert k_target == 2
        assert plan.k_low == plan.k_high == 2
        assert plan.p_high == 0.0

    def test_small_fraction(self):
        # n' = round(f * n) = 2; k = 100 * 0.98 / (2 * (1 - 100/6224))
        plan = mirror_match_plan(100, 6224)
        assert plan.n_prime == 2
        assert float(mirror_target(100, 6224, plan.n_prime)[1]) == pytest.approx(49.800, abs=1e-3)
        assert (plan.k_low, plan.k_high) == (49, 50)

    def test_census(self):
        plan = mirror_match_plan(64, 64)
        assert plan.n_prime == 64
        assert plan.k_low == plan.k_high == 1
        assert mirror_target(64, 64, plan.n_prime)[1] == 1

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            mirror_match_plan(10, 9)

    @pytest.mark.parametrize("n,N", [(3, 10.5), (3, 10.0), (2.5, 10), (True, 10), (3, np.float64(10))])
    def test_non_integer_sizes_rejected(self, n, N):
        # (3, 10.5) used to plan in floats, with k_low = 2.0
        if isinstance(N, float):
            message = f"N must be a whole number in [2, 2**64 - 1], got {N!r}"
        else:
            message = f"n must be a whole number in [2, 10], got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mirror_match_plan(n, N)

    def test_numpy_integer_sizes_accepted(self):
        assert mirror_match_plan(np.int64(100), np.int64(6224)) == mirror_match_plan(100, 6224)

    @pytest.mark.parametrize("n,N", [(1, 1), (2, 1), (1, 0), (3, -5), (3, 2**64)])
    def test_population_size_is_checked_before_n(self, n, N):
        # no n fits a population of fewer than two records: N is at fault
        message = re.escape(f"N must be a whole number in [2, 2**64 - 1], got {N!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            mirror_match_plan(n, N)

    @pytest.mark.parametrize(
        "n,N,n_prime,k",
        [
            (60, 300, 12, 5),  # target (48 * 300) / (12 * 240) = 5 exactly
            (3333, 9999, 1111, 3),  # target (2222 * 9999) / (1111 * 6666) = 3 exactly
        ],
    )
    def test_whole_target_fixes_k(self, n, N, n_prime, k):
        plan = mirror_match_plan(n, N)
        assert plan.n_prime == n_prime
        assert plan.k_low == plan.k_high == k
        assert mirror_target(n, N, plan.n_prime)[1] == k
        assert plan.p_high == 0.0

    def test_n_prime_rounds_half_up(self):
        # n**2 / N = 122.5
        plan = mirror_match_plan(350, 1000)
        assert plan.n_prime == 123
        assert (plan.k_low, plan.k_high) == (2, 3)

    def test_plans_match_exact_rationals(self):
        # every 2 <= n < N <= 300 against rational arithmetic: n' is
        # n**2 / N rounded half up, and k is randomized exactly when the
        # target (n - n') * N / (n' * (N - n)) is above 1 and not whole,
        # that is when n' * (N - n) does not divide (n - n') * N
        half = Fraction(1, 2)
        for N in range(2, 301):
            for n in range(2, N):
                plan = mirror_match_plan(n, N)
                n_prime = max(1, math.floor(Fraction(n * n, N) + half))
                num, den = (n - n_prime) * N, n_prime * (N - n)
                target = Fraction(num, den)
                assert plan.n_prime == n_prime, (n, N)
                assert plan.k_low == max(1, math.floor(target)), (n, N)
                assert plan.k_high == max(1, math.ceil(target)), (n, N)
                assert (plan.k_low == plan.k_high) == (num % den == 0 or num < den), (n, N)
                assert mirror_target(n, N, plan.n_prime)[1] == max(1, target), (n, N)
                if plan.k_high > plan.k_low:
                    # E[1/k] = 1/target exactly, rounded once
                    lo, hi = Fraction(1, plan.k_low), Fraction(1, plan.k_high)
                    assert plan.p_high == float((lo - 1 / target) / (lo - hi)), (n, N)
                else:
                    assert plan.p_high == 0.0, (n, N)

    def test_whole_sample_subsample_only_at_census(self):
        # n' = n needs N >= 2n(N - n), which fails for every 2 <= n < N, so
        # the engines' census path (n = N) is the only n' = n case
        for N in range(2, 61):
            for n in range(2, N + 1):
                assert (mirror_match_plan(n, N).n_prime == n) == (n == N), (n, N)

    @given(st.integers(2, 800), st.integers(0, 4000))
    @example(n=145, extra=9)  # rounding makes f' > f: the raw target is 0.99919
    @example(n=5, extra=2)
    @settings(max_examples=120)
    def test_plan_invariants(self, n, extra):
        N = n + extra
        plan = mirror_match_plan(n, N)
        k_target = mirror_target(n, N, plan.n_prime)[1]
        assert 1 <= plan.n_prime <= n
        assert plan.k_low <= k_target <= plan.k_high
        assert 0.0 <= plan.p_high <= 1.0
        inverse_mean = plan.p_high / plan.k_high + (1 - plan.p_high) / plan.k_low
        assert inverse_mean == pytest.approx(1 / float(k_target), rel=1e-9)


class TestCountKernels:
    @pytest.mark.parametrize("n,N", [(7, 24), (10, 40), (30, 45)])
    def test_ppb_counts(self, n, N):
        # copies per unit in 4000 pseudo-populations: k or k + 1, N in all,
        # and a uniform completion gives each unit N/n copies on average
        k = N // n
        gen = make_rng(5, 0).generator
        copies = np.array([_pseudo_population(gen, n, N) for _ in range(4000)])
        assert np.all(copies.sum(axis=1) == N)
        assert copies.min() >= k and copies.max() <= k + 1
        assert_mean_counts(copies, N / n)

    def test_ppb_counts_fixed_completion(self):
        # every replicate of a run is an SRSWOR draw from the one
        # pseudo-population completed by the first draw of the stream
        n, N, B = 7, 24, 400
        s = lognormal_sample(n, N, seed=2)
        gen = make_rng(5, 1).generator
        copies = _pseudo_population(gen, n, N)
        counts = gen.multivariate_hypergeometric(copies, n, size=B, method="count")
        assert np.all(counts.sum(axis=1) == n)
        assert np.all(counts <= copies)
        assert_mean_counts(counts, n * copies / N)
        reps = ppb_bootstrap(s, N, B, EstimatorKind.MNCS, make_rng(5, 1))
        expected = [np.repeat(s.ncs, row).mean() for row in counts]
        assert reps.estimates == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,N", [(30, 200), (24, 60), (10, 13)])
    def test_mirror_counts(self, n, N):
        plan = mirror_match_plan(n, N)
        counts, kb = _mirror_counts(make_rng(5, 2).generator, 4000, n, plan)
        assert np.all((kb == plan.k_low) | (kb == plan.k_high))
        assert np.all(counts.sum(axis=1) == kb * plan.n_prime)
        assert counts.min() >= 0 and np.all(counts <= kb[:, None])
        mean_k = plan.p_high * plan.k_high + (1 - plan.p_high) * plan.k_low
        assert_mean_counts(counts, mean_k * plan.n_prime / n)

    def test_reduction_matches_expanded_resamples(self):
        # reference: expand each block row into its resample, then mean and
        # variance, for each kind reduced from the same block: standard
        # index blocks into the flagged-first units, ppb count rows, and
        # mirror-match count rows of two sizes
        for method in (Method.STANDARD, Method.PPB, Method.MIRROR_MATCH):
            self.check_reduction(method)

    def check_reduction(self, method):
        n, N, B = 12, 60, 300
        s = lognormal_sample(n, N, seed=31)
        gen = make_rng(5, 3).generator
        order = np.argsort(~s.top10, kind="stable")
        if method is Method.STANDARD:
            block, m, sizes, one_minus_f = reference_indices(gen, B, n), n, (n, n), 1.0
            resamples = [order[row] for row in block]
        elif method is Method.PPB:
            copies = _pseudo_population(gen, n, N)
            block = gen.multivariate_hypergeometric(copies, n, size=B, method="count")
            m, sizes, one_minus_f = n, (n, n), 1 - n / N
            resamples = [np.repeat(np.arange(n), row) for row in block]
        else:
            plan = mirror_match_plan(n, N)
            block, kb = _mirror_counts(gen, B, n, plan)
            m, one_minus_f = kb * plan.n_prime, 1 - n / N
            sizes = (plan.k_low * plan.n_prime, plan.k_high * plan.n_prime)
            assert sizes[0] < sizes[1] and 0 < (kb == plan.k_high).sum() < B
            resamples = [np.repeat(np.arange(n), row) for row in block]
        kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
        fraction = (1, 1) if method is Method.STANDARD else (N - n, N)
        reps = _reduce(kinds, method, s, B, lambda rows: (block, m), sizes, fraction, True)
        assert len(reps) == 2
        for kind, r in zip(kinds, reps):
            v = unit_values(kind, s)
            for b, units in enumerate(resamples):
                assert r.estimates[b] == pytest.approx(v[units].mean(), rel=1e-12, abs=1e-12)
                t_var = v[units].var(ddof=1) * one_minus_f * (n - 1) / n**2
                assert r.t_variances[b] == pytest.approx(t_var, rel=1e-9, abs=1e-9)


ENGINES = {
    "standard": lambda s, N, B, kind, rng, t: standard_bootstrap(s, B, kind, rng, with_t_variances=t),
    "ppb": lambda s, N, B, kind, rng, t: ppb_bootstrap(s, N, B, kind, rng, with_t_variances=t),
    "mirror": lambda s, N, B, kind, rng, t: mirror_match_bootstrap(s, N, B, kind, rng, with_t_variances=t),
}


class TestSharedRun:
    # One call for both estimators equals two single-kind calls on copies of
    # the same stream, bit for bit, and leaves the stream where each of them
    # does. N = 203 leaves a pseudo-population remainder and randomizes
    # mirror-match's k; N = n is both engines' census.
    # B = 700 spans two blocks.
    @pytest.mark.parametrize("with_t", [False, True])
    @pytest.mark.parametrize("N", [203, 40])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_pair_equals_single_calls(self, engine, N, with_t):
        run = ENGINES[engine]
        s = lognormal_sample(40, N, seed=37)
        kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
        rng = make_rng(13, 5)
        pair = run(s, N, 700, kinds, rng, with_t)
        next_draw = rng.generator.random()
        assert isinstance(pair, tuple) and len(pair) == 2
        for kind, reps in zip(kinds, pair):
            single_rng = make_rng(13, 5)
            single = run(s, N, 700, kind, single_rng, with_t)
            assert isinstance(single, BootstrapReplicates)
            assert np.array_equal(reps.estimates, single.estimates)
            if with_t:
                assert np.array_equal(reps.t_variances, single.t_variances)
            else:
                assert reps.t_variances is None and single.t_variances is None
            assert single_rng.generator.random() == next_draw


class TestExactReplicates:
    # ppb and mirror replicates are reduced from unit counts, the standard
    # engine's from resampled values; both must land on the same bits where
    # the exact answer is the same.
    @pytest.mark.parametrize("engine,N", [(ppb_bootstrap, 640), (mirror_match_bootstrap, 600)])
    def test_integer_values_tie_exactly(self, engine, N):
        # PP(top 10%) units are 0 or 100, so every replicate sum is exact. A
        # replicate with the sample's flagged share must equal the estimate
        # bit for bit (BCa does not count ties as below), and one with no
        # flagged unit must be 0 with zero variance (bootstrap-t drops it).
        # The estimate 2/3 has no exact binary form.
        n = 300
        flags = np.zeros(n, dtype=bool)
        flags[:2] = True
        s = Sample(np.arange(n), np.ones(n), flags, N)
        theta_hat = estimate(EstimatorKind.PP_TOP10, s)
        reps = engine(s, N, 2000, EstimatorKind.PP_TOP10, make_rng(12, 0), with_t_variances=True)
        tied = np.abs(reps.estimates - theta_hat) < 1e-9
        empty = np.abs(reps.estimates) < 1e-9
        assert tied.sum() > 100 and empty.sum() > 10
        assert np.all(reps.estimates[tied] == theta_hat)
        assert np.all(reps.estimates[empty] == 0.0)
        assert np.all(reps.t_variances[empty] == 0.0)

    @pytest.mark.parametrize("engine", [ppb_bootstrap, mirror_match_bootstrap, standard_bootstrap])
    def test_constant_sample_is_exact(self, engine):
        # 0.1 has no exact binary form and its sample mean is off by an ulp;
        # N = 60 randomizes mirror-match's k, so row sums differ. The
        # standard engine's replicates come from the same centred sums.
        s = constant_sample(37, 60, value=0.1)
        args = (600,) if engine is standard_bootstrap else (60, 600)
        reps = engine(s, *args, EstimatorKind.MNCS, make_rng(12, 1), with_t_variances=True)
        assert np.all(reps.estimates == 0.1)
        assert np.all(reps.t_variances == 0.0)


class TestVarianceGrid:
    # FPC contract Var* ~= (1 - f) s^2 / n over a grid of f, and the standard
    # engine's (n - 1) s^2 / n^2 at every f. N = n/f + 7 leaves a
    # pseudo-population remainder and a randomized mirror-match k.
    @pytest.mark.parametrize("f", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("engine", [ppb_bootstrap, mirror_match_bootstrap, standard_bootstrap])
    def test_variance_ratio(self, engine, f):
        n, B = 200, 20_000
        N = round(n / f) + 7
        s = lognormal_sample(n, N, seed=29)
        if engine is standard_bootstrap:
            reps = engine(s, B, EstimatorKind.MNCS, make_rng(10, 0))
            target = (n - 1) * sample_variance(s.ncs) / n**2
        else:
            reps = engine(s, N, B, EstimatorKind.MNCS, make_rng(10, 0))
            target = (1 - n / N) * sample_variance(s.ncs) / n
        v = bootstrap_variance(reps)
        # relative Monte Carlo standard error of a B-replicate variance: the
        # spread of the squared deviations, at least sqrt(2 / (B - 1))
        dev2 = (reps.estimates - reps.estimates.mean()) ** 2
        se = max(np.std(dev2, ddof=1) / math.sqrt(B) / v, math.sqrt(2 / (B - 1)))
        assert abs(v / target - 1) <= 5 * se


class TestLargeFractionVariance:
    # FPC contract at large f, where a redrawn pseudo-population remainder or
    # a mirror-match k randomized for E[k] instead of E[1/k] shows. One
    # pseudo-population moves a single call's ratio by about 10% on this
    # skewed sample, so the ratio is averaged over M independent streams and
    # judged against the standard error of that average.
    @pytest.mark.parametrize("f", [0.64, 0.8, 0.96])
    @pytest.mark.parametrize("engine", [ppb_bootstrap, mirror_match_bootstrap])
    def test_variance_ratio(self, engine, f):
        n, B, M = 200, 2000, 50
        N = round(n / f)
        s = lognormal_sample(n, N, seed=29)
        target = (1 - n / N) * sample_variance(s.ncs) / n
        ratios = np.array(
            [bootstrap_variance(engine(s, N, B, EstimatorKind.MNCS, make_rng(11, m))) / target for m in range(M)]
        )
        se = ratios.std(ddof=1) / math.sqrt(M)
        assert abs(ratios.mean() - 1) <= 5 * se


def moment_z_scores(replicates, mean, variance):
    """|z| of the replicates' mean and variance against the closed forms.

    Each standard error comes from the replicates' own second and fourth
    central moments: sqrt(m2 / B) for the mean, sqrt((m4 - m2**2) / B) for
    the variance. A zero standard error allows no difference at all.
    """
    B = replicates.size
    dev = replicates - replicates.mean()
    m2, m4 = float(np.mean(dev**2)), float(np.mean(dev**4))
    diffs = (replicates.mean() - mean, sample_variance(replicates) - variance)
    ses = (math.sqrt(m2 / B), math.sqrt(max(m4 - m2 * m2, 0.0) / B))
    return [abs(d) / se if se else (0.0 if d == 0 else math.inf) for d, se in zip(diffs, ses)]


class TestConditionalMoments:
    # Each engine's bootstrap mean and variance given the sample (B -> oo)
    # have closed forms, so one call per engine with both kinds is checked
    # against them at every sampling fraction f, within 5 standard errors.
    # N = 6224 (log-normal shape 0.7); f = 0.5 has no pseudo-population
    # remainder, and n = 5600 is beyond f = 0.9.
    N = 6224
    SIZES = (30, 100, 1000, 3112, 5600)
    B = 5000
    KINDS = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)

    @pytest.fixture(scope="class")
    def pop(self):
        spec = SynthSpec(size=self.N, mncs=1.275, pp=13.7, shape=0.7)
        return synth_population(spec, make_rng(16, SYNTH_STREAM_ID))

    def moments(self, engine, s, n):
        """The closed-form (E*, V*) of each kind for the engine's call on stream (16, n)."""
        f = n / self.N
        out = []
        for kind in self.KINDS:
            y = unit_values(kind, s)
            s2 = sample_variance(y)
            if engine == "standard":
                out.append((y.mean(), (n - 1) * s2 / n**2))
            elif engine == "ppb":
                # the pseudo-population is the engine's first draw
                c = _pseudo_population(make_rng(16, n).generator, n, self.N)
                mu = float(c @ y) / self.N
                s2_c = float(c @ (y - mu) ** 2) / (self.N - 1)
                out.append((mu, (1 - f) * s2_c / n))
            else:
                plan = mirror_match_plan(n, self.N)
                inverse_k = (1 - plan.p_high) / plan.k_low + plan.p_high / plan.k_high
                out.append((y.mean(), inverse_k * (1 - plan.n_prime / n) * s2 / plan.n_prime))
        return out

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_mean_and_variance(self, pop, engine):
        for n in self.SIZES:
            s = srswor(pop, n, make_rng(17, n))
            reps = ENGINES[engine](s, self.N, self.B, self.KINDS, make_rng(16, n), False)
            for kind, r, (mean, variance) in zip(self.KINDS, reps, self.moments(engine, s, n)):
                z = moment_z_scores(r.estimates, mean, variance)
                assert max(z) <= 5, (n, kind, z)


class TestEngineChecks:
    # The reduction checks n >= 2 and B >= 2 for every engine, naming it,
    # and answers a census (ppb or mirror-match at n = N) without a draw.
    SMALL_SAMPLE = {
        "standard": "standard bootstrap requires a sample of size >= 2",
        "ppb": "ppb bootstrap requires a sample of size >= 2",
        "mirror": r"n must be a whole number in \[2, 40\], got 1",
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_invalid_calls_rejected(self, engine):
        run = ENGINES[engine]
        for B in (0, 1):
            with pytest.raises(ValueError, match=f"^B must be a whole number >= 2, got {B}$"):
                run(lognormal_sample(10, 40), 40, B, EstimatorKind.MNCS, make_rng(0, 0), False)
        with pytest.raises(ValueError, match=f"^{self.SMALL_SAMPLE[engine]}$"):
            run(lognormal_sample(1, 40), 40, 10, EstimatorKind.MNCS, make_rng(0, 0), False)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_no_kinds_rejected_before_drawing(self, engine):
        # used to consume the stream and return ()
        rng = make_rng(15, 0)
        with pytest.raises(ValueError, match=r"^kind must name at least one estimator, got \(\)$"):
            ENGINES[engine](lognormal_sample(30, 100), 100, 10, (), rng, False)
        assert rng.generator.random() == make_rng(15, 0).generator.random()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_rejected_calls_leave_the_stream(self, engine):
        # N mod n = 10 at n = 30, N = 100: ppb's completion is a draw
        run = ENGINES[engine]
        for n, B in ((30, 0), (30, 1), (1, 10)):
            rng = make_rng(15, 0)
            with pytest.raises(ValueError):
                run(lognormal_sample(n, 100), 100, B, EstimatorKind.MNCS, rng, False)
            assert rng.generator.random() == make_rng(15, 0).generator.random()

    @pytest.mark.parametrize("engine", ["ppb", "mirror"])
    @pytest.mark.parametrize("N", [20, 30, 150, 6224])
    def test_population_size_is_the_samples(self, engine, N):
        # any other N reruns a different design: at N = n a census, variance 0
        rng = make_rng(15, 0)
        with pytest.raises(ValueError, match=f"^population size {N} is not the sample's population size 100$"):
            ENGINES[engine](lognormal_sample(30, 100), N, 10, EstimatorKind.MNCS, rng, False)
        assert rng.generator.random() == make_rng(15, 0).generator.random()

    @pytest.mark.parametrize("engine", ["ppb", "mirror"])
    @pytest.mark.parametrize("N", [100.0, np.float64(100)])
    def test_population_size_must_be_an_integer(self, engine, N):
        # N equals the sample's population size, but is not an integer
        rng = make_rng(15, 0)
        message = re.escape(f"N must be a whole number in [2, 2**64 - 1], got {N!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ENGINES[engine](lognormal_sample(30, 100), N, 10, EstimatorKind.MNCS, rng, False)
        assert rng.generator.random() == make_rng(15, 0).generator.random()

    @pytest.mark.parametrize("engine", ["ppb", "mirror"])
    @pytest.mark.parametrize("N", [1, 0, -100, 2**64])
    def test_population_size_range_comes_before_the_match(self, engine, N):
        # one N rule for both engines: the range first, then the sample's
        # population size, both before any draw
        rng = make_rng(15, 0)
        message = re.escape(f"N must be a whole number in [2, 2**64 - 1], got {N!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ENGINES[engine](lognormal_sample(30, 100), N, 10, EstimatorKind.MNCS, rng, False)
        assert rng.generator.random() == make_rng(15, 0).generator.random()

    @pytest.mark.parametrize(
        "engine,n", [("ppb", 40), ("mirror", 40), ("ppb", 2), ("mirror", 2)], ids=["ppb", "mirror", "ppb-2", "mirror-2"]
    )
    def test_census_draws_nothing(self, engine, n):
        # n = 2 is the smallest census: one pseudo-population copy, n' = n
        s = lognormal_sample(n, n, seed=3)
        rng = make_rng(14, 0)
        reps = ENGINES[engine](s, n, 300, (EstimatorKind.MNCS, EstimatorKind.PP_TOP10), rng, True)
        for kind, r in zip((EstimatorKind.MNCS, EstimatorKind.PP_TOP10), reps):
            assert np.all(r.estimates == estimate(kind, s))
            assert np.all(r.t_variances == 0.0)
        assert rng.generator.random() == make_rng(14, 0).generator.random()


# Reference block code with fresh temporaries per block: the same stream
# reads and arithmetic as the engines, so they must match it bit for bit.
# The standard engine's indices point into the sample's units ordered
# flagged first.
def reference_indices(gen, rows, n):
    # one ``integers`` call per block: uint16 while n <= 3000, int64 above
    return gen.integers(0, n, size=(rows, n), dtype=np.uint16 if n <= 3000 else np.int64)


def reference_centre(v):
    # integer values are summed as they are, others centred on their mean
    return 0.0 if np.all(v == np.trunc(v)) else float(v.mean())


def reference_standard(s, B, kinds, rng, with_t):
    n, gen = s.n, rng.generator
    order = np.argsort(~s.top10, kind="stable")
    t = int(s.top10.sum())
    runs = [(np.empty(B), np.empty(B) if with_t else None) for _ in kinds]
    lo = 0
    for rows in block_rows(B, n):
        hi = lo + rows
        idx = reference_indices(gen, rows, n)
        for kind, (est, tvar) in zip(kinds, runs):
            if kind is EstimatorKind.PP_TOP10:
                # c flagged units drawn: the mean of the 0/100 values, and
                # sum((x - mean)**2) / n**2 = 100**2 * c * (n - c) / n**3
                c = (idx < t).sum(axis=1)
                est[lo:hi] = 100.0 * c / n
                if with_t:
                    tvar[lo:hi] = (c * (n - c)).astype(float) * (1e4 / n**3)
                continue
            # one centred pass: d = v - centre, est = centre + sum(d) / n,
            # tvar = max(sum(d**2) - sum(d)**2 / n, 0) times 1 / n**2 rounded
            # once, (n - 1) / n**2 * s2 at 1 - f = 1
            v = unit_values(kind, s)[order]
            centre = reference_centre(v)
            d = (v - centre)[idx]
            s1 = np.einsum("rn->r", d)
            est[lo:hi] = centre + s1 / n
            if tvar is not None:
                tvar[lo:hi] = np.maximum(np.einsum("rn,rn->r", d, d) - s1 * s1 / n, 0.0) * float(Fraction(1, n * n))
        lo = hi
    return runs


def reference_mirror_counts(gen, rows, n, plan):
    # slot j is drawn only for the rows that keep it (k > j)
    if plan.k_high > plan.k_low:
        kb = plan.k_low + (gen.random(rows) < plan.p_high)
    else:
        kb = np.full(rows, plan.k_low)
    counts = np.zeros((rows, n), dtype=np.int64)
    units = np.ones(n, dtype=np.int64)
    for j in range(plan.k_high):
        keep = np.flatnonzero(kb > j)
        counts[keep] += gen.multivariate_hypergeometric(units, plan.n_prime, size=keep.size, method="count")
    return counts, kb


def block_rows(B, n):
    # replicates per block: at most 2**16 cells, and at least one replicate
    step = max(1, 2**16 // n)
    return [min(step, B - lo) for lo in range(0, B, step)]


def reference_t_scale(kind, n, N, m):
    # (1 - f) * (n - 1) / n**2 / (m - 1), times PP's 100**2 / m, as exact
    # rationals rounded once; 0 for one-unit replicates
    if m < 2:
        return 0.0
    scale = Fraction(N - n, N) * Fraction(n - 1, n * n * (m - 1))
    return float(scale * 10**4 / m if kind is EstimatorKind.PP_TOP10 else scale)


def reference_count_runs(s, N, B, kinds, with_t, draw):
    # a block of unit counts and their row sizes m at a time: PP from its
    # flagged count c, est = 100 * c / m and tvar = c * (m - c) times its
    # scale; other kinds from the counts against the centred values and
    # their squares
    n = s.n
    runs = [(np.empty(B), np.empty(B) if with_t else None) for _ in kinds]
    lo = 0
    for rows in block_rows(B, n):
        hi = lo + rows
        counts, m = draw(rows)
        m = np.broadcast_to(m, rows)
        for kind, (est, tvar) in zip(kinds, runs):
            scales = {mm: reference_t_scale(kind, n, N, mm) for mm in set(m.tolist())}
            scale = np.array([scales[mm] for mm in m.tolist()])
            if kind is EstimatorKind.PP_TOP10:
                c = counts[:, s.top10].sum(axis=1)
                est[lo:hi] = 100.0 * c / m
                if with_t:
                    tvar[lo:hi] = (c * (m - c)).astype(float) * scale
                continue
            v = unit_values(kind, s)
            centre = reference_centre(v)
            d = v - centre
            s1 = np.einsum("rn,n->r", counts, d)
            est[lo:hi] = centre + s1 / m
            if with_t:
                tvar[lo:hi] = np.maximum(np.einsum("rn,n->r", counts, d * d) - s1 * s1 / m, 0.0) * scale
        lo = hi
    return runs


def reference_ppb(s, N, B, kinds, rng, with_t):
    # k = N // n copies of every unit and one more of a uniform
    # (N - k*n)-subset, then an SRSWOR draw of n from them per replicate
    n, gen = s.n, rng.generator
    k, r = divmod(N, n)
    copies = np.full(n, k, dtype=np.int64)
    if r:
        copies += gen.multivariate_hypergeometric(np.ones(n, dtype=np.int64), r, method="count")
    return reference_count_runs(
        s, N, B, kinds, with_t, lambda rows: (gen.multivariate_hypergeometric(copies, n, size=rows, method="count"), n)
    )


def reference_mirror(s, N, B, kinds, rng, with_t):
    n, gen = s.n, rng.generator
    plan = mirror_match_plan(n, N)
    assert plan.n_prime < n  # the count path, not the n' = n shortcut

    def draw(rows):
        counts, kb = reference_mirror_counts(gen, rows, n, plan)
        return counts, kb * plan.n_prime

    return reference_count_runs(s, N, B, kinds, with_t, draw)


REFERENCES = {
    "standard": (lambda s, N, B, kinds, rng, t: reference_standard(s, B, kinds, rng, t)),
    "ppb": reference_ppb,
    "mirror": reference_mirror,
}


def assert_same_bits(reps, runs, with_t):
    reps = reps if isinstance(reps, tuple) else (reps,)
    assert len(reps) == len(runs)
    for r, (est, tvar) in zip(reps, runs):
        assert r.estimates.tobytes() == est.tobytes()
        if with_t:
            assert r.t_variances.tobytes() == tvar.tobytes()
        else:
            assert r.t_variances is None


POP = 6224  # mirror-match randomizes k at every n below


class TestBlockBuffers:
    # The standard and mirror-match engines build their blocks in buffers
    # each thread keeps across blocks and calls; every engine's replicates
    # and stream use must equal the reference block code's, whatever ran
    # before.
    @pytest.mark.parametrize("B", [2, 511, 512, 513, 1000])
    @pytest.mark.parametrize("n", [2, 3, 100, 1000, 4000])
    @pytest.mark.parametrize("engine", sorted(REFERENCES))
    def test_bit_identical_to_reference(self, engine, n, B):
        s = lognormal_sample(n, POP, seed=41)
        for kind in (EstimatorKind.MNCS, (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            for with_t in (False, True):
                rng, ref_rng = make_rng(14, n * B), make_rng(14, n * B)
                reps = ENGINES[engine](s, POP, B, kind, rng, with_t)
                assert isinstance(reps, tuple) == isinstance(kind, tuple)
                assert_same_bits(reps, REFERENCES[engine](s, POP, B, kinds, ref_rng, with_t), with_t)
                assert rng.generator.random() == ref_rng.generator.random()

    def test_calls_at_changing_n(self):
        # n = 1000, 100, 1000 with different B, interleaving both engines:
        # each call equals the reference on a fresh stream, and replicates
        # returned earlier stay as they were (no returned array views a buffer)
        kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
        kept = []
        for i, (n, B) in enumerate([(1000, 700), (100, 300), (1000, 1000)]):
            s = lognormal_sample(n, POP, seed=43)
            for engine in sorted(REFERENCES):
                reps = ENGINES[engine](s, POP, B, kinds, make_rng(15, i), True)
                assert_same_bits(reps, REFERENCES[engine](s, POP, B, kinds, make_rng(15, i), True), True)
                kept.append((reps, [(r.estimates.copy(), r.t_variances.copy()) for r in reps]))
        for reps, runs in kept:
            assert_same_bits(reps, runs, True)

    def test_threads_keep_their_own_buffers(self):
        # two threads alternate standard and mirror-match calls and n, out
        # of phase, so they run at different n and also share (dtype, n);
        # a short switch interval interleaves their blocks
        kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
        samples = {n: lognormal_sample(n, POP, seed=47) for n in (100, 1000)}

        def calls(t):
            out = []
            for j in range(20):
                engine = ("standard", "mirror")[j % 2]
                n = (100, 1000)[(j // 2 + t) % 2]
                reps = ENGINES[engine](samples[n], POP, 600, kinds, make_rng(16 + t, j), True)
                out.append([(r.estimates.tobytes(), r.t_variances.tobytes()) for r in reps])
            return out

        serial = [calls(t) for t in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(calls, t) for t in (0, 1)]
                concurrent = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial

    def test_buffers_stay_within_block_cells(self):
        # a fresh thread starts with no buffers; after each engine has run
        # at n = 100, 1000 and 4000 no buffer exceeds 2**16 cells, and at
        # n = 4000 a block holds 16 replicates
        kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)

        def calls():
            for n in (100, 1000, 4000):
                s = lognormal_sample(n, POP, seed=59)
                for engine in sorted(ENGINES):
                    ENGINES[engine](s, POP, 600, kinds, make_rng(19, n), True)
                    assert all(b.size <= 2**16 for b in _workspace.buffers.values())
            return {dtype: b.shape for dtype, b in _workspace.buffers.items()}

        with ThreadPoolExecutor(max_workers=1) as pool:
            shapes = pool.submit(calls).result(timeout=120)
        assert shapes == {np.float64: (16, 4000), np.int64: (16, 4000)}

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_block_temporaries_stay_small(self, engine):
        # a warm call at n = 4000 allocates at most a few blocks' worth
        # (one block of 2**16 cells is 0.5 MiB): neither the index draw
        # nor a hypergeometric output grows with n
        n = 4000
        s = lognormal_sample(n, POP, seed=61)
        kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)

        def peak():
            ENGINES[engine](s, POP, 1000, kinds, make_rng(20, 0), True)
            tracemalloc.start()
            try:
                ENGINES[engine](s, POP, 1000, kinds, make_rng(20, 1), True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(peak).result(timeout=120) <= 4 * 2**16 * 8


@pytest.mark.parametrize("n", [3000, 3001])
def test_engine_matches_reference_across_dtype_switch(n):
    # the largest uint16 draw and the smallest int64 one
    N = 3 * n
    s = lognormal_sample(n, N, seed=67)
    kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
    rng, ref_rng = make_rng(22, n), make_rng(22, n)
    reps = standard_bootstrap(s, 2, kinds, rng, with_t_variances=True)
    assert_same_bits(reps, reference_standard(s, 2, kinds, ref_rng, True), True)
    assert rng.generator.random() == ref_rng.generator.random()


class TestPpCountPath:
    # The standard engine reads PP(top 10%) off the count of flagged units
    # a resample draws, not off gathered 0/100 values.
    @pytest.mark.parametrize("n,B", [(7, 5000), (100, 1000), (1000, 300), (2000, 100), (4000, 40)])
    def test_count_path_equals_gather_path(self, n, B):
        # the same indices (a copy of the stream, the same blocks) reduced as
        # gathered 0/100 values in the flagged-first order give the same
        # estimates bit for bit. The t-variances are held to the exact value
        # 100**2 * c * (n - c) / n**3 instead: within 4 ulps, where the
        # gathered pairwise sum is itself up to 5 ulps off at n = 2000.
        s = lognormal_sample(n, POP, seed=73)
        reps = standard_bootstrap(s, B, EstimatorKind.PP_TOP10, make_rng(24, n), with_t_variances=True)
        gen = make_rng(24, n).generator
        t = int(s.top10.sum())
        v = unit_values(EstimatorKind.PP_TOP10, s)[np.argsort(~s.top10, kind="stable")]
        idx = np.concatenate([reference_indices(gen, rows, n) for rows in block_rows(B, n)])
        assert reps.estimates.tobytes() == v[idx].mean(axis=1).tobytes()
        exact = [float(Fraction(100**2 * c * (n - c), n**3)) for c in (idx < t).sum(axis=1).tolist()]
        assert np.all(np.abs(reps.t_variances - exact) <= 4 * np.spacing(exact))

    @pytest.mark.parametrize("flagged", [1, 3])
    def test_all_or_none_flagged_has_zero_variance(self, flagged):
        # n = 4 with one or three flagged units: about a third of the
        # resamples draw no flagged unit, or only flagged ones
        n = 4
        s = Sample(np.arange(n), np.ones(n), np.arange(n) < flagged, 40)
        reps = standard_bootstrap(s, 2000, EstimatorKind.PP_TOP10, make_rng(25, flagged), with_t_variances=True)
        pure = (reps.estimates == 0.0) | (reps.estimates == 100.0)
        assert 400 < pure.sum() < 1600
        assert np.all(reps.t_variances[pure] == 0.0)
        assert np.all(reps.t_variances[~pure] > 0.0)

    def test_tie_equals_sample_estimate(self):
        # 2 flagged units of 300: the estimate 2/3 has no exact binary form;
        # a resample drawing 2 flagged units equals it bit for bit (BCa
        # counts only replicates strictly below it)
        n = 300
        s = Sample(np.arange(n), np.ones(n), np.arange(n) >= n - 2, 6000)
        theta_hat = estimate(EstimatorKind.PP_TOP10, s)
        reps = standard_bootstrap(s, 2000, EstimatorKind.PP_TOP10, make_rng(26, 0), with_t_variances=True)
        tied = np.abs(reps.estimates - theta_hat) < 1e-9
        assert tied.sum() > 100
        assert np.all(reps.estimates[tied] == theta_hat)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_single_kind_calls_equal_reversed_pair(self, engine):
        # PP first: the flagged-first order and the count path do not depend
        # on which kinds are asked for, or in which order
        run, N = ENGINES[engine], 203
        s = lognormal_sample(40, N, seed=79)
        kinds = (EstimatorKind.PP_TOP10, EstimatorKind.MNCS)
        pair = run(s, N, 700, kinds, make_rng(27, 0), True)
        for kind, reps in zip(kinds, pair):
            single = run(s, N, 700, kind, make_rng(27, 0), True)
            assert reps.estimates.tobytes() == single.estimates.tobytes()
            assert reps.t_variances.tobytes() == single.t_variances.tobytes()


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts are read as on Linux")
class TestPageFaults:
    # Blocks built in kept buffers fault no fresh pages in once warm. The
    # bounds are a tenth of the per-call minor faults with a fresh
    # temporary per block (284 and 7,680). Each count is taken in a fresh
    # interpreter: what earlier tests allocated and freed moves the
    # allocator's thresholds and can hide the faults.
    PROBE = """
import json, resource, sys
import numpy as np
from fpboot import EstimatorKind, Sample, make_rng, mirror_match_bootstrap, standard_bootstrap
engine, n = sys.argv[1], int(sys.argv[2])
gen = np.random.default_rng(53)
s = Sample(np.arange(n), gen.lognormal(size=n), gen.random(n) < 0.12, 6224)
kinds = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
def call(rng):
    if engine == "standard":
        standard_bootstrap(s, 1000, kinds, rng, with_t_variances=True)
    else:
        mirror_match_bootstrap(s, 6224, 1000, kinds, rng, with_t_variances=True)
for i in range(3):
    call(make_rng(17, i))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(5):
    call(make_rng(18, i))
print(json.dumps((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5))
"""

    @pytest.mark.parametrize("engine,n,bound", [("standard", 100, 28), ("mirror", 1000, 768)])
    def test_warm_calls_fault_little(self, engine, n, bound):
        src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE, engine, str(n)],
            capture_output=True, text=True, env={"PYTHONPATH": src}, check=True, timeout=120,
        ).stdout
        assert json.loads(out) <= bound
