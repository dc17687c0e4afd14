import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboot import (
    BootstrapReplicates,
    CiType,
    ConfidenceInterval,
    DegenerateDistributionError,
    EstimatorKind,
    Method,
    Sample,
    bias_correction,
    ci_bca,
    ci_bootstrap_t,
    ci_normal,
    ci_percentile,
    jackknife_acceleration,
)
from fpboot.intervals import _interval_batch, _norm_cdf, _norm_ppf, _quantiles


def reps_of(values, t_variances=None):
    arr = np.asarray(values, dtype=float)
    tv = None if t_variances is None else np.asarray(t_variances, dtype=float)
    return BootstrapReplicates(arr.size, arr, tv, Method.STANDARD)


def empirical_quantile(values, q):
    """The intervals' quantile rule (ceil(q * B)-th order statistic) on unsorted values."""
    srt = np.sort(np.asarray(values, dtype=float))
    return float(_quantiles(srt[None], q)[0])


replicate_lists = st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=200)


class TestEmpiricalQuantile:
    def test_canonical_ranks(self):
        values = np.arange(1.0, 1001.0)
        assert empirical_quantile(values, 0.025) == 25.0
        assert empirical_quantile(values, 0.975) == 975.0

    def test_single_value(self):
        for q in (0.01, 0.5, 0.99):
            assert empirical_quantile([4.25], q) == 4.25

    def test_rank_is_order_statistic(self):
        gen = np.random.default_rng(5)
        values = gen.standard_normal(173)
        ranked = np.sort(values)
        for q in (0.03, 0.25, 0.5, 0.77, 0.999):
            rank = min(173, max(1, math.ceil(q * 173 - 1e-9)))
            assert empirical_quantile(values, q) == ranked[rank - 1]

    def test_float_dust_near_integer_rank(self):
        # (1 - 0.95) / 2 * 1000 is 25 + float dust; the rank must stay 25
        values = np.arange(1.0, 1001.0)
        q = (1.0 - 0.95) / 2.0
        assert empirical_quantile(values, q) == 25.0


P_GRID = [k / 1000 for k in range(1, 1000)]


class TestStandardNormal:
    def test_known_values(self):
        assert abs(_norm_ppf(0.975) - 1.959963984540054) <= 4 * math.ulp(1.959963984540054)
        assert _norm_cdf(0.0) == 0.5

    def test_quantile_antisymmetry(self):
        # 1 - p rounds, so the two sides agree to a few ulps, not exactly
        for p in P_GRID:
            assert abs(_norm_ppf(1.0 - p) + _norm_ppf(p)) <= 1e-12

    def test_round_trip(self):
        for p in P_GRID:
            assert abs(_norm_cdf(_norm_ppf(p)) - p) <= 1e-15

    def test_agrees_with_scipy(self):
        special = pytest.importorskip("scipy.special")
        for p in P_GRID:
            ref = float(special.ndtri(p))
            assert abs(_norm_ppf(p) - ref) <= 8 * math.ulp(ref)
        for x in np.linspace(-8.0, 8.0, 1601):
            assert abs(_norm_cdf(float(x)) - float(special.ndtr(x))) <= 4e-16


class TestCiNormal:
    def test_worked_example(self):
        ci = ci_normal(1.22, 0.04, 0.95)
        assert ci.lower == pytest.approx(0.828, abs=1e-3)
        assert ci.upper == pytest.approx(1.612, abs=1e-3)

    def test_zero_variance_point_interval(self):
        ci = ci_normal(3.7, 0.0, 0.9)
        assert (ci.lower, ci.upper) == (3.7, 3.7)
        assert ci.length == 0.0

    def test_standard_normal_quantile(self):
        # independent inverse-CDF oracle from the stdlib
        z = NormalDist().inv_cdf(0.975)
        ci = ci_normal(0.0, 1.0, 0.95)
        assert ci.lower == pytest.approx(-z, abs=1e-5)
        assert ci.upper == pytest.approx(z, abs=1e-5)
        assert ci.upper == pytest.approx(1.95996, abs=1e-5)

    def test_bad_level_rejected(self):
        for level in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                ci_normal(0.0, 1.0, level)

    @given(st.floats(-100, 100), st.floats(0, 1e4), st.floats(0.5, 0.999))
    @settings(max_examples=80)
    def test_width_formula_and_monotonicity(self, theta, var, level):
        ci = ci_normal(theta, var, level)
        z = NormalDist().inv_cdf(0.5 + level / 2)
        assert ci.length == pytest.approx(2 * z * math.sqrt(var), rel=1e-9, abs=1e-9)
        wider = ci_normal(theta, var + 1.0, level)
        assert wider.length > ci.length


class TestCiPercentile:
    def test_canonical_ranks(self):
        ci = ci_percentile(reps_of(np.arange(1.0, 1001.0)), 0.95)
        assert (ci.lower, ci.upper) == (25.0, 975.0)

    def test_constant_replicates(self):
        ci = ci_percentile(reps_of(np.full(100, 3.25)), 0.95)
        assert (ci.lower, ci.upper) == (3.25, 3.25)

    def test_shift_equivariance_exact(self):
        values = np.random.default_rng(3).standard_normal(500)
        base = ci_percentile(reps_of(values), 0.9)
        delta = 0.5  # power of two: the shift is exact in floating point
        moved = ci_percentile(reps_of(values + delta), 0.9)
        assert moved.lower == base.lower + delta
        assert moved.upper == base.upper + delta

    @given(replicate_lists, st.floats(0.5, 0.999))
    @settings(max_examples=80)
    def test_ordered_bounds(self, values, level):
        ci = ci_percentile(reps_of(values), level)
        assert ci.lower <= ci.upper


class TestJackknifeAcceleration:
    @staticmethod
    def sample_of(values):
        arr = np.asarray(values, dtype=float)
        return Sample(np.arange(arr.size), arr, np.zeros(arr.size, bool), 10_000)

    def test_symmetric_values(self):
        # symmetric leave-one-out means: zero third moment
        s = Sample(np.arange(3), np.array([0.0, 1.0, 2.0]), np.zeros(3, bool), 100)
        assert jackknife_acceleration(s, EstimatorKind.MNCS) == 0.0

    def test_constant_sample(self):
        assert jackknife_acceleration(self.sample_of([2.0] * 6), EstimatorKind.MNCS) == 0.0

    def test_brute_force_oracle(self):
        values = [0.0, 0.0, 0.0, 4.0]
        loo = []
        for i in range(4):
            rest = values[:i] + values[i + 1 :]
            loo.append(sum(rest) / 3)
        mean = sum(loo) / 4
        num = sum((mean - x) ** 3 for x in loo)
        den = 6.0 * sum((mean - x) ** 2 for x in loo) ** 1.5
        expected = num / den
        assert expected == pytest.approx(math.sqrt(3) / 18)
        got = jackknife_acceleration(self.sample_of(values), EstimatorKind.MNCS)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            jackknife_acceleration(self.sample_of([1.0, 2.0]), EstimatorKind.MNCS)

    def test_interval_pass_shares_the_rule(self):
        est = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="^jackknife_acceleration requires n >= 3$"):
            _interval_batch((CiType.BCA,), 0.95, est, [2.0], values=np.array([[1.0, 3.0]]))


class TestCiBca:
    def test_reduces_to_percentile(self):
        # exactly half the replicates below the estimate makes z0 = 0
        values = np.concatenate([np.arange(1.0, 501.0), np.arange(601.0, 1101.0)])
        reps = reps_of(values)
        theta_hat = 550.0
        bca = ci_bca(reps, theta_hat, accel=0.0, level=0.95)
        pct = ci_percentile(reps, 0.95)
        assert (bca.lower, bca.upper) == (pct.lower, pct.upper)

    def test_bias_correction_value(self):
        # 600 of 1000 replicates below the estimate: z0 = Phi^-1(0.6)
        values = np.concatenate([np.zeros(600), np.ones(400) * 2.0])
        z0 = bias_correction(reps_of(values), 1.0)
        assert z0 == pytest.approx(NormalDist().inv_cdf(0.6), abs=1e-9)
        assert z0 == pytest.approx(0.25335, abs=1e-4)

    def test_degenerate_rejected(self):
        values = np.arange(10.0) + 5.0
        with pytest.raises(DegenerateDistributionError):
            ci_bca(reps_of(values), 1.0, accel=0.0)  # all replicates above
        with pytest.raises(DegenerateDistributionError):
            ci_bca(reps_of(values), 99.0, accel=0.0)  # all replicates below

    def test_ties_do_not_count_as_below(self):
        values = np.array([0.0] * 4 + [1.0] * 2 + [2.0] * 4)
        z0 = bias_correction(reps_of(values), 1.0)
        assert z0 == pytest.approx(NormalDist().inv_cdf(0.4), abs=1e-9)

    @given(replicate_lists, st.floats(-0.2, 0.2))
    @settings(max_examples=60)
    def test_ordered_bounds(self, values, accel):
        reps = reps_of(values)
        theta_hat = float(np.median(values))
        try:
            ci = ci_bca(reps, theta_hat, accel, 0.9)
        except DegenerateDistributionError:
            return
        assert ci.lower <= ci.upper


class TestCiBootstrapT:
    def test_direct_substitution(self):
        # t-statistic quantiles at ranks 25 and 975 pinned to -2 and 2
        t_grid = np.linspace(-2.0, 2.0, 1000)
        t_grid[:25] = -2.0
        t_grid[974:] = 2.0
        theta_hat, v_hat = 1.0, 0.04
        estimates = theta_hat + t_grid  # per-replicate variance 1
        ci = ci_bootstrap_t(reps_of(estimates, np.ones(1000)), theta_hat, v_hat, 0.95)
        assert ci.lower == pytest.approx(0.6, abs=1e-12)
        assert ci.upper == pytest.approx(1.4, abs=1e-12)

    def test_all_zero_t_statistics(self):
        ci = ci_bootstrap_t(reps_of(np.full(100, 5.5), np.ones(100)), 5.5, 0.2, 0.95)
        assert (ci.lower, ci.upper) == (5.5, 5.5)

    def test_symmetric_t_distribution(self):
        # symmetric replicate set: interval symmetric about the estimate
        # within one quantile-rule rank
        t = np.linspace(-3.0, 3.0, 999)
        estimates = 2.0 + t
        ci = ci_bootstrap_t(reps_of(estimates, np.ones(999)), 2.0, 1.0, 0.95)
        spacing = t[1] - t[0]
        assert abs((ci.upper - 2.0) - (2.0 - ci.lower)) <= spacing + 1e-12

    def test_missing_variances_rejected(self):
        with pytest.raises(ValueError):
            ci_bootstrap_t(reps_of(np.arange(10.0)), 5.0, 1.0, 0.95)

    def test_excessive_degenerate_replicates(self):
        tv = np.ones(100)
        tv[:2] = 0.0  # 2% dropped
        with pytest.raises(DegenerateDistributionError):
            ci_bootstrap_t(reps_of(np.arange(100.0), tv), 50.0, 1.0, 0.95)

    def test_small_drop_tolerated(self):
        tv = np.ones(1000)
        tv[:5] = 0.0  # 0.5% dropped
        ci = ci_bootstrap_t(reps_of(np.arange(1000.0), tv), 500.0, 1.0, 0.95)
        assert ci.lower <= ci.upper

    def test_nonpositive_v_hat_rejected(self):
        with pytest.raises(ValueError):
            ci_bootstrap_t(reps_of(np.arange(10.0), np.ones(10)), 5.0, 0.0, 0.95)


class TestLocationEquivariance:
    def test_all_constructors_shift(self):
        gen = np.random.default_rng(11)
        values = gen.lognormal(size=600)
        tv = np.full(600, 0.01)
        theta = float(np.mean(values))
        delta = 12.5
        cases = {
            "normal": (
                ci_normal(theta, 0.09, 0.95),
                ci_normal(theta + delta, 0.09, 0.95),
            ),
            "percentile": (
                ci_percentile(reps_of(values), 0.95),
                ci_percentile(reps_of(values + delta), 0.95),
            ),
            "bca": (
                ci_bca(reps_of(values), theta, 0.05, 0.95),
                ci_bca(reps_of(values + delta), theta + delta, 0.05, 0.95),
            ),
            "boot-t": (
                ci_bootstrap_t(reps_of(values, tv), theta, 0.09, 0.95),
                ci_bootstrap_t(reps_of(values + delta, tv), theta + delta, 0.09, 0.95),
            ),
        }
        for name, (base, moved) in cases.items():
            assert moved.lower == pytest.approx(base.lower + delta, rel=1e-9, abs=1e-9), name
            assert moved.upper == pytest.approx(base.upper + delta, rel=1e-9, abs=1e-9), name


class TestConfidenceInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(CiType.NORMAL, 0.95, 2.0, 1.0)
        with pytest.raises(ValueError):
            ConfidenceInterval(CiType.NORMAL, 1.2, 0.0, 1.0)

    def test_contains(self):
        ci = ConfidenceInterval(CiType.PERCENTILE, 0.95, 1.0, 2.0)
        assert ci.contains(1.0) and ci.contains(2.0) and ci.contains(1.5)
        assert not ci.contains(0.999)
