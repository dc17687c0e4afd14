"""Confidence-interval constructors: normal, percentile, BCa, bootstrap-t.

All quantiles follow one deterministic rule: the ceil(q * B)-th order
statistic, with the rank clamped to [1, B]. At B = 1000 and level 0.95
this picks the conventional 25th and 975th order statistics.

The standard normal comes from the standard library: the quantile is
``statistics.NormalDist().inv_cdf`` (Wichura's AS241) and the CDF is
``0.5 * math.erfc(-x / sqrt(2))``, which keeps full relative precision in
the lower tail, where ``1 + erf(x / sqrt(2))`` cancels.
"""

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateDistributionError
from .estimators import EstimatorKind, unit_values
from .resampling import BootstrapReplicates
from .sampling import Sample


class CiType(enum.Enum):
    """Interval construction method."""

    NORMAL = "normal"
    PERCENTILE = "percentile"
    BCA = "bca"
    BOOTSTRAP_T = "boot-t"


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval at confidence level ``level``."""

    method: CiType
    level: float
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if not self.lower <= self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


_norm_ppf = NormalDist().inv_cdf
_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _check_level(level: float):
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


# Ranks within this of an integer are treated as that integer, so float
# dust in q * B (e.g. (1 - 0.95) / 2 * 1000 = 25.000000000000022) cannot
# push the rank up a step.
_RANK_TOL = 1e-9


def _rank(q: float, B: int) -> int:
    return min(B, max(1, math.ceil(q * B - _RANK_TOL)))


def _quantile_sorted(sorted_values: np.ndarray, q: float) -> float:
    return float(sorted_values[_rank(q, sorted_values.size) - 1])


def ci_normal(theta_hat: float, variance: float, level: float = 0.95) -> ConfidenceInterval:
    """Asymptotic interval: theta_hat +/- z_{1-alpha/2} * sqrt(variance)."""
    _check_level(level)
    if not np.isfinite(variance) or variance < 0:
        raise ValueError(f"variance must be finite and >= 0, got {variance!r}")
    z = _norm_ppf(0.5 + level / 2.0)
    half = z * math.sqrt(variance)
    return ConfidenceInterval(CiType.NORMAL, level, theta_hat - half, theta_hat + half)


def ci_percentile(reps: BootstrapReplicates, level: float = 0.95) -> ConfidenceInterval:
    """Percentile interval: the alpha/2 and 1 - alpha/2 bootstrap quantiles."""
    _check_level(level)
    if reps.B < 2:
        raise ValueError("ci_percentile requires at least two replicates")
    srt = np.sort(reps.estimates)
    q_lo = (1.0 - level) / 2.0
    q_hi = 0.5 + level / 2.0
    return ConfidenceInterval(CiType.PERCENTILE, level, _quantile_sorted(srt, q_lo), _quantile_sorted(srt, q_hi))


def bias_correction(reps: BootstrapReplicates, theta_hat: float) -> float:
    """BCa bias-correction z0 = Phi^-1(#{theta* < theta_hat} / B).

    Only replicates strictly below the estimate count; ties do not.
    """
    p0 = float(np.count_nonzero(reps.estimates < theta_hat)) / reps.B
    if not 0.0 < p0 < 1.0:
        raise DegenerateDistributionError(
            f"all bootstrap estimates on one side of the point estimate (p0 = {p0})"
        )
    return _norm_ppf(p0)


def jackknife_acceleration(sample: Sample, kind: EstimatorKind) -> float:
    """Acceleration constant from leave-one-out estimates.

    a = sum(d_i^3) / (6 * (sum(d_i^2))^(3/2)) with d_i the deviations of
    the leave-one-out statistics from their mean; 0 when the deviations
    vanish.
    """
    vals = unit_values(kind, sample)
    n = vals.size
    if n < 3:
        raise ValueError("jackknife_acceleration requires n >= 3")
    loo = (vals.sum() - vals) / (n - 1)
    dev = loo.mean() - loo
    denom = float((dev * dev).sum()) ** 1.5
    if denom == 0.0:
        return 0.0
    return float((dev**3).sum() / (6.0 * denom))


def ci_bca(
    reps: BootstrapReplicates,
    theta_hat: float,
    accel: float,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Bias-corrected and accelerated percentile interval.

    Percentile ranks are shifted by the bias correction z0 and the
    acceleration ``accel``; with z0 = 0 and accel = 0 this reduces to the
    plain percentile interval.
    """
    _check_level(level)
    if reps.B < 2:
        raise ValueError("ci_bca requires at least two replicates")
    if not np.isfinite(accel):
        raise ValueError(f"accel must be finite, got {accel!r}")
    z0 = bias_correction(reps, theta_hat)
    alpha = 1.0 - level

    def adjusted(z: float) -> float:
        t = z0 + z
        den = 1.0 - accel * t
        if den <= 0.0:
            # acceleration pathologically large: saturate toward the tail
            den = 1e-12
        q = _norm_cdf(z0 + t / den)
        return min(max(q, 1e-12), 1.0 - 1e-12)

    q1 = adjusted(_norm_ppf(alpha / 2.0))
    q2 = adjusted(_norm_ppf(1.0 - alpha / 2.0))
    srt = np.sort(reps.estimates)
    lo = _quantile_sorted(srt, min(q1, q2))
    hi = _quantile_sorted(srt, max(q1, q2))
    return ConfidenceInterval(CiType.BCA, level, lo, hi)


def ci_bootstrap_t(
    reps: BootstrapReplicates,
    theta_hat: float,
    v_hat: float,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Studentized bootstrap interval.

    Uses quantiles of t*_b = (theta*_b - theta_hat) / sqrt(V*_b) in place
    of normal quantiles: (theta_hat - t*_{1-a/2} sqrt(v_hat),
    theta_hat - t*_{a/2} sqrt(v_hat)). Replicates with zero variance are
    dropped; more than 1% of them is an error.
    """
    _check_level(level)
    if reps.t_variances is None:
        raise ValueError("bootstrap-t requires replicates with their variance estimates")
    if reps.B < 2:
        raise ValueError("ci_bootstrap_t requires at least two replicates")
    if not np.isfinite(v_hat) or v_hat <= 0:
        raise ValueError(f"v_hat must be finite and > 0, got {v_hat!r}")
    keep = reps.t_variances > 0.0
    dropped = reps.B - int(np.count_nonzero(keep))
    if dropped > 0.01 * reps.B:
        raise DegenerateDistributionError(
            f"{dropped} of {reps.B} replicates have zero variance estimates"
        )
    t = (reps.estimates[keep] - theta_hat) / np.sqrt(reps.t_variances[keep])
    srt = np.sort(t)
    q_lo = (1.0 - level) / 2.0
    q_hi = 0.5 + level / 2.0
    s = math.sqrt(v_hat)
    lower = theta_hat - _quantile_sorted(srt, q_hi) * s
    upper = theta_hat - _quantile_sorted(srt, q_lo) * s
    return ConfidenceInterval(CiType.BOOTSTRAP_T, level, lower, upper)
