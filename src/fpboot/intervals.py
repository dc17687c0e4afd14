"""Confidence-interval constructors: normal, percentile, BCa, bootstrap-t.

All quantiles follow one deterministic rule: the ceil(q * B)-th order
statistic, with the rank clamped to [1, B]. At B = 1000 and level 0.95
this picks the conventional 25th and 975th order statistics.

The standard normal comes from the standard library: the quantile is
``statistics.NormalDist().inv_cdf`` (Wichura's AS241) and the CDF is
``0.5 * math.erfc(-x / sqrt(2))``, which keeps full relative precision in
the lower tail, where ``1 + erf(x / sqrt(2))`` cancels.

Each constructor works row-wise on a batch of replications of one
estimator. ``_interval_batch`` builds every CI type a study or ``fpboot
estimate`` asks for on a batch in one vectorised pass, with one sort
shared by percentile and BCa; the ``ci_*`` constructors,
``bias_correction`` and ``jackknife_acceleration`` run the same kernels
on one row. The steps through the standard normal (BCa's z0 and its
adjusted tail probabilities) run per row in Python floats, and every
other step is an elementwise operation or a reduction along the row, so
a row's bounds do not depend on the batch it is in.
"""

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateDistributionError
from .estimators import EstimatorKind, _row_variances, unit_values
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


def _quantiles(srt: np.ndarray, q, sizes=None) -> np.ndarray:
    """Each row's ceil(q * size)-th order statistic, the rank clamped to [1, size].

    ``srt`` holds rows sorted ascending; ``q`` and ``sizes`` are scalars or
    one value per row, and a row's size (default: the row length) counts
    the leading values its quantile is taken over.
    """
    rows, B = srt.shape
    sizes = B if sizes is None else sizes
    ranks = np.minimum(np.maximum(np.ceil(q * sizes - _RANK_TOL), 1), sizes).astype(np.intp)
    return srt[np.arange(rows), ranks - 1]


def _tails(level: float) -> tuple[float, float]:
    """The lower and upper tail probabilities of a two-sided interval."""
    return (1.0 - level) / 2.0, 0.5 + level / 2.0


def _check_replicates(B: int, what: str):
    if B < 2:
        raise ValueError(f"{what} requires at least two replicates")


def _check_variances(v: np.ndarray, what: str = "variance"):
    if not (np.isfinite(v) & (v >= 0)).all():
        raise ValueError(f"{what} must be finite and >= 0, got {v.tolist()!r}")


# Row kernels. Each takes a batch of R replications of one estimator, one
# row each (``est`` is R x B, ``theta``, ``v_hat`` and ``accel`` hold one
# value per row), and returns the (lower, upper) bounds per row. The ci_*
# constructors below are their one-row case, and ``_interval_batch`` runs a
# batch through every CI type a study asks for.


def _normal(theta: np.ndarray, v_hat: np.ndarray, level: float):
    half = _norm_ppf(0.5 + level / 2.0) * np.sqrt(v_hat)
    return theta - half, theta + half


def _percentile(srt: np.ndarray, level: float):
    q_lo, q_hi = _tails(level)
    return _quantiles(srt, q_lo), _quantiles(srt, q_hi)


def _bias_corrections(est: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """z0 = Phi^-1(#{theta* < theta_hat} / B) per row; NaN where every replicate is on one side.

    Only replicates strictly below the estimate count; ties do not.
    """
    B = est.shape[1]
    below = (est < theta[:, None]).sum(axis=1)
    return np.array([_norm_ppf(float(c) / B) if 0 < c < B else math.nan for c in below.tolist()])


def _bca(srt: np.ndarray, est: np.ndarray, theta: np.ndarray, accel: np.ndarray, level: float):
    """BCa bounds per row, and z0 per row: NaN where the row is one-sided.

    A one-sided row gets the percentile bounds, which are BCa's with
    z0 = 0 and accel = 0.
    """
    if not np.isfinite(accel).all():
        raise ValueError(f"accel must be finite, got {accel.tolist()!r}")
    z0s = _bias_corrections(est, theta)
    q_lo, q_hi = _tails(level)
    # 1 - alpha/2, not q_hi: the two roundings can differ by an ulp
    z_lo, z_hi = _norm_ppf(q_lo), _norm_ppf(1.0 - q_lo)
    q1, q2 = np.full(len(z0s), q_lo), np.full(len(z0s), q_hi)
    for r in np.flatnonzero(~np.isnan(z0s)).tolist():
        z0, a = float(z0s[r]), float(accel[r])

        def adjusted(z: float) -> float:
            t = z0 + z
            den = 1.0 - a * t
            if den <= 0.0:
                # acceleration pathologically large: saturate toward the tail
                den = 1e-12
            q = _norm_cdf(z0 + t / den)
            return min(max(q, 1e-12), 1.0 - 1e-12)

        q1[r], q2[r] = sorted((adjusted(z_lo), adjusted(z_hi)))
    return (_quantiles(srt, q1), _quantiles(srt, q2)), z0s


def _bootstrap_t(est: np.ndarray, tvar: np.ndarray, theta: np.ndarray, v_hat: np.ndarray, level: float):
    """Studentized bounds per row, and each row's count of zero-variance replicates.

    Replicates with zero variance are dropped; a row that drops more than
    1% of them gets NaN bounds.
    """
    B = est.shape[1]
    keep = tvar > 0.0
    kept = keep.sum(axis=1)
    q_lo, q_hi = _tails(level)
    s = np.sqrt(v_hat)
    sizes = np.maximum(kept, 1)
    # a row with no kept replicate reads inf, and its bounds are NaN below
    with np.errstate(divide="ignore", invalid="ignore"):
        t = est - theta[:, None]
        t /= np.sqrt(tvar)
        t[~keep] = np.inf  # dropped replicates sort after every kept one
        t.sort(axis=1)
        lower = theta - _quantiles(t, q_hi, sizes) * s
        upper = theta - _quantiles(t, q_lo, sizes) * s
    dropped = B - kept
    too_many = dropped > 0.01 * B
    lower[too_many] = upper[too_many] = math.nan
    return (lower, upper), dropped


def _accelerations(values: np.ndarray) -> np.ndarray:
    """Jackknife acceleration per row of sample unit values (R x n)."""
    n = values.shape[1]
    if n < 3:
        raise ValueError("jackknife_acceleration requires n >= 3")
    loo = (values.sum(axis=1, keepdims=True) - values) / (n - 1)
    dev = loo.mean(axis=1, keepdims=True) - loo
    sq = dev * dev
    denom = np.array([float(x) ** 1.5 for x in sq.sum(axis=1)])
    num = (sq * dev).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, 0.0, num / (6.0 * denom))


def _interval_batch(
    cis,
    level: float,
    est: np.ndarray,
    theta: np.ndarray,
    *,
    t_variances: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap variances and the bounds of every CI type in ``cis`` for a batch of replications.

    Row r of ``est`` (R x B) holds replication r's replicate estimates and
    ``theta[r]`` its sample estimate; ``t_variances`` (R x B) is read for
    bootstrap-t and ``values``, the samples' unit values (R x n), for BCa's
    jackknife acceleration. ``v_hat`` is each row's sample variance. Returns
    ``v_hat`` and ``bounds[ci, r, (lower, upper)]``, with NaN where no
    interval forms:

    * BCa on a one-sided row falls back to the percentile interval;
    * bootstrap-t gives the point interval at theta_hat when v_hat is 0
      (the census limit), and no interval when more than 1% of the row's
      replicates have zero variance.

    Percentile and BCa share one sort of the rows.
    """
    rows, B = est.shape
    _check_replicates(B, "bootstrap_variance")
    _check_level(level)
    theta = np.asarray(theta, dtype=np.float64)
    v_hat = _row_variances(est)
    bounds = np.empty((len(cis), rows, 2))
    srt = np.sort(est, axis=1) if {CiType.PERCENTILE, CiType.BCA} & set(cis) else None
    for i, ci in enumerate(cis):
        if ci is CiType.NORMAL:
            _check_variances(v_hat)
            lower, upper = _normal(theta, v_hat, level)
        elif ci is CiType.PERCENTILE:
            lower, upper = _percentile(srt, level)
        elif ci is CiType.BCA:
            (lower, upper), _ = _bca(srt, est, theta, _accelerations(values), level)
        elif ci is CiType.BOOTSTRAP_T:
            if t_variances is None:
                raise ValueError("bootstrap-t requires replicates with their variance estimates")
            _check_variances(v_hat, "v_hat")
            (lower, upper), _ = _bootstrap_t(est, t_variances, theta, v_hat, level)
            census = v_hat == 0.0
            lower[census] = upper[census] = theta[census]
        else:
            raise ValueError(f"unknown CI type: {ci!r}")
        bounds[i, :, 0], bounds[i, :, 1] = lower, upper
    return v_hat, bounds


def ci_normal(theta_hat: float, variance: float, level: float = 0.95) -> ConfidenceInterval:
    """Asymptotic interval: theta_hat +/- z_{1-alpha/2} * sqrt(variance)."""
    _check_level(level)
    v = np.array([variance], dtype=np.float64)
    _check_variances(v)
    lower, upper = _normal(np.array([theta_hat]), v, level)
    return ConfidenceInterval(CiType.NORMAL, level, float(lower[0]), float(upper[0]))


def ci_percentile(reps: BootstrapReplicates, level: float = 0.95) -> ConfidenceInterval:
    """Percentile interval: the alpha/2 and 1 - alpha/2 bootstrap quantiles."""
    _check_level(level)
    _check_replicates(reps.B, "ci_percentile")
    lower, upper = _percentile(np.sort(reps.estimates[None], axis=1), level)
    return ConfidenceInterval(CiType.PERCENTILE, level, float(lower[0]), float(upper[0]))


def bias_correction(reps: BootstrapReplicates, theta_hat: float) -> float:
    """BCa bias-correction z0 = Phi^-1(#{theta* < theta_hat} / B).

    Only replicates strictly below the estimate count; ties do not.
    """
    z0 = float(_bias_corrections(reps.estimates[None], np.array([theta_hat]))[0])
    if math.isnan(z0):
        raise DegenerateDistributionError("all bootstrap estimates on one side of the point estimate")
    return z0


def jackknife_acceleration(sample: Sample, kind: EstimatorKind) -> float:
    """Acceleration constant from leave-one-out estimates.

    a = sum(d_i^3) / (6 * (sum(d_i^2))^(3/2)) with d_i the deviations of
    the leave-one-out statistics from their mean; 0 when the deviations
    vanish.
    """
    return float(_accelerations(unit_values(kind, sample)[None])[0])


def ci_bca(
    reps: BootstrapReplicates,
    theta_hat: float,
    accel: float,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Bias-corrected and accelerated percentile interval.

    Percentile ranks are shifted by the bias correction z0 and the
    acceleration ``accel``; with z0 = 0 and accel = 0 this reduces to the
    plain percentile interval. A one-sided bootstrap distribution raises
    DegenerateDistributionError.
    """
    _check_level(level)
    _check_replicates(reps.B, "ci_bca")
    est = reps.estimates[None]
    (lower, upper), z0s = _bca(np.sort(est, axis=1), est, np.array([theta_hat]), np.array([accel], float), level)
    if math.isnan(z0s[0]):
        raise DegenerateDistributionError("all bootstrap estimates on one side of the point estimate")
    return ConfidenceInterval(CiType.BCA, level, float(lower[0]), float(upper[0]))


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
    _check_replicates(reps.B, "ci_bootstrap_t")
    if not np.isfinite(v_hat) or v_hat <= 0:
        raise ValueError(f"v_hat must be finite and > 0, got {v_hat!r}")
    (lower, upper), dropped = _bootstrap_t(
        reps.estimates[None], reps.t_variances[None], np.array([theta_hat]), np.array([v_hat], float), level
    )
    if math.isnan(lower[0]):
        raise DegenerateDistributionError(f"{dropped[0]} of {reps.B} replicates have zero variance estimates")
    return ConfidenceInterval(CiType.BOOTSTRAP_T, level, float(lower[0]), float(upper[0]))
