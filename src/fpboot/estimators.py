"""The two citation indicators and the closed-form dispersion helpers.

Both indicators are means of a per-record value: the citation score for
MNCS, and 100/0 for the top-10% flag for PP(top 10%). Keeping proportions
on the percent scale end to end means interval lengths for the two
indicators are directly comparable in reports.
"""

import enum
import math

import numpy as np

from .sampling import Population, Sample


class EstimatorKind(enum.Enum):
    """Which indicator to compute over a set of records."""

    MNCS = "mncs"
    PP_TOP10 = "pp_top10"


def unit_values(kind: EstimatorKind, records) -> np.ndarray:
    """Per-record values whose plain mean is the indicator.

    ``records`` is a :class:`Population`, a :class:`Sample`, or a sequence
    of scores (MNCS) or flags (PP(top 10%)). MNCS: the citation scores.
    PP(top 10%): 100.0 for flagged records and 0.0 otherwise, so the mean
    is already in percent. The indicator, the population truth and the
    MNCS bootstrap replicates are means of this array. The engines take a
    PP(top 10%) replicate from its integer count c of flagged units as
    100.0 * c / size, which is the mean of its 0/100 values bit for bit.
    """
    whole = isinstance(records, (Population, Sample))
    if kind is EstimatorKind.MNCS:
        return records.ncs if whole else np.asarray(records, dtype=np.float64)
    if kind is EstimatorKind.PP_TOP10:
        return np.where(records.top10 if whole else np.asarray(records, dtype=bool), 100.0, 0.0)
    raise ValueError(f"unknown estimator kind: {kind!r}")


def estimate(kind: EstimatorKind, records) -> float:
    """Evaluate the indicator ``kind`` over ``records``."""
    arr = unit_values(kind, records)
    if arr.size < 1:
        raise ValueError("estimate requires at least one record")
    return float(arr.mean())


def mncs(records) -> float:
    """Mean normalized citation score of the records."""
    return estimate(EstimatorKind.MNCS, records)


def pp_top10(records) -> float:
    """Percentage of records flagged as top-10% most cited."""
    return estimate(EstimatorKind.PP_TOP10, records)


def sample_variance(values) -> float:
    """Unbiased sample variance, denominator n - 1.

    Exactly 0.0 for a bitwise-constant input, so degenerate census cases
    propagate true zeros instead of rounding dust.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("sample_variance requires at least two values")
    return float(_row_variances(arr.reshape(1, -1))[0])


def _row_variances(rows: np.ndarray) -> np.ndarray:
    """``sample_variance`` of each row of a 2-D array."""
    var = rows.var(axis=1, ddof=1)
    var[rows.min(axis=1) == rows.max(axis=1)] = 0.0
    return var


def se_mean_fpc(s2: float, n: int, N: int) -> float:
    """Standard error of the mean under SRSWOR from a finite population.

    sqrt(s2 / n) * sqrt((N - n) / (N - 1)), with the sample variance s2
    plugged in for the unobservable population variance.
    """
    if n > N:
        raise ValueError(f"sample size {n} exceeds population size {N}")
    if n < 2:
        raise ValueError("se_mean_fpc requires n >= 2")
    if not np.isfinite(s2) or s2 < 0:
        raise ValueError(f"s2 must be finite and >= 0, got {s2!r}")
    from .resampling import fpc  # resampling imports this module

    return math.sqrt(s2 / n) * math.sqrt(fpc(n, N).bias_adjusted)
