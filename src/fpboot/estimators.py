"""The two citation indicators and the sample variance.

Both indicators are means of a per-record value: the citation score for
MNCS, and 100/0 for the top-10% flag for PP(top 10%). Keeping proportions
on the percent scale end to end means interval lengths for the two
indicators are directly comparable in reports. ``estimate(kind, records)``
is the one indicator function; it takes a ``Population`` or a ``Sample``,
whose constructors reject empty input.
"""

import enum

import numpy as np

from .sampling import _finite


class EstimatorKind(enum.Enum):
    """Which indicator to compute over a set of records."""

    MNCS = "mncs"
    PP_TOP10 = "pp_top10"


def unit_values(kind: EstimatorKind, records) -> np.ndarray:
    """Per-record values whose plain mean is the indicator.

    ``records`` is a :class:`~fpboot.sampling.Population` or a
    :class:`~fpboot.sampling.Sample`. MNCS: the citation scores. PP(top
    10%): 100.0 for flagged records and 0.0 otherwise, so the mean is
    already in percent. The indicator, the population truth and the MNCS
    bootstrap replicates are means of this array. The engines take a
    PP(top 10%) replicate from its integer count c of flagged units as
    100.0 * c / size, which is the mean of its 0/100 values bit for bit.
    """
    if kind is EstimatorKind.MNCS:
        return records.ncs
    if kind is EstimatorKind.PP_TOP10:
        return np.where(records.top10, 100.0, 0.0)
    raise ValueError(f"unknown estimator kind: {kind!r}")


def estimate(kind: EstimatorKind, records) -> float:
    """The indicator ``kind`` over a population or sample: MNCS, or PP(top 10%) in percent."""
    return float(unit_values(kind, records).mean())


def sample_variance(values) -> float:
    """Unbiased sample variance, denominator n - 1, of a 1-d array of at least two finite numbers.

    Exactly 0.0 for a bitwise-constant input, so degenerate census cases
    propagate true zeros instead of rounding dust.
    """
    arr = _finite("each value", values, nonnegative=False)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"sample_variance requires a 1-d array of at least two values, got shape {arr.shape}")
    return float(_row_variances(arr[None])[0])


def _row_variances(rows: np.ndarray) -> np.ndarray:
    """``sample_variance`` of each row of a 2-D array."""
    var = rows.var(axis=1, ddof=1)
    var[rows.min(axis=1) == rows.max(axis=1)] = 0.0
    return var

