"""One replication's interval rebuilt from the public constructors, as a Python caller would."""

import math
from collections import Counter

from fpboot import (
    CiType,
    DegenerateDistributionError,
    bootstrap_variance,
    ci_bca,
    ci_bootstrap_t,
    ci_normal,
    ci_percentile,
    estimate,
    jackknife_acceleration,
)


def public_interval(ci, reps, sample, kind, level=0.95, events=None):
    """One replication's (lower, upper) from the public constructors, NaN where no interval forms.

    The chain a caller follows: ``bootstrap_variance`` for ``ci_normal`` and
    ``ci_bootstrap_t``, ``jackknife_acceleration`` for ``ci_bca``, which
    falls back to ``ci_percentile`` on DegenerateDistributionError; that
    error from ``ci_bootstrap_t`` means no interval. ``events``, if given,
    counts the BCa fallbacks and each bootstrap-t outcome.
    """
    events = Counter() if events is None else events
    theta_hat, v_hat = estimate(kind, sample), bootstrap_variance(reps)
    if ci is CiType.NORMAL:
        iv = ci_normal(theta_hat, v_hat, level)
    elif ci is CiType.PERCENTILE:
        iv = ci_percentile(reps, level)
    elif ci is CiType.BCA:
        try:
            iv = ci_bca(reps, theta_hat, jackknife_acceleration(sample, kind), level)
        except DegenerateDistributionError:
            events["bca fallback"] += 1
            iv = ci_percentile(reps, level)
    else:
        try:
            iv = ci_bootstrap_t(reps, theta_hat, v_hat, level)
        except DegenerateDistributionError:
            events["boot-t rejected"] += 1
            return math.nan, math.nan
        events["boot-t census point" if v_hat == 0.0 else "boot-t"] += 1
    return iv.lower, iv.upper
