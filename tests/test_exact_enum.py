"""MNCS percentile cells of the three engines against their exact coverage on a 12-record population (``exact_enum``)."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from exact_enum import (
    count_vectors,
    mirror_percentile_coverage,
    ppb_percentile_coverage,
    standard_percentile_coverage,
)
from exact_pp import binomial_band, log_factorials, percentile_contains
from fpboot import CiType, EstimatorKind, Method, StudyConfig, SynthSpec, coverage_study, mirror_match_plan
from fpboot.study import resolve_population

SPEC = SynthSpec(12, 1.275, 13.7, 0.7)
R, B = 4000, 1000
# a study lands outside its band with probability at most 1e-6 per cell
ALPHA = 1e-6
# exact coverage at f = 3/12, 5/12, 9/12 and 11/12, where N mod n is 0, 2,
# 3 and 1; ppb at n = 9 and 11 are the large-f cells where its
# pseudo-population's completion bites. The standard engine's coverage at
# n = 11 is 1 to twelve places (its sum reads 1 + 2e-12): its band is [R, R].
EXACT = {
    (3, Method.STANDARD): 0.8140,
    (3, Method.PPB): 0.6282,
    (3, Method.MIRROR_MATCH): 0.8182,
    (5, Method.STANDARD): 0.8971,
    (5, Method.PPB): 0.8112,
    (5, Method.MIRROR_MATCH): 0.8512,
    (9, Method.STANDARD): 0.9797,
    (9, Method.PPB): 0.8195,
    (9, Method.MIRROR_MATCH): 0.9022,
    (11, Method.STANDARD): 1.0,
    (11, Method.PPB): 0.7045,
    (11, Method.MIRROR_MATCH): 0.8333,
}


def exact(values, n, method):
    if method is Method.STANDARD:
        return standard_percentile_coverage(values, n, B)
    if method is Method.PPB:
        return ppb_percentile_coverage(values, n, B)
    return mirror_percentile_coverage(values, n, B, mirror_match_plan(n, values.size))


def test_mncs_percentile_cells_hold_their_exact_coverage():
    for n, plan in {3: (1, 2, 3, 0.75), 11: (10, 1, 2, 1 / 3)}.items():
        got = mirror_match_plan(n, SPEC.size)
        assert (got.n_prime, got.k_low, got.k_high, got.p_high) == pytest.approx(plan, rel=1e-12)
    config = StudyConfig(
        SPEC, (3, 5, 9, 11), B=B, repetitions=R, methods=(Method.STANDARD, Method.PPB, Method.MIRROR_MATCH),
        ci_types=(CiType.PERCENTILE,), estimators=(EstimatorKind.MNCS,), master_seed=5,
    )
    pop = resolve_population(config)
    report = coverage_study(config, population=pop, workers=2)
    assert [(c.n, c.method) for c in report.cells] == list(EXACT)
    for cell in report.cells:
        p = exact(pop.ncs, cell.n, cell.method)
        assert round(p, 4) == EXACT[cell.n, cell.method]
        assert cell.r_effective == R
        lo, hi = binomial_band(R, p, ALPHA)
        assert lo <= round(cell.coverage * R) <= hi, (cell.n, cell.method, cell.coverage, p, (lo, hi))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_count_vectors_are_the_multinomial_law(n):
    counts = count_vectors(n)
    assert counts.shape == (math.comb(2 * n - 1, n), n)
    assert (counts >= 0).all() and (counts.sum(axis=1) == n).all()
    assert len({tuple(c) for c in counts.tolist()}) == counts.shape[0]
    lf = log_factorials(n)
    assert np.exp(lf[n] - lf[counts].sum(axis=1) - n * math.log(n)).sum() == pytest.approx(1.0, rel=1e-12)


def test_one_unit_subsamples_count_the_units_below():
    # k = 1 subsample of one unit: F is the sample's share of units below the
    # truth, so a fixed k (p_high = 0) must weigh its replicates fully
    values = np.arange(1.0, 9.0) ** 1.5
    below = [np.mean(values[list(s)] < values.mean()) for s in itertools.combinations(range(8), 4)]
    lf = log_factorials(B)
    direct = np.mean([percentile_contains(B, 0.95, f, lf) for f in below])
    plan = SimpleNamespace(n_prime=1, k_low=1, k_high=1, p_high=0.0)
    assert mirror_percentile_coverage(values, 4, B, plan) == pytest.approx(direct, rel=1e-12)


def test_a_replicate_at_the_truth_is_refused():
    # the sample {1, 3} draws each unit once with probability 1/2: mean 2, the truth
    with pytest.raises(ValueError, match="ties the truth"):
        standard_percentile_coverage([1.0, 2.0, 3.0], 2, B)
