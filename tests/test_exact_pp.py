"""PP(top 10%) percentile cells of the standard and ppb engines against their exact coverage (``exact_pp``)."""

import numpy as np
import pytest

from exact_pp import binomial_band, ppb_percentile_coverage, standard_percentile_coverage
from fpboot import CiType, EstimatorKind, Method, StudyConfig, SynthSpec, coverage_study
from fpboot.study import resolve_population

# the acceptance population; its truth 100 * 852 / 6224 is a lattice point only where 1556 divides n
SPEC = SynthSpec(6224, 1.275, 13.7, 0.7)
R, B = 2000, 1000
# a study lands outside its band with probability at most 1e-6 per cell
ALPHA = 1e-6


def check_percentile_cells(method, exact, expected):
    """A study's PP percentile cells at n = 30 and 100 (N mod n > 0) inside their exact binomial bands."""
    config = StudyConfig(
        SPEC, (30, 100), B=B, repetitions=R, methods=(method,), ci_types=(CiType.PERCENTILE,),
        estimators=(EstimatorKind.PP_TOP10,), master_seed=5,
    )
    pop = resolve_population(config)
    N, T = pop.size, int(np.count_nonzero(pop.top10))
    assert (N, T) == (6224, 852)
    report = coverage_study(config, population=pop, workers=1)
    assert [c.n for c in report.cells] == list(expected)
    for cell in report.cells:
        p = exact(N, T, cell.n, B)
        assert round(p, 4) == expected[cell.n]
        assert cell.r_effective == R
        lo, hi = binomial_band(R, p, ALPHA)
        assert lo <= round(cell.coverage * R) <= hi, (cell.n, cell.coverage, p, (lo, hi))


def test_standard_percentile_cells_hold_their_exact_coverage():
    # the oracle reproduces the exact column of the ROADMAP's item 2 table
    check_percentile_cells(Method.STANDARD, standard_percentile_coverage, {30: 0.9243, 100: 0.9454})


def test_ppb_percentile_cells_hold_their_exact_coverage():
    # one completion per replication: a sum over its flagged extra copies h as well as over t
    check_percentile_cells(Method.PPB, ppb_percentile_coverage, {30: 0.9242, 100: 0.9423})


def test_lattice_truth_is_refused():
    with pytest.raises(ValueError, match="lattice point"):
        standard_percentile_coverage(6224, 852, 3112, B)
