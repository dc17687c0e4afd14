"""PP(top 10%) percentile cells of the three engines against their exact coverage (``exact_pp``)."""

from types import SimpleNamespace

import numpy as np
import pytest

from exact_pp import binomial_band, mirror_percentile_coverage, ppb_percentile_coverage, standard_percentile_coverage
from fpboot import CiType, EstimatorKind, Method, StudyConfig, SynthSpec, coverage_study, mirror_match_plan
from fpboot.study import resolve_population

# the acceptance population; its truth 100 * 852 / 6224 is a lattice point only where 1556 divides n
SPEC = SynthSpec(6224, 1.275, 13.7, 0.7)
R, B = 2000, 1000
# a study lands outside its band with probability at most 1e-6 per cell
ALPHA = 1e-6


def exact(method, N, T, n):
    if method is Method.STANDARD:
        return standard_percentile_coverage(N, T, n, B)
    if method is Method.PPB:
        return ppb_percentile_coverage(N, T, n, B)
    return mirror_percentile_coverage(N, T, n, B, mirror_match_plan(n, N))


def check_percentile_cells(spec, T, expected, workers=1):
    """One study's PP percentile cells inside their exact binomial bands.

    ``expected`` maps each (n, method) cell, in report order, to its exact
    coverage to four places; ``T`` is the population's flagged count.
    """
    config = StudyConfig(
        spec, tuple(dict.fromkeys(n for n, _ in expected)), B=B, repetitions=R,
        methods=tuple(dict.fromkeys(m for _, m in expected)), ci_types=(CiType.PERCENTILE,),
        estimators=(EstimatorKind.PP_TOP10,), master_seed=5,
    )
    pop = resolve_population(config)
    N = pop.size
    assert int(np.count_nonzero(pop.top10)) == T
    report = coverage_study(config, population=pop, workers=workers)
    assert [(c.n, c.method) for c in report.cells] == list(expected)
    for cell in report.cells:
        p = exact(cell.method, N, T, cell.n)
        assert round(p, 4) == expected[cell.n, cell.method]
        assert cell.r_effective == R
        lo, hi = binomial_band(R, p, ALPHA)
        assert lo <= round(cell.coverage * R) <= hi, (cell.n, cell.method, cell.coverage, p, (lo, hi))


def test_standard_percentile_cells_hold_their_exact_coverage():
    # the oracle reproduces the exact column of the ROADMAP's item 2 table
    check_percentile_cells(SPEC, 852, {(30, Method.STANDARD): 0.9243, (100, Method.STANDARD): 0.9454})


def test_ppb_percentile_cells_hold_their_exact_coverage():
    # one completion per replication: a sum over its flagged extra copies h as well as over t
    check_percentile_cells(SPEC, 852, {(30, Method.PPB): 0.9242, (100, Method.PPB): 0.9423})


def test_mirror_percentile_cells_hold_their_exact_coverage():
    # a replicate joins k subsamples of size n', k = k_high with probability p_high
    for n, plan in {30: (1, 29, 30, 0.1446), 100: (2, 49, 50, 0.8033)}.items():
        got = mirror_match_plan(n, SPEC.size)
        assert (got.n_prime, got.k_low, got.k_high, round(got.p_high, 4)) == plan

    # the report does not depend on the worker count; two workers halve the wall time
    expected = {(30, Method.MIRROR_MATCH): 0.9146, (100, Method.MIRROR_MATCH): 0.9429}
    check_percentile_cells(SPEC, 852, expected, workers=2)


def test_large_fraction_cells_hold_their_exact_coverage():
    # f = 2/3 and 5/6 with N mod n = 100 and 50: ppb completes each
    # pseudo-population with that many extra copies, its large-f law
    spec = SynthSpec(300, 1.275, 13.7, 0.7)
    expected = {
        (200, Method.PPB): 0.9000,
        (200, Method.MIRROR_MATCH): 0.9445,
        (250, Method.PPB): 0.8631,
        (250, Method.MIRROR_MATCH): 0.9373,
    }
    check_percentile_cells(spec, 41, expected, workers=2)


@pytest.mark.parametrize("p,band", [(0.0, (0, 0)), (-2e-12, (0, 0)), (1.0, (R, R)), (1.0 + 2e-12, (R, R))])
def test_band_of_a_sure_event(p, band):
    # an exact coverage can sum to 1 + 2e-12 (the standard engine's MNCS
    # percentile at N = 12, n = 11); float dust past [0, 1] is clipped
    assert binomial_band(R, p, ALPHA) == band


def test_lattice_truth_is_refused():
    with pytest.raises(ValueError, match="lattice point"):
        standard_percentile_coverage(6224, 852, 3112, B)


def test_mirror_lattice_is_each_replicate_size():
    # the truth 100 * 213 / 1556 is a lattice point of size-1556 replicates,
    # whatever n is, and of none of sizes 3 and 4 even at n = 1556
    with pytest.raises(ValueError, match="lattice point"):
        mirror_percentile_coverage(6224, 852, 100, B, SimpleNamespace(n_prime=2, k_low=389, k_high=778, p_high=0.5))
    plan = SimpleNamespace(n_prime=1, k_low=3, k_high=4, p_high=0.5)
    assert 0.0 < mirror_percentile_coverage(6224, 852, 1556, B, plan) < 1.0
