"""PP(top 10%) cells against their exact coverage (``exact_pp``).

The percentile cells of all three engines, and the standard engine's BCa
cells; at small sizes, each oracle against a direct sum over every set of
B replicates.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from exact_pp import (
    binomial_band,
    binomial_pmf,
    hypergeometric_pmf,
    log_factorials,
    mirror_percentile_coverage,
    ppb_percentile_coverage,
    standard_bca_coverage,
    standard_percentile_coverage,
)
from fpboot import CiType, EstimatorKind, Method, StudyConfig, SynthSpec, coverage_study, mirror_match_plan
from fpboot.intervals import _interval_batch
from fpboot.study import resolve_population

# the acceptance population; its truth 100 * 852 / 6224 is a lattice point only where 1556 divides n
SPEC = SynthSpec(6224, 1.275, 13.7, 0.7)
R, B = 2000, 1000
# a study lands outside its band with probability at most 1e-6 per cell
ALPHA = 1e-6


def exact(method, ci, N, T, n):
    if ci is CiType.BCA:
        return standard_bca_coverage(N, T, n, B)
    if method is Method.STANDARD:
        return standard_percentile_coverage(N, T, n, B)
    if method is Method.PPB:
        return ppb_percentile_coverage(N, T, n, B)
    return mirror_percentile_coverage(N, T, n, B, mirror_match_plan(n, N))


def check_cells(spec, T, expected, ci=CiType.PERCENTILE, workers=1):
    """One study's PP cells of CI type ``ci`` inside their exact binomial bands.

    ``expected`` maps each (n, method) cell, in report order, to its exact
    coverage to four places; ``T`` is the population's flagged count.
    """
    config = StudyConfig(
        spec, tuple(dict.fromkeys(n for n, _ in expected)), B=B, repetitions=R,
        methods=tuple(dict.fromkeys(m for _, m in expected)), ci_types=(ci,),
        estimators=(EstimatorKind.PP_TOP10,), master_seed=5,
    )
    pop = resolve_population(config)
    N = pop.size
    assert int(np.count_nonzero(pop.top10)) == T
    report = coverage_study(config, population=pop, workers=workers)
    assert [(c.n, c.method) for c in report.cells] == list(expected)
    for cell in report.cells:
        p = exact(cell.method, ci, N, T, cell.n)
        assert round(p, 4) == expected[cell.n, cell.method]
        assert cell.r_effective == R
        lo, hi = binomial_band(R, p, ALPHA)
        assert lo <= round(cell.coverage * R) <= hi, (cell.n, cell.method, cell.coverage, p, (lo, hi))


def test_standard_percentile_cells_hold_their_exact_coverage():
    # the oracle reproduces the exact column of the ROADMAP's item 2 table
    check_cells(SPEC, 852, {(30, Method.STANDARD): 0.9243, (100, Method.STANDARD): 0.9454})


def test_ppb_percentile_cells_hold_their_exact_coverage():
    # one completion per replication: a sum over its flagged extra copies h as well as over t
    check_cells(SPEC, 852, {(30, Method.PPB): 0.9242, (100, Method.PPB): 0.9423})


def test_mirror_percentile_cells_hold_their_exact_coverage():
    # a replicate joins k subsamples of size n', k = k_high with probability p_high
    for n, plan in {30: (1, 29, 30, 0.1446), 100: (2, 49, 50, 0.8033)}.items():
        got = mirror_match_plan(n, SPEC.size)
        assert (got.n_prime, got.k_low, got.k_high, round(got.p_high, 4)) == plan

    # the report does not depend on the worker count; two workers halve the wall time
    expected = {(30, Method.MIRROR_MATCH): 0.9146, (100, Method.MIRROR_MATCH): 0.9429}
    check_cells(SPEC, 852, expected, workers=2)


def test_standard_bca_cells_hold_their_exact_coverage():
    # z0 counts only the replicates strictly below the estimate, and many
    # PP replicates tie with it; the truth is off the lattice at every n
    expected = {(30, Method.STANDARD): 0.9095, (100, Method.STANDARD): 0.9407, (300, Method.STANDARD): 0.9476}
    check_cells(SPEC, 852, expected, ci=CiType.BCA, workers=2)


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
    check_cells(spec, 41, expected, workers=2)


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


# Every replicate set: at small sizes each oracle's sum over B replicates
# equals a direct sum over every multiset of B replicate estimates, each
# interval built by the study's own ``_interval_batch``. One replicate's law
# comes from the oracle's pmfs; what is checked is the B-fold step: the
# rank rule, BCa's z0 (ties not below), its fallback at M0 = 0 or B and
# the nesting of M0 and L, and which draws a replication's replicates share.


def replicate_sets(categories, B):
    """Each multiset of B replicates over ``categories``, (estimate, probability) pairs: its rows and probability."""
    kept = [(v, p) for v, p in categories if p > 0.0]
    values, log_p = np.array([v for v, _ in kept]), np.log([p for _, p in kept])
    idx = np.array(list(itertools.combinations_with_replacement(range(len(kept)), B)))
    counts = np.stack([np.bincount(row, minlength=len(kept)) for row in idx])
    lf = log_factorials(B)
    return values[idx], np.exp(lf[B] - lf[counts].sum(axis=1) + counts @ log_p)


def direct_coverage(N, T, n, B, level, ci, laws):
    """The sum over t of P(t), and over ``laws(t, lf)``'s (weight, categories), of P(the interval holds the truth)."""
    lf = log_factorials(N)
    truth, coverage = 100.0 * T / N, 0.0
    for t, weight in enumerate(hypergeometric_pmf(N, T, n, lf).tolist()):
        if weight == 0.0:
            continue
        values = np.where(np.arange(n) < t, 100.0, 0.0)
        for w, categories in laws(t, lf):
            est, prob = replicate_sets(categories, B)
            rows = len(est)
            theta = np.full(rows, 100.0 * t / n)
            _, bounds = _interval_batch((ci,), level, est, theta, values=np.tile(values, (rows, 1)))
            holds = (bounds[0, :, 0] <= truth) & (truth <= bounds[0, :, 1])
            coverage += weight * w * float(prob[holds].sum())
    return coverage


# (N, T, n, B, level); each truth is off the lattice of every replicate size
STANDARD_CASES = [(20, 3, 5, 6, 0.6), (23, 5, 6, 7, 0.8), (11, 7, 5, 6, 0.7), (40, 9, 4, 5, 0.95)]


@pytest.mark.parametrize("ci", [CiType.PERCENTILE, CiType.BCA], ids=lambda ci: ci.value)
@pytest.mark.parametrize("N,T,n,B,level", STANDARD_CASES)
def test_standard_sums_match_every_replicate_set(N, T, n, B, level, ci):
    # c_a = floor(T n / N) is below some t and at or above others: both of
    # the BCa sum's branches
    def laws(t, lf):
        return [(1.0, [(100.0 * c / n, p) for c, p in enumerate(binomial_pmf(n, t / n, lf).tolist())])]

    oracle = standard_bca_coverage if ci is CiType.BCA else standard_percentile_coverage
    assert oracle(N, T, n, B, level) == pytest.approx(direct_coverage(N, T, n, B, level, ci, laws), abs=1e-12)


@pytest.mark.parametrize("N,T,n,B,level", [(20, 3, 6, 6, 0.6), (15, 4, 5, 6, 0.7), (13, 5, 4, 5, 0.8)])
def test_ppb_sum_matches_every_replicate_set(N, T, n, B, level):
    # one pseudo-population per replication: its h flagged extra copies
    # are shared by all B replicates (r = N mod n is 2, 0 and 1)
    k, r = divmod(N, n)

    def laws(t, lf):
        return [
            (w, [(100.0 * c / n, p) for c, p in enumerate(hypergeometric_pmf(N, k * t + h, n, lf).tolist())])
            for h, w in enumerate(hypergeometric_pmf(n, t, r, lf).tolist())
            if w
        ]

    expected = direct_coverage(N, T, n, B, level, CiType.PERCENTILE, laws)
    assert ppb_percentile_coverage(N, T, n, B, level) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("N,T,n,B,level", [(14, 3, 6, 5, 0.6), (20, 7, 10, 5, 0.8), (30, 4, 6, 5, 0.7)])
def test_mirror_sum_matches_every_replicate_set(N, T, n, B, level):
    # each replicate draws its own k, so replicates of sizes k_low n' and
    # k_high n' mix within one replication (k is fixed at N = 20, n = 10)
    plan = mirror_match_plan(n, N)

    def laws(t, lf):
        one, sums = hypergeometric_pmf(n, t, plan.n_prime, lf), [np.ones(1)]
        for _ in range(plan.k_high):
            sums.append(np.convolve(sums[-1], one))
        ks = ((plan.k_low, 1.0 - plan.p_high), (plan.k_high, plan.p_high)) if plan.p_high else ((plan.k_low, 1.0),)
        size = plan.n_prime
        return [(1.0, [(100.0 * c / (k * size), q * p) for k, q in ks for c, p in enumerate(sums[k].tolist())])]

    expected = direct_coverage(N, T, n, B, level, CiType.PERCENTILE, laws)
    assert mirror_percentile_coverage(N, T, n, B, plan, level) == pytest.approx(expected, abs=1e-12)
