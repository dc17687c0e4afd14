"""PP(top 10%) cells against their exact coverage (``exact_pp``).

The percentile and BCa cells of all three engines; at small sizes, the
oracle against a direct sum over every set of B replicates.
"""

import itertools
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from exact_pp import binomial_band, coverage, engine_law, log_factorials, mirror_percentile_coverage, sample_draws
from fpboot import CiType, EstimatorKind, Method, StudyConfig, SynthSpec, coverage_study
from fpboot.estimators import sample_variance
from fpboot.intervals import _interval_batch
from fpboot.study import resolve_population

STANDARD, PPB, MIRROR = Method.STANDARD, Method.PPB, Method.MIRROR_MATCH
PERCENTILE, BCA = CiType.PERCENTILE, CiType.BCA

# the acceptance population; its truth 100 * 852 / 6224 is a lattice point only where 1556 divides n
SPEC = SynthSpec(6224, 1.275, 13.7, 0.7)
R, B = 2000, 1000
# a study lands outside its band with probability at most 1e-6 per cell
ALPHA = 1e-6

# (n, method, CI type) -> exact coverage to four places, on the acceptance
# population. ppb's BCa cell at n = 100 (0.9380) is left out: its sum takes
# seconds. At n = 30 mirror-match's k is 29 or 30 (p_high 0.1446) with
# n' = 1, at n = 100 it is 49 or 50 (p_high 0.8033) with n' = 2.
CELLS = {
    (30, STANDARD, PERCENTILE): 0.9243, (30, STANDARD, BCA): 0.9095,
    (30, PPB, PERCENTILE): 0.9242, (30, PPB, BCA): 0.9072,
    (30, MIRROR, PERCENTILE): 0.9146, (30, MIRROR, BCA): 0.9153,
    (100, STANDARD, PERCENTILE): 0.9454, (100, STANDARD, BCA): 0.9407,
    (100, PPB, PERCENTILE): 0.9423,
    (100, MIRROR, PERCENTILE): 0.9429, (100, MIRROR, BCA): 0.9396,
    (300, STANDARD, PERCENTILE): 0.9492, (300, STANDARD, BCA): 0.9476,
}


def check_cells(spec, T, expected):
    """One study's PP cells inside their exact binomial bands, at two workers.

    ``expected`` maps (n, method, CI type) cells to their exact coverage to
    four places; the study runs every combination of their sizes, methods
    and CI types, and ``T`` is the population's flagged count.
    """
    config = StudyConfig(
        spec, tuple(dict.fromkeys(n for n, _, _ in expected)), B=B, repetitions=R,
        methods=tuple(dict.fromkeys(m for _, m, _ in expected)),
        ci_types=tuple(dict.fromkeys(ci for *_, ci in expected)),
        estimators=(EstimatorKind.PP_TOP10,), master_seed=5, ci_pairing="all",
    )
    pop = resolve_population(config)
    N = pop.size
    assert int(np.count_nonzero(pop.top10)) == T
    report = coverage_study(config, population=pop, workers=2)
    cells = [c for c in report.cells if (c.n, c.method, c.ci_type) in expected]
    assert len(cells) == len(expected)
    for cell in cells:
        p = coverage(cell.method, cell.ci_type, N, T, cell.n, B)
        assert round(p, 4) == expected[cell.n, cell.method, cell.ci_type]
        assert cell.r_effective == R
        lo, hi = binomial_band(R, p, ALPHA)
        assert lo <= round(cell.coverage * R) <= hi, (cell.n, cell.method, cell.ci_type, cell.coverage, p, (lo, hi))


@pytest.mark.parametrize("sizes", [(30, 100), (300,)], ids=lambda sizes: "-".join(map(str, sizes)))
def test_table_cells_hold_their_exact_coverage(sizes):
    # BCa's z0 counts only the replicates strictly below the estimate, and
    # many PP replicates tie with it; the truth is off the lattice at every n
    check_cells(SPEC, 852, {cell: p for cell, p in CELLS.items() if cell[0] in sizes})


def test_large_fraction_cells_hold_their_exact_coverage():
    # f = 2/3 and 5/6 with N mod n = 100 and 50: ppb completes each
    # pseudo-population with that many extra copies, its large-f law
    spec = SynthSpec(300, 1.275, 13.7, 0.7)
    expected = {
        (200, PPB, PERCENTILE): 0.9000, (200, MIRROR, PERCENTILE): 0.9445,
        (250, PPB, PERCENTILE): 0.8631, (250, MIRROR, PERCENTILE): 0.9373,
    }
    check_cells(spec, 41, expected)


@pytest.mark.parametrize("p,band", [(0.0, (0, 0)), (-2e-12, (0, 0)), (1.0, (R, R)), (1.0 + 2e-12, (R, R))])
def test_band_of_a_sure_event(p, band):
    # an exact coverage can sum to 1 + 2e-12 (the standard engine's MNCS
    # percentile at N = 12, n = 11); float dust past [0, 1] is clipped
    assert binomial_band(R, p, ALPHA) == band


def test_lattice_truth_is_refused():
    with pytest.raises(ValueError, match="lattice point"):
        coverage(STANDARD, PERCENTILE, 6224, 852, 3112, B)


def test_mirror_lattice_is_each_replicate_size():
    # the truth 100 * 213 / 1556 is a lattice point of size-1556 replicates,
    # whatever n is, and of none of sizes 3 and 4 even at n = 1556
    with pytest.raises(ValueError, match="lattice point"):
        mirror_percentile_coverage(6224, 852, 100, B, SimpleNamespace(n_prime=2, k_low=389, k_high=778, p_high=0.5))
    plan = SimpleNamespace(n_prime=1, k_low=3, k_high=4, p_high=0.5)
    assert 0.0 < mirror_percentile_coverage(6224, 852, 1556, B, plan) < 1.0


# Each law against its engine's closed-form moments given the sample, at
# every t: the direct sums below read the same laws, so this and the study
# table are what tie a law to its engine. Replicates average 100 t / n. They
# vary by (n - 1) s2 / n^2 (standard) or (1 - f) s2 / n (mirror-match, whose
# E[1/k] is matched). Each ppb draw is a pseudo-population of mean mu: its
# replicates vary by (1 - f) N mu (100 - mu) / ((N - 1) n), and mu by the
# r-of-n completion's r (1 - r/n) s2 / N^2. The pmfs sum to 1 within 2e-12.
@pytest.mark.parametrize(
    "method,N,n",
    [(STANDARD, 20, 5), (STANDARD, 6224, 30), (PPB, 20, 6), (PPB, 15, 5), (PPB, 6224, 100),
     (MIRROR, 20, 10), (MIRROR, 6224, 30), (MIRROR, 6224, 100)],
    ids=lambda v: getattr(v, "value", None),
)
def test_law_has_its_engines_moments(method, N, n):
    f, r, lf, close = n / N, N % n, log_factorials(N), partial(pytest.approx, rel=1e-9, abs=1e-9)
    for t in range(n + 1):
        s2 = sample_variance(np.where(np.arange(n) < t, 100.0, 0.0))
        w, p, x = zip(*((w, p, 100.0 * c / m) for w, c, m, p in engine_law(method, N, n)(t, lf)))
        w, mu = np.array(w), np.array([q @ v for q, v in zip(p, x)])
        within = {STANDARD: (n - 1) * s2 / n**2, PPB: (1 - f) * N * mu * (100.0 - mu) / ((N - 1) * n), MIRROR: (1 - f) * s2 / n}
        assert [q.sum() for q in p] + [w.sum()] == close([1.0] * (len(p) + 1))
        assert np.array([q @ (v - u) ** 2 for q, v, u in zip(p, x, mu)]) == close(within[method])
        mean, spread = w @ mu, r * (1 - r / n) * s2 / N**2 if method is PPB else 0.0
        assert (mean, w @ (mu - mean) ** 2) == close((100.0 * t / n, spread))


# Every replicate set: at small sizes the oracle's sum over B replicates
# equals a direct sum over every multiset of B replicate estimates, each
# interval built by the study's own ``_interval_batch``. Both read the same
# laws; what is checked is the B-fold step: the rank rule, BCa's z0 (ties
# not below), its fallback at M0 = 0 or B and the nesting of M0 and L, and
# which draws a replication's replicates share.


def replicate_sets(values, p, B):
    """Each multiset of B replicates over categories ``values`` with probabilities ``p``: its rows and probability."""
    kept = p > 0.0
    values, log_p = values[kept], np.log(p[kept])
    idx = np.array(list(itertools.combinations_with_replacement(range(len(values)), B)))
    counts = np.stack([np.bincount(row, minlength=len(values)) for row in idx])
    lf = log_factorials(B)
    return values[idx], np.exp(lf[B] - lf[counts].sum(axis=1) + counts @ log_p)


def direct_coverage(method, ci, N, T, n, B, level):
    """The sum over t and the law's draws of P(the interval of B replicates holds the truth), set by set."""
    truth, total = 100.0 * T / N, 0.0
    for t, draws in sample_draws(method, N, T, n, log_factorials(N)):
        values = np.where(np.arange(n) < t, 100.0, 0.0)
        for weight, c, m, p in draws:
            est, prob = replicate_sets(100.0 * c / m, p, B)
            rows = len(est)
            theta = np.full(rows, 100.0 * t / n)
            _, bounds = _interval_batch((ci,), level, est, theta, values=np.tile(values, (rows, 1)))
            holds = (bounds[0, :, 0] <= truth) & (truth <= bounds[0, :, 1])
            total += weight * float(prob[holds].sum())
    return total


# (method, N, T, n, B, level); each truth is off the lattice of every
# replicate size. The standard cases' truth is below some t and at or above
# others: both branches of the BCa sum. ppb's r = N mod n is 2, 0 and 1,
# and its h flagged extra copies are shared by all B replicates.
# Mirror-match's replicates draw their own k, so sizes k_low n' and
# k_high n' mix within one replication (k is fixed at N = 20, n = 10).
DIRECT_CASES = [
    (STANDARD, 20, 3, 5, 6, 0.6), (STANDARD, 23, 5, 6, 7, 0.8), (STANDARD, 11, 7, 5, 6, 0.7), (STANDARD, 40, 9, 4, 5, 0.95),
    (PPB, 20, 3, 6, 6, 0.6), (PPB, 15, 4, 5, 6, 0.7), (PPB, 13, 5, 4, 5, 0.8),
    (MIRROR, 14, 3, 6, 5, 0.6), (MIRROR, 20, 7, 10, 5, 0.8), (MIRROR, 30, 4, 6, 5, 0.7),
]


@pytest.mark.parametrize("ci", [PERCENTILE, BCA], ids=lambda ci: ci.value)
@pytest.mark.parametrize("method,N,T,n,B,level", DIRECT_CASES, ids=lambda v: getattr(v, "value", None))
def test_oracle_matches_every_replicate_set(method, N, T, n, B, level, ci):
    expected = direct_coverage(method, ci, N, T, n, B, level)
    assert coverage(method, ci, N, T, n, B, level) == pytest.approx(expected, abs=1e-12)
