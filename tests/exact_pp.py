"""Exact PP(top 10%) coverage of the three engines' percentile and BCa intervals.

Every PP unit value is 0 or 100, so a sample is summed up by t, its number
of flagged records, t ~ Hypergeometric(N, T, n), and a replicate by the
lattice point 100 c / m: c flagged units drawn in a replicate of size m.
Given t, an engine's law lists what a replication draws once, with its
weight, and for each such draw the categories (c, m) with probabilities:

* standard: nothing drawn once; c ~ Binomial(n, t/n), m = n;
* ppb: one completion, with h ~ Hypergeometric(n, t, r) flagged units
  among its r extra copies ((k, r) = divmod(N, n)); then
  c ~ Hypergeometric(N, k t + h, n), m = n;
* mirror-match: nothing drawn once; c sums k independent
  Hypergeometric(n, t, n') subsample counts and m = k n', with k = k_high
  with probability p_high and k_low otherwise, drawn per replicate.

One sum, ``coverage``, runs over t and the draws. Each draw gives, by
integer comparison, F_truth = P(c N < T m) that a replicate lies below the
truth 100 T / N, F_est = P(c n < t m) that it lies below the estimate
100 t / n (ties do not count), and which of the two is lower. The truth
must be off the lattice of every replicate size m (N / gcd(N, T) does not
divide m), or the two tails count different events. The interval, the
k1-th and k2-th order statistics of B replicates, contains the truth iff
k1 <= L < k2, where L counts the replicates below the truth:

* percentile: k1 = ceil(0.025 B), k2 = ceil(0.975 B) at level 0.95, and
  L ~ Binomial(B, F_truth);
* BCa: M0 ~ Binomial(B, F_est) and the jackknife acceleration, fixed by
  t, give the ranks (z0 = Phi^-1(M0 / B); the percentile ranks at M0 = 0
  or B). Below the truth and below the estimate are nested events for any
  law, so given M0 = m0, L ~ Binomial(m0, .) when the truth is lower and
  L - m0 ~ Binomial(B - m0, .) otherwise.

Sample counts, draws and M0 counts less likely than 1e-18 are skipped.
numpy and ``math``, and for BCa the study's own normal quantile, CDF,
tails and acceleration from ``fpboot.intervals``, so that the oracle's
ranks are the study's. Nothing here reads a random stream, so the oracle
holds whatever the engines' draws are.
"""

import math
from functools import partial

import numpy as np

from fpboot import CiType, Method, mirror_match_plan
from fpboot.intervals import _accelerations, _norm_cdf, _norm_ppf, _tails

# sample counts, draws and M0 counts less likely than this are skipped
NEGLIGIBLE = 1e-18


def log_factorials(k: int) -> np.ndarray:
    """log(i!) for i = 0 .. k."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k + 1)))))


def binomial_pmf(n: int, p: float, lf: np.ndarray) -> np.ndarray:
    """P(X = k) for k = 0 .. n, X ~ Binomial(n, p), with p clipped to [0, 1].

    The clip absorbs float dust: an exact sum of a law's terms can read
    1 + 2e-12 where the true probability is 1.
    """
    k = np.arange(n + 1)
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return (k == round(n * p)).astype(np.float64)
    return np.exp(lf[n] - lf[k] - lf[n - k] + k * math.log(p) + (n - k) * math.log1p(-p))


def hypergeometric_pmf(N: int, T: int, n: int, lf: np.ndarray) -> np.ndarray:
    """P(X = t) for t = 0 .. n, X ~ Hypergeometric(N, T, n): flagged records in an SRSWOR sample."""
    t = np.arange(n + 1)
    ok = (t <= T) & (n - t <= N - T)
    t, u = np.where(ok, t, 0), np.where(ok, n - t, 0)
    log_p = lf[T] - lf[t] - lf[T - t] + lf[N - T] - lf[u] - lf[N - T - u] - (lf[N] - lf[n] - lf[N - n])
    return np.where(ok, np.exp(log_p), 0.0)


# The laws. Given t, each returns the replication's draws as
# (weight, c, m, p): replicate categories 100 c / m with probabilities p.


def standard_law(n: int, t: int, lf: np.ndarray) -> list:
    """The standard engine's law given t: c ~ Binomial(n, t/n)."""
    return [(1.0, np.arange(n + 1), n, binomial_pmf(n, t / n, lf))]


def ppb_law(N: int, n: int, t: int, lf: np.ndarray) -> list:
    """ppb's law given t: one completion's h flagged extra copies, then c ~ Hypergeometric(N, k t + h, n)."""
    k, r = divmod(N, n)
    completions = enumerate(hypergeometric_pmf(n, t, r, lf).tolist())
    return [(w, np.arange(n + 1), n, hypergeometric_pmf(N, k * t + h, n, lf)) for h, w in completions if w]


def mirror_law(plan, n: int, t: int, lf: np.ndarray) -> list:
    """Mirror-match's law given t: c sums k subsample counts, m = k n', and k is drawn per replicate.

    ``plan`` gives the engine's n_prime, k_low, k_high and p_high, as
    ``fpboot.mirror_match_plan(n, N)`` does.
    """
    # sums[k] is the pmf of the sum of k subsamples' counts: one subsample's pmf convolved k times
    one, sums = hypergeometric_pmf(n, t, plan.n_prime, lf), [np.ones(1)]
    for _ in range(plan.k_high):
        sums.append(np.convolve(sums[-1], one))
    ks = [(k, q) for k, q in ((plan.k_low, 1.0 - plan.p_high), (plan.k_high, plan.p_high)) if q > 0.0]
    c = np.concatenate([np.arange(k * plan.n_prime + 1) for k, _ in ks])
    m = np.concatenate([np.full(k * plan.n_prime + 1, k * plan.n_prime) for k, _ in ks])
    return [(1.0, c, m, np.concatenate([q * sums[k] for k, q in ks]))]


def engine_law(method: Method, N: int, n: int, plan=None):
    """``method``'s law at sizes (N, n), a function of (t, lf); mirror-match's ``plan`` defaults to the engine's own."""
    if method is Method.MIRROR_MATCH:
        return partial(mirror_law, plan or mirror_match_plan(n, N), n)
    return partial(standard_law, n) if method is Method.STANDARD else partial(ppb_law, N, n)


def sample_draws(method: Method, N: int, T: int, n: int, lf: np.ndarray, plan=None):
    """Each flagged count t of the sample, with ``method``'s draws given t, weighted by P(t) as well.

    Mirror-match's ``plan`` defaults to the engine's own. Refuses a truth
    100 T / N that is a lattice point 100 c / m of a replicate size m.
    """
    law = engine_law(method, N, n, plan)
    for t, weight in enumerate(hypergeometric_pmf(N, T, n, lf).tolist()):
        if weight < NEGLIGIBLE:
            continue
        draws = [(weight * w, c, m, p) for w, c, m, p in law(t, lf) if weight * w >= NEGLIGIBLE]
        if any(np.any(T * m % N == 0) for _, _, m, _ in draws):
            raise ValueError("the truth is a lattice point of a replicate size; the two tails count different events")
        yield t, draws


def coverage(method: Method, ci: CiType, N: int, T: int, n: int, B: int, level: float = 0.95, plan=None) -> float:
    """Exact coverage of ``method``'s PP interval of type ``ci`` (percentile or BCa) at B replicates."""
    lf = log_factorials(max(N, B))
    total = 0.0
    for t, draws in sample_draws(method, N, T, n, lf, plan):
        if ci is CiType.BCA:
            # the sample's 0/100 values in one order: the acceleration's sums
            # depend on the order only in their last bits
            a = float(_accelerations(np.where(np.arange(n) < t, 100.0, 0.0)[None])[0])
            ranks = [bca_ranks(B, level, m0, a) for m0 in range(B + 1)]
            truth_lower = T * n < t * N
        for weight, c, m, p in draws:
            below_truth = c * N < T * m
            if ci is CiType.BCA:
                total += weight * bca_contains(B, ranks, p, below_truth, c * n < t * m, truth_lower, lf)
            else:
                total += weight * percentile_contains(B, level, float(p[below_truth].sum()), lf)
    return total


def mirror_percentile_coverage(N: int, T: int, n: int, B: int, plan, level: float = 0.95) -> float:
    """Exact coverage of the mirror-match engine's PP percentile interval under ``plan``."""
    return coverage(Method.MIRROR_MATCH, CiType.PERCENTILE, N, T, n, B, level, plan)


def percentile_contains(B: int, level: float, F: float, lf: np.ndarray) -> float:
    """P(k1 <= M < k2) for M ~ Binomial(B, F), the chance that B replicates' percentile interval contains the truth.

    F is one replicate's probability of lying below the truth, and ``lf``
    is ``log_factorials`` up to at least B.
    """
    k1, k2 = (rank(q, B) for q in _tails(level))
    return float(binomial_pmf(B, F, lf)[k1:k2].sum())


def bca_contains(B: int, ranks, p: np.ndarray, below_truth, below_est, truth_lower: bool, lf: np.ndarray) -> float:
    """P(k1 <= L < k2), the chance that B replicates' BCa interval contains the truth.

    ``p`` holds one replicate's category probabilities and ``below_truth``
    and ``below_est`` mark the categories below the truth and strictly
    below the estimate. M0 replicates lie below the estimate and set the
    ranks ``ranks[M0]``; those on the truth's side of it lie below the
    truth with probability ``share`` each, and when the estimate is lower
    all M0 do.
    """
    side = below_est if truth_lower else ~below_est
    on_side = float(p[side].sum())
    share = float(p[below_truth & side].sum()) / on_side if on_side else 0.0
    total = 0.0
    for m0, w in enumerate(binomial_pmf(B, float(p[below_est].sum()), lf).tolist()):
        if w < NEGLIGIBLE:
            continue
        k1, k2 = ranks[m0]
        base, size = (0, m0) if truth_lower else (m0, B - m0)
        total += w * float(binomial_pmf(size, share, lf)[max(k1 - base, 0) : max(k2 - base, 0)].sum())
    return total


def rank(q: float, B: int) -> int:
    """The intervals' rank rule: the ceil(q * B)-th order statistic, float dust ignored, clamped to [1, B]."""
    return min(max(math.ceil(q * B - 1e-9), 1), B)


def bca_ranks(B: int, level: float, m: int, a: float) -> tuple[int, int]:
    """The study's BCa ranks (k1, k2) when m of B replicates lie strictly below the estimate.

    The rank clamp to [1, B] covers the study's clamp of each adjusted
    tail probability to [1e-12, 1 - 1e-12].
    """
    q_lo, q_hi = _tails(level)
    if 0 < m < B:
        z0 = _norm_ppf(m / B)

        def adjusted(z: float) -> float:
            t = z0 + z
            den = 1.0 - a * t
            return _norm_cdf(z0 + t / (den if den > 0.0 else 1e-12))

        q_lo, q_hi = sorted((adjusted(_norm_ppf(q_lo)), adjusted(_norm_ppf(1.0 - q_lo))))
    return rank(q_lo, B), rank(q_hi, B)


def binomial_band(R: int, p: float, alpha: float) -> tuple[int, int]:
    """The exact two-sided 1 - alpha band of Binomial(R, p): each tail outside it holds at most alpha / 2."""
    cdf = np.cumsum(binomial_pmf(R, p, log_factorials(R)))
    lo = int(np.searchsorted(cdf, alpha / 2, side="right"))
    hi = int(np.searchsorted(cdf, 1.0 - alpha / 2, side="left"))
    return lo, hi
