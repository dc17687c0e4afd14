"""Exact PP(top 10%) coverage of the three engines' percentile intervals.

Every PP unit value is 0 or 100, so a sample is summed up by t, its number
of flagged records, and a replicate by c*, the flagged units it draws:
t ~ Hypergeometric(N, T, n) and, for the standard engine,
c* ~ Binomial(n, t/n). ppb completes one pseudo-population per
replication, with K = k t + h flagged records, (k, r) = divmod(N, n) and
h ~ Hypergeometric(n, t, r) the flagged units among the r extra copies;
then c* ~ Hypergeometric(N, K, n). A mirror-match replicate joins k
subsamples of size n', so c* is the sum S_k of k independent
Hypergeometric(n, t, n') draws, with k = k_high with probability p_high
and k_low otherwise, and its size is m = k n'.

A replicate of size m lies at or below the truth 100 T / N iff
c* <= floor(T m / N), and strictly below it unless the truth is a lattice
point 100 c / m (N / gcd(N, T) divides m). Off the lattice the percentile
interval, the k1-th and k2-th order statistics of B replicates
(k1 = ceil(0.025 B), k2 = ceil(0.975 B) at level 0.95), contains the truth
iff k1 <= M < k2, where M ~ Binomial(B, F) counts the replicates at or
below it and F is that event's probability given t (and, for ppb, h). The
coverage is the sum of that probability over t (and h), at the study's own
B.

The standard engine's BCa interval takes its ranks from z0 and the
jackknife acceleration a. Given t, a is fixed and z0 = Phi^-1(M0 / B),
with M0 = #{c* < t} ~ Binomial(B, P(c* < t)); ties with the estimate do
not count. The interval contains the truth iff k1 <= L < k2 for the ranks
(k1, k2) that M0 and a give, where L = #{c* <= c_a} counts the
replicates below the truth. The two events are nested, so given M0 = m,
L ~ Binomial(m, .) when c_a < t and L - m ~ Binomial(B - m, .) otherwise.
At M0 = 0 or B the study falls back to the percentile ranks.

numpy and ``math``, and for BCa the study's own normal quantile, CDF,
tails and acceleration from ``fpboot.intervals``, so that the oracle's
ranks are the study's: binomial coefficients come from a log-factorial
table built as a cumulative sum of logs. Nothing here reads a random
stream, so the oracle holds whatever the engines' draws are.
"""

import math

import numpy as np

from fpboot.intervals import _accelerations, _norm_cdf, _norm_ppf, _tails


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


def off_lattice(N: int, T: int, sizes) -> None:
    """Refuse a truth 100 T / N that is a lattice point 100 c / m of a replicate size m in ``sizes``."""
    if any(T * m % N == 0 for m in sizes):
        raise ValueError("the truth is a lattice point at this replicate size; the two tails count different events")


def _percentile_coverage(N: int, T: int, n: int, B: int, level: float, sizes, below) -> float:
    """The sum over t of P(t) times, over ``below(t, lf)``'s (weight, F) pairs, P(k1 <= M < k2).

    ``sizes`` are the replicate sizes m the engine can draw.
    """
    off_lattice(N, T, sizes)
    lf = log_factorials(max(N, B))
    coverage = 0.0
    for t, weight in enumerate(hypergeometric_pmf(N, T, n, lf).tolist()):
        if weight == 0.0:
            continue
        for w, cdf in below(t, lf):
            coverage += weight * w * percentile_contains(B, level, cdf, lf)
    return coverage


def percentile_contains(B: int, level: float, F: float, lf: np.ndarray) -> float:
    """P(k1 <= M < k2) for M ~ Binomial(B, F), the chance that B replicates' percentile interval contains the truth.

    F is one replicate's probability of lying below the truth, and ``lf``
    is ``log_factorials`` up to at least B.
    """
    k1, k2 = (rank(q, B) for q in _tails(level))
    return float(binomial_pmf(B, F, lf)[k1:k2].sum())


def rank(q: float, B: int) -> int:
    """The intervals' rank rule: the ceil(q * B)-th order statistic, float dust ignored, clamped to [1, B]."""
    return min(max(math.ceil(q * B - 1e-9), 1), B)


def standard_percentile_coverage(N: int, T: int, n: int, B: int, level: float = 0.95) -> float:
    """Exact coverage of the standard engine's PP percentile interval at B replicates."""
    c_a = T * n // N

    def below(t, lf):
        return [(1.0, float(binomial_pmf(n, t / n, lf)[: c_a + 1].sum()))]

    return _percentile_coverage(N, T, n, B, level, (n,), below)


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


def standard_bca_coverage(N: int, T: int, n: int, B: int, level: float = 0.95) -> float:
    """Exact coverage of the standard engine's PP BCa interval at B replicates."""
    off_lattice(N, T, (n,))
    c_a = T * n // N
    lf = log_factorials(max(N, B))
    coverage = 0.0
    for t, weight in enumerate(hypergeometric_pmf(N, T, n, lf).tolist()):
        if weight == 0.0:
            continue
        pmf = binomial_pmf(n, t / n, lf)
        # the sample's 0/100 values in one order: the acceleration's sums
        # depend on the order only in their last bits
        a = float(_accelerations(np.where(np.arange(n) < t, 100.0, 0.0)[None])[0])
        below_t = float(pmf[:t].sum())
        if c_a < t:
            # L of the M0 replicates below t lie below the truth as well
            share = float(pmf[: c_a + 1].sum()) / below_t if below_t else 0.0
        else:
            # all M0, and L - M0 of the others, lie below the truth
            share = float(pmf[t : c_a + 1].sum()) / float(pmf[t:].sum())
        for m, w in enumerate(binomial_pmf(B, below_t, lf).tolist()):
            if w == 0.0:
                continue
            k1, k2 = bca_ranks(B, level, m, a)
            if c_a < t:
                inner = binomial_pmf(m, share, lf)[k1:k2]
            else:
                inner = binomial_pmf(B - m, share, lf)[max(k1 - m, 0) : max(k2 - m, 0)]
            coverage += weight * w * float(inner.sum())
    return coverage


def ppb_percentile_coverage(N: int, T: int, n: int, B: int, level: float = 0.95) -> float:
    """Exact coverage of the ppb engine's PP percentile interval at B replicates."""
    k, r = divmod(N, n)
    c_a = T * n // N

    def below(t, lf):
        completions = enumerate(hypergeometric_pmf(n, t, r, lf).tolist())
        return [(w, float(hypergeometric_pmf(N, k * t + h, n, lf)[: c_a + 1].sum())) for h, w in completions if w]

    return _percentile_coverage(N, T, n, B, level, (n,), below)


def mirror_percentile_coverage(N: int, T: int, n: int, B: int, plan, level: float = 0.95) -> float:
    """Exact coverage of the mirror-match engine's PP percentile interval at B replicates.

    ``plan`` gives the engine's n_prime, k_low, k_high and p_high, as
    ``fpboot.mirror_match_plan(n, N)`` does.
    """
    # each k the engine draws, with its probability
    ks = [(k, p) for k, p in ((plan.k_low, 1.0 - plan.p_high), (plan.k_high, plan.p_high)) if p > 0.0]

    def below(t, lf):
        # sums[k] is the pmf of S_k: one subsample's pmf convolved k times
        one, sums = hypergeometric_pmf(n, t, plan.n_prime, lf), [np.ones(1)]
        for _ in range(plan.k_high):
            sums.append(np.convolve(sums[-1], one))
        return [(1.0, sum(p * float(sums[k][: T * k * plan.n_prime // N + 1].sum()) for k, p in ks))]

    return _percentile_coverage(N, T, n, B, level, [k * plan.n_prime for k, _ in ks], below)


def binomial_band(R: int, p: float, alpha: float) -> tuple[int, int]:
    """The exact two-sided 1 - alpha band of Binomial(R, p): each tail outside it holds at most alpha / 2."""
    cdf = np.cumsum(binomial_pmf(R, p, log_factorials(R)))
    lo = int(np.searchsorted(cdf, alpha / 2, side="right"))
    hi = int(np.searchsorted(cdf, 1.0 - alpha / 2, side="left"))
    return lo, hi
