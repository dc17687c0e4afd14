"""Exact MNCS coverage of the three engines' percentile intervals on tiny populations, by enumeration.

On a population of a dozen records every step of a replication can be
listed. The sample is one of the C(N, n) equally likely n-subsets. Given
the sample, each engine's resamples are listed with their probabilities:

* standard: the C(2n - 1, n) count vectors c of n draws with replacement,
  each with its multinomial weight n! / (c_1! ... c_n! n**n);
* ppb: one of the C(n, r) equally likely completions of the
  pseudo-population ((k, r) = divmod(N, n): k copies of every sample unit,
  and one more of r of them), then the C(N, n) equally likely n-subsets of
  its N slots;
* mirror-match: the C(n, n')**k equally likely k-tuples of size-n'
  subsets, k = k_high with probability p_high and k_low otherwise.

That gives F, the probability that one replicate mean lies below the
truth (the population mean), and the percentile interval contains the
truth with probability P(k1 <= M < k2), M ~ Binomial(B, F)
(``exact_pp.percentile_contains``). ppb draws one completion per call,
so this rule is applied per (sample, completion) and the results are
averaged; averaging F over completions first gives another law.

A replicate mean equal to the truth would fall in neither tail, so a
population where one comes within rounding of it is refused. numpy and
``itertools`` only; nothing here reads a random stream.
"""

import itertools
import math

import numpy as np

from exact_pp import log_factorials, percentile_contains


def subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one per row in lexicographic order: a C(n, k) x k index array."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)


def indicators(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as a 0/1 row of length n: a C(n, k) x n float array."""
    rows = subsets(n, k)
    out = np.zeros((rows.shape[0], n))
    np.put_along_axis(out, rows, 1.0, axis=1)
    return out


def count_vectors(n: int) -> np.ndarray:
    """Every vector of n counts >= 0 summing to n, by stars and bars: a C(2n - 1, n) x n int array."""
    bars = subsets(2 * n - 1, n - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), 2 * n - 1)])
    return np.diff(edges, axis=1) - 1


def _coverage(truth: float, B: int, level: float, means: np.ndarray, weights: np.ndarray) -> float:
    """The coverage, given every replicate mean on the last axis of ``means`` and its probability in ``weights``.

    The leading axes list the equally likely samples and, for ppb, the
    equally likely completions of each.
    """
    if np.min(np.abs(means - truth)) <= 1e-9 * abs(truth):
        raise ValueError("a replicate mean ties the truth; the two tails count different events")
    F = (means < truth) @ weights
    lf = log_factorials(B)
    # F takes few distinct values: each is worked out once
    values, inverse = np.unique(F.reshape(-1), return_inverse=True)
    contains = np.array([percentile_contains(B, level, f, lf) for f in values.tolist()])
    return float(contains[inverse].mean())


def standard_percentile_coverage(values, n: int, B: int, level: float = 0.95) -> float:
    """Exact coverage of the standard engine's MNCS percentile interval at B replicates."""
    values = np.asarray(values, dtype=np.float64)
    X = values[subsets(values.size, n)]
    counts = count_vectors(n)
    lf = log_factorials(n)
    weights = np.exp(lf[n] - lf[counts].sum(axis=1) - n * math.log(n))
    return _coverage(float(values.mean()), B, level, X @ counts.T / n, weights)


def ppb_percentile_coverage(values, n: int, B: int, level: float = 0.95) -> float:
    """Exact coverage of the ppb engine's MNCS percentile interval at B replicates."""
    values = np.asarray(values, dtype=np.float64)
    N = values.size
    k, r = divmod(N, n)
    X = values[subsets(N, n)]
    # slots[sample, completion]: the N values of one pseudo-population, k
    # copies of the sample and then the completion's r extra units
    extra = X[:, subsets(n, r)]
    copies = np.broadcast_to(np.tile(X, k)[:, None], extra.shape[:2] + (k * n,))
    slots = np.concatenate([copies, extra], axis=2)
    picks = indicators(N, n)
    return _coverage(float(values.mean()), B, level, slots @ picks.T / n, np.full(len(picks), 1 / len(picks)))


def mirror_percentile_coverage(values, n: int, B: int, plan, level: float = 0.95) -> float:
    """Exact coverage of the mirror-match engine's MNCS percentile interval at B replicates.

    ``plan`` gives the engine's n_prime, k_low, k_high and p_high, as
    ``fpboot.mirror_match_plan(n, N)`` does.
    """
    values = np.asarray(values, dtype=np.float64)
    X = values[subsets(values.size, n)]
    # one subsample's sum, for each of the C(n, n') subsamples
    one = X @ indicators(n, plan.n_prime).T
    sums, parts = one, []
    for k in range(1, plan.k_high + 1):
        if k > 1:
            # every k-tuple: the (k - 1)-tuples' sums plus one more subsample
            sums = (sums[:, :, None] + one[:, None, :]).reshape(X.shape[0], -1)
        p = (k == plan.k_low) * (1.0 - plan.p_high) + (k == plan.k_high) * plan.p_high
        if p > 0.0:
            parts.append((sums / (k * plan.n_prime), np.full(sums.shape[1], p / sums.shape[1])))
    means = np.concatenate([m for m, _ in parts], axis=1)
    weights = np.concatenate([w for _, w in parts])
    return _coverage(float(values.mean()), B, level, means, weights)
