"""Bootstrap engines and finite-population correction factors.

Three resampling schemes for a sample drawn without replacement from a
finite population:

* standard: with-replacement resamples of size n from the sample (ignores
  the finite population, so it overstates variance when f = n/N is large);
* pseudo-population: replicate the sample into one N-sized pseudo-population
  (floor(N/n) whole copies plus a without-replacement remainder), then
  redraw the original design (SRSWOR of size n) from it;
* mirror-match: concatenate k small without-replacement subsamples whose
  own sampling fraction mirrors the original design.

Every statistic is a mean of unit values (``unit_values``). PP(top 10%)'s
values are 0 and 100, so its replicates come from one integer per
replicate, the number of flagged units drawn: an estimate is
100.0 * count / size, rounded once like the sample estimate, so a
replicate tied with the sample equals its estimate bit for bit. MNCS
replicates are means of the drawn units' scores. Engines consume their
stream in blocks whose size depends on n alone, so results never depend
on caller memory or threading. A block holds 2**16 // n replicates, at
least one: at most 2**16 cells (512 KB of float64 or int64) whatever n is.
Stream consumption does not depend on the estimator either: given a tuple
of kinds, an engine reads every kind off the same resamples and returns
one set of replicates per kind, each equal bit for bit to a single-kind
call on the same stream.

Since every statistic is a mean of unit values, a pseudo-population or
mirror-match replicate is fully described by how often it draws each of
the n sample units. Those two engines sample a block of such count vectors
at once with ``Generator.multivariate_hypergeometric(method="count")``, a
partial shuffle in C that costs O(draws) per replicate, and reduce them
against the centred unit values with einsum. The reduction deliberately
avoids BLAS (``@``, ``np.dot``): BLAS threads started in every worker of a
study's process pool oversubscribe the cores and cancel the pool's
speed-up.

The standard engine draws each index from a 16-bit chunk of the raw
64-bit generator words while n <= 2**16, four chunks per word, by
Lemire's exact multiply-and-reject (``_multiply_reject``), and int64 with
``Generator.integers`` above that. The indices point into the sample's
units reordered flagged first, so a resample's flagged count is its
number of indices below the sample's flagged count t, and needs no
gather. Other values are gathered already centred (``_centre``) and
reduced in one pass, like the count engines' values.

The standard engine's indices and gathered values and mirror-match's unit
counts are built in block buffers that each thread keeps between blocks
and calls, so a block does not fault fresh pages in: each thread holds at
most one float64 and one int64 block between calls.
No array an engine returns views a buffer.
"""

import enum
import threading
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorKind, sample_variance, unit_values
from .sampling import RngStream, Sample

# Engines draw in blocks of at most this many cells (replicates x n).
# Fixed: the stream consumption pattern is part of the reproducibility
# contract.
_BLOCK_CELLS = 2**16


class Method(enum.Enum):
    """Which resampling scheme produced a set of bootstrap replicates."""

    STANDARD = "standard"
    PPB = "ppb"
    MIRROR_MATCH = "mirror"


@dataclass(frozen=True)
class FpcFactors:
    """The two finite-population correction factors for a given (n, N)."""

    one_minus_f: float
    bias_adjusted: float

    def __post_init__(self):
        if not 0.0 <= self.one_minus_f < 1.0:
            raise ValueError(f"one_minus_f out of range: {self.one_minus_f}")
        if not 0.0 <= self.bias_adjusted <= 1.0:
            raise ValueError(f"bias_adjusted out of range: {self.bias_adjusted}")


def fpc(n: int, N: int) -> FpcFactors:
    """Correction factors 1 - n/N and (N - n)/(N - 1)."""
    if N < 2:
        raise ValueError(f"population size must be >= 2, got {N}")
    if not 1 <= n <= N:
        raise ValueError(f"sample size must satisfy 1 <= n <= {N}, got {n}")
    return FpcFactors(one_minus_f=(N - n) / N, bias_adjusted=(N - n) / (N - 1))


def corrected_variance(v_star: float, n: int, N: int) -> float:
    """Bias-adjusted bootstrap variance: ((N - n) / (N - 1)) * v_star."""
    if not np.isfinite(v_star) or v_star < 0:
        raise ValueError(f"variance must be finite and >= 0, got {v_star!r}")
    return fpc(n, N).bias_adjusted * v_star


@dataclass(frozen=True)
class BootstrapReplicates:
    """B bootstrap estimates, optionally with a variance estimate for each replicate."""

    B: int
    estimates: np.ndarray
    t_variances: np.ndarray | None
    method: Method

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=np.float64)
        object.__setattr__(self, "estimates", est)
        if self.B < 1 or est.size != self.B:
            raise ValueError(f"expected {self.B} estimates, got {est.size}")
        if not np.all(np.isfinite(est)):
            raise ValueError("bootstrap estimates must be finite")
        if self.t_variances is not None:
            tv = np.asarray(self.t_variances, dtype=np.float64)
            object.__setattr__(self, "t_variances", tv)
            if tv.size != self.B:
                raise ValueError(f"expected {self.B} t_variances, got {tv.size}")
            if np.any(tv < 0) or not np.all(np.isfinite(tv)):
                raise ValueError("t_variances must be finite and >= 0")


def bootstrap_variance(reps: BootstrapReplicates) -> float:
    """Sample variance (denominator B - 1) of the bootstrap estimates."""
    if reps.B < 2:
        raise ValueError("bootstrap_variance requires at least two replicates")
    return sample_variance(reps.estimates)


class _Workspace(threading.local):
    """This thread's block buffers, one per dtype, kept across blocks and calls.

    A block of up to 2**16 cells is large enough that the allocator can
    hand its pages back to the system when it is freed, so a fresh
    temporary per block faults them in again on every block; a kept buffer
    faults them in once. A buffer is replaced when n changes and grown
    when a caller asks for more rows.
    """

    def __init__(self):
        self.buffers: dict[type, np.ndarray] = {}

    def block(self, dtype: type, rows: int, n: int) -> np.ndarray:
        """A rows x n block of this thread's ``dtype`` buffer, valid until the next request."""
        buf = self.buffers.get(dtype)
        if buf is None or buf.shape[1] != n or buf.shape[0] < rows:
            buf = self.buffers[dtype] = None  # free the old block before allocating
            buf = self.buffers[dtype] = np.empty((rows, n), dtype)
        return buf[:rows]


_workspace = _Workspace()


def _blocks(B: int, n: int):
    """(lo, hi) replicate ranges of the blocks of a B-replicate run at sample size n."""
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, B, rows):
        yield lo, min(lo + rows, B)


def _kinds(kind) -> tuple[EstimatorKind, ...]:
    return kind if isinstance(kind, tuple) else (kind,)


def _replicates(kind, method: Method, B: int, runs):
    """One BootstrapReplicates per (estimates, t_variances) run, shaped like ``kind``."""
    reps = tuple(BootstrapReplicates(B=B, estimates=e, t_variances=t, method=method) for e, t in runs)
    return reps if isinstance(kind, tuple) else reps[0]


def _census(kind, method: Method, B: int, vals: list[np.ndarray], with_t_variances: bool):
    """Replicates of a census sample (n = N).

    Every resample is the whole sample, so every replicate equals the
    sample mean bit for bit and has zero variance.
    """
    runs = [(np.full(B, float(v.mean())), np.zeros(B) if with_t_variances else None) for v in vals]
    return _replicates(kind, method, B, runs)


def _centre(v: np.ndarray) -> float:
    """The value an engine centres unit values on before it sums them.

    Integer values are summed as they are: their sums are exact, so a
    replicate mean is rounded once, like the sample estimate. Other values
    are centred on their mean, which keeps the one-pass variance clear of
    cancellation and a constant sample's replicates exact.
    """
    return 0.0 if np.array_equal(v, np.trunc(v)) else float(v.mean())


def _count_replicates(draw, vals: list[np.ndarray], B: int, n: int, N: int, with_t_variances: bool):
    """Replicate means and t-variances from blocks of unit counts.

    ``draw(rows)`` returns a rows x n count matrix and its row sums m. Each
    block is reduced against every array of unit values in ``vals``, and
    one (estimates, t_variances) pair is returned per array. Each array
    other than PP's gets its own 1-D einsum: on numpy 2.4 one stacked
    "rn,ne->re" call takes several times as long as the 1-D calls together.

    Values are summed centred (``_centre``), so a replicate tied with the
    sample equals its estimate bit for bit. PP's 0/100 values need no
    einsum: a replicate's sum is 100 times its count of flagged units, and
    its sum of squares 100 times that sum, the same exact integers, from
    one integer column sum that takes a quarter of the time of two mixed
    int64 x float64 einsums or less. The reductions use einsum, not ``@``,
    to stay out of BLAS threads (see the module docstring).
    """
    t_scale = (N - n) / N * (n - 1) / (n * n)  # (1 - f) * (n - 1) / n**2
    flags = [np.flatnonzero(v) if np.all((v == 0) | (v == 100)) else None for v in vals]
    centres = [_centre(v) for v in vals]
    ds = [v - c for v, c in zip(vals, centres)]
    d2s = [d * d for d in ds]
    runs = [(np.empty(B), np.empty(B) if with_t_variances else None) for _ in vals]
    for lo, hi in _blocks(B, n):
        counts, m = draw(hi - lo)
        for flagged, centre, d, d2, (est, tvar) in zip(flags, centres, ds, d2s, runs):
            if flagged is None:
                s1 = np.einsum("rn,n->r", counts, d)
            else:
                s1 = 100.0 * counts[:, flagged].sum(axis=1)
            est[lo:hi] = centre + s1 / m
            if tvar is not None:
                sq = np.einsum("rn,n->r", counts, d2) if flagged is None else 100.0 * s1
                ss = sq - s1 * s1 / m
                s2 = np.where(m > 1, ss / np.maximum(m - 1, 1), 0.0)
                tvar[lo:hi] = np.maximum(s2, 0.0) * t_scale
    return runs


def _pseudo_population(gen: np.random.Generator, n: int, N: int) -> np.ndarray:
    """Copies of each sample unit in one size-N pseudo-population.

    Every unit gets k = N // n copies, and a uniform r-subset of the units,
    r = N - k*n, gets one more (the Booth, Butler & Hall 1994 completion).
    The subset is one 0/1 draw from the stream, taken only when r > 0.
    """
    k, r = divmod(N, n)
    copies = np.full(n, k, dtype=np.int64)
    if r:
        copies += gen.multivariate_hypergeometric(np.ones(n, dtype=np.int64), r, method="count")
    return copies


# 16-bit chunks per 64-bit generator word, and the 16-bit draw's range
_CHUNKS = 4
_CHUNK = 2**16


def _chunks(gen: np.random.Generator, k: int) -> np.ndarray:
    """The next k 16-bit chunks of the stream's raw 64-bit words, lowest chunk first.

    The explicit little-endian views keep the chunk order the same on every
    host. The unused chunks of the last word are dropped.
    """
    words = gen.bit_generator.random_raw(-(-k // _CHUNKS))
    return words.astype("<u8", copy=False).view("<u2")[:k]


def _multiply_reject(x: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Lemire's multiply-and-reject step for 16-bit chunks ``x`` and n <= 2**16.

    Writes the products x * n to the int64 array ``out``, whose high bits
    (x * n) >> 16 are the indices, and returns the positions of the chunks
    the rule rejects: those with (x * n) mod 2**16 < 2**16 mod n. Every
    index in [0, n) is then accepted from exactly floor(2**16 / n) chunk
    values.
    """
    # the product in int64: a uint16 product would wrap
    np.multiply(x, n, out=out, dtype=np.int64)
    threshold = _CHUNK % n
    if not threshold:
        return np.empty(0, dtype=np.intp)
    # a uint16 product wraps to exactly (x * n) mod 2**16
    return np.flatnonzero(np.multiply(x, np.uint16(n)) < threshold)


def _resample_indices(gen: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """A rows x n int64 block of uniform indices into [0, n).

    While n <= 2**16 each index comes from one 16-bit chunk of the raw
    generator words (``_chunks``), by ``_multiply_reject``. The rejected
    cells are redrawn, in order, one chunk each from the following words,
    until every cell is accepted. The block is this thread's int64 block
    buffer, valid until its next request. Above 2**16 the block is
    ``Generator.integers``' int64 draw. Part of the reproducibility
    contract.
    """
    if n > _CHUNK:
        return gen.integers(0, n, size=(rows, n))
    idx = _workspace.block(np.int64, rows, n)
    cells = idx.reshape(-1)
    pending = _multiply_reject(_chunks(gen, cells.size), n, cells)
    while pending.size:
        prod = np.empty(pending.size, dtype=np.int64)
        rejected = _multiply_reject(_chunks(gen, pending.size), n, prod)
        cells[pending] = prod  # a cell rejected again is overwritten next round
        pending = pending[rejected]
    np.right_shift(cells, 16, out=cells)
    return idx


def standard_bootstrap(
    sample: Sample,
    B: int,
    kind: EstimatorKind | tuple[EstimatorKind, ...],
    rng: RngStream,
    with_t_variances: bool = False,
) -> BootstrapReplicates | tuple[BootstrapReplicates, ...]:
    """Efron's with-replacement bootstrap of the sample statistic.

    Each replicate resamples n records with replacement from the sample
    and re-evaluates the statistic. When requested, the replicates' variance
    estimates use the analytic form for a mean, s2_b * (n - 1) / n**2.
    A tuple of kinds gives a tuple of replicates, all read off one block
    of resampled indices. The indices point into the sample's units
    ordered flagged first, so a PP(top 10%) replicate is counted, not
    gathered. Other replicates come from one centred pass over the
    gathered values d = v - centre: the estimate is centre + sum(d) / n and
    the t-variance max(sum(d**2) - sum(d)**2 / n, 0) / n**2 (see the
    module docstring).
    """
    n = sample.n
    if n < 2:
        raise ValueError("standard_bootstrap requires a sample of size >= 2")
    if B < 1:
        raise ValueError("B must be >= 1")
    kinds = _kinds(kind)
    # flagged units first, in an order that depends on the sample alone
    order = np.argsort(~sample.top10, kind="stable")
    t = int(np.count_nonzero(sample.top10))
    vals = [None if k is EstimatorKind.PP_TOP10 else unit_values(k, sample)[order] for k in kinds]
    centres = [None if v is None else _centre(v) for v in vals]
    ds = [None if v is None else v - c for v, c in zip(vals, centres)]
    gen = rng.generator
    runs = [(np.empty(B), np.empty(B) if with_t_variances else None) for _ in vals]
    for lo, hi in _blocks(B, n):
        idx = _resample_indices(gen, hi - lo, n)
        for centre, d, (est, tvar) in zip(centres, ds, runs):
            if d is None:
                # an int32 sum takes ~2/3 of the time of count_nonzero's intp
                c = np.add.reduce(idx < t, axis=1, dtype=np.int32)
                # 100 * c / n, multiplied first: the float mean of the drawn
                # 0/100 values bit for bit
                mean = np.multiply(c, 100.0, out=est[lo:hi])
                mean /= n
                if tvar is not None:
                    # sum((x - mean)**2) / n**2 over c hundreds and n - c
                    # zeros is 100**2 * c * (n - c) / n**3: an exact
                    # integer times one constant, and exactly 0 when c is
                    # 0 or n
                    cf = c.astype(np.float64)
                    np.multiply(cf * (n - cf), 1e4 / n**3, out=tvar[lo:hi])
                continue
            # The centred values of the drawn units. Indices lie in [0, n)
            # by construction, so "clip" never clips; the default "raise"
            # would gather into a fresh temporary and copy it to ``out``.
            m = np.take(d, idx, out=_workspace.block(np.float64, hi - lo, n), mode="clip")
            # row sums by einsum, which takes half the time of add.reduce
            s1 = np.einsum("rn->r", m)
            np.add(centre, s1 / n, out=est[lo:hi])
            if tvar is not None:
                # (sum(d**2) - sum(d)**2 / n) / n**2
                ss = np.einsum("rn,rn->r", m, m) - s1 * s1 / n
                np.divide(np.maximum(ss, 0.0), n * n, out=tvar[lo:hi])
        # Above 2**16 the indices are a fresh int64 draw: free it before the
        # next block draws its own, since two blocks' indices freed
        # together can make the allocator trim the heap.
        del idx
    return _replicates(kind, Method.STANDARD, B, runs)


def ppb_bootstrap(
    sample: Sample,
    N: int,
    B: int,
    kind: EstimatorKind | tuple[EstimatorKind, ...],
    rng: RngStream,
    with_t_variances: bool = False,
) -> BootstrapReplicates | tuple[BootstrapReplicates, ...]:
    """Pseudo-population bootstrap: rerun the SRSWOR design on an N-sized replica.

    One pseudo-population per call (k whole copies of the sample plus one
    more copy of r = N - k*n sample units drawn without replacement) serves
    every replicate. Each replicate draws an SRSWOR sample of size n from
    it, sampled as the count of each sample unit in the draw, and
    re-evaluates the statistic. The replicates' variance estimates carry the
    1 - f correction. A tuple of kinds gives a tuple of replicates, all
    reduced from the same count blocks.
    """
    n = sample.n
    if N < n:
        raise ValueError(f"population size {N} smaller than sample size {n}")
    if B < 1:
        raise ValueError("B must be >= 1")
    if n < 2:
        raise ValueError("ppb_bootstrap requires a sample of size >= 2")
    vals = [unit_values(k, sample) for k in _kinds(kind)]
    gen = rng.generator

    if n == N:
        return _census(kind, Method.PPB, B, vals, with_t_variances)

    copies = _pseudo_population(gen, n, N)

    def draw(rows):
        return gen.multivariate_hypergeometric(copies, n, size=rows, method="count"), n

    return _replicates(kind, Method.PPB, B, _count_replicates(draw, vals, B, n, N, with_t_variances))


@dataclass(frozen=True)
class MirrorMatchPlan:
    """Subsample size and repeat-count schedule for the mirror-match bootstrap.

    Each bootstrap sample concatenates k subsamples of size n_prime drawn
    without replacement from the original sample; k is randomized between
    k_low and k_high so that E[1/k] = 1/k_target.
    """

    n_prime: int
    f_prime: float
    k_target: float
    k_low: int
    k_high: int
    p_high: float

    def __post_init__(self):
        if self.n_prime < 1:
            raise ValueError("n_prime must be >= 1")
        if not self.k_low <= self.k_high:
            raise ValueError("k_low must not exceed k_high")
        if not 0.0 <= self.p_high <= 1.0:
            raise ValueError(f"p_high out of range: {self.p_high}")


def mirror_match_plan(n: int, N: int) -> MirrorMatchPlan:
    """Choose mirror-match parameters for sample size n from population size N.

    The subsample size n' = round(f * n) = round(n**2 / N), halves rounded
    up, mirrors the original sampling fraction; the repeat count targets
    k = n * (1 - f') / (n' * (1 - f)) = (n - n') * N / (n' * (N - n)),
    which makes the bootstrap variance of a mean reproduce (1 - f) * s2 / n
    exactly when f' = f and approximately otherwise. k is randomized
    between floor and ceil of the target so that E[1/k] = 1/k_target: the
    variance of a replicate mean given k is (1 - f') * s2 / (k * n'), so
    E[1/k], not E[k], must match. The target is at least 1, since a
    replicate holds at least one subsample. The plan is worked out in
    integers, so k is fixed whenever the target is a whole number.
    """
    if n > N:
        raise ValueError(f"sample size {n} exceeds population size {N}")
    if n < 2:
        raise ValueError("mirror_match_plan requires n >= 2")
    n_prime = max(1, (2 * n * n + N) // (2 * N))
    # n' * (N - n) is 0 only at the census n = N, where n' = n and k is 1
    num, den = (n - n_prime) * N, max(1, n_prime * (N - n))
    # Rounding n' can make f' > f and the target fall below 1; k is 1 then.
    k_target = max(1.0, num / den)
    k_low, k_high = max(1, num // den), max(1, -(-num // den))
    # E[1/k] = 1/k_target with k_high = k_low + 1, in one rounding
    p_high = 0.0 if k_high == k_low else k_high * (num - k_low * den) / num
    return MirrorMatchPlan(
        n_prime=n_prime,
        f_prime=n_prime / n,
        k_target=k_target,
        k_low=k_low,
        k_high=k_high,
        p_high=p_high,
    )


def _mirror_counts(gen: np.random.Generator, rows: int, n: int, plan: MirrorMatchPlan):
    """Unit counts of ``rows`` mirror-match resamples, and each row's k.

    Each subsample of size n' is an SRSWOR 0/1 mask over the n units, drawn
    one subsample slot at a time for a block of rows. Every row fills its
    first k_low slots; the slots from k_low on are drawn only for the rows
    whose k is k_high, so stream use depends on the realised k. The counts
    are this thread's int64 block buffer, valid until its next mirror-match
    block.
    """
    units = np.ones(n, dtype=np.int64)
    counts = _workspace.block(np.int64, rows, n)
    kb = np.full(rows, plan.k_low)
    if plan.k_high > plan.k_low:
        high = np.flatnonzero(gen.random(rows) < plan.p_high)
        kb[high] = plan.k_high
    for j in range(plan.k_low):
        mask = gen.multivariate_hypergeometric(units, plan.n_prime, size=rows, method="count")
        if j == 0:
            counts[...] = mask  # every row keeps slot 0, since k >= 1
        else:
            counts += mask
        del mask  # one mask live at a time, like the standard engine's indices
    for _ in range(plan.k_low, plan.k_high):
        counts[high] += gen.multivariate_hypergeometric(units, plan.n_prime, size=high.size, method="count")
    return counts, kb


def mirror_match_bootstrap(
    sample: Sample,
    N: int,
    B: int,
    kind: EstimatorKind | tuple[EstimatorKind, ...],
    rng: RngStream,
    with_t_variances: bool = False,
) -> BootstrapReplicates | tuple[BootstrapReplicates, ...]:
    """Sitter-style direct bootstrap for SRSWOR.

    Each replicate draws k independent SRSWOR subsamples of size n' from
    the sample (k randomized per replicate between the plan's bounds),
    concatenates them, and evaluates the statistic on the concatenation.
    A tuple of kinds gives a tuple of replicates, all reduced from the same
    count blocks.
    """
    n = sample.n
    plan = mirror_match_plan(n, N)
    if B < 1:
        raise ValueError("B must be >= 1")
    vals = [unit_values(k, sample) for k in _kinds(kind)]
    gen = rng.generator

    if n == N:
        # the only n with n' = n: the subsample is the whole sample and k = 1
        return _census(kind, Method.MIRROR_MATCH, B, vals, with_t_variances)

    def draw(rows):
        counts, kb = _mirror_counts(gen, rows, n, plan)
        return counts, kb * plan.n_prime

    return _replicates(kind, Method.MIRROR_MATCH, B, _count_replicates(draw, vals, B, n, N, with_t_variances))
