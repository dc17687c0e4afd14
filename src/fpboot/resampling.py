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

Every statistic is a mean of unit values (``unit_values``). An engine
only draws its resamples, as indices (standard) or as counts of each
sample unit (pseudo-population, mirror-match); one reduction, ``_reduce``,
turns them into estimates and t-variances, (1 - f) * (n - 1) / n**2 * s2
with 1 - f = 1 for the standard engine. The reduction also holds the
checks every engine shares (n >= 2, B >= 1) and the census shortcut: where
1 - f is 0 (ppb or mirror-match at n = N) it returns the sample mean as
every replicate, with zero t-variances, before the first draw. A
PP(top 10%) replicate comes from one integer, the number of flagged units
drawn: 100.0 * count / size, rounded once like the sample estimate, so a
replicate tied with the sample equals it bit for bit.

Engines consume their stream in blocks whose size depends on n alone, so
results never depend on caller memory or threading. A block holds
2**16 // n replicates, at least one: at most 2**16 cells (512 KB of
float64 or int64) while n <= 2**16, and one replicate of n cells above.
Stream consumption does not depend on the estimator either: given a tuple
of kinds, an engine reads every kind off the same resamples and returns
one set of replicates per kind, each equal bit for bit to a single-kind
call on the same stream.

The pseudo-population and mirror-match engines sample a block of count
vectors at once with ``Generator.multivariate_hypergeometric`` (method
"count"), a partial shuffle in C that costs O(draws) per replicate, and
the reduction sums them against the centred unit values with einsum. It
deliberately avoids BLAS (``@``, ``np.dot``): BLAS threads started in
every worker of a study's process pool oversubscribe the cores and cancel
the pool's speed-up.

The standard engine draws each index from a 16-bit chunk of the raw
64-bit generator words while n <= 2**16, four chunks per word, by
Lemire's exact multiply-and-reject (``_multiply_reject``), and int64 with
``Generator.integers`` above that.

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

from .estimators import EstimatorKind, estimate, sample_variance, unit_values
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


def _centre(v: np.ndarray) -> float:
    """The value an engine centres unit values on before it sums them.

    Integer values are summed as they are: their sums are exact, so a
    replicate mean is rounded once, like the sample estimate. Other values
    are centred on their mean, which keeps the one-pass variance clear of
    cancellation and a constant sample's replicates exact.
    """
    return 0.0 if np.array_equal(v, np.trunc(v)) else float(v.mean())


def _t_scale(kind: EstimatorKind, n: int, m: int, one_minus_f: tuple[int, int]) -> float:
    """The t-variance multiplier of a size-m replicate, rounded once.

    (1 - f) * (n - 1) / n**2 * s2 with s2 = ss / (m - 1) is ss times this;
    PP's ss is 100**2 * c * (m - c) / m, so PP's multiplier applies to
    c * (m - c). Integer division rounds the exact ratio once; s2 is 0 at m = 1.
    """
    if m < 2:
        return 0.0
    num, den = one_minus_f[0] * (n - 1), one_minus_f[1] * n * n * (m - 1)
    if kind is EstimatorKind.PP_TOP10:
        num, den = 10_000 * num, den * m
    return num / den


def _reduce(kind, method: Method, sample: Sample, B: int, draw, sizes: tuple[int, int], one_minus_f, with_t_variances):
    """Replicates of ``kind`` from ``draw``'s blocks: the one reduction of every engine.

    ``draw(rows)`` returns a block of resamples and their sizes m: for the
    standard engine a rows x n array of indices into the sample's units
    ordered flagged first, with m = n; for the others a rows x n matrix of
    unit counts, with m = n (ppb) or per-row m, one of the two ``sizes``
    (mirror-match). ``one_minus_f`` is 1 - f as a ratio of integers.
    PP(top 10%) replicates come from the count c of flagged units drawn:
    indices below the number flagged, or the flagged units' count columns.
    Other kinds sum d = v - ``_centre``(v) over the drawn units, gathered
    or by 1-D einsums against the counts (on numpy 2.4 a fraction of the
    time of one stacked "rn,ne->re" call; never ``@``, see the module
    docstring). The estimate is centre + sum(d) / m and the t-variance
    max(sum(d**2) - sum(d)**2 / m, 0) times ``_t_scale``.

    A census (1 - f = 0) draws nothing: every resample is the whole sample,
    so every replicate is the sample estimate bit for bit, with zero
    t-variance.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"{method.value} bootstrap requires a sample of size >= 2")
    if B < 1:
        raise ValueError("B must be >= 1")
    kinds = _kinds(kind)
    if not one_minus_f[0]:
        runs = [(np.full(B, estimate(k, sample)), np.zeros(B) if with_t_variances else None) for k in kinds]
        return _replicates(kind, method, B, runs)
    gathered = method is Method.STANDARD
    # flagged units first, in an order that depends on the sample alone
    order = np.argsort(~sample.top10, kind="stable") if gathered else slice(None)
    flagged = int(np.count_nonzero(sample.top10)) if gathered else np.flatnonzero(sample.top10)
    terms = []
    for k in kinds:
        v = None if k is EstimatorKind.PP_TOP10 else unit_values(k, sample)[order]
        centre = None if v is None else _centre(v)
        d = None if v is None else v - centre
        scales = [_t_scale(k, n, m, one_minus_f) for m in sizes]
        terms.append((centre, d, None if d is None or gathered else d * d, scales))
    runs = [(np.empty(B), np.empty(B) if with_t_variances else None) for _ in kinds]
    for lo, hi in _blocks(B, n):
        block, m = draw(hi - lo)
        # mirror-match's rows take their own size's multiplier
        high = None if isinstance(m, int) else m == sizes[1]
        for (centre, d, squares, (low, top)), (est, tvar) in zip(terms, runs):
            scale = low if high is None else np.where(high, top, low)
            if d is None:
                if gathered:
                    # an int32 sum takes ~2/3 of the time of count_nonzero's intp
                    c = np.add.reduce(block < flagged, axis=1, dtype=np.int32)
                else:
                    c = block[:, flagged].sum(axis=1)
                # 100 * c / m, multiplied first: the float mean of the drawn
                # 0/100 values bit for bit
                mean = np.multiply(c, 100.0, out=est[lo:hi])
                mean /= m
                if tvar is not None:
                    # an exact integer times one constant, 0 when c is 0 or m
                    c = c.astype(np.float64)
                    np.multiply(c * (m - c), scale, out=tvar[lo:hi])
                continue
            if gathered:
                # Indices lie in [0, n), so "clip" never clips; the default
                # "raise" would gather into a fresh temporary and copy it.
                g = np.take(d, block, out=_workspace.block(np.float64, hi - lo, n), mode="clip")
                # row sums by einsum, which takes half the time of add.reduce
                s1 = np.einsum("rn->r", g)
            else:
                s1 = np.einsum("rn,n->r", block, d)
            np.add(centre, s1 / m, out=est[lo:hi])
            if tvar is not None:
                ss = np.einsum("rn,rn->r", g, g) if gathered else np.einsum("rn,n->r", block, squares)
                ss -= s1 * s1 / m
                np.maximum(ss, 0.0, out=ss)
                np.multiply(ss, scale, out=tvar[lo:hi])
        # Above 2**16 a standard block is a fresh draw: freed before the next,
        # since two blocks freed together can make the allocator trim the heap.
        del block
    return _replicates(kind, method, B, runs)


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
    of resampled indices (see ``_reduce``).
    """
    n = sample.n
    gen = rng.generator

    def draw(rows):
        return _resample_indices(gen, rows, n), n

    return _reduce(kind, Method.STANDARD, sample, B, draw, (n, n), (1, 1), with_t_variances)


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
    gen = rng.generator
    copies = _pseudo_population(gen, n, N)

    def draw(rows):
        return gen.multivariate_hypergeometric(copies, n, size=rows, method="count"), n

    return _reduce(kind, Method.PPB, sample, B, draw, (n, n), (N - n, N), with_t_variances)


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
    gen = rng.generator

    def draw(rows):
        counts, kb = _mirror_counts(gen, rows, n, plan)
        return counts, kb * plan.n_prime

    sizes = (plan.k_low * plan.n_prime, plan.k_high * plan.n_prime)
    return _reduce(kind, Method.MIRROR_MATCH, sample, B, draw, sizes, (N - n, N), with_t_variances)
