"""Summary statistics, closed forms and the correctness gate.

Every gate tolerance is derived from Monte Carlo error: the binomial
distribution of a coverage count, and the spread of a bootstrap variance.
A gate reports failures as strings; the caller counts them.
"""

import math
import statistics

FPC_METHODS = ("ppb", "mirror")

# True coverage of an FPC cell at f <= 0.5 may lie anywhere in this band
# around the nominal level (the acceptance suite's tolerance at R = 1000).
COVERAGE_SLACK = 0.025
# A gate fails only when the observation is this improbable under the
# band's edge: about one false alarm in a million checks.
ALPHA = 1e-6
# Half-width of the var_ratio band, in standard errors (two-sided ~6e-7).
Z_RATIO = 5.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * count)-th smallest value."""
    srt = sorted(values)
    rank = min(len(srt), max(1, math.ceil(q / 100.0 * len(srt) - 1e-9)))
    return srt[rank - 1]


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile above 50 with at least ten samples beyond it."""
    for q in range(99, 50, -1):
        if count - math.ceil(q / 100.0 * count - 1e-9) >= 10:
            return q
    return None


def closed_form_variance(method: str, s2: float, n: int, N: int) -> float:
    """Variance of the bootstrap mean each engine should reproduce.

    standard: the plug-in variance over n, s2 * (n - 1) / n**2. The FPC
    engines (ppb, mirror): the SRSWOR variance of a mean, (1 - n/N) * s2 / n.
    """
    if method == "standard":
        return s2 * (n - 1) / (n * n)
    return (1.0 - n / N) * s2 / n


def ratio_band_failure(ratios, B: int) -> str | None:
    """Failure text when the mean variance ratio is not 1 within its error.

    The standard error is the larger of the observed spread and the
    spread of a B-replicate variance, sqrt(2 / (B - 1)), over sqrt(calls).
    """
    k = len(ratios)
    mean = statistics.fmean(ratios)
    sd = statistics.stdev(ratios) if k > 1 else 0.0
    se = max(sd, math.sqrt(2.0 / (B - 1))) / math.sqrt(k)
    if abs(mean - 1.0) > Z_RATIO * se:
        return f"var_ratio {mean:.4f} outside 1 +/- {Z_RATIO * se:.4f}"
    return None


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(0, k + 1))


def coverage_failure(coverage: float, r: int, level: float) -> str | None:
    """Failure text when ``coverage`` over r replications is implausible.

    Fails when the hit count is below what a true coverage of
    level - COVERAGE_SLACK gives with probability ALPHA, or above what
    level + COVERAGE_SLACK gives with probability ALPHA.
    """
    hits = round(coverage * r)
    p_lo = level - COVERAGE_SLACK
    p_hi = min(1.0, level + COVERAGE_SLACK)
    if binom_cdf(hits, r, p_lo) < ALPHA:
        return f"coverage {coverage} over R={r} far below {p_lo}"
    if hits > 0 and 1.0 - binom_cdf(hits - 1, r, p_hi) < ALPHA:
        return f"coverage {coverage} over R={r} far above {p_hi}"
    return None


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


def check_report(doc: dict, expected_keys: set) -> tuple[int, list[str]]:
    """Check every cell of a JSON study report; returns (cells checked, failures)."""
    reps = doc["config"]["repetitions"]
    level = doc["config"]["level"]
    N = doc["population"]["size"]
    failures = []
    keys = {(c["n"], c["method"], c["ci_type"], c["estimator"]) for c in doc["cells"]}
    if keys != expected_keys or len(keys) != len(doc["cells"]):
        failures.append(f"report cells {sorted(keys)} differ from the configured cells")
    for c in doc["cells"]:
        label = f"{c['n']}/{c['method']}/{c['ci_type']}/{c['estimator']}"
        problems = []
        if not (_finite_nonneg(c["coverage"]) and c["coverage"] <= 1.0):
            problems.append(f"coverage {c['coverage']!r}")
        if not _finite_nonneg(c["avg_length"]):
            problems.append(f"avg_length {c['avg_length']!r}")
        if not _finite_nonneg(c["avg_variance"]):
            problems.append(f"avg_variance {c['avg_variance']!r}")
        if not (isinstance(c["R"], int) and 1 <= c["R"] <= reps):
            problems.append(f"R {c['R']!r} not in [1, {reps}]")
        elif not problems and c["method"] in FPC_METHODS and c["n"] / N <= 0.5:
            msg = coverage_failure(c["coverage"], c["R"], level)
            if msg:
                problems.append(msg)
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}")
    return len(doc["cells"]), failures


def check_sweep(text: str, expected_keys: set, N: int) -> tuple[int, list[str]]:
    """Check every row of a length-sweep CSV; returns (rows checked, failures)."""
    lines = text.splitlines()
    failures = []
    if not lines or lines[0] != "n,method,ci_type,estimator,avg_length":
        return 1, [f"bad sweep header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    keys = {(int(r[0]), r[1], r[2], r[3]) for r in rows}
    if keys != expected_keys or len(keys) != len(rows):
        failures.append(f"sweep rows {sorted(keys)} differ from the configured cells")
    for n, method, ci, est, length in rows:
        value = float(length)
        if not _finite_nonneg(value):
            failures.append(f"{n}/{method}/{ci}/{est}: avg_length {length}")
        elif int(n) == N and method in FPC_METHODS and value != 0.0:
            failures.append(f"{n}/{method}/{ci}/{est}: census length {length} != 0")
    return len(rows), failures
