"""Per-layer metrics: from the traced study, and from the engine table.

The traced study gives each layer's busy time in the workload itself.
Metric names must be the same on every workload, but the workloads call
different engines, CI types and sample sizes, so the per-call figures
come from one fixed engine table that every traced run measures the same
way: each engine at n = 100, 1000 and 4000 (B = 1000, t-variances on,
MNCS), every CI type built on its replicates.
"""

import statistics
import tracemalloc

from fpboot import (
    DegenerateDistributionError,
    EstimatorKind,
    bootstrap_variance,
    ci_bca,
    ci_bootstrap_t,
    ci_normal,
    ci_percentile,
    estimate,
    jackknife_acceleration,
    make_rng,
    mirror_match_bootstrap,
    ppb_bootstrap,
    sample_variance,
    srswor,
    standard_bootstrap,
)

from checks import closed_form_variance, percentile, ratio_band_failure, tail_percentile
from tracing import REPLICATION, Tracer, self_times

ENGINES = ("standard", "ppb", "mirror")
TABLE_SIZES = (100, 1000, 4000)
# Timed calls per (engine, n); one more call before them, under tracemalloc,
# gives the peak memory and warms the engine up.
TABLE_CALLS = 3
TABLE_B = 1000
# Stream ids of the table's samples; apart from the study's cell streams.
TABLE_STREAM = 2**63
TABLE_CIS = ("normal", "percentile", "bca", "boot_t")


def rng_position(rng) -> int:
    """64-bit words the stream's Philox generator has handed out so far."""
    state = rng.generator.bit_generator.state
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def _busy(spans, prefix: str) -> float:
    return sum(s.duration for s in spans if s.name == prefix or s.name.startswith(prefix + "."))


def study_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced study, and the span counts behind them."""
    spans = tracer.spans
    selfs = self_times(spans)
    reps_ms = [s.duration * 1e3 for s in tracer.named(REPLICATION)]
    srswor_us = [s.duration * 1e6 for s in tracer.named("sampling.srswor")]
    # too few replications for a tail: report the slowest
    tail = tail_percentile(len(reps_ms)) or 100
    metrics = {
        "sampling.srswor.busy_s": _busy(spans, "sampling.srswor"),
        "sampling.srswor.us_p50": percentile(srswor_us, 50),
        "sampling.make_rng.busy_s": _busy(spans, "sampling.make_rng"),
        "estimators.estimate.busy_s": _busy(spans, "estimators.estimate"),
        "resampling.busy_s": _busy(spans, "resampling"),
        "intervals.busy_s": _busy(spans, "intervals"),
        "study.self_s": sum(selfs[s.id] for s in spans if s.name.split(".")[0] == "study"),
        "study.replication_ms_p50": percentile(reps_ms, 50),
        "study.replication_ms_tail": percentile(reps_ms, tail),
    }
    counts = {"replications": len(reps_ms), "replication_tail_percentile": tail, "srswor_calls": len(srswor_us)}
    return metrics, counts


def by_call(tracer: Tracer) -> dict:
    """Span name (and n, where recorded) -> calls, busy seconds and median ms."""
    groups: dict[str, list[float]] = {}
    for s in tracer.spans:
        key = s.name + (f".n{s.attrs['n']}" if "n" in s.attrs else "")
        groups.setdefault(key, []).append(s.duration)
    return {
        key: {"calls": len(d), "busy_s": sum(d), "ms_p50": percentile(d, 50) * 1e3}
        for key, d in sorted(groups.items())
    }


def engine_table(pop, seed: int, tracer: Tracer, sizes=TABLE_SIZES, calls=TABLE_CALLS, B=TABLE_B):
    """Time every engine and CI type at fixed sizes on the seed's population.

    Returns (metrics, gate checks attempted, gate failures, notes). The
    variance ratio is gated against its Monte Carlo band only at f <= 0.5;
    above that it is reported with a note.
    """
    kind = EstimatorKind.MNCS
    N = pop.size
    engines = {
        "standard": lambda s, rng: standard_bootstrap(s, B, kind, rng, with_t_variances=True),
        "ppb": lambda s, rng: ppb_bootstrap(s, N, B, kind, rng, with_t_variances=True),
        "mirror": lambda s, rng: mirror_match_bootstrap(s, N, B, kind, rng, with_t_variances=True),
    }
    metrics, failures, notes = {}, [], []
    attempted = 0
    stream = TABLE_STREAM
    for n in sizes:
        for e in ENGINES:
            run = engines[e]
            times, words, ratios = [], [], []
            peak = 0
            for k in range(calls + 1):
                rng = make_rng(seed, stream)
                stream += 1
                sample = srswor(pop, n, rng)
                start = rng_position(rng)
                if k == 0:
                    tracemalloc.start()
                    try:
                        base = tracemalloc.get_traced_memory()[0]
                        reps = run(sample, rng)
                        peak = tracemalloc.get_traced_memory()[1] - base
                    finally:
                        tracemalloc.stop()
                else:
                    with tracer.span(f"resampling.{e}", n=n) as span:
                        reps = run(sample, rng)
                    times.append(span.duration)
                words.append(rng_position(rng) - start)
                v = bootstrap_variance(reps)
                ratios.append(v / closed_form_variance(e, sample_variance(sample.ncs), n, N))
                if k > 0:
                    _intervals(tracer, reps, sample, kind, v)
            key = f"resampling.{e}.n{n}"
            metrics[f"{key}.ms_p50"] = percentile(times, 50) * 1e3
            metrics[f"{key}.rng_words"] = statistics.median(words)
            metrics[f"{key}.peak_mb"] = peak / 2**20
            ratio = statistics.fmean(ratios)
            metrics[f"resampling.var_ratio.{e}.n{n}"] = ratio
            if n / N <= 0.5:
                attempted += 1
                msg = ratio_band_failure(ratios, B)
                if msg:
                    failures.append(f"{key}: {msg}")
            else:
                notes.append(f"{key}: var_ratio {ratio:.4f} at f = {n / N:.3f} > 0.5, reported, not gated")
    for name in TABLE_CIS + ("jackknife",):
        metrics[f"intervals.{name}.us_p50"] = percentile([s.duration * 1e6 for s in tracer.named(f"intervals.{name}")], 50)
    return metrics, attempted, failures, notes


def _intervals(tracer: Tracer, reps, sample, kind, v: float):
    """Build every CI type on one set of replicates, as a study replication does."""
    theta = estimate(kind, sample)
    with tracer.span("intervals.normal"):
        ci_normal(theta, v)
    with tracer.span("intervals.percentile"):
        ci_percentile(reps)
    with tracer.span("intervals.jackknife"):
        accel = jackknife_acceleration(sample, kind)
    try:
        with tracer.span("intervals.bca"):
            ci_bca(reps, theta, accel)
    except DegenerateDistributionError:
        pass
    try:
        with tracer.span("intervals.boot_t"):
            ci_bootstrap_t(reps, theta, v)
    except DegenerateDistributionError:
        pass


def outcome_fracs(*tracers: Tracer) -> dict:
    """BCa fallbacks and usable bootstrap-t intervals over every attempt."""

    def count(name, outcome):
        return sum(t.outcomes[(name, outcome)] for t in tracers)

    bca_fail, bca_ok = count("intervals.bca", "error"), count("intervals.bca", "ok")
    bt_fail, bt_ok = count("intervals.boot_t", "error"), count("intervals.boot_t", "ok")
    return {
        "intervals.bca.fallback_frac": bca_fail / (bca_fail + bca_ok),
        "intervals.boot_t.ok_frac": bt_ok / (bt_fail + bt_ok),
    }
