"""fpboot benchmark: coverage-study throughput, set-up time and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coverage|sweep|small_n \
        --seed N --seconds S --trace 0|1

The seed makes the synthetic population CSV and the study's master seed.
``--trace 0`` repeats the workload's study for S seconds, one study at a
time with ``workers = nproc``, and reports the end-to-end metrics.
``--trace 1`` runs the study untraced and traced at ``workers = 1`` and
untraced at ``workers = nproc``, then the engine table, and reports the
per-layer metrics. Metric names and units are the ones in BENCHMARK.json.
Every report is checked; the last line of output is the result as JSON.
Scratch files go to .perfbench/ in the checkout.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_report, check_sweep
from tracing import Tracer, traced_study
from workloads import WORKLOADS, expected_cells, group_replications, run_study, study_config, write_population

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("coverage", "sweep", "small_n"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


class Gate:
    """Counts checked operations: each study run and each report cell."""

    def __init__(self, workload, population_size: int):
        self.workload = workload
        self.population_size = population_size
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None

    def study(self, run, label: str):
        self.attempted += 1
        if self.digest is None:
            self.digest = run.digest
        elif run.digest != self.digest:
            self.failures.append(f"{label}: report sha256 {run.digest} differs from {self.digest}")
        expected = expected_cells(self.workload)
        if self.workload.sweep:
            checked, failures = check_sweep(run.text, expected, self.population_size)
        else:
            checked, failures = check_report(json.loads(run.text), expected)
        self.attempted += checked
        self.failures.extend(f"{label}: {f}" for f in failures)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def measure_setup(csv_path: Path, probes: int) -> dict:
    """Median wall time of a fresh interpreter that imports fpboot and loads the CSV."""
    walls, imports, loads = [], [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(csv_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - t0)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(probe["import_s"])
        loads.append(probe["load_s"])
    return {
        "setup_s": statistics.median(walls),
        "cli.import_s": statistics.median(imports),
        "cli.load_population_ms": statistics.median(loads) * 1e3,
        "probe_walls_s": walls,
    }


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest child peak.

    Pool workers are forked children that run side by side, so this bounds
    the run's peak resident memory from above (pages they share with the
    parent are counted in each).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(workload, config, pop, report_path, seconds, workers, gate) -> tuple[dict, dict]:
    """Closed loop: the same study back to back until ``seconds`` have passed.

    The first study warms up and is left out of the median rate.
    """
    per_study = group_replications(workload)
    rates = []
    deadline = time.perf_counter() + seconds
    while len(rates) < 2 or time.perf_counter() < deadline:
        run = run_study(workload, config, pop, workers, report_path)
        gate.study(run, f"study {len(rates) + 1}")
        rates.append(per_study / run.wall_s)
    metrics = {"replications_per_s": statistics.median(rates[1:]), "peak_rss_mb": peak_rss_mb(workers)}
    return metrics, {"studies": len(rates), "replications_per_study": per_study, "rates": rates}


def traced(workload, config, pop, report_path, seed, workers, gate, table_kw) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced serial studies, a parallel one, the engine table."""
    from layers import by_call, engine_table, outcome_fracs, study_metrics

    # A one-repetition study first, so lazy set-up is not timed.
    run_study(workload, dataclasses.replace(config, repetitions=1), pop, 1, report_path)
    serial = run_study(workload, config, pop, 1, report_path)
    gate.study(serial, "untraced, workers=1")
    tracer = Tracer()
    with traced_study(tracer):
        traced_run = run_study(workload, config, pop, 1, report_path, tracer=tracer)
    gate.study(traced_run, "traced, workers=1")
    parallel = run_study(workload, config, pop, workers, report_path)
    gate.study(parallel, f"untraced, workers={workers}")

    table_tracer = Tracer()
    table, attempted, failures, notes = engine_table(pop, seed, table_tracer, **table_kw)
    gate.attempted += attempted
    gate.failures.extend(failures)

    metrics, counts = study_metrics(tracer)
    metrics.update(table)
    metrics.update(outcome_fracs(tracer, table_tracer))
    metrics["study.serial_s"] = serial.study_s
    metrics["study.speedup"] = serial.study_s / parallel.study_s
    metrics["study.tracing_overhead"] = traced_run.study_s / serial.study_s - 1.0
    metrics["cli.emit_report_ms"] = statistics.median(r.emit_s for r in (serial, traced_run, parallel)) * 1e3
    detail = {
        "counts": counts,
        "notes": notes,
        "study_calls": by_call(tracer),
        "table_calls": by_call(table_tracer),
        "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in tracer.spans],
    }
    return metrics, detail


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*.py") if p.is_file()):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def stamp(workload, seed, trace, workers) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workers": [1, workers] if trace else [workers],
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
    }


def run_benchmark(workload, seed, seconds, trace, work_dir, setup_probes=SETUP_PROBES, table_kw=None):
    """One benchmark run; returns (result, metric values, stamp, detail)."""
    from fpboot import load_population

    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = work_dir / f"population-{seed}.csv"
    write_population(csv_path, seed)
    workers = len(os.sched_getaffinity(0))
    setup = measure_setup(csv_path, setup_probes)
    pop = load_population(csv_path)
    gate = Gate(workload, pop.size)
    config = study_config(workload, csv_path, seed)
    report_path = work_dir / f"report-{workload.name}-{seed}.{'csv' if workload.sweep else 'json'}"
    if trace:
        metrics, detail = traced(workload, config, pop, report_path, seed, workers, gate, table_kw or {})
        metrics["cli.import_s"] = setup["cli.import_s"]
        metrics["cli.load_population_ms"] = setup["cli.load_population_ms"]
    else:
        metrics, detail = end_to_end(workload, config, pop, report_path, seconds, workers, gate)
        metrics["setup_s"] = setup["setup_s"]
    detail["setup_probe_walls_s"] = setup["probe_walls_s"]
    detail["failures"] = gate.failures
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed}
    return result, metrics, stamp(workload, seed, trace, workers), detail


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fpboot" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.name}/fpboot; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench"
    result, metrics, meta, detail = run_benchmark(workload, args.seed, args.seconds, args.trace, work_dir)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(work_dir / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"stamp": meta, **result, "detail": detail}, fh)

    print("stamp " + json.dumps(meta, sort_keys=True))
    for key in sorted(units):
        print(f"{key} {metrics[key]!r} {units[key]}")
    print(f"failed_frac {result['failed'] / result['attempted']!r} frac ({result['failed']} of {result['attempted']} operations)")
    counts = detail.get("counts")
    if counts:
        print(
            f"study.replication_ms_tail is p{counts['replication_tail_percentile']} "
            f"of {counts['replications']} replications"
        )
    for line in detail.get("notes", []) + detail["failures"]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
