"""The three workloads, their input population and one study run.

Inputs come from the workload seed alone: the benchmark writes a synthetic
population CSV with numpy (not with the package, so a change to the
package cannot change its own inputs) and uses the seed as the study's
master seed. The package sees only the CSV and a ``StudyConfig``.
"""

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

# The acceptance suite's analog population.
POP_SIZE = 6224
POP_MNCS = 1.275
POP_PP = 13.7
POP_SHAPE = 0.7

ALL_METHODS = ("standard", "ppb", "mirror")
ALL_CIS = ("normal", "percentile", "bca", "boot-t")
BOTH = ("mncs", "pp_top10")


@dataclass(frozen=True)
class Workload:
    """One study shape, run whole as one closed-loop request.

    ``reps`` is the study's repetitions; a run repeats the same study, so
    every report of a run must be byte-identical.
    """

    name: str
    sample_sizes: tuple
    methods: tuple
    ci_types: tuple
    estimators: tuple
    ci_pairing: str
    sweep: bool
    reps: int
    B: int = 1000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coverage",
            sample_sizes=(1000,),
            methods=ALL_METHODS,
            ci_types=ALL_CIS,
            estimators=BOTH,
            ci_pairing="paper",
            sweep=False,
            reps=10,
        ),
        # Runnable by hand but not listed in BENCHMARK.json: on a shared
        # 2-core machine the CPU time of its large-n ppb/mirror calls swings by
        # up to 1.9x over tens of seconds, so its run-to-run spread is too wide
        # for a regression bound.
        Workload(
            name="sweep",
            sample_sizes=(100, 500, 1000, 2000, 4000, 6224),
            methods=ALL_METHODS,
            ci_types=("normal", "percentile"),
            estimators=("mncs",),
            ci_pairing="paper",
            sweep=True,
            reps=3,
        ),
        Workload(
            name="small_n",
            sample_sizes=(100,),
            methods=("standard",),
            ci_types=ALL_CIS,
            estimators=BOTH,
            ci_pairing="all",
            sweep=False,
            reps=200,
        ),
    )
}


def effective_cis(workload: Workload, method: str) -> tuple:
    """CI types a study builds for ``method`` (the README's pairing rule)."""
    if workload.ci_pairing == "all":
        return workload.ci_types
    dropped = "boot-t" if method == "standard" else "bca"
    return tuple(c for c in workload.ci_types if c != dropped)


def expected_cells(workload: Workload) -> set:
    """(n, method, ci_type, estimator) of every cell the report must hold."""
    return {
        (n, m, c, e)
        for n in workload.sample_sizes
        for m in workload.methods
        for e in workload.estimators
        for c in effective_cis(workload, m)
    }


def group_replications(workload: Workload) -> int:
    """Cell-group replications in one study: one per (n, method, estimator) and rep."""
    groups = {(n, m, e) for n, m, _, e in expected_cells(workload)}
    return len(groups) * workload.reps


def write_population(path, seed: int):
    """Write the seed's synthetic population CSV (header ``ncs,top10``).

    Log-normal scores rescaled to the target MNCS; the largest
    floor(PP% * N) scores are flagged top-10%.
    """
    gen = np.random.default_rng([seed, 1])
    raw = np.exp(POP_SHAPE * gen.standard_normal(POP_SIZE))
    ncs = raw * (POP_MNCS / raw.mean())
    top10 = np.zeros(POP_SIZE, dtype=bool)
    top10[np.argsort(-ncs, kind="stable")[: math.floor(POP_PP * POP_SIZE / 100.0)]] = True
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ncs,top10\n")
        fh.writelines(f"{float(s)!r},{int(t)}\n" for s, t in zip(ncs, top10))


def study_config(workload: Workload, csv_path: str, seed: int):
    from fpboot import CiType, EstimatorKind, Method, StudyConfig

    return StudyConfig(
        population_source=str(csv_path),
        sample_sizes=workload.sample_sizes,
        B=workload.B,
        repetitions=workload.reps,
        methods=tuple(Method(m) for m in workload.methods),
        ci_types=tuple(CiType(c) for c in workload.ci_types),
        estimators=tuple(EstimatorKind(e) for e in workload.estimators),
        level=0.95,
        master_seed=seed,
        ci_pairing=workload.ci_pairing,
    )


@dataclass
class StudyRun:
    study_s: float
    emit_s: float
    digest: str
    text: str

    @property
    def wall_s(self) -> float:
        return self.study_s + self.emit_s


def run_study(workload: Workload, config, population, workers: int, report_path, tracer=None) -> StudyRun:
    """One study through the public entry points, as ``fpboot simulate`` / ``sweep`` do.

    With a tracer, the study call (not the report emission) is its root span.
    """
    from fpboot import coverage_study, emit_report, length_sweep
    from fpboot.cli import emit_sweep

    t0 = time.perf_counter()
    with tracer.span("study") if tracer else contextlib.nullcontext():
        if workload.sweep:
            result = length_sweep(config, population=population, workers=workers)
        else:
            result = coverage_study(config, population=population, workers=workers)
    t1 = time.perf_counter()
    if workload.sweep:
        emit_sweep(result, report_path)
    else:
        emit_report(result, "json", report_path)
    t2 = time.perf_counter()
    with open(report_path, "rb") as fh:
        data = fh.read()
    return StudyRun(t1 - t0, t2 - t1, hashlib.sha256(data).hexdigest(), data.decode("utf-8"))
