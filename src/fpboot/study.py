"""Monte Carlo coverage studies over a fixed finite population.

The harness repeatedly draws SRSWOR samples from the population, runs a
bootstrap engine per sample, builds the requested confidence intervals,
and aggregates containment of the population truth plus interval lengths
per (n, method, CI type, estimator) cell.

Reproducibility model: replication r of the group keyed by (n, method)
uses stream_id = stable_hash(group) * 2**32 + r. Its one sample and one
bootstrap run serve every estimator and every CI type: the engine reads
all estimators off the same resamples. Since neither the sample nor the
resamples depend on which estimators or CI types are requested, any
subset of cells, any worker count, and any scheduling order produce
identical cells.

``bootstrap`` (engine dispatch) and ``build_interval`` (one CI type from
one set of replicates) are the single path for both steps; the CLI's
``estimate`` command calls them too. They call the engines and interval
constructors as names of this module, so tracing can wrap those names.
"""

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDistributionError
from .estimators import EstimatorKind, estimate
from .intervals import (
    CiType,
    ConfidenceInterval,
    ci_bca,
    ci_bootstrap_t,
    ci_normal,
    ci_percentile,
    jackknife_acceleration,
)
from .resampling import (
    BootstrapReplicates,
    Method,
    bootstrap_variance,
    mirror_match_bootstrap,
    ppb_bootstrap,
    standard_bootstrap,
)
from .sampling import Population, RngStream, Sample, make_rng, srswor

# Stream id reserved for synthetic population generation; cell streams are
# hash * 2**32 + r with r far below 2**32, so they cannot collide with it.
SYNTH_STREAM_ID = 2**64 - 1


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic population with pinned indicator values.

    Scores are log-normal with the given shape (sigma), rescaled so the
    population mean equals ``target_mncs``; the floor(target_pp / 100 * size)
    largest scores are flagged as top-10%.
    """

    size: int
    target_mncs: float
    target_pp: float
    shape: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"population size must be >= 1, got {self.size}")
        if not np.isfinite(self.target_mncs) or self.target_mncs <= 0:
            raise ValueError(f"target_mncs must be > 0, got {self.target_mncs!r}")
        if not 0.0 < self.target_pp < 100.0:
            raise ValueError(f"target_pp must lie in (0, 100), got {self.target_pp!r}")
        if not np.isfinite(self.shape) or self.shape <= 0:
            raise ValueError(f"shape must be > 0, got {self.shape!r}")


def synth_population(spec: SynthSpec, rng: RngStream) -> Population:
    """Generate the population described by ``spec``."""
    z = rng.generator.standard_normal(spec.size)
    raw = np.exp(spec.shape * z)
    ncs = raw * (spec.target_mncs / raw.mean())
    count = int(math.floor(spec.target_pp * spec.size / 100.0 + 1e-9))
    top10 = np.zeros(spec.size, dtype=bool)
    if count > 0:
        order = np.argsort(-ncs, kind="stable")
        top10[order[:count]] = True
    return Population(ncs, top10)


@dataclass(frozen=True)
class StudyConfig:
    """Full description of a coverage study.

    ``population_source`` is either a file path (the caller loads and
    passes the population) or a :class:`SynthSpec` generated from
    ``master_seed``. ``ci_pairing`` "paper" skips bootstrap-t for the
    standard bootstrap and BCa for the finite-population engines; "all"
    builds every requested interval for every method.
    """

    population_source: object
    sample_sizes: tuple[int, ...]
    B: int = 1000
    repetitions: int = 1000
    methods: tuple[Method, ...] = (Method.STANDARD, Method.PPB, Method.MIRROR_MATCH)
    ci_types: tuple[CiType, ...] = (CiType.NORMAL, CiType.PERCENTILE)
    estimators: tuple[EstimatorKind, ...] = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
    level: float = 0.95
    master_seed: int = 0
    ci_pairing: str = "paper"

    def __post_init__(self):
        if self.B < 2:
            raise ValueError("B must be >= 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.ci_pairing not in ("paper", "all"):
            raise ValueError(f"unknown ci_pairing: {self.ci_pairing!r}")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError(f"sample sizes must be >= 2, got {list(self.sample_sizes)}")
        for name in ("sample_sizes", "methods", "ci_types", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {list(values)}")
        bca = any(CiType.BCA in effective_ci_types(m, self.ci_types, self.ci_pairing) for m in self.methods)
        if bca and any(n < 3 for n in self.sample_sizes):
            raise ValueError("BCA intervals need sample sizes >= 3 (jackknife acceleration)")


@dataclass(frozen=True)
class CellReport:
    """Aggregated results for one (n, method, CI type, estimator) cell."""

    n: int
    method: Method
    ci_type: CiType
    estimator: EstimatorKind
    coverage: float
    avg_length: float
    avg_variance: float
    r_effective: int


@dataclass(frozen=True)
class StudyReport:
    """Coverage-study output: config echo, population identity, truths, cells."""

    config: StudyConfig
    population_info: dict
    true_values: dict
    cells: tuple[CellReport, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "config": config_dict(self.config),
            "population": dict(self.population_info),
            "true_values": dict(self.true_values),
            "cells": [
                {
                    "n": c.n,
                    "method": c.method.value,
                    "ci_type": c.ci_type.value,
                    "estimator": c.estimator.value,
                    "coverage": c.coverage,
                    "avg_length": c.avg_length,
                    "avg_variance": c.avg_variance,
                    "R": c.r_effective,
                }
                for c in self.cells
            ],
        }


def config_dict(config: StudyConfig) -> dict:
    """Plain-dict echo of a config, with enums rendered as their tokens."""
    source = config.population_source
    if isinstance(source, SynthSpec):
        src = {
            "synth": {
                "size": source.size,
                "mncs": source.target_mncs,
                "pp": source.target_pp,
                "shape": source.shape,
            }
        }
    else:
        src = {"population": str(source)}
    out = dict(src)
    out.update(
        {
            "sample_sizes": list(config.sample_sizes),
            "B": config.B,
            "repetitions": config.repetitions,
            "methods": [m.value for m in config.methods],
            "ci_types": [c.value for c in config.ci_types],
            "estimators": [e.value for e in config.estimators],
            "level": config.level,
            "master_seed": config.master_seed,
            "ci_pairing": config.ci_pairing,
        }
    )
    return out


def _g12(x: float) -> str:
    return format(x, ".12g")


def emit_report(report: StudyReport, fmt: str, path):
    """Write a study report as CSV (one row per cell) or structured JSON."""
    if fmt == "csv":
        lines = ["n,method,ci_type,estimator,coverage,avg_length,avg_variance,R"]
        for c in report.cells:
            lines.append(
                ",".join(
                    [
                        str(c.n),
                        c.method.value,
                        c.ci_type.value,
                        c.estimator.value,
                        _g12(c.coverage),
                        _g12(c.avg_length),
                        _g12(c.avg_variance),
                        str(c.r_effective),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_sweep(rows, path):
    """Write a length-sweep table (n, method, ci_type, estimator, avg_length)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,method,ci_type,estimator,avg_length\n")
        for row in rows:
            fh.write(
                f"{row['n']},{row['method']},{row['ci_type']},{row['estimator']},{_g12(row['avg_length'])}\n"
            )


def effective_ci_types(method: Method, requested, pairing: str = "paper") -> tuple[CiType, ...]:
    """CI types actually built for a method under the given pairing rule."""
    requested = tuple(requested)
    if pairing == "all":
        return requested
    if method is Method.STANDARD:
        return tuple(c for c in requested if c is not CiType.BOOTSTRAP_T)
    return tuple(c for c in requested if c is not CiType.BCA)


def cell_stream_base(n: int, method: Method) -> int:
    """Stable 64-bit stream base for the cells keyed by (n, method)."""
    key = f"{n}|{method.value}".encode()
    h = int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")
    return h << 32


# Worker-side population; set once per process by _init_worker.
_POP: Population | None = None


def _init_worker(ncs: np.ndarray, top10: np.ndarray):
    global _POP
    _POP = Population(ncs, top10)


def bootstrap(
    method: Method,
    sample: Sample,
    N: int,
    B: int,
    kind: EstimatorKind | tuple[EstimatorKind, ...],
    rng: RngStream,
    *,
    with_t_variances: bool = False,
) -> BootstrapReplicates | tuple[BootstrapReplicates, ...]:
    """B replicates of ``kind`` from the engine ``method``.

    A tuple of kinds gives one set of replicates per kind, all from one
    bootstrap run. ``N`` is ignored by the standard engine.
    """
    if method is Method.STANDARD:
        return standard_bootstrap(sample, B, kind, rng, with_t_variances=with_t_variances)
    if method is Method.PPB:
        return ppb_bootstrap(sample, N, B, kind, rng, with_t_variances=with_t_variances)
    if method is Method.MIRROR_MATCH:
        return mirror_match_bootstrap(sample, N, B, kind, rng, with_t_variances=with_t_variances)
    raise ValueError(f"unknown method: {method!r}")


def build_interval(
    ci: CiType,
    *,
    reps,
    theta_hat: float,
    v_hat: float,
    accel: float,
    level: float,
) -> ConfidenceInterval | None:
    """One interval from one set of replicates; None when it cannot be formed.

    BCa on a one-sided bootstrap distribution falls back to the percentile
    interval; bootstrap-t with more than 1% zero-variance replicates gives
    None. ``accel`` is only read for BCa.
    """
    if ci is CiType.NORMAL:
        return ci_normal(theta_hat, v_hat, level)
    if ci is CiType.PERCENTILE:
        return ci_percentile(reps, level)
    if ci is CiType.BCA:
        try:
            return ci_bca(reps, theta_hat, accel, level)
        except DegenerateDistributionError:
            # one-sided bootstrap distribution: fall back to the percentile rule
            p = ci_percentile(reps, level)
            return ConfidenceInterval(CiType.BCA, level, p.lower, p.upper)
    if ci is CiType.BOOTSTRAP_T:
        if v_hat == 0.0:
            # census limit: the studentized interval degenerates to a point
            return ConfidenceInterval(CiType.BOOTSTRAP_T, level, theta_hat, theta_hat)
        try:
            return ci_bootstrap_t(reps, theta_hat, v_hat, level)
        except DegenerateDistributionError:
            return None
    raise ValueError(f"unknown CI type: {ci!r}")


def _run_replications(task: dict):
    """Run replications [lo, hi) of one (n, method) group; returns per-rep arrays.

    Each replication draws one sample and makes one engine call that
    returns replicates for every estimator. Arrays are indexed
    [estimator, (CI type,) replication].
    """
    pop = _POP
    n = task["n"]
    method = task["method"]
    kinds = task["estimators"]
    truths = task["true_values"]
    cis = task["ci_types"]
    B = task["B"]
    level = task["level"]
    master_seed = task["master_seed"]
    base = task["stream_base"]
    lo, hi = task["lo"], task["hi"]

    count = hi - lo
    shape = (len(kinds), len(cis), count)
    v_hats = np.empty((len(kinds), count))
    ok = np.zeros(shape, dtype=bool)
    contained = np.zeros(shape, dtype=bool)
    lengths = np.zeros(shape)
    need_t = CiType.BOOTSTRAP_T in cis
    need_a = CiType.BCA in cis

    for t, r in enumerate(range(lo, hi)):
        rng = make_rng(master_seed, base + r)
        sample = srswor(pop, n, rng)
        runs = bootstrap(method, sample, pop.size, B, kinds, rng, with_t_variances=need_t)
        for e, (kind, reps) in enumerate(zip(kinds, runs)):
            theta_hat = estimate(kind, sample)
            v_hat = bootstrap_variance(reps)
            v_hats[e, t] = v_hat
            accel = jackknife_acceleration(sample, kind) if need_a else 0.0
            for i, ci in enumerate(cis):
                interval = build_interval(
                    ci, reps=reps, theta_hat=theta_hat, v_hat=v_hat, accel=accel, level=level
                )
                if interval is None:
                    continue
                ok[e, i, t] = True
                contained[e, i, t] = interval.contains(truths[e])
                lengths[e, i, t] = interval.length
    return task["group"], lo, v_hats, ok, contained, lengths


def _execute(tasks, pop: Population, workers: int):
    if workers <= 1:
        _init_worker(pop.ncs, pop.top10)
        return [_run_replications(t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(pop.ncs, pop.top10)
    ) as pool:
        futures = [pool.submit(_run_replications, t) for t in tasks]
        return [f.result() for f in futures]


def _aggregate(group, results, *, n, method, estimators, cis, R) -> list[CellReport]:
    """Reassemble per-rep arrays in replication order and reduce to cells.

    Cells come out estimator by estimator, CI type by CI type.
    """
    shape = (len(estimators), len(cis), R)
    v_hats = np.empty((len(estimators), R))
    ok = np.zeros(shape, dtype=bool)
    contained = np.zeros(shape, dtype=bool)
    lengths = np.zeros(shape)
    for g, lo, v, o, c, ln in results:
        if g != group:
            continue
        s = slice(lo - 1, lo - 1 + v.shape[1])
        v_hats[:, s] = v
        ok[..., s] = o
        contained[..., s] = c
        lengths[..., s] = ln
    cells = []
    for e, estimator in enumerate(estimators):
        avg_variance = float(v_hats[e].mean())
        for i, ci in enumerate(cis):
            r_eff = int(np.count_nonzero(ok[e, i]))
            hits = int(np.count_nonzero(contained[e, i] & ok[e, i]))
            coverage = hits / r_eff if r_eff else 0.0
            avg_length = float(lengths[e, i][ok[e, i]].mean()) if r_eff else 0.0
            cells.append(
                CellReport(
                    n=n,
                    method=method,
                    ci_type=ci,
                    estimator=estimator,
                    coverage=coverage,
                    avg_length=avg_length,
                    avg_variance=avg_variance,
                    r_effective=r_eff,
                )
            )
    return cells


def resolve_population(config: StudyConfig, population: Population | None = None) -> Population:
    """Population for a study: as passed, or synthesized from the config."""
    if population is not None:
        return population
    source = config.population_source
    if isinstance(source, SynthSpec):
        return synth_population(source, make_rng(config.master_seed, SYNTH_STREAM_ID))
    raise ValueError("a file-backed study needs the loaded population passed in")


def _population_info(config: StudyConfig, pop: Population) -> dict:
    digest = hashlib.sha256()
    digest.update(pop.ncs.tobytes())
    digest.update(pop.top10.tobytes())
    source = config.population_source
    if isinstance(source, SynthSpec):
        kind, path = "synthetic", None
    else:
        kind, path = "file", str(source)
    return {"source": kind, "path": path, "size": pop.size, "sha256": digest.hexdigest()}


def coverage_study(
    config: StudyConfig,
    population: Population | None = None,
    workers: int = 1,
) -> StudyReport:
    """Run the full Cartesian study described by ``config``.

    The report is a pure function of (population bytes, config): cells and
    replications are distributed over ``workers`` processes but aggregated
    in a fixed order.
    """
    pop = resolve_population(config, population)
    for n in config.sample_sizes:
        if n > pop.size:
            raise ValueError(f"sample size {n} exceeds population size {pop.size}")
    true_values = {k.value: estimate(k, pop) for k in config.estimators}

    kinds = config.estimators
    groups = [
        (n, method, cis)
        for n in config.sample_sizes
        for method in config.methods
        if kinds and (cis := effective_ci_types(method, config.ci_types, config.ci_pairing))
    ]

    R = config.repetitions
    chunk = R if workers <= 1 else max(1, math.ceil(R / (workers * 2)))
    tasks = [
        {
            "group": gid,
            "n": n,
            "method": method,
            "estimators": kinds,
            "true_values": tuple(true_values[k.value] for k in kinds),
            "ci_types": cis,
            "B": config.B,
            "level": config.level,
            "master_seed": config.master_seed,
            "stream_base": cell_stream_base(n, method),
            "lo": lo,
            "hi": min(lo + chunk, R + 1),
        }
        for gid, (n, method, cis) in enumerate(groups)
        for lo in range(1, R + 1, chunk)
    ]
    results = _execute(tasks, pop, workers)

    cells: list[CellReport] = []
    for gid, (n, method, cis) in enumerate(groups):
        cells.extend(_aggregate(gid, results, n=n, method=method, estimators=kinds, cis=cis, R=R))
    return StudyReport(
        config=config,
        population_info=_population_info(config, pop),
        true_values=true_values,
        cells=tuple(cells),
    )


def length_sweep(
    config: StudyConfig,
    population: Population | None = None,
    workers: int = 1,
) -> list[dict]:
    """Average CI length per (n, method, ci_type, estimator), plot-ready."""
    report = coverage_study(config, population=population, workers=workers)
    return [
        {
            "n": c.n,
            "method": c.method.value,
            "ci_type": c.ci_type.value,
            "estimator": c.estimator.value,
            "avg_length": c.avg_length,
        }
        for c in report.cells
    ]
