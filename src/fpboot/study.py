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

Data path: a task is ``(config, pop, n, method, lo, hi)``, replications
[lo, hi) of one (n, method) group, at most max(1, 2**16 // B) of them,
with the population they sample. A task carries all it reads, in the
caller's process or in a pool worker, so serial studies in concurrent
threads share nothing. Tasks run in the caller's process unless the study
has more than one worker and more than one task; only then is the process
pool (``concurrent.futures`` and ``multiprocessing``) imported, so a
serial study or ``fpboot estimate`` never loads it. The first study that
fans out starts the pool, the module's one piece of state; later studies
in the process with the same worker count reuse its warm workers, and it
closes at interpreter exit (see ``_execute``). Each replication makes one
``make_rng`` -> ``srswor`` -> ``bootstrap`` call; the task stacks its
replicates and makes one vectorised interval pass per estimator
(``_interval_batch``): the bootstrap variances, the jackknife
accelerations and every CI type, with one sort shared by percentile and
BCa. A task returns
``thetas[estimator, rep]``, the sample estimates,
``v_hats[estimator, rep]``, the bootstrap variances, and
``bounds[estimator, ci, rep, (lower, upper)]``, the interval endpoints,
with NaN meaning "no interval" (a real interval never has a NaN endpoint).
A group's task results are joined in replication order and reduced to
cells in one vectorised step; one row definition (``_cell_row``) feeds the
JSON report, the CSV report and the length sweep.

``bootstrap`` (engine dispatch) and ``_interval_batch`` (the interval
pass) are the single path for both steps. The CLI's ``estimate`` command
runs one task, replication 1 of a one-cell study. Where a ``ci_*``
constructor raises ``DegenerateDistributionError``, the pass falls back
instead (see ``_interval_batch``). The study calls the engines,
``make_rng``, ``srswor`` and ``estimate`` as names of this module, so
tracing can wrap those names. ``bootstrap_variance``,
``jackknife_acceleration`` and the ``ci_*`` constructors stay names of
this module for tracing, though a study no longer calls them.
"""

import atexit
import hashlib
import json
import math
import os
import sys
import threading
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

import numpy as np

from .estimators import EstimatorKind, estimate, unit_values
from .intervals import (  # noqa: F401 -- ci_* and jackknife_acceleration: see the module docstring
    CiType,
    _interval_batch,
    ci_bca,
    ci_bootstrap_t,
    ci_normal,
    ci_percentile,
    jackknife_acceleration,
)
from .resampling import (  # noqa: F401 -- bootstrap_variance: see the module docstring
    BootstrapReplicates,
    Method,
    bootstrap_variance,
    mirror_match_bootstrap,
    ppb_bootstrap,
    standard_bootstrap,
)
from .sampling import Population, RngStream, Sample, _check_uint64, load_population, make_rng, srswor

# Stream id reserved for synthetic population generation; cell streams are
# hash * 2**32 + r with r far below 2**32, so they cannot collide with it.
SYNTH_STREAM_ID = 2**64 - 1

# A task stacks at most this many replicate estimates (replications x B)
# per estimator for its interval pass, or one replication's B.
_BATCH_CELLS = 2**16

# The live process pool as (worker count, executor), or None; _execute
# looks it up, starts it and swaps it only while holding _POOL_LOCK.
_POOL_LOCK = threading.Lock()
_pool = None


def _forget_pool():
    """Empty the pool slot in a forked child, and give it a fresh lock.

    The parent's pool is not the child's: its threads did not survive the
    fork, so the child's next study that fans out starts its own pool, and
    shutting the parent's down from the child would stop the parent's
    workers. Nor are those workers the child's to join at its exit, which
    ``multiprocessing`` would try. A lock that another thread held at the
    fork stays held, so the child gets a new one.
    """
    global _POOL_LOCK, _pool
    if _pool is not None:
        from multiprocessing import process

        process._children.difference_update(_pool[1]._processes.values())
    _POOL_LOCK = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@atexit.register
def _close_pool():
    """Shut the live pool down while the interpreter is still whole.

    Left to module teardown, collecting the executor runs
    ``concurrent.futures`` code whose module globals may already be gone.
    """
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


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
        for key, (name, parse) in _SYNTH_KEYS.items():
            object.__setattr__(self, name, parse(getattr(self, name), f"synth.{key}"))
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

    ``population_source`` is either a population file path (a ``str`` or
    ``os.PathLike``, stored as its ``str``), loaded by the study unless the
    caller passes the population, or a :class:`SynthSpec` generated from
    ``master_seed``. Every other field is parsed as its config key is
    (``_CONFIG_KEYS``), so a config built in Python gets a config file's
    checks: a list or tuple for a list, a token or member for an enum, an
    ``int`` for a whole number. ``ci_pairing`` "paper" skips
    bootstrap-t for the standard bootstrap and BCa for the
    finite-population engines; "all" builds every requested interval for
    every method.
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
        object.__setattr__(self, "population_source", _source(self.population_source))
        for key, parse in _CONFIG_KEYS.items():
            object.__setattr__(self, key, parse(getattr(self, key), key))
        for name in ("sample_sizes", "methods", "ci_types", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {_tokens(values)}")
        if self.B < 2:
            raise ValueError("B must be >= 2")
        _check_uint64("master_seed", self.master_seed)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.ci_pairing not in ("paper", "all"):
            raise ValueError(f"unknown ci_pairing: {self.ci_pairing!r}")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError(f"sample sizes must be >= 2, got {list(self.sample_sizes)}")
        bca = any(CiType.BCA in effective_ci_types(m, self.ci_types, self.ci_pairing) for m in self.methods)
        if bca and any(n < 3 for n in self.sample_sizes):
            raise ValueError("BCA intervals need sample sizes >= 3 (jackknife acceleration)")


@dataclass(frozen=True)
class CellReport:
    """Aggregated results for one (n, method, CI type, estimator) cell.

    ``coverage`` and ``avg_length`` are NaN (null in a JSON report) when no
    replication formed an interval (``r_effective`` = 0): undefined, not zero.
    """

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
            # NaN (an undefined cell value) is null, so the JSON stays strict
            "cells": [
                {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in _cell_row(c).items()}
                for c in self.cells
            ],
        }


_REPORT_COLUMNS = ("n", "method", "ci_type", "estimator", "coverage", "avg_length", "avg_variance", "R")
_SWEEP_COLUMNS = ("n", "method", "ci_type", "estimator", "avg_length")


def _cell_row(c: CellReport) -> dict:
    """One cell as a report row keyed by ``_REPORT_COLUMNS``, enums as their tokens."""
    values = (c.n, c.method.value, c.ci_type.value, c.estimator.value)
    values += (c.coverage, c.avg_length, c.avg_variance, c.r_effective)
    return dict(zip(_REPORT_COLUMNS, values))


def _tokens(values) -> list:
    return [v.value if isinstance(v, Enum) else v for v in values]


def _whole(value, key: str) -> int:
    """A config value that counts something, as an ``int`` (20.0 and numpy's 20 pass, 20.9 and True do not)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"config '{key}' must be a whole number, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"config '{key}' must be a number, got {value!r}")
    return float(value)


def _text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"config '{key}' must be a string, got {value!r}")
    return value


def _source(value) -> "SynthSpec | str":
    """A ``population_source``: a :class:`SynthSpec` as is, a file path as its ``str``."""
    if isinstance(value, SynthSpec):
        return value
    return _text(os.fspath(value) if isinstance(value, os.PathLike) else value, "population")


def _listed(value, key: str) -> list | tuple:
    """A config list, or a tuple; an empty one is an error, not a request for the default."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config '{key}' must be a list, got {value!r}")
    if not value:
        raise ValueError(f"config '{key}' is an empty list")
    return value


def parse_token(enum: type[Enum], value, what: str):
    """The member of ``enum`` that ``value`` is or names, in any case; "pp" also names ``pp_top10``."""
    if isinstance(value, enum):
        return value
    table = {m.value: m for m in enum}
    if enum is EstimatorKind:
        table["pp"] = EstimatorKind.PP_TOP10
    token = value.strip().lower() if isinstance(value, str) else None
    if token not in table:
        raise ValueError(f"unknown {what}: {value!r} (choose from {sorted(table)})")
    return table[token]


def _members(enum: type[Enum], what: str):
    return lambda value, key: tuple(parse_token(enum, v, what) for v in _listed(value, key))


# Config keys in echo order: the source keys set ``population_source``, and
# every other key names the StudyConfig field that its parser sets in
# ``StudyConfig.__post_init__``.
_SOURCE_KEYS = ("population", "synth")
_CONFIG_KEYS = {
    "sample_sizes": lambda value, key: tuple(_whole(v, key) for v in _listed(value, key)),
    "B": _whole,
    "repetitions": _whole,
    "methods": _members(Method, "method"),
    "ci_types": _members(CiType, "ci type"),
    "estimators": _members(EstimatorKind, "estimator"),
    "level": _real,
    "master_seed": _whole,
    "ci_pairing": _text,
}
# "synth" key -> (SynthSpec field, its parser in ``SynthSpec.__post_init__``), in echo order
_SYNTH_KEYS = {
    "size": ("size", _whole),
    "mncs": ("target_mncs", _real),
    "pp": ("target_pp", _real),
    "shape": ("shape", _real),
}


def _synth_spec(raw) -> SynthSpec:
    if not isinstance(raw, dict):
        raise ValueError("'synth' must be an object")
    unknown = set(raw) - set(_SYNTH_KEYS)
    if unknown:
        raise ValueError(f"unknown synth keys: {sorted(unknown)}")
    required = {f.name for f in fields(SynthSpec) if f.default is MISSING}
    missing = [k for k, (name, _) in _SYNTH_KEYS.items() if k not in raw and name in required]
    if missing:
        raise ValueError(f"missing synth keys: {sorted(missing)}")
    return SynthSpec(**{name: raw[k] for k, (name, _) in _SYNTH_KEYS.items() if k in raw})


def config_from_dict(raw: dict) -> StudyConfig:
    """The config a plain dict describes, the inverse of :func:`config_dict`.

    An absent key takes the ``StudyConfig`` or ``SynthSpec`` default; the
    dataclasses parse the values.
    """
    unknown = set(raw) - {*_SOURCE_KEYS, *_CONFIG_KEYS}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "population" in raw and "synth" in raw:
        raise ValueError("give either 'population' or 'synth', not both")
    if "population" in raw:
        source = raw["population"]
    elif "synth" in raw:
        source = _synth_spec(raw["synth"])
    else:
        raise ValueError("config must name a 'population' file or a 'synth' spec")
    required = {f.name for f in fields(StudyConfig) if f.default is MISSING}
    missing = [k for k in _CONFIG_KEYS if k not in raw and k in required]
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    return StudyConfig(source, **{key: raw[key] for key in _CONFIG_KEYS if key in raw})


def config_dict(config: StudyConfig) -> dict:
    """Plain-dict echo of a config, with enums rendered as their tokens."""
    source = config.population_source
    if isinstance(source, SynthSpec):
        out = {"synth": {k: getattr(source, name) for k, (name, _) in _SYNTH_KEYS.items()}}
    else:
        out = {"population": source}
    for key in _CONFIG_KEYS:
        value = getattr(config, key)
        out[key] = _tokens(value) if isinstance(value, tuple) else value
    return out


def _g12(x: float) -> str:
    return format(x, ".12g")


def _csv(rows, columns) -> str:
    """CSV text of ``rows`` restricted to ``columns``: floats to 12 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_g12(v) if isinstance(v, float) else str(v) for v in (row[c] for c in columns)))
    return "\n".join(lines) + "\n"


def _write(text: str, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_report(report: StudyReport, fmt: str, path):
    """Write a study report as CSV (one row per cell) or structured JSON."""
    if fmt == "csv":
        text = _csv(map(_cell_row, report.cells), _REPORT_COLUMNS)
    elif fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    _write(text, path)


def emit_sweep(rows, path):
    """Write a length-sweep table (n, method, ci_type, estimator, avg_length)."""
    _write(_csv(rows, _SWEEP_COLUMNS), path)


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


def bootstrap(
    method: Method,
    sample: Sample,
    B: int,
    kind: EstimatorKind | tuple[EstimatorKind, ...],
    rng: RngStream,
    *,
    with_t_variances: bool = False,
) -> BootstrapReplicates | tuple[BootstrapReplicates, ...]:
    """B replicates of ``kind`` from the engine ``method``.

    A tuple of kinds gives one set of replicates per kind, all from one
    bootstrap run. The finite-population engines take N from the sample.
    """
    if method is Method.STANDARD:
        return standard_bootstrap(sample, B, kind, rng, with_t_variances=with_t_variances)
    N = sample.population_size
    if method is Method.PPB:
        return ppb_bootstrap(sample, N, B, kind, rng, with_t_variances=with_t_variances)
    if method is Method.MIRROR_MATCH:
        return mirror_match_bootstrap(sample, N, B, kind, rng, with_t_variances=with_t_variances)
    raise ValueError(f"unknown method: {method!r}")


def _run_replications(task):
    """Run replications [lo, hi) of one (n, method) group.

    ``task`` is ``(config, pop, n, method, lo, hi)``, with ``pop`` the
    population the replications sample. Each replication draws one sample
    and makes one engine call that returns replicates for every estimator.
    The task's replicates are stacked and get one interval pass per
    estimator. Returns ``thetas[estimator, rep]``, the sample estimates,
    ``v_hats[estimator, rep]`` and ``bounds[estimator, ci, rep, (lower,
    upper)]``, NaN where no interval could be formed.
    """
    config, pop, n, method, lo, hi = task
    kinds = config.estimators
    cis = effective_ci_types(method, config.ci_types, config.ci_pairing)
    base = cell_stream_base(n, method)
    rows = hi - lo
    v_hats = np.empty((len(kinds), rows))
    bounds = np.empty((len(kinds), len(cis), rows, 2))
    need_t = CiType.BOOTSTRAP_T in cis
    need_a = CiType.BCA in cis
    est = np.empty((len(kinds), rows, config.B))
    tvar = np.empty((len(kinds), rows, config.B)) if need_t else None
    thetas = np.empty((len(kinds), rows))
    values = np.empty((len(kinds), rows, n)) if need_a else None

    for j, r in enumerate(range(lo, hi)):
        rng = make_rng(config.master_seed, base + r)
        sample = srswor(pop, n, rng)
        runs = bootstrap(method, sample, config.B, kinds, rng, with_t_variances=need_t)
        for e, (kind, reps) in enumerate(zip(kinds, runs)):
            thetas[e, j] = estimate(kind, sample)
            est[e, j] = reps.estimates
            if need_t:
                tvar[e, j] = reps.t_variances
            if need_a:
                values[e, j] = unit_values(kind, sample)
    for e in range(len(kinds)):
        v_hats[e], bounds[e] = _interval_batch(
            cis,
            config.level,
            est[e],
            thetas[e],
            t_variances=None if tvar is None else tvar[e],
            values=None if values is None else values[e],
        )
    return thetas, v_hats, bounds


def _execute(tasks, workers: int) -> list:
    """Run every task; results come back in task order.

    No more workers start than there are tasks: a fork-context pool forks
    all of its workers up front. The pool is imported only on the branch
    that starts one: its ~30 modules cost a fresh process ~30 ms and
    ~1.2 MB, which a process that never fans out does not pay.

    On Linux the pool forks its workers, whatever the interpreter's
    default start method: Python 3.14 makes forkserver that default, and
    a forkserver or spawn worker imports the study afresh. Measured on 2
    cores with Python 3.11, a first study of ``perfbench``'s ``small_n``
    shape at ``workers=2`` took 0.16-0.19 s under fork and 0.51-0.64 s
    under forkserver. Elsewhere the platform default holds: macOS
    defaults to spawn because fork is unsafe with its system frameworks.

    One pool at most is alive. A study reuses it when it needs the same
    number of workers, which skips the ~12-15 ms of forking and warming
    them; a study that needs another number shuts it down, waiting for the
    tasks it holds, before starting its own. The lock covers that swap and
    the submission of every task; results are collected after it is
    released, so studies in concurrent threads share the pool. A worker
    that dies breaks the pool: a study with tasks in it raises
    ``BrokenProcessPool``, and the next study finds the pool broken and
    starts a fresh one. A forked child starts its own pool
    (``_forget_pool``), and ``_close_pool`` shuts the pool down at
    interpreter exit.

    Pitfall: a reused worker keeps the module state it was forked with,
    so a test that monkeypatches a name that workers read must run its
    study at ``workers=1``.
    """
    global _pool
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_run_replications(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    with _POOL_LOCK:
        if _pool is not None and (_pool[0] != workers or _pool[1]._broken):
            _pool[1].shutdown(wait=True)
            _pool = None
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(max_workers=workers, mp_context=context))
        results = _pool[1].map(_run_replications, tasks)
    return list(results)


def _cells(n, method, cis, kinds, truths, v_hats, bounds) -> list[CellReport]:
    """Reduce one group's replications, in replication order, to its cells.

    Cells come out estimator by estimator, CI type by CI type.
    """
    lower, upper = bounds[..., 0], bounds[..., 1]
    truth = truths[:, None, None]
    formed = ~np.isnan(lower)
    contained = (lower <= truth) & (truth <= upper)
    lengths = upper - lower
    cells = []
    for e, kind in enumerate(kinds):
        avg_variance = float(v_hats[e].mean())
        for i, ci in enumerate(cis):
            r_eff = int(np.count_nonzero(formed[e, i]))
            coverage = avg_length = math.nan
            if r_eff:
                coverage = int(np.count_nonzero(contained[e, i])) / r_eff
                avg_length = float(lengths[e, i][formed[e, i]].mean())
            cells.append(CellReport(n, method, ci, kind, coverage, avg_length, avg_variance, r_eff))
    return cells


def resolve_population(config: StudyConfig, population: Population | None = None) -> Population:
    """Population for a study: as passed, else loaded from the config's file or synthesized."""
    if population is not None:
        return population
    source = config.population_source
    if isinstance(source, SynthSpec):
        return synth_population(source, make_rng(config.master_seed, SYNTH_STREAM_ID))
    return load_population(source)


def _check_sizes(config: StudyConfig, pop: Population) -> None:
    """Every sample size fits the population; checked before any task runs."""
    for n in config.sample_sizes:
        if n > pop.size:
            raise ValueError(f"sample size {n} exceeds population size {pop.size}")


def _population_info(config: StudyConfig, pop: Population) -> dict:
    digest = hashlib.sha256()
    digest.update(pop.ncs.tobytes())
    digest.update(pop.top10.tobytes())
    source = config.population_source
    if isinstance(source, SynthSpec):
        kind, path = "synthetic", None
    else:
        kind, path = "file", source
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
    _check_sizes(config, pop)
    true_values = {k.value: estimate(k, pop) for k in config.estimators}

    kinds = config.estimators
    groups = [
        (n, method, cis)
        for n in config.sample_sizes
        for method in config.methods
        if (cis := effective_ci_types(method, config.ci_types, config.ci_pairing))
    ]

    R = config.repetitions
    chunk = R if workers <= 1 else max(1, math.ceil(R / (workers * 2)))
    chunk = min(chunk, max(1, _BATCH_CELLS // config.B))
    spans = [(lo, min(lo + chunk, R + 1)) for lo in range(1, R + 1, chunk)]
    tasks = [(config, pop, n, method, lo, hi) for n, method, _ in groups for lo, hi in spans]
    results = _execute(tasks, workers)

    truths = np.array([true_values[k.value] for k in kinds])
    cells: list[CellReport] = []
    for g, (n, method, cis) in enumerate(groups):
        _, v_parts, b_parts = zip(*results[g * len(spans) : (g + 1) * len(spans)])
        v_hats, bounds = np.concatenate(v_parts, axis=1), np.concatenate(b_parts, axis=2)
        cells.extend(_cells(n, method, cis, kinds, truths, v_hats, bounds))
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
    return [{k: row[k] for k in _SWEEP_COLUMNS} for row in map(_cell_row, report.cells)]
