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
``_replications`` is the one path from a config to its replications: it
checks every n <= N, runs the tasks and joins each (n, method) group's
results into the replication table, whose row r - 1 is replication r
whatever the worker count and task spans. ``coverage_study`` reduces each
group to cells in one vectorised step, and one row definition
(``_cell_row``) feeds the JSON report, the CSV report and the length sweep;
the CLI's ``estimate`` command prints row 0 of a one-cell study's table.

``bootstrap`` (engine dispatch) and ``_interval_batch`` (the interval
pass) are the single path for both steps. Where a ``ci_*``
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
from dataclasses import MISSING, dataclass, field
from enum import Enum
from functools import partial

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
from .sampling import _UINT64_MAX, Population, RngStream, Sample, _count, _level, load_population, make_rng, srswor

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
    population mean equals ``mncs``. The floor(pp / 100 * size + 1e-9)
    largest scores are flagged as top-10%: the 1e-9 keeps a whole count
    from rounding down (32.3% of 1000 is 322.99999... in floating point).
    Fields take their ``"synth"`` keys' names and parsers (``_SYNTH_KEYS``).
    """

    size: int
    mncs: float
    pp: float
    shape: float = 1.0

    def __post_init__(self):
        _parse_fields(self, _SYNTH_KEYS, "synth.")
        if not np.isfinite(self.mncs) or self.mncs <= 0:
            raise ValueError(f"mncs must be > 0, got {self.mncs!r}")
        if not 0.0 < self.pp < 100.0:
            raise ValueError(f"pp must lie in (0, 100), got {self.pp!r}")
        if not np.isfinite(self.shape) or self.shape <= 0:
            raise ValueError(f"shape must be > 0, got {self.shape!r}")


def synth_population(spec: SynthSpec, rng: RngStream) -> Population:
    """Generate the population described by ``spec``."""
    z = rng.generator.standard_normal(spec.size)
    raw = np.exp(spec.shape * z)
    ncs = raw * (spec.mncs / raw.mean())
    count = int(math.floor(spec.pp * spec.size / 100.0 + 1e-9))
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
    ``master_seed``. Every other field takes its config key's name and
    parser (``_CONFIG_KEYS``), so a config built in Python gets a config
    file's checks: a list or tuple for a list, a token or member for an
    enum, an ``int`` for a whole number. ``ci_pairing`` "paper" skips
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
        _parse_fields(self, _CONFIG_KEYS)
        for name in ("sample_sizes", "methods", "ci_types", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {_tokens(values)}")
        _level(self.level)
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


def _whole(value, key: str, lo: int, hi: int | None = None) -> int:
    """A config value that counts something, as an ``int`` in [lo, hi].

    20.0 and numpy's 20 pass, 20.9 and True do not.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _count(f"config '{key}'", value, lo, hi)


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
    """The member of ``enum`` that ``value`` is or names, in any case."""
    if isinstance(value, enum):
        return value
    table = {m.value: m for m in enum}
    token = value.strip().lower() if isinstance(value, str) else None
    if token not in table:
        raise ValueError(f"unknown {what}: {value!r} (choose from {sorted(table)})")
    return table[token]


def _members(enum: type[Enum], what: str):
    return lambda value, key: tuple(parse_token(enum, v, what) for v in _listed(value, key))


# Config key -> its parser, in echo order; each key names the field that
# ``_parse_fields`` sets. The source keys set ``population_source``.
_SOURCE_KEYS = ("population", "synth")
_CONFIG_KEYS = {
    "sample_sizes": lambda value, key: tuple(_whole(v, key, 2) for v in _listed(value, key)),
    "B": partial(_whole, lo=2),
    "repetitions": partial(_whole, lo=1),
    "methods": _members(Method, "method"),
    "ci_types": _members(CiType, "ci type"),
    "estimators": _members(EstimatorKind, "estimator"),
    "level": _real,
    "master_seed": partial(_whole, lo=0, hi=_UINT64_MAX),
    "ci_pairing": _text,
}
_SYNTH_KEYS = {"size": partial(_whole, lo=1), "mncs": _real, "pp": _real, "shape": _real}


def _parse_fields(obj, table: dict, prefix: str = "") -> None:
    """Replace each field of the frozen ``obj`` that ``table`` keys with its parsed value."""
    for key, parse in table.items():
        object.__setattr__(obj, key, parse(getattr(obj, key), prefix + key))


def _from_keys(cls, raw: dict, table: dict, what: str, *args):
    """``cls(*args, ...)`` with the keys of ``table`` that ``raw`` gives; an absent key takes its default."""
    missing = [key for key in table if key not in raw and cls.__dataclass_fields__[key].default is MISSING]
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")
    return cls(*args, **{key: raw[key] for key in table if key in raw})


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
        synth = raw["synth"]
        if not isinstance(synth, dict):
            raise ValueError("'synth' must be an object")
        unknown = set(synth) - set(_SYNTH_KEYS)
        if unknown:
            raise ValueError(f"unknown synth keys: {sorted(unknown)}")
        source = _from_keys(SynthSpec, synth, _SYNTH_KEYS, "synth")
    else:
        raise ValueError("config must name a 'population' file or a 'synth' spec")
    return _from_keys(StudyConfig, raw, _CONFIG_KEYS, "config", source)


def _echo(obj, table: dict) -> dict:
    """The fields of ``obj`` that ``table`` keys, in its order, enums as their tokens."""
    return {key: _tokens(v) if isinstance(v := getattr(obj, key), tuple) else v for key in table}


def config_dict(config: StudyConfig) -> dict:
    """Plain-dict echo of a config, with enums rendered as their tokens."""
    source = config.population_source
    head = {"synth": _echo(source, _SYNTH_KEYS)} if isinstance(source, SynthSpec) else {"population": source}
    return {**head, **_echo(config, _CONFIG_KEYS)}


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
    if pairing not in ("paper", "all"):
        raise ValueError(f"unknown ci_pairing: {pairing!r}")
    # the paper skips bootstrap-t for the standard bootstrap and BCa for the FPC engines
    skip = None if pairing == "all" else CiType.BOOTSTRAP_T if method is Method.STANDARD else CiType.BCA
    return tuple(c for c in requested if c is not skip)


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


def _replications(config: StudyConfig, pop: Population, workers: int = 1) -> list:
    """The replication table: each (n, method) group's ``(n, method, cis, thetas, v_hats, bounds)``, in config
    order; see the module docstring."""
    for n in config.sample_sizes:
        if n > pop.size:
            raise ValueError(f"sample size {n} exceeds population size {pop.size}")
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
    results = _execute([(config, pop, n, method, lo, hi) for n, method, _ in groups for lo, hi in spans], workers)
    table = []
    for g, group in enumerate(groups):
        thetas, v_hats, bounds = zip(*results[g * len(spans) : (g + 1) * len(spans)])
        table.append((*group, np.concatenate(thetas, 1), np.concatenate(v_hats, 1), np.concatenate(bounds, 2)))
    return table


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
    replications are distributed over ``workers`` processes (an ``int``
    >= 1) but aggregated in a fixed order.
    """
    workers = _count("workers", workers, 1)
    pop = resolve_population(config, population)
    table = _replications(config, pop, workers)
    true_values = {k.value: estimate(k, pop) for k in config.estimators}
    truths = np.array(list(true_values.values()))
    cells = []
    for n, method, cis, _, v_hats, bounds in table:
        cells.extend(_cells(n, method, cis, config.estimators, truths, v_hats, bounds))
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
