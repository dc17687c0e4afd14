"""Command-line front door: subcommands and study config files.

Subcommands: ``synth`` writes a synthetic population CSV, ``estimate``
prints point estimates plus one bootstrap CI, ``simulate`` runs a full
coverage study from a config file, ``sweep`` emits average CI lengths over
a grid of sample sizes. Exit codes: 0 success, 1 validation error, 2
I/O or parse error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import PopulationParseError
from .estimators import EstimatorKind, estimate
from .intervals import CiType, jackknife_acceleration
from .resampling import Method, bootstrap_variance
from .sampling import Population, Sample, load_population, make_rng, srswor, write_population
from .study import (
    StudyConfig,
    SynthSpec,
    SYNTH_STREAM_ID,
    _g12,
    bootstrap,
    build_interval,
    coverage_study,
    emit_report,
    emit_sweep,
    length_sweep,
    synth_population,
)

_METHOD_TOKENS = {m.value: m for m in Method}
_CI_TOKENS = {c.value: c for c in CiType}
_ESTIMATOR_TOKENS = {e.value: e for e in EstimatorKind}
_ESTIMATOR_TOKENS["pp"] = EstimatorKind.PP_TOP10

_CONFIG_KEYS = {
    "population",
    "synth",
    "sample_sizes",
    "B",
    "repetitions",
    "methods",
    "ci_types",
    "estimators",
    "level",
    "master_seed",
    "ci_pairing",
}


def _parse_tokens(values, table, what):
    out = []
    for v in values:
        token = v.strip().lower() if isinstance(v, str) else None
        if token not in table:
            raise ValueError(f"unknown {what}: {v!r} (choose from {sorted(table)})")
        item = table[token]
        if item not in out:
            out.append(item)
    return tuple(out)


def _parse_sizes(text) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in str(text).replace(" ", "").split(",") if tok)
    except ValueError:
        raise ValueError(f"bad sample-size list: {text!r}") from None
    if not sizes:
        raise ValueError("sample-size list is empty")
    return sizes


def _whole(value, key: str) -> int:
    """A config value that counts something: a whole number (20.0 passes, 20.9 does not)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config '{key}' must be a whole number, got {value!r}")
    return value


def _real(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config '{key}' must be a number, got {value!r}")
    return float(value)


def _listed(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"config '{key}' must be a list, got {value!r}")
    return value


def read_config_file(path) -> dict:
    """Parse and validate the raw key-value study config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PopulationParseError(f"{path}: invalid config file: {exc}") from None
    if not isinstance(raw, dict):
        raise PopulationParseError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    if "population" in raw and "synth" in raw:
        raise ValueError(f"{path}: give either 'population' or 'synth', not both")
    return raw


def _config_from(raw: dict, args) -> StudyConfig:
    """Merge a raw config dict with command-line overrides."""
    population = getattr(args, "population", None) or raw.get("population")
    synth = raw.get("synth")
    if population is not None:
        source = str(population)
    elif synth is not None:
        if not isinstance(synth, dict):
            raise ValueError("'synth' must be an object")
        unknown = set(synth) - {"size", "mncs", "pp", "shape"}
        if unknown:
            raise ValueError(f"unknown synth keys: {sorted(unknown)}")
        missing = {"size", "mncs", "pp"} - set(synth)
        if missing:
            raise ValueError(f"missing synth keys: {sorted(missing)}")
        source = SynthSpec(
            size=_whole(synth["size"], "synth.size"),
            target_mncs=_real(synth["mncs"], "synth.mncs"),
            target_pp=_real(synth["pp"], "synth.pp"),
            shape=_real(synth.get("shape", 1.0), "synth.shape"),
        )
    else:
        raise ValueError("config must name a 'population' file or a 'synth' spec")

    sizes = _setting(args, "sizes", raw, "sample_sizes")
    if sizes is None:
        raise ValueError("no sample sizes given (config 'sample_sizes' or --sizes)")
    if isinstance(sizes, str):
        sizes = _parse_sizes(sizes)
    else:
        sizes = tuple(_whole(s, "sample_sizes") for s in _listed(sizes, "sample_sizes"))
    methods = _setting(args, "method", raw, "methods", [m.value for m in Method])
    cis = _setting(args, "ci", raw, "ci_types", ["normal", "percentile"])
    ests = _setting(args, "estimator", raw, "estimators", [e.value for e in EstimatorKind])
    return StudyConfig(
        population_source=source,
        sample_sizes=sizes,
        B=_whole(_setting(args, "B", raw, "B", 1000), "B"),
        repetitions=_whole(_setting(args, "reps", raw, "repetitions", 1000), "repetitions"),
        methods=_parse_tokens(_listed(methods, "methods"), _METHOD_TOKENS, "method"),
        ci_types=_parse_tokens(_listed(cis, "ci_types"), _CI_TOKENS, "ci type"),
        estimators=_parse_tokens(_listed(ests, "estimators"), _ESTIMATOR_TOKENS, "estimator"),
        level=_real(_setting(args, "level", raw, "level", 0.95), "level"),
        master_seed=_whole(_setting(args, "seed", raw, "master_seed", 0), "master_seed"),
        ci_pairing=str(raw.get("ci_pairing", "paper")),
    )


def _setting(args, flag: str, raw: dict, key: str, default=None):
    """The command-line flag if given, else the config value, else ``default``.

    An explicitly empty list in the config file is an error, not "use the
    default".
    """
    value = getattr(args, flag, None)
    if value is None:
        value = raw.get(key, default)
    if isinstance(value, list) and not value:
        raise ValueError(f"config '{key}' is an empty list")
    return value


def _workers(args) -> int:
    threads = getattr(args, "threads", 0) or 0
    if threads > 0:
        return threads
    # the cores this process may run on, which taskset or a cpuset can
    # narrow below the host's count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _census_sample(pop: Population) -> Sample:
    return Sample(np.arange(pop.size), pop.ncs, pop.top10, pop.size)


def _cmd_synth(args) -> int:
    spec = SynthSpec(size=args.n, target_mncs=args.mncs, target_pp=args.pp, shape=args.shape)
    pop = synth_population(spec, make_rng(args.seed, SYNTH_STREAM_ID))
    write_population(pop, args.out)
    print(f"wrote {pop.size} records to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    pop = load_population(args.population)
    kind = _parse_tokens([args.estimator], _ESTIMATOR_TOKENS, "estimator")[0]
    rng = make_rng(args.seed, 0)
    if args.n is None:
        sample = _census_sample(pop)
    else:
        sample = srswor(pop, args.n, rng)
    method = _parse_tokens([args.method], _METHOD_TOKENS, "method")[0]
    ci_kind = _parse_tokens([args.ci], _CI_TOKENS, "ci type")[0]
    value = estimate(kind, sample)
    reps = bootstrap(
        method, sample, pop.size, args.B, kind, rng, with_t_variances=ci_kind is CiType.BOOTSTRAP_T
    )
    v_hat = bootstrap_variance(reps)
    accel = jackknife_acceleration(sample, kind) if ci_kind is CiType.BCA else 0.0
    interval = build_interval(ci_kind, reps=reps, theta_hat=value, v_hat=v_hat, accel=accel, level=args.level)
    if interval is None:
        raise ValueError("bootstrap-t interval undefined: more than 1% of replicates have zero variance")
    print(f"{kind.value} {_g12(value)}")
    print(f"variance {_g12(v_hat)}")
    print(f"ci {interval.method.value} {_g12(interval.lower)} {_g12(interval.upper)}")
    return 0


def _cmd_study(args) -> int:
    raw = read_config_file(args.config) if args.config else {}
    config = _config_from(raw, args)
    if args.command == "sweep":
        rows = length_sweep(config, workers=_workers(args))
        emit_sweep(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        report = coverage_study(config, workers=_workers(args))
        emit_report(report, args.format, args.out)
        print(f"wrote {len(report.cells)} cells to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fpboot", description="Finite-population bootstrap toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic population CSV")
    p_synth.add_argument("--n", type=int, required=True, help="population size")
    p_synth.add_argument("--mncs", type=float, default=1.275, help="population mean citation score")
    p_synth.add_argument("--pp", type=float, default=13.7, help="population %% of top-10%% records")
    p_synth.add_argument("--shape", type=float, default=1.0, help="log-normal shape parameter")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_est = sub.add_parser("estimate", help="point estimate and one bootstrap CI")
    p_est.add_argument("--population", required=True)
    p_est.add_argument("--estimator", required=True, help="mncs | pp_top10")
    p_est.add_argument("--n", type=int, default=None, help="sample size (default: whole file)")
    p_est.add_argument("--method", default="standard", help="standard | ppb | mirror")
    p_est.add_argument("--ci", default="percentile", help="normal | percentile | bca | boot-t")
    p_est.add_argument("--B", type=int, default=1000)
    p_est.add_argument("--level", type=float, default=0.95)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.set_defaults(func=_cmd_estimate)

    def common_run_flags(p):
        p.add_argument("--config", default=None, help="JSON study config")
        p.add_argument("--population", default=None, help="population CSV (overrides config)")
        p.add_argument("--sizes", default=None, help="comma-separated sample sizes (overrides config)")
        p.add_argument("--B", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--method", action="append", default=None, help="repeatable: standard | ppb | mirror")
        p.add_argument("--ci", action="append", default=None, help="repeatable: normal | percentile | bca | boot-t")
        p.add_argument("--estimator", action="append", default=None, help="repeatable: mncs | pp_top10")
        p.add_argument("--level", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=0, help="worker processes (0 = every usable core; never affects results)")
        p.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="run a coverage study")
    common_run_flags(p_sim)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.set_defaults(func=_cmd_study)

    p_sweep = sub.add_parser("sweep", help="average CI length over a sample-size grid")
    common_run_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_study)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return int(args.func(args) or 0)
    except PopulationParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))
