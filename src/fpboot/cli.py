"""Command-line front door: subcommands over the library.

Subcommands: ``synth`` writes a synthetic population CSV, ``estimate``
prints point estimates plus one bootstrap CI, ``simulate`` runs a full
coverage study from a config file, ``sweep`` emits average CI lengths over
a grid of sample sizes. ``simulate`` and ``sweep`` read the config file's
JSON object, lay the given flags over it as config keys and hand the
result to ``fpboot.study.config_from_dict``: ``fpboot.study`` owns the
config format, its keys, defaults and tokens. Exit codes: 0 success, 1
validation error, 2 I/O or parse error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import PopulationParseError
from .estimators import EstimatorKind, estimate, unit_values
from .intervals import CiType, _interval_batch
from .resampling import Method
from .sampling import Sample, load_population, make_rng, srswor, write_population
from .study import (
    StudyConfig,
    SynthSpec,
    SYNTH_STREAM_ID,
    _SOURCE_KEYS,
    _g12,
    bootstrap,
    config_from_dict,
    coverage_study,
    emit_report,
    emit_sweep,
    length_sweep,
    parse_token,
    synth_population,
)

# flag -> the config key it overrides
_FLAG_KEYS = {
    "population": "population",
    "sizes": "sample_sizes",
    "B": "B",
    "reps": "repetitions",
    "method": "methods",
    "ci": "ci_types",
    "estimator": "estimators",
    "level": "level",
    "seed": "master_seed",
}


def _parse_sizes(text) -> list[int]:
    try:
        sizes = [int(tok) for tok in str(text).replace(" ", "").split(",") if tok]
    except ValueError:
        raise ValueError(f"bad sample-size list: {text!r}") from None
    if not sizes:
        raise ValueError("sample-size list is empty")
    return sizes


def _study_config(args) -> StudyConfig:
    """The config file's JSON object with the given flags laid over it.

    A flag that names the population replaces the file's population source.
    """
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PopulationParseError(f"{args.config}: invalid config file: {exc}") from None
        if not isinstance(raw, dict):
            raise PopulationParseError(f"{args.config}: config must be a JSON object")
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if key in _SOURCE_KEYS:
            raw = {k: v for k, v in raw.items() if k not in _SOURCE_KEYS}
        raw[key] = _parse_sizes(value) if flag == "sizes" else value
    return config_from_dict(raw)


def _workers(args) -> int:
    if args.threads < 0:
        raise ValueError(f"--threads must be >= 0, got {args.threads}")
    if args.threads > 0:
        return args.threads
    # the cores this process may run on, which taskset or a cpuset can
    # narrow below the host's count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_synth(args) -> int:
    spec = SynthSpec(size=args.n, target_mncs=args.mncs, target_pp=args.pp, shape=args.shape)
    pop = synth_population(spec, make_rng(args.seed, SYNTH_STREAM_ID))
    write_population(pop, args.out)
    print(f"wrote {pop.size} records to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    pop = load_population(args.population)
    kind = parse_token(EstimatorKind, args.estimator, "estimator")
    rng = make_rng(args.seed, 0)
    if args.n is None:
        sample = Sample(np.arange(pop.size), pop.ncs, pop.top10, pop.size)  # the whole file
    else:
        sample = srswor(pop, args.n, rng)
    method = parse_token(Method, args.method, "method")
    ci_kind = parse_token(CiType, args.ci, "ci type")
    value = estimate(kind, sample)
    reps = bootstrap(
        method, sample, pop.size, args.B, kind, rng, with_t_variances=ci_kind is CiType.BOOTSTRAP_T
    )
    t_variances = None if reps.t_variances is None else reps.t_variances[None]
    v_hat, bounds = _interval_batch(
        (ci_kind,), args.level, reps.estimates[None], [value],
        t_variances=t_variances, values=unit_values(kind, sample)[None],
    )
    lower, upper = bounds[0, 0].tolist()
    if np.isnan(lower):
        raise ValueError("bootstrap-t interval undefined: more than 1% of replicates have zero variance")
    print(f"{kind.value} {_g12(value)}")
    print(f"variance {_g12(float(v_hat[0]))}")
    print(f"ci {ci_kind.value} {_g12(lower)} {_g12(upper)}")
    return 0


def _cmd_study(args) -> int:
    config = _study_config(args)
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
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    def choices(enum) -> str:
        return " | ".join(m.value for m in enum)

    parser = _Parser(prog="fpboot", description="Finite-population bootstrap toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic population CSV")
    p_synth.add_argument("--n", type=int, required=True, help="population size")
    p_synth.add_argument("--mncs", type=float, default=1.275, help="population mean citation score")
    p_synth.add_argument("--pp", type=float, default=13.7, help="population %% of top-10%% records")
    p_synth.add_argument("--shape", type=float, default=SynthSpec.shape, help="log-normal shape parameter")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_est = sub.add_parser("estimate", help="point estimate and one bootstrap CI")
    p_est.add_argument("--population", required=True)
    p_est.add_argument("--estimator", required=True, help=choices(EstimatorKind))
    p_est.add_argument("--n", type=int, default=None, help="sample size (default: whole file)")
    p_est.add_argument("--method", default="standard", help=choices(Method))
    p_est.add_argument("--ci", default="percentile", help=choices(CiType))
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
        p.add_argument("--method", action="append", default=None, help=f"repeatable: {choices(Method)}")
        p.add_argument("--ci", action="append", default=None, help=f"repeatable: {choices(CiType)}")
        p.add_argument("--estimator", action="append", default=None, help=f"repeatable: {choices(EstimatorKind)}")
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
    except (PopulationParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))
