"""Command-line front door: subcommands over the library.

Subcommands: ``synth`` writes a synthetic population CSV, ``estimate``
prints one study replication's point estimate, variance and bootstrap
CI, ``simulate`` runs a full coverage study from a config file. The
length table over a grid of sample sizes is the ``avg_length`` column of
``simulate --format csv``. ``simulate`` reads the config file's JSON
object, lays the given flags over it (each flag's ``dest`` is the config
key it sets) and hands the result to ``fpboot.study.config_from_dict``;
``estimate`` passes its flags' raw tokens to ``StudyConfig``.
``fpboot.study`` owns the config format, its keys, defaults and tokens:
``StudyConfig`` and ``SynthSpec`` parse every value, whichever command
built them.
Exit codes: 0 success, 1 validation error, 2 I/O or parse error.
"""

import argparse
import json
import math
import os
import sys

from .errors import PopulationParseError
from .estimators import EstimatorKind
from .intervals import CiType
from .resampling import Method
from .sampling import load_population, make_rng, write_population
from .study import (
    StudyConfig,
    SynthSpec,
    SYNTH_STREAM_ID,
    _CONFIG_KEYS,
    _check_sizes,
    _g12,
    _run_replications,
    config_from_dict,
    coverage_study,
    emit_report,
    emit_sweep,
    synth_population,
)

# emit_sweep is re-exported for perfbench/workloads.py, which imports it from here
__all__ = ["build_parser", "cli_dispatch", "emit_sweep", "main"]


def _parse_sizes(text) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sample-size list: {text!r}") from None


def _study_config(args) -> StudyConfig:
    """The config file's JSON object with the given flags laid over it.

    A flag that names the population replaces the file's population source.
    Each run flag's ``dest`` is the config key it sets.
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
    for key in ("population", *_CONFIG_KEYS):
        value = getattr(args, key, None)
        if value is None:
            continue
        if key == "population":
            raw.pop("synth", None)
        raw[key] = value
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
    """Replication 1 of the one-cell study that ``simulate`` runs with the same seed.

    Without ``--n`` the sample is the census draw n = N, the whole file.
    """
    pop = load_population(args.population)
    n = pop.size if args.n is None else args.n
    config = StudyConfig(
        args.population, (n,), B=args.B, repetitions=1, methods=(args.method,), ci_types=(args.ci,),
        estimators=(args.estimator,), level=args.level, master_seed=args.seed, ci_pairing="all",
    )
    (method,), (ci_kind,), (kind,) = config.methods, config.ci_types, config.estimators
    _check_sizes(config, pop)
    thetas, v_hats, bounds = _run_replications((config, pop, n, method, 1, 2))
    lower, upper = bounds[0, 0, 0].tolist()
    if math.isnan(lower):
        raise ValueError("bootstrap-t interval undefined: more than 1% of replicates have zero variance")
    print(f"{kind.value} {_g12(float(thetas[0, 0]))}")
    print(f"variance {_g12(float(v_hats[0, 0]))}")
    print(f"ci {ci_kind.value} {_g12(lower)} {_g12(upper)}")
    return 0


def _cmd_simulate(args) -> int:
    config = _study_config(args)
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

    p_sim = sub.add_parser("simulate", help="run a coverage study")
    p_sim.add_argument("--config", default=None, help="JSON study config")
    p_sim.add_argument("--population", default=None, help="population CSV (overrides config)")
    p_sim.add_argument("--sizes", dest="sample_sizes", type=_parse_sizes, default=None,
                       help="comma-separated sample sizes (overrides config)")
    p_sim.add_argument("--B", type=int, default=None)
    p_sim.add_argument("--reps", dest="repetitions", type=int, default=None)
    p_sim.add_argument("--method", dest="methods", action="append", default=None, help=f"repeatable: {choices(Method)}")
    p_sim.add_argument("--ci", dest="ci_types", action="append", default=None, help=f"repeatable: {choices(CiType)}")
    p_sim.add_argument("--estimator", dest="estimators", action="append", default=None,
                       help=f"repeatable: {choices(EstimatorKind)}")
    p_sim.add_argument("--level", type=float, default=None)
    p_sim.add_argument("--seed", dest="master_seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=0, help="worker processes (0 = every usable core; never affects results)")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.set_defaults(func=_cmd_simulate)
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
