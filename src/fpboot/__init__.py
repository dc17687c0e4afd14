"""Finite-population bootstrap toolkit.

Resampling engines (standard, pseudo-population, mirror-match),
finite-population-corrected variance estimation, four confidence-interval
constructors, and a Monte Carlo coverage-study harness for bibliometric
indicators.
"""

from .errors import DegenerateDistributionError, PopulationParseError
from .sampling import (
    Population,
    PublicationRecord,
    RngStream,
    Sample,
    make_rng,
    srswor,
    srswr,
)
from .estimators import (
    EstimateResult,
    EstimatorKind,
    estimate,
    estimate_result,
    mncs,
    pp_top10,
    sample_variance,
    se_mean_fpc,
    unit_values,
)
from .resampling import (
    BootstrapReplicates,
    FpcFactors,
    Method,
    MirrorMatchPlan,
    bootstrap_variance,
    corrected_variance,
    fpc,
    mirror_match_bootstrap,
    mirror_match_plan,
    ppb_bootstrap,
    standard_bootstrap,
)
from .intervals import (
    CiType,
    ConfidenceInterval,
    bias_correction,
    ci_bca,
    ci_bootstrap_t,
    ci_normal,
    ci_percentile,
    empirical_quantile,
    jackknife_acceleration,
)
from .study import (
    CellReport,
    StudyConfig,
    StudyReport,
    SynthSpec,
    coverage_study,
    effective_ci_types,
    length_sweep,
    run_cell,
    synth_population,
)
from .cli import cli_dispatch, emit_report, load_population

__version__ = "0.1.0"

__all__ = [
    "BootstrapReplicates",
    "CellReport",
    "CiType",
    "ConfidenceInterval",
    "DegenerateDistributionError",
    "EstimateResult",
    "EstimatorKind",
    "FpcFactors",
    "Method",
    "MirrorMatchPlan",
    "Population",
    "PopulationParseError",
    "PublicationRecord",
    "RngStream",
    "Sample",
    "StudyConfig",
    "StudyReport",
    "SynthSpec",
    "bias_correction",
    "bootstrap_variance",
    "ci_bca",
    "ci_bootstrap_t",
    "ci_normal",
    "ci_percentile",
    "cli_dispatch",
    "corrected_variance",
    "coverage_study",
    "effective_ci_types",
    "emit_report",
    "empirical_quantile",
    "estimate",
    "estimate_result",
    "fpc",
    "jackknife_acceleration",
    "length_sweep",
    "load_population",
    "make_rng",
    "mirror_match_bootstrap",
    "mirror_match_plan",
    "mncs",
    "pp_top10",
    "ppb_bootstrap",
    "run_cell",
    "sample_variance",
    "se_mean_fpc",
    "srswor",
    "srswr",
    "standard_bootstrap",
    "synth_population",
    "unit_values",
]
