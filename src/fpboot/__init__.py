"""Finite-population bootstrap toolkit.

Resampling engines (standard, pseudo-population, mirror-match),
finite-population-corrected variance estimation, four confidence-interval
constructors, and a Monte Carlo coverage-study harness for bibliometric
indicators. The command line lives in ``fpboot.cli`` and is not imported
here.
"""

from .errors import DegenerateDistributionError, PopulationParseError
from .sampling import (
    Population,
    RngStream,
    Sample,
    load_population,
    make_rng,
    srswor,
)
from .estimators import (
    EstimatorKind,
    estimate,
    mncs,
    pp_top10,
    sample_variance,
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
    jackknife_acceleration,
)
from .study import (
    CellReport,
    StudyConfig,
    StudyReport,
    SynthSpec,
    bootstrap,
    coverage_study,
    effective_ci_types,
    emit_report,
    length_sweep,
    synth_population,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapReplicates",
    "CellReport",
    "CiType",
    "ConfidenceInterval",
    "DegenerateDistributionError",
    "EstimatorKind",
    "FpcFactors",
    "Method",
    "MirrorMatchPlan",
    "Population",
    "PopulationParseError",
    "RngStream",
    "Sample",
    "StudyConfig",
    "StudyReport",
    "SynthSpec",
    "bias_correction",
    "bootstrap",
    "bootstrap_variance",
    "ci_bca",
    "ci_bootstrap_t",
    "ci_normal",
    "ci_percentile",
    "corrected_variance",
    "coverage_study",
    "effective_ci_types",
    "emit_report",
    "estimate",
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
    "sample_variance",
    "srswor",
    "standard_bootstrap",
    "synth_population",
    "unit_values",
]
