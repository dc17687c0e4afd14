"""The package's public names, pinned: adding or removing an export is a one-line diff here."""

import fpboot

PUBLIC_NAMES = [
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


def test_exports_are_pinned_and_resolve():
    assert sorted(fpboot.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(fpboot, name)] == []
