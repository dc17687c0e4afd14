"""Finite-population bootstrap toolkit.

Resampling engines (standard, pseudo-population, mirror-match),
finite-population-corrected variance estimation, four confidence-interval
constructors, and a Monte Carlo coverage-study harness for bibliometric
indicators. The command line lives in ``fpboot.cli``, which only
``import fpboot.cli`` loads.

``import fpboot`` loads nothing: each public name, and each submodule
(``fpboot.study``, ...), is imported on its first access and cached here
(PEP 562). A population or sample loads numpy; ``numpy.random`` waits for
the first random stream, and the process pool for the first study that
fans out.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "DegenerateDistributionError": "errors",
    "PopulationParseError": "errors",
    "Population": "sampling",
    "RngStream": "sampling",
    "Sample": "sampling",
    "load_population": "sampling",
    "make_rng": "sampling",
    "srswor": "sampling",
    "EstimatorKind": "estimators",
    "estimate": "estimators",
    "sample_variance": "estimators",
    "unit_values": "estimators",
    "BootstrapReplicates": "resampling",
    "FpcFactors": "resampling",
    "Method": "resampling",
    "MirrorMatchPlan": "resampling",
    "bootstrap_variance": "resampling",
    "corrected_variance": "resampling",
    "fpc": "resampling",
    "mirror_match_bootstrap": "resampling",
    "mirror_match_plan": "resampling",
    "ppb_bootstrap": "resampling",
    "standard_bootstrap": "resampling",
    "CiType": "intervals",
    "ConfidenceInterval": "intervals",
    "ci_bca": "intervals",
    "ci_bootstrap_t": "intervals",
    "ci_normal": "intervals",
    "ci_percentile": "intervals",
    "jackknife_acceleration": "intervals",
    "CellReport": "study",
    "StudyConfig": "study",
    "StudyReport": "study",
    "SynthSpec": "study",
    "bootstrap": "study",
    "coverage_study": "study",
    "effective_ci_types": "study",
    "emit_report": "study",
    "length_sweep": "study",
    "synth_population": "study",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS.values():
        # importing a submodule binds it here as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
