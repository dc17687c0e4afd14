"""The package's public names, pinned: adding or removing an export is a one-line diff here.

Every module-level import in ``src/fpboot`` is used, too: an import left
behind by a refactor fails ``test_module_imports_are_used``.
"""

import ast
from pathlib import Path

import pytest

import fpboot

SRC = Path(fpboot.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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


def traced_names() -> set:
    """The ``fpboot.study`` names keyed in ``perfbench/tracing.py::STUDY_CALLS``, read with ``ast``."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["STUDY_CALLS"]:
            return {ast.literal_eval(key) for key in node.value.keys}
    raise AssertionError("perfbench/tracing.py defines no STUDY_CALLS")


def unused_imports(path: Path) -> list:
    """Names a module imports at module level but neither uses nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    # fpboot.study imports the names perfbench's tracing wraps, whether the study calls them or not
    allowed = traced_names() if path.name == "study.py" else set()
    assert [name for name in unused_imports(path) if name not in allowed] == []
