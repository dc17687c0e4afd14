"""The package's public names, pinned: adding or removing an export is a one-line diff here.

Every module-level import in ``src/fpboot`` and ``tests`` is used, too: an
import left behind by a refactor fails ``test_module_imports_are_used``.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fpboot
from test_benchmark_pins import study_calls

SRC = Path(fpboot.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

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


# Run in a fresh interpreter: what each step of the Python API loads.
LAZY_PROBE = """
import json, sys
import fpboot
seen = {"import": sorted(m for m in sys.modules if m.startswith("fpboot.") or m.split(".")[0] == "numpy")}
fpboot.load_population(sys.argv[1])
seen["load"] = [m for m in ("fpboot.sampling", "numpy", "numpy.random", "statistics", "fpboot.study") if m in sys.modules]
seen["study"] = fpboot.study.config_dict.__module__
try:
    fpboot.no_such_name
except AttributeError as exc:
    seen["missing"] = str(exc)
star = {}
exec("from fpboot import *", star)
seen["star"] = sorted(set(star) - {"__builtins__"})
seen["not_defined_there"] = [n for n in fpboot.__all__
                             if getattr(sys.modules[star[n].__module__], n) is not star[n] or getattr(fpboot, n) is not star[n]]
seen["dir"] = sorted(set(fpboot.__all__) - set(dir(fpboot)))
print(json.dumps(seen))
"""


def test_each_step_loads_only_what_it_uses(tmp_path):
    pop_path = tmp_path / "pop.csv"
    pop_path.write_text("ncs,top10\n1.5,1\n0.5,0\n", encoding="utf-8")
    out = subprocess.run([sys.executable, "-c", LAZY_PROBE, str(pop_path)], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC.parent)}, check=True, timeout=120).stdout
    seen = json.loads(out)
    # import fpboot loads no submodule and not numpy; a population loads
    # numpy and fpboot.sampling, but no random stream, interval or study code
    assert seen["import"] == []
    assert seen["load"] == ["fpboot.sampling", "numpy"]
    assert seen["study"] == "fpboot.study"
    assert seen["missing"] == "module 'fpboot' has no attribute 'no_such_name'"
    assert seen["star"] == PUBLIC_NAMES
    assert seen["not_defined_there"] == []
    assert seen["dir"] == []


def unused_imports(path: Path) -> list:
    """Names a module imports at module level but neither uses nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            # the module's own list: fpboot's __all__ is built from its export table
            module = "fpboot" if path.stem == "__init__" else f"fpboot.{path.stem}"
            exported.update(importlib.import_module(module).__all__)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    # fpboot.study imports the names perfbench's tracing wraps, whether the study calls them or not
    allowed = set(study_calls()) if path.name == "study.py" else set()
    assert [name for name in unused_imports(path) if name not in allowed] == []


def test_no_module_reads_the_bit_generator():
    # every draw is a Generator method call, so make_rng is the one place
    # that names the bit generator
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "bit_generator"
    ]
    assert reads == []
