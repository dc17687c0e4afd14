"""The names the benchmark in ``perfbench/`` reaches in the package still resolve.

``perfbench`` imports names from ``fpboot`` and ``fpboot.cli`` and wraps the
``fpboot.study`` attributes keyed in ``perfbench/tracing.py::STUDY_CALLS``;
removing any of them makes every benchmark run fail. The benchmark's files
are read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fpboot.study

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def imported_names():
    """(module, name) for every ``from fpboot... import name`` in perfbench/*.py."""
    pins = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fpboot":
                pins.update((node.module, alias.name) for alias in node.names)
    return sorted(pins)


def study_calls():
    """The ``fpboot.study`` names keyed in ``perfbench/tracing.py::STUDY_CALLS``, in file order."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["STUDY_CALLS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracing.py defines no STUDY_CALLS")


def test_pins_are_found():
    assert {module for module, _ in imported_names()} >= {"fpboot", "fpboot.cli"}
    assert "_run_replications" in study_calls()


@pytest.mark.parametrize("module,name", imported_names())
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", study_calls())
def test_study_call_resolves(name):
    assert callable(getattr(fpboot.study, name, None))
