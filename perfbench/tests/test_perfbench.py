"""Tests of the benchmark itself: statistics, span arithmetic, closed forms, smoke runs.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, covered, self_times, traced_study  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert checks.tail_percentile(100) == 90
    assert checks.tail_percentile(54) == 81
    assert checks.tail_percentile(400) == 97
    assert checks.tail_percentile(20) is None
    for count in range(21, 600):
        q = checks.tail_percentile(count)
        values = list(range(count))
        beyond = sum(v > checks.percentile(values, q) for v in values)
        assert beyond >= 10
        if q < 99:
            assert sum(v > checks.percentile(values, q + 1) for v in values) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert checks.percentile(values, 50) == 50
    assert checks.percentile(values, 90) == 90
    assert checks.percentile([3.0], 50) == 3.0
    assert checks.percentile([4, 1, 3, 2], 50) == 2


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 4), (1, 2)]) == 4


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "study", 0.0, 10.0),
        Span(1, 0, "resampling.ppb", 1.0, 4.0),
        Span(2, 1, "sampling.srswor", 2.0, 3.0),
        Span(3, 0, "intervals.normal", 3.5, 6.0),
        Span(4, 0, "intervals.bca", 9.0, 12.0),
    ]
    st = self_times(spans)
    # children cover [1, 6] and [9, 10] of the root (the last one clipped)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.5)


def test_tracer_nests_spans_and_counts_outcomes():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("study") as root:
        with tracer.span("sampling.srswor"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("intervals.bca"):
                raise ValueError
    srswor, bca = tracer.spans[1], tracer.spans[2]
    assert srswor.parent == root.id and bca.parent == root.id
    assert (root.start, root.end) == (0.0, 5.0)
    assert self_times(tracer.spans)[root.id] == pytest.approx(3.0)
    assert tracer.outcomes[("intervals.bca", "error")] == 1
    assert tracer.outcomes[("sampling.srswor", "ok")] == 1


def test_traced_study_restores_the_module():
    import fpboot.study as study
    from fpboot.sampling import srswor

    with traced_study(Tracer()):
        assert study.srswor is not srswor
    assert study.srswor is srswor


def test_standard_closed_form_is_the_plugin_variance_of_the_mean():
    values = np.array([0.3, 1.7, 2.2, 0.0, 5.1, 0.9])
    n = values.size
    s2 = values.var(ddof=1)
    # resampling n values with replacement: Var(mean) = plug-in variance / n
    assert checks.closed_form_variance("standard", s2, n, 100) == pytest.approx(values.var(ddof=0) / n)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_fpc_closed_form_is_the_srswor_variance_of_the_mean(n):
    pop = np.array([0.2, 1.4, 3.3, 0.7, 2.9, 0.1, 5.5, 1.0])
    N = pop.size
    means = [np.mean(c) for c in itertools.combinations(pop, n)]
    exact = float(np.var(means))
    for method in ("ppb", "mirror"):
        assert checks.closed_form_variance(method, pop.var(ddof=1), n, N) == pytest.approx(exact)


def test_ratio_band_uses_the_bootstrap_spread():
    assert checks.ratio_band_failure([1.0, 1.0, 1.0, 1.0], 1000) is None
    assert checks.ratio_band_failure([0.97, 1.04, 1.01, 0.99], 1000) is None
    assert checks.ratio_band_failure([1.29, 1.31, 1.30, 1.28], 1000) is not None


def test_coverage_band_widens_with_fewer_replications():
    assert sum(checks.binom_cdf(k, 10, 0.3) - checks.binom_cdf(k - 1, 10, 0.3) for k in range(11)) == pytest.approx(1)
    assert checks.coverage_failure(0.95, 1000, 0.95) is None
    assert checks.coverage_failure(0.80, 1000, 0.95) is not None
    assert checks.coverage_failure(1.0, 1000, 0.95) is not None
    assert checks.coverage_failure(0.7, 10, 0.95) is None
    assert checks.coverage_failure(0.1, 10, 0.95) is not None


def _doc(**cell):
    base = {"n": 1000, "method": "ppb", "ci_type": "normal", "estimator": "mncs",
            "coverage": 0.95, "avg_length": 0.1, "avg_variance": 0.01, "R": 1000}
    base.update(cell)
    return {"config": {"repetitions": 1000, "level": 0.95}, "population": {"size": 6224}, "cells": [base]}


def test_check_report_flags_bad_cells():
    keys = {(1000, "ppb", "normal", "mncs")}
    assert checks.check_report(_doc(), keys) == (1, [])
    for bad in ({"coverage": math.nan}, {"avg_length": -1.0}, {"R": 1001}, {"R": 0}, {"coverage": 0.5}):
        checked, failures = checks.check_report(_doc(**bad), keys)
        assert checked == 1 and len(failures) == 1, bad
    assert checks.check_report(_doc(), {(100, "ppb", "normal", "mncs")})[1]


def test_check_sweep_requires_zero_census_length_for_fpc_engines():
    keys = {(6224, "ppb", "normal", "mncs"), (6224, "standard", "normal", "mncs")}
    good = "n,method,ci_type,estimator,avg_length\n6224,ppb,normal,mncs,0\n6224,standard,normal,mncs,0.05\n"
    assert checks.check_sweep(good, keys, 6224) == (2, [])
    bad = good.replace("ppb,normal,mncs,0\n", "ppb,normal,mncs,0.01\n")
    assert len(checks.check_sweep(bad, keys, 6224)[1]) == 1


def _declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_run_emits_every_declared_metric(name, trace, tmp_path):
    toy = dataclasses.replace(WORKLOADS[name], reps=2, B=50)
    result, metrics, stamp, detail = run.run_benchmark(
        toy, seed=7, seconds=0.01, trace=trace, work_dir=tmp_path, setup_probes=1,
        table_kw={"calls": 1, "B": 50},
    )
    assert result["correct"], detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(metrics) == _declared(trace)
    assert all(math.isfinite(v) for v in metrics.values())
    assert stamp["workload"] == name and stamp["seed"] == 7 and stamp["numpy"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_n", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
