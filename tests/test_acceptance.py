"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo
criteria share two session-scoped coverage studies over the synthetic
analog population (N = 6224, MNCS = 1.275, PP(top 10%) = 13.689%,
log-normal shape 0.7, master seed ACCEPT_SEED); everything is fully
deterministic, so the asserted values are reproducible bit for bit.
"""

import json
import math
import os
import subprocess
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest

from fpboot import (
    CiType,
    EstimatorKind,
    Method,
    StudyConfig,
    SynthSpec,
    bootstrap_variance,
    ci_normal,
    ci_percentile,
    ci_bca,
    corrected_variance,
    coverage_study,
    estimate,
    fpc,
    make_rng,
    mirror_match_bootstrap,
    ppb_bootstrap,
    sample_variance,
    srswor,
    standard_bootstrap,
    synth_population,
)
from fpboot.intervals import _bias_corrections
from fpboot.resampling import BootstrapReplicates
from fpboot.study import SYNTH_STREAM_ID

ACCEPT_SEED = 9001
SHAPE = 0.7
WORKERS = os.cpu_count() or 1
SPEC = SynthSpec(size=6224, mncs=1.275, pp=13.7, shape=SHAPE)

FPC_METHODS = (Method.PPB, Method.MIRROR_MATCH)
FPC_CIS = (CiType.NORMAL, CiType.PERCENTILE, CiType.BOOTSTRAP_T)
BOTH = (EstimatorKind.MNCS, EstimatorKind.PP_TOP10)
ALL_CIS = (CiType.NORMAL, CiType.PERCENTILE, CiType.BCA, CiType.BOOTSTRAP_T)
ALL_METHODS = (Method.STANDARD, Method.PPB, Method.MIRROR_MATCH)


def report_line(number, label, ok):
    print(f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def population():
    return synth_population(SPEC, make_rng(ACCEPT_SEED, SYNTH_STREAM_ID))


@pytest.fixture(scope="session")
def study_n1000():
    cfg = StudyConfig(
        population_source=SPEC, sample_sizes=(1000,), B=1000, repetitions=1000,
        methods=ALL_METHODS, ci_types=ALL_CIS, estimators=BOTH,
        level=0.95, master_seed=ACCEPT_SEED,
    )
    return coverage_study(cfg, workers=WORKERS)


@pytest.fixture(scope="session")
def study_n4000():
    cfg = StudyConfig(
        population_source=SPEC, sample_sizes=(4000,), B=1000, repetitions=1000,
        methods=(Method.STANDARD,), ci_types=(CiType.NORMAL,), estimators=BOTH,
        level=0.95, master_seed=ACCEPT_SEED,
    )
    return coverage_study(cfg, workers=WORKERS)


def cells_of(report, **match):
    out = []
    for c in report.cells:
        if all(getattr(c, k) == v for k, v in match.items()):
            out.append(c)
    return out


def test_criterion_1_fpc_arithmetic():
    failures = []
    factors = fpc(100, 6224)
    if abs(factors.one_minus_f - 0.983933) > 1e-6:
        failures.append(f"one_minus_f {factors.one_minus_f}")
    if abs(factors.bias_adjusted - 0.984091) > 1e-6:
        failures.append(f"bias_adjusted {factors.bias_adjusted}")
    census = fpc(6224, 6224)
    if (census.one_minus_f, census.bias_adjusted) != (0.0, 0.0):
        failures.append(f"census {census}")
    gen = np.random.default_rng(0)
    for _ in range(200):
        v = float(gen.random() * 7)
        n = int(gen.integers(1, 6224))
        if corrected_variance(v, n, 6224) != fpc(n, 6224).bias_adjusted * v:
            failures.append(f"corrected_variance at v={v} n={n}")
            break
    report_line(1, "exact FPC arithmetic", not failures)
    assert not failures, failures


def test_criterion_2_census_zero_variance(population):
    failures = []
    N = population.size
    sigma_pop = float(population.ncs.std(ddof=0))
    oracle_len = 2 * 1.96 * sigma_pop / math.sqrt(N)
    std_lengths = []
    for stream in range(5):
        rng = make_rng(ACCEPT_SEED, 10_000 + stream)
        sample = srswor(population, N, rng)
        for engine in (ppb_bootstrap, mirror_match_bootstrap):
            reps = engine(sample, N, 1000, EstimatorKind.MNCS, rng, with_t_variances=True)
            if not np.all(reps.estimates == reps.estimates[0]):
                failures.append(f"{engine.__name__} stream {stream}: replicates differ")
            v = bootstrap_variance(reps)
            if v != 0.0:
                failures.append(f"{engine.__name__} stream {stream}: variance {v}")
            theta = float(reps.estimates[0])
            if ci_normal(theta, v, 0.95).length != 0.0:
                failures.append(f"{engine.__name__} stream {stream}: normal length")
            if ci_percentile(reps, 0.95).length != 0.0:
                failures.append(f"{engine.__name__} stream {stream}: percentile length")
        std = standard_bootstrap(sample, 1000, EstimatorKind.MNCS, rng)
        std_lengths.append(ci_normal(estimate(EstimatorKind.MNCS, sample), bootstrap_variance(std), 0.95).length)
    avg_std = sum(std_lengths) / len(std_lengths)
    if not 0.85 * oracle_len <= avg_std <= 1.15 * oracle_len:
        failures.append(f"standard census length {avg_std} vs oracle {oracle_len}")
    report_line(2, "census zero-variance limit", not failures)
    assert not failures, failures


def test_criterion_3_variance_contracts(population):
    failures = []
    small_pop = synth_population(
        SynthSpec(size=200, mncs=1.275, pp=13.7, shape=SHAPE),
        make_rng(ACCEPT_SEED, SYNTH_STREAM_ID - 1),
    )
    cases = [(100, small_pop), (1000, population)]
    start = time.perf_counter()
    for n, pop in cases:
        N = pop.size
        sample = srswor(pop, n, make_rng(ACCEPT_SEED, 20_000 + n))
        s2 = sample_variance(sample.ncs)
        f = n / N
        v_std = bootstrap_variance(
            standard_bootstrap(sample, 10_000, EstimatorKind.MNCS, make_rng(ACCEPT_SEED, 21_000 + n))
        )
        expected_std = s2 * (n - 1) / n**2
        if abs(v_std / expected_std - 1) > 0.05:
            failures.append(f"standard at (n={n}, N={N}): {v_std} vs {expected_std}")
        expected_fpc = (1 - f) * s2 / n
        v_ppb = bootstrap_variance(
            ppb_bootstrap(sample, N, 10_000, EstimatorKind.MNCS, make_rng(ACCEPT_SEED, 22_000 + n))
        )
        if abs(v_ppb / expected_fpc - 1) > 0.10:
            failures.append(f"ppb at (n={n}, N={N}): {v_ppb} vs {expected_fpc}")
        v_mm = bootstrap_variance(
            mirror_match_bootstrap(sample, N, 10_000, EstimatorKind.MNCS, make_rng(ACCEPT_SEED, 23_000 + n))
        )
        if abs(v_mm / expected_fpc - 1) > 0.10:
            failures.append(f"mirror-match at (n={n}, N={N}): {v_mm} vs {expected_fpc}")
    runtime = time.perf_counter() - start
    if runtime > 120:
        failures.append(f"runtime {runtime:.0f}s exceeds 2 min")
    report_line(3, "variance contracts vs closed forms", not failures)
    assert not failures, failures


def test_criterion_4_fpc_coverage_full(study_n1000):
    failures = []
    for method in FPC_METHODS:
        for ci in FPC_CIS:
            for est in BOTH:
                (cell,) = cells_of(study_n1000, method=method, ci_type=ci, estimator=est)
                if not 0.925 <= cell.coverage <= 0.975:
                    failures.append(
                        f"{method.value}/{ci.value}/{est.value}: coverage {cell.coverage}"
                    )
    report_line(4, "FPC coverage, full profile R=1000", not failures)
    assert not failures, failures


def test_criterion_4_fpc_coverage_fast_profile():
    start = time.perf_counter()
    cfg = StudyConfig(
        population_source=SPEC, sample_sizes=(1000,), B=1000, repetitions=200,
        methods=FPC_METHODS, ci_types=FPC_CIS, estimators=BOTH,
        level=0.95, master_seed=ACCEPT_SEED,
    )
    report = coverage_study(cfg, workers=WORKERS)
    runtime = time.perf_counter() - start
    failures = []
    for cell in report.cells:
        if not 0.90 <= cell.coverage <= 0.99:
            failures.append(
                f"{cell.method.value}/{cell.ci_type.value}/{cell.estimator.value}: {cell.coverage}"
            )
    if runtime > 120:
        failures.append(f"runtime {runtime:.0f}s exceeds 2 min")
    report_line(4, f"FPC coverage, fast profile R=200 ({runtime:.0f}s)", not failures)
    assert not failures, failures


def test_criterion_5_standard_over_coverage(study_n1000, study_n4000):
    failures = []
    for est in BOTH:
        (cell,) = cells_of(
            study_n1000, method=Method.STANDARD, ci_type=CiType.NORMAL, estimator=est
        )
        if cell.coverage < 0.96:
            failures.append(f"n=1000 {est.value}: coverage {cell.coverage} < 0.96")
    for est in BOTH:
        (cell,) = cells_of(
            study_n4000, method=Method.STANDARD, ci_type=CiType.NORMAL, estimator=est
        )
        if cell.coverage < 0.99:
            failures.append(f"n=4000 {est.value}: coverage {cell.coverage} < 0.99")
    report_line(5, "standard-bootstrap over-coverage", not failures)
    assert not failures, failures


@pytest.fixture(scope="session")
def sweep_report():
    cfg = StudyConfig(
        population_source=SPEC,
        sample_sizes=(100, 500, 1000, 2000, 4000, 6224),
        B=1000, repetitions=200,
        methods=ALL_METHODS,
        ci_types=(CiType.NORMAL, CiType.PERCENTILE),
        estimators=(EstimatorKind.MNCS,),
        level=0.95, master_seed=ACCEPT_SEED,
    )
    return coverage_study(cfg, workers=WORKERS)


def test_criterion_6_length_monotonicity(sweep_report):
    failures = []
    grid = (100, 500, 1000, 2000, 4000, 6224)
    for method in ALL_METHODS:
        for ci in (CiType.NORMAL, CiType.PERCENTILE):
            lengths = []
            for n in grid:
                (cell,) = cells_of(
                    sweep_report, n=n, method=method, ci_type=ci, estimator=EstimatorKind.MNCS
                )
                lengths.append(cell.avg_length)
            decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
            if not decreasing:
                failures.append(f"{method.value}/{ci.value}: not strictly decreasing {lengths}")
            if method in FPC_METHODS and lengths[-1] != 0.0:
                failures.append(f"{method.value}/{ci.value}: census length {lengths[-1]} != 0")
            if method is Method.STANDARD and lengths[-1] <= 0.0:
                failures.append(f"standard/{ci.value}: census length not > 0")
    report_line(6, "length decreases with n, census limits", not failures)
    assert not failures, failures


def test_criterion_7_interval_unit_oracles():
    failures = []
    ci = ci_normal(1.22, 0.04, 0.95)
    if abs(ci.lower - 0.828) > 1e-3 or abs(ci.upper - 1.612) > 1e-3:
        failures.append(f"ci_normal {ci.lower}, {ci.upper}")
    reps = BootstrapReplicates(np.arange(1.0, 1001.0))
    pct = ci_percentile(reps, 0.95)
    if (pct.lower, pct.upper) != (25.0, 975.0):
        failures.append(f"ci_percentile {pct.lower}, {pct.upper}")
    # z0 = 0 (exactly half the replicates below) and a = 0 reduce BCa to percentile
    half = np.concatenate([np.arange(1.0, 501.0), np.arange(601.0, 1101.0)])
    reps_half = BootstrapReplicates(half)
    bca = ci_bca(reps_half, 550.0, accel=0.0, level=0.95)
    pct_half = ci_percentile(reps_half, 0.95)
    if (bca.lower, bca.upper) != (pct_half.lower, pct_half.upper):
        failures.append("BCa did not reduce to percentile at z0 = a = 0")
    # independent inverse-normal oracle from the stdlib
    sixty = np.concatenate([np.zeros(600), np.full(400, 2.0)])
    # the z0 kernel that BCa runs, in the study and in ci_bca
    z0 = float(_bias_corrections(sixty[None], np.array([1.0]))[0])
    oracle = NormalDist().inv_cdf(0.6)
    if abs(z0 - 0.25335) > 1e-4 or abs(z0 - oracle) > 1e-9:
        failures.append(f"z0 {z0} vs {oracle}")
    report_line(7, "interval-constructor unit oracles", not failures)
    assert not failures, failures


def test_criterion_8_parallel_determinism(tmp_path):
    start = time.perf_counter()
    pop_path = str(tmp_path / "pop.csv")
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "fpboot", *args], capture_output=True, text=True
    )
    synth = run("synth", "--n", "600", "--mncs", "1.275", "--pp", "13.7",
                "--seed", "5", "--out", pop_path)
    assert synth.returncode == 0, synth.stderr
    cfg = {
        "population": pop_path,
        "sample_sizes": [150],
        "B": 250,
        "repetitions": 60,
        "methods": ["standard", "ppb", "mirror"],
        "ci_types": ["normal", "percentile", "bca", "boot-t"],
        "estimators": ["mncs", "pp_top10"],
        "level": 0.95,
        "master_seed": 42,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = []
    failures = []
    for label, extra in (("t1", ["--threads", "1"]), ("t4", ["--threads", "4"]), ("max", [])):
        out = tmp_path / f"report-{label}.json"
        proc = run("simulate", "--config", str(cfg_path), "--out", str(out),
                   "--format", "json", "--seed", "42", *extra)
        if proc.returncode != 0:
            failures.append(f"--threads {label}: exit {proc.returncode}: {proc.stderr}")
            continue
        outputs.append(out.read_bytes())
    if len(set(outputs)) != 1:
        failures.append("reports differ across thread counts")
    runtime = time.perf_counter() - start
    if runtime > 120:
        failures.append(f"runtime {runtime:.0f}s exceeds 2 min")
    report_line(8, f"byte-identical reports across --threads ({runtime:.0f}s)", not failures)
    assert not failures, failures
