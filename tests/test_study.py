import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import fpboot.study as study

from fpboot import (
    BootstrapReplicates,
    CellReport,
    CiType,
    DegenerateDistributionError,
    EstimatorKind,
    Method,
    Sample,
    StudyConfig,
    SynthSpec,
    bootstrap,
    bootstrap_variance,
    ci_bca,
    ci_bootstrap_t,
    ci_percentile,
    coverage_study,
    effective_ci_types,
    emit_report,
    estimate,
    jackknife_acceleration,
    length_sweep,
    load_population,
    make_rng,
    mirror_match_bootstrap,
    ppb_bootstrap,
    srswor,
    standard_bootstrap,
    synth_population,
    unit_values,
)
from fpboot.intervals import _interval_batch
from fpboot.sampling import write_population
from fpboot.study import SYNTH_STREAM_ID, cell_stream_base, config_dict, config_from_dict, emit_sweep
from public_chain import public_interval

ALL_CIS = (CiType.NORMAL, CiType.PERCENTILE, CiType.BCA, CiType.BOOTSTRAP_T)
# the three engines, named: a method added without an engine cannot join them
METHODS = (Method.STANDARD, Method.PPB, Method.MIRROR_MATCH)


def synth(size=400, mncs_=1.275, pp=13.7, shape=1.0, seed=7):
    spec = SynthSpec(size=size, mncs=mncs_, pp=pp, shape=shape)
    return synth_population(spec, make_rng(seed, SYNTH_STREAM_ID))


def one_row(cis, reps, sample, kind, level=0.95):
    """One replication's v_hat and bounds[ci, (lower, upper)] from a one-row interval pass."""
    t_variances = None if reps.t_variances is None else reps.t_variances[None]
    v_hat, bounds = _interval_batch(
        cis, level, reps.estimates[None], [estimate(kind, sample)],
        t_variances=t_variances, values=unit_values(kind, sample)[None],
    )
    return float(v_hat[0]), bounds[:, 0]



def pool_pids():
    """Pids of the live pool's workers, this process's only multiprocessing children."""
    return {p.pid for p in multiprocessing.active_children()}


def wait_gone(pids, timeout=60):
    """Wait until every process in ``pids`` has exited and been reaped."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"process {pid} still exists"
            time.sleep(0.01)


class TestSynthPopulation:
    def test_pinned_mean(self):
        pop = synth(size=6224)
        assert estimate(EstimatorKind.MNCS, pop) == pytest.approx(1.275, abs=1e-12)

    def test_pinned_flag_count(self):
        # floor(0.137 * 6224) = 852 flags -> 13.689%
        pop = synth(size=6224)
        assert int(pop.top10.sum()) == 852
        assert estimate(EstimatorKind.PP_TOP10, pop) == pytest.approx(100 * 852 / 6224, abs=1e-12)

    def test_flags_sit_on_largest_scores(self):
        pop = synth(size=200)
        flagged_min = pop.ncs[pop.top10].min()
        unflagged_max = pop.ncs[~pop.top10].max()
        assert flagged_min >= unflagged_max

    def test_degenerate_shape(self):
        pop = synth(size=50, shape=1e-12)
        assert np.all(np.abs(pop.ncs - 1.275) < 1e-9)

    def test_determinism(self):
        a, b = synth(seed=9), synth(seed=9)
        assert np.array_equal(a.ncs, b.ncs) and np.array_equal(a.top10, b.top10)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match=r"^config 'synth.size' must be a whole number >= 1, got 0$"):
            SynthSpec(size=0, mncs=1.0, pp=10.0)
        with pytest.raises(ValueError, match="^mncs must be > 0"):
            SynthSpec(size=10, mncs=-1.0, pp=10.0)
        with pytest.raises(ValueError, match=r"^pp must lie in \(0, 100\)"):
            SynthSpec(size=10, mncs=1.0, pp=100.0)
        with pytest.raises(ValueError, match="^shape must be > 0"):
            SynthSpec(size=10, mncs=1.0, pp=10.0, shape=0.0)


class TestConfigDict:
    def test_absent_keys_take_the_dataclass_defaults(self):
        assert config_from_dict({"population": "pop.csv", "sample_sizes": [30]}) == StudyConfig("pop.csv", (30,))
        raw = {"synth": {"size": 50, "mncs": 1.3, "pp": 12.0}, "sample_sizes": [30]}
        assert config_from_dict(raw) == StudyConfig(SynthSpec(50, 1.3, 12.0), (30,))

    def test_tokens_ignore_case_and_pp_is_not_an_estimator(self):
        raw = {"population": "p.csv", "sample_sizes": [30], "methods": [" PPB", "Mirror"], "estimators": [" PP_Top10"]}
        config = config_from_dict(raw)
        assert config.methods == (Method.PPB, Method.MIRROR_MATCH)
        assert config.estimators == (EstimatorKind.PP_TOP10,)
        message = re.escape("unknown estimator: 'pp' (choose from ['mncs', 'pp_top10'])")
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict({**raw, "estimators": ["pp"]})

    @pytest.mark.parametrize("source", ["synth", "file"])
    def test_echo_parses_back_to_the_config(self, source):
        if source == "synth":
            config = StudyConfig(SynthSpec(150, 1.3, 12.0, shape=0.8), (30, 50), master_seed=7)
        else:
            config = StudyConfig(
                population_source="pop.csv",
                sample_sizes=(20, 60),
                B=50,
                repetitions=7,
                methods=(Method.MIRROR_MATCH, Method.STANDARD),
                ci_types=(CiType.BCA, CiType.BOOTSTRAP_T),
                estimators=(EstimatorKind.PP_TOP10,),
                level=0.9,
                master_seed=11,
                ci_pairing="all",
            )
            # every key is set away from its default
            assert all(getattr(config, f.name) != f.default for f in fields(StudyConfig) if f.default is not MISSING)
        assert config_from_dict(config_dict(config)) == config

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_range_checked_up_front(self, seed):
        message = re.escape(f"config 'master_seed' must be a whole number in [0, 2**64 - 1], got {seed}")
        message = f"^{message}$"
        with pytest.raises(ValueError, match=message):
            StudyConfig("pop.csv", (20,), master_seed=seed)
        with pytest.raises(ValueError, match=message):
            config_from_dict({"population": "pop.csv", "sample_sizes": [20], "master_seed": seed})
        StudyConfig("pop.csv", (20,), master_seed=2**64 - 1)

    def test_list_built_config_writes_the_same_report(self, tmp_path):
        # lists are stored as tuples, so the engines take several estimators
        # and the echo tokenizes every enum
        keys = dict(sample_sizes=[30], methods=list(METHODS), ci_types=list(CiType), estimators=list(EstimatorKind))
        common = dict(population_source=SynthSpec(size=200, mncs=1.275, pp=13.7),
                      B=50, repetitions=3, master_seed=5, ci_pairing="all")
        listed = StudyConfig(**common, **keys)
        tupled = StudyConfig(**common, **{k: tuple(v) for k, v in keys.items()})
        assert listed == tupled
        paths = [tmp_path / "listed.json", tmp_path / "tupled.json"]
        for config, path in zip((listed, tupled), paths):
            emit_report(coverage_study(config), "json", path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestPythonValues:
    """A config built in Python is parsed as a config file is."""

    def test_tokens_and_numpy_integers_write_the_same_report(self, tmp_path):
        typed = StudyConfig(
            SynthSpec(200, 1.275, 13.7), (30,), B=50, repetitions=3, methods=(Method.PPB, Method.STANDARD),
            ci_types=(CiType.BCA, CiType.NORMAL), estimators=tuple(EstimatorKind), master_seed=5, ci_pairing="all",
        )
        raw = StudyConfig(
            SynthSpec(np.int64(200), 1.275, np.float64(13.7)), (np.int64(30),), B=np.int32(50),
            repetitions=np.uint8(3), methods=("ppb", "Standard"), ci_types=[" bca", CiType.NORMAL],
            estimators=("mncs", "PP_TOP10"), master_seed=np.uint64(5), ci_pairing="all",
        )
        assert raw == typed
        assert config_from_dict(config_dict(raw)) == raw
        paths = [tmp_path / "typed.json", tmp_path / "raw.json"]
        for config, path in zip((typed, raw), paths):
            emit_report(coverage_study(config), "json", path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_numpy_synth_size_emits_its_report(self, tmp_path):
        spec = SynthSpec(size=np.int64(500), mncs=1.275, pp=13.7)
        assert type(spec.size) is int
        config = StudyConfig(spec, (30,), B=20, repetitions=2, methods=(Method.STANDARD,), estimators=(EstimatorKind.MNCS,))
        assert config_from_dict(config_dict(config)) == config
        emit_report(coverage_study(config), "json", tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["config"]["synth"]["size"] == 500

    def test_whole_float_values_echo_as_floats(self):
        # as a config file's "pp": 14 does
        config = StudyConfig(SynthSpec(50, 1, 14), (20,))
        assert json.dumps(config_dict(config)["synth"]) == '{"size": 50, "mncs": 1.0, "pp": 14.0, "shape": 1.0}'
        assert config_from_dict(config_dict(config)) == config

    @pytest.mark.parametrize("key,value", [("master_seed", True), ("B", 100.5), ("synth.size", True)])
    def test_python_values_raise_the_config_file_error(self, key, value):
        spec = {"size": 50, "mncs": 1.3, "pp": 12.0}
        raw = {"synth": spec, "sample_sizes": [20]}
        if key == "synth.size":
            raw["synth"] = {**spec, "size": value}
        else:
            raw[key] = value
        span = {"master_seed": "in [0, 2**64 - 1]", "B": ">= 2", "synth.size": ">= 1"}[key]
        message = re.escape(f"config '{key}' must be a whole number {span}, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict(raw)
        with pytest.raises(ValueError, match=f"^{message}$"):
            if key == "synth.size":
                SynthSpec(size=value, mncs=1.3, pp=12.0)
            else:
                StudyConfig(SynthSpec(50, 1.3, 12.0), (20,), **{key: value})

    @pytest.mark.parametrize("source", [123, None, b"pop.csv", ["pop.csv"]], ids=repr)
    def test_population_source_must_be_a_path_or_spec(self, source):
        # an int once reached open() as a file descriptor
        message = re.escape(f"config 'population' must be a string, got {source!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            StudyConfig(source, (20,))

    def test_path_source_is_stored_as_its_string(self, tmp_path):
        pop_path = tmp_path / "pop.csv"
        write_population(synth(size=200), pop_path)
        configs = [StudyConfig(source, (30,), B=20, repetitions=2, methods=(Method.PPB,)) for source in (pop_path, str(pop_path))]
        assert configs[0].population_source == str(pop_path)
        assert configs[0] == configs[1]
        assert config_from_dict(config_dict(configs[0])) == configs[0]
        paths = [tmp_path / "path.json", tmp_path / "str.json"]
        for config, path in zip(configs, paths):
            emit_report(coverage_study(config), "json", path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_each_field_has_one_parser(self):
        # a field added without a parser fails here
        names = [f.name for f in fields(StudyConfig)]
        assert names[0] == "population_source"
        assert list(study._CONFIG_KEYS) == names[1:]
        assert list(study._SYNTH_KEYS) == [f.name for f in fields(SynthSpec)]


class TestCiPairing:
    def test_paper_pairing(self):
        assert effective_ci_types(Method.STANDARD, ALL_CIS) == (
            CiType.NORMAL,
            CiType.PERCENTILE,
            CiType.BCA,
        )
        assert effective_ci_types(Method.PPB, ALL_CIS) == (
            CiType.NORMAL,
            CiType.PERCENTILE,
            CiType.BOOTSTRAP_T,
        )

    def test_all_pairing(self):
        assert effective_ci_types(Method.PPB, ALL_CIS, "all") == ALL_CIS

    def test_unknown_pairing_rejected(self):
        # "ALL" used to get the paper pairing: (NORMAL,) here
        with pytest.raises(ValueError, match="^unknown ci_pairing: 'ALL'$"):
            effective_ci_types(Method.PPB, (CiType.BCA, CiType.NORMAL), "ALL")
        with pytest.raises(ValueError, match="^unknown ci_pairing: 'ALL'$"):
            StudyConfig(SynthSpec(100, 1.275, 13.7), (10,), ci_pairing="ALL")

    def test_stream_base_is_stable(self):
        base = cell_stream_base(100, Method.PPB)
        assert base == cell_stream_base(100, Method.PPB) == 1380853542104858624
        assert base % 2**32 == 0
        assert base != cell_stream_base(100, Method.MIRROR_MATCH)
        assert base != cell_stream_base(101, Method.PPB)


class TestCoverageStudy:
    @staticmethod
    def config(**overrides):
        base = dict(
            population_source=SynthSpec(size=300, mncs=1.275, pp=13.7),
            sample_sizes=(60,),
            B=120,
            repetitions=12,
            methods=(Method.STANDARD, Method.PPB),
            ci_types=(CiType.NORMAL, CiType.PERCENTILE),
            estimators=(EstimatorKind.MNCS,),
            master_seed=17,
        )
        base.update(overrides)
        return StudyConfig(**base)

    @pytest.mark.parametrize("workers", [0, -2, True, 2.5, "2"], ids=repr)
    def test_workers_must_be_a_whole_number_of_at_least_1(self, tmp_path, workers):
        # the missing population file shows that the check comes before any work
        config = self.config(population_source=str(tmp_path / "absent.csv"))
        message = re.escape(f"workers must be a whole number >= 1, got {workers!r}")
        for study_call in (coverage_study, length_sweep):
            with pytest.raises(ValueError, match=f"^{message}$"):
                study_call(config, workers=workers)

    @pytest.mark.parametrize("key", ["methods", "ci_types", "estimators"])
    def test_empty_list_rejected(self, key):
        # as a config file's "methods": [] is: an empty list is not a study
        with pytest.raises(ValueError, match=f"^config '{key}' is an empty list$"):
            self.config(**{key: ()})

    def test_cell_grid(self):
        report = coverage_study(self.config(sample_sizes=(40, 60)))
        assert len(report.cells) == 2 * 2 * 2  # sizes x methods x cis
        keys = {(c.n, c.method, c.ci_type) for c in report.cells}
        assert len(keys) == 8

    def test_single_repetition_coverage_is_binary(self):
        (cell,) = coverage_study(
            self.config(
                population_source=SynthSpec(size=400, mncs=1.275, pp=13.7), sample_sizes=(80,), B=200,
                repetitions=1, methods=(Method.STANDARD,), ci_types=(CiType.NORMAL,), master_seed=3,
            )
        ).cells
        assert cell.coverage in (0.0, 1.0)
        assert cell.r_effective == 1

    @pytest.mark.parametrize("method", [Method.PPB, Method.MIRROR_MATCH])
    def test_census_cells(self, method):
        cells = coverage_study(
            self.config(
                population_source=SynthSpec(size=120, mncs=1.275, pp=13.7), sample_sizes=(120,), B=100,
                repetitions=4, methods=(method,), ci_types=ALL_CIS, master_seed=1,
            )
        ).cells
        assert cells
        for c in cells:
            assert c.coverage == 1.0
            assert c.avg_variance == 0.0
            if c.ci_type in (CiType.NORMAL, CiType.PERCENTILE):
                assert c.avg_length == 0.0

    def test_true_values_come_from_population(self):
        report = coverage_study(self.config(estimators=(EstimatorKind.MNCS, EstimatorKind.PP_TOP10)))
        pop = synth(size=300, seed=17)  # same spec/seed as the config
        assert report.true_values["mncs"] == estimate(EstimatorKind.MNCS, pop)
        assert report.true_values["pp_top10"] == estimate(EstimatorKind.PP_TOP10, pop)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_estimator_subset_gives_the_same_cells(self, kind):
        # a replication's sample and resamples do not depend on which
        # estimators are requested, so a one-estimator study reproduces
        # that estimator's cells of the two-estimator study
        fields = dict(methods=METHODS, ci_types=ALL_CIS, ci_pairing="all")
        both = coverage_study(self.config(estimators=tuple(EstimatorKind), **fields), workers=2)
        one = coverage_study(self.config(estimators=(kind,), **fields))
        assert one.cells == tuple(c for c in both.cells if c.estimator is kind)

    def test_file_source_is_loaded_by_the_study(self, tmp_path):
        path = tmp_path / "pop.csv"
        write_population(synth(size=300, seed=4), path)
        cfg = self.config(population_source=str(path))
        loaded = coverage_study(cfg, population=load_population(path))
        assert coverage_study(cfg).to_dict() == loaded.to_dict()
        assert length_sweep(cfg) == length_sweep(cfg, population=load_population(path))

    def test_cells_match_a_direct_recomputation(self):
        # every cell rebuilt replication by replication from the public
        # steps, independently of the study's task split and aggregation;
        # at the census n = N the FPC engines' point intervals sit on the truth
        spec = SynthSpec(size=200, mncs=1.275, pp=13.7)
        kinds = tuple(EstimatorKind)
        sizes, B, R, seed = (20, 200), 50, 12, 3
        config = StudyConfig(
            population_source=spec, sample_sizes=sizes, B=B, repetitions=R, methods=METHODS,
            ci_types=ALL_CIS, estimators=kinds, master_seed=seed, ci_pairing="all",
        )
        pop = synth_population(spec, make_rng(seed, SYNTH_STREAM_ID))
        expected = []
        for n in sizes:
            for method in METHODS:
                variances = {kind: [] for kind in kinds}
                formed = {(kind, ci): [] for kind in kinds for ci in ALL_CIS}
                for r in range(1, R + 1):
                    rng = make_rng(seed, cell_stream_base(n, method) + r)
                    sample = srswor(pop, n, rng)
                    runs = bootstrap(method, sample, B, kinds, rng, with_t_variances=True)
                    for kind, reps in zip(kinds, runs):
                        variances[kind].append(bootstrap_variance(reps))
                        for ci in ALL_CIS:
                            lower, upper = public_interval(ci, reps, sample, kind)
                            if not math.isnan(lower):
                                formed[kind, ci].append((lower, upper))
                for kind in kinds:
                    truth = estimate(kind, pop)
                    avg_variance = float(np.mean(variances[kind]))
                    for ci in ALL_CIS:
                        ivs = formed[kind, ci]
                        coverage = sum(lo <= truth <= hi for lo, hi in ivs) / len(ivs) if ivs else math.nan
                        avg_length = float(np.mean([hi - lo for lo, hi in ivs])) if ivs else math.nan
                        expected.append(CellReport(n, method, ci, kind, coverage, avg_length, avg_variance, len(ivs)))
        cells = coverage_study(config, workers=2).cells  # four tasks per (n, method)
        assert cells == tuple(expected)
        assert any(c.r_effective < R for c in cells)  # some replications formed no interval

    def test_cell_without_intervals_is_undefined(self, tmp_path):
        # at n = 2 about half of the standard resamples repeat one unit and
        # have zero variance, so bootstrap-t never forms an interval: R = 0
        # reads as undefined (null / nan), never as a zero-length interval
        cfg = self.config(
            sample_sizes=(2,), methods=(Method.STANDARD,), ci_types=(CiType.BOOTSTRAP_T,), ci_pairing="all"
        )
        report = coverage_study(cfg)
        (cell,) = report.cells
        assert cell.r_effective == 0
        assert math.isnan(cell.coverage) and math.isnan(cell.avg_length)
        assert cell.avg_variance > 0.0

        def no_constants(token):
            raise AssertionError(f"non-strict JSON constant {token}")

        paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "csv")}
        for fmt, path in paths.items():
            emit_report(report, fmt, path)
        (row,) = json.loads(paths["json"].read_text(), parse_constant=no_constants)["cells"]
        assert (row["coverage"], row["avg_length"], row["R"]) == (None, None, 0)
        assert paths["csv"].read_text().splitlines()[1].split(",")[4:6] == ["nan", "nan"]
        (sweep_row,) = length_sweep(cfg)
        assert math.isnan(sweep_row["avg_length"])
        emit_sweep([sweep_row], tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1].endswith(",nan")

    def test_no_more_workers_than_tasks(self, monkeypatch):
        # a fork-context pool forks all of its workers up front; a stand-in
        # executor records the pool size and context and runs the tasks in-process
        sizes, contexts = [], []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                contexts.append(mp_context)

            def map(self, fn, tasks):
                return map(fn, tasks)

        # _execute imports the executor on the branch that starts a pool;
        # the pool slot starts empty, and monkeypatch puts the live pool
        # back afterwards, so no later study reuses the stand-in
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(study, "_pool", None)
        one_task = self.config(methods=(Method.STANDARD,), repetitions=1)
        assert coverage_study(one_task, workers=64).to_dict() == coverage_study(one_task).to_dict()
        assert sizes == []  # one task runs serially
        six_tasks = self.config(repetitions=3)  # 2 methods x 3 one-replication chunks
        assert coverage_study(six_tasks, workers=64).to_dict() == coverage_study(six_tasks).to_dict()
        assert sizes == [6]
        if sys.platform == "linux":
            assert [context.get_start_method() for context in contexts] == ["fork"]

    def test_serial_studies_in_threads_keep_their_populations(self):
        # two serial studies of two tasks each (a task holds at most
        # 2**16 // B = 32 replications) on different populations, run side
        # by side, give the reports they give one after the other
        configs = [
            self.config(
                population_source=SynthSpec(size=300, mncs=mncs_, pp=13.7, shape=shape),
                sample_sizes=(30,), B=2000, repetitions=40, methods=(Method.STANDARD,),
                ci_types=(CiType.NORMAL,),
            )
            for mncs_, shape in ((1.275, 1.0), (2.5, 0.5))
        ]
        expected = [coverage_study(c).to_dict() for c in configs]
        assert expected[0]["cells"] != expected[1]["cells"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that a shared value shows
        try:
            for trial in range(4):
                start = threading.Barrier(len(configs))
                reports = {}

                def run(i):
                    start.wait(timeout=60)
                    reports[i] = coverage_study(configs[i], workers=1).to_dict()

                threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                assert [reports.get(i) for i in range(len(configs))] == expected, f"trial {trial}"
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def report_bytes(config, workers, path):
        emit_report(coverage_study(config, workers=workers), "json", path)
        return path.read_bytes()

    def test_later_studies_reuse_the_pool(self, tmp_path):
        # two studies of eight tasks on different populations run on the
        # same two workers, and each writes its serial report
        configs = [
            self.config(population_source=SynthSpec(size=300, mncs=mncs_, pp=13.7, shape=shape))
            for mncs_, shape in ((1.275, 1.0), (2.5, 0.5))
        ]
        path = tmp_path / "report.json"
        serial = [self.report_bytes(c, 1, path) for c in configs]
        assert serial[0] != serial[1]
        pids = []
        for config, expected in zip(configs, serial):
            assert self.report_bytes(config, 2, path) == expected
            pids.append(pool_pids())
        assert len(pids[0]) == 2 and pids[1] == pids[0]

    def test_another_worker_count_replaces_the_pool(self, tmp_path):
        path = tmp_path / "report.json"
        expected = self.report_bytes(self.config(), 1, path)
        assert self.report_bytes(self.config(), 2, path) == expected
        old = pool_pids()
        assert self.report_bytes(self.config(), 3, path) == expected
        new = pool_pids()
        assert len(old) == 2 and len(new) == 3 and not old & new
        wait_gone(old)  # reaped: the old pool was shut down before the new one started

    def test_worker_dead_between_studies_is_replaced(self, tmp_path):
        # a killed worker breaks the idle pool; the next study finds it
        # broken, starts a fresh pool and writes the serial report
        path = tmp_path / "report.json"
        expected = self.report_bytes(self.config(), 1, path)
        assert self.report_bytes(self.config(), 2, path) == expected
        old = pool_pids()
        os.kill(min(old), signal.SIGKILL)
        wait_gone(old)  # the broken pool terminates and reaps the rest
        assert self.report_bytes(self.config(), 2, path) == expected
        new = pool_pids()
        assert len(new) == 2 and not old & new

    def test_worker_dead_mid_study_fails_that_study(self, tmp_path):
        # stop the warm pool's workers, let a study submit its two tasks,
        # then kill one worker: that study raises, and the next one writes
        # the serial report on a fresh pool
        path = tmp_path / "report.json"
        expected = self.report_bytes(self.config(), 1, path)
        assert self.report_bytes(self.config(), 2, path) == expected
        old = sorted(pool_pids())
        pool = study._pool[1]
        for pid in old:
            os.kill(pid, signal.SIGSTOP)
        errors = []

        def run():
            try:
                coverage_study(self.config(), workers=2)
            except BrokenProcessPool as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 60
        while len(pool._pending_work_items) < 2:
            assert time.monotonic() < deadline, "the study never submitted its tasks"
            time.sleep(0.01)
        os.kill(old[0], signal.SIGKILL)
        os.kill(old[1], signal.SIGCONT)
        thread.join(timeout=60)
        assert not thread.is_alive() and len(errors) == 1
        wait_gone(old)
        assert self.report_bytes(self.config(), 2, path) == expected
        assert len(pool_pids()) == 2

    def test_parallel_studies_in_threads_keep_their_populations(self):
        # the pool's counterpart of the serial test above: two studies of
        # four tasks each, at two workers, run side by side in two threads
        # on different populations and share one pool
        configs = [
            self.config(
                population_source=SynthSpec(size=300, mncs=mncs_, pp=13.7, shape=shape),
                sample_sizes=(30,), B=2000, repetitions=40, methods=(Method.STANDARD,),
                ci_types=(CiType.NORMAL,),
            )
            for mncs_, shape in ((1.275, 1.0), (2.5, 0.5))
        ]
        expected = [coverage_study(c).to_dict() for c in configs]
        assert expected[0]["cells"] != expected[1]["cells"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(4):
                start = threading.Barrier(len(configs))
                reports = {}

                def run(i):
                    start.wait(timeout=60)
                    reports[i] = coverage_study(configs[i], workers=2).to_dict()

                threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                assert [reports.get(i) for i in range(len(configs))] == expected, f"trial {trial}"
        finally:
            sys.setswitchinterval(interval)
        assert len(pool_pids()) == 2

    def test_serial_study_keeps_no_module_state(self):
        before = dict(vars(study))
        coverage_study(self.config())
        after = vars(study)
        assert after.keys() == before.keys()
        assert [name for name, value in before.items() if after[name] is not value] == []

    def test_population_info_embedded(self):
        report = coverage_study(self.config())
        info = report.population_info
        assert info["source"] == "synthetic"
        assert info["size"] == 300
        assert len(info["sha256"]) == 64

    def test_over_coverage_separation(self):
        # at f = 0.5 the uncorrected engine over-covers, the FPC engines
        # stay near nominal
        cfg = self.config(
            population_source=SynthSpec(size=400, mncs=1.275, pp=13.7),
            sample_sizes=(200,),
            B=300,
            repetitions=500,
            methods=(Method.STANDARD, Method.PPB, Method.MIRROR_MATCH),
            ci_types=(CiType.NORMAL,),
            master_seed=29,
        )
        report = coverage_study(cfg, workers=2)
        by_method = {c.method: c.coverage for c in report.cells}
        assert by_method[Method.STANDARD] > by_method[Method.PPB]
        assert by_method[Method.STANDARD] > by_method[Method.MIRROR_MATCH]
        assert by_method[Method.STANDARD] >= 0.97

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.config(B=1)
        with pytest.raises(ValueError):
            self.config(repetitions=0)
        with pytest.raises(ValueError):
            self.config(level=1.0)
        with pytest.raises(ValueError):
            coverage_study(self.config(sample_sizes=(301,)))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sample_sizes=(1,)),
            dict(sample_sizes=(60, 60)),
            dict(methods=(Method.PPB, Method.PPB)),
            dict(ci_types=(CiType.NORMAL, CiType.NORMAL)),
            dict(estimators=(EstimatorKind.MNCS, EstimatorKind.MNCS)),
            dict(sample_sizes=(2,), ci_types=(CiType.BCA,)),
            dict(sample_sizes=(2,), ci_types=("bca",)),
        ],
        ids=["n1", "repeated-size", "repeated-method", "repeated-ci", "repeated-estimator", "bca-n2", "bca-token-n2"],
    )
    def test_unrunnable_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            self.config(**overrides)

    def test_smallest_sizes_run(self):
        # n = 2 runs every engine; only BCA's jackknife acceleration needs n >= 3
        no_bca = (CiType.NORMAL, CiType.PERCENTILE, CiType.BOOTSTRAP_T)
        report = coverage_study(
            self.config(sample_sizes=(2,), methods=METHODS, ci_types=no_bca, ci_pairing="all")
        )
        assert len(report.cells) == 3 * 3
        # under the paper pairing the FPC engines never build BCA
        self.config(sample_sizes=(2,), methods=(Method.PPB,), ci_types=ALL_CIS)
        report = coverage_study(self.config(sample_sizes=(3,), methods=(Method.STANDARD,), ci_types=ALL_CIS))
        assert len(report.cells) == 3


class TestLengthSweep:
    def test_census_limit_rows(self):
        cfg = StudyConfig(
            population_source=SynthSpec(size=150, mncs=1.275, pp=13.7),
            sample_sizes=(30, 150),
            B=100,
            repetitions=6,
            methods=(Method.STANDARD, Method.PPB, Method.MIRROR_MATCH),
            ci_types=(CiType.NORMAL, CiType.PERCENTILE),
            estimators=(EstimatorKind.MNCS,),
            master_seed=31,
        )
        rows = length_sweep(cfg, workers=2)
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            if row["n"] == 150 and row["method"] in ("ppb", "mirror"):
                assert row["avg_length"] == 0.0
            if row["n"] == 150 and row["method"] == "standard":
                assert row["avg_length"] > 0.0
            if row["n"] == 30:
                assert row["avg_length"] > 0.0


class TestSharedPath:
    """``bootstrap`` and ``_interval_batch``: the one engine dispatch and interval path."""

    def test_bootstrap_dispatches_to_each_engine(self):
        pop = synth(size=200)
        kind = EstimatorKind.MNCS
        engines = {
            Method.STANDARD: lambda s, rng: standard_bootstrap(s, 100, kind, rng, with_t_variances=True),
            Method.PPB: lambda s, rng: ppb_bootstrap(s, 200, 100, kind, rng, with_t_variances=True),
            Method.MIRROR_MATCH: lambda s, rng: mirror_match_bootstrap(s, 200, 100, kind, rng, with_t_variances=True),
        }
        for method, engine in engines.items():
            rng_a, rng_b = make_rng(4, 2), make_rng(4, 2)
            via = bootstrap(method, srswor(pop, 40, rng_a), 100, kind, rng_a, with_t_variances=True)
            ref = engine(srswor(pop, 40, rng_b), rng_b)
            assert np.array_equal(via.estimates, ref.estimates)
            assert np.array_equal(via.t_variances, ref.t_variances)

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
    def test_bootstrap_rejects_one_replicate(self, method):
        # B >= 2 is one rule, held by the config, the engines and the replicate set
        sample = srswor(synth(size=200), 40, make_rng(4, 1))
        rng = make_rng(4, 2)
        with pytest.raises(ValueError, match="^B must be a whole number >= 2, got 1$"):
            bootstrap(method, sample, 1, EstimatorKind.MNCS, rng)
        assert rng.generator.random() == make_rng(4, 2).generator.random()

    def test_bca_falls_back_to_percentile(self):
        # every replicate equals the estimate: the bias correction is undefined
        pop = synth(size=50)
        rng = make_rng(1, 0)
        sample = srswor(pop, 50, rng)
        reps = bootstrap(Method.PPB, sample, 60, EstimatorKind.MNCS, rng)
        theta = estimate(EstimatorKind.MNCS, sample)
        with pytest.raises(DegenerateDistributionError):
            ci_bca(reps, theta, jackknife_acceleration(sample, EstimatorKind.MNCS), 0.9)
        _, bounds = one_row((CiType.BCA,), reps, sample, EstimatorKind.MNCS, level=0.9)
        assert bounds.tolist() == [[theta, theta]]
        # a one-sided row that is not constant: every replicate above the estimate
        reps = BootstrapReplicates(np.arange(1.0, 61.0))
        _, bounds = _interval_batch((CiType.BCA,), 0.9, reps.estimates[None], [0.5], values=np.arange(5.0)[None])
        percentile = ci_percentile(reps, 0.9)
        assert bounds.tolist() == [[[percentile.lower, percentile.upper]]]

    def test_bootstrap_t_census_and_dropped(self):
        # census: every ppb resample is the sample, so v_hat = 0 and every
        # replicate's variance is 0, yet the interval is the point theta_hat
        rng = make_rng(1, 0)
        pop = synth(size=40)
        sample = srswor(pop, 40, rng)
        reps = bootstrap(Method.PPB, sample, 50, EstimatorKind.MNCS, rng, with_t_variances=True)
        theta = estimate(EstimatorKind.MNCS, sample)
        v_hat, bounds = one_row((CiType.BOOTSTRAP_T,), reps, sample, EstimatorKind.MNCS)
        assert v_hat == 0.0 and not reps.t_variances.any()
        assert bounds.tolist() == [[theta, theta]]
        ci = ci_bootstrap_t(reps, theta, bootstrap_variance(reps))
        assert (ci.lower, ci.upper) == (theta, theta)
        # one flagged unit in 20: about a third of the resamples miss it and have zero variance
        flags = np.zeros(20, dtype=bool)
        flags[0] = True
        sample = Sample(np.arange(20), np.ones(20), flags, 20)
        reps = bootstrap(Method.STANDARD, sample, 200, EstimatorKind.PP_TOP10, rng, with_t_variances=True)
        v_hat, bounds = one_row((CiType.BOOTSTRAP_T,), reps, sample, EstimatorKind.PP_TOP10)
        assert v_hat == bootstrap_variance(reps) > 0
        assert np.isnan(bounds).all()


def loop_replications(config, pop, n, method, lo, hi, events):
    """A task's results rebuilt one replication at a time.

    The study runs each batch of replications through one interval pass;
    this loop runs a one-row pass per replication and estimator instead,
    checks its v_hat against ``bootstrap_variance`` and each of its bounds,
    bit for bit, against ``public_interval``. ``events`` counts BCa's
    fallbacks and the bootstrap-t outcomes.
    """
    kinds = config.estimators
    cis = effective_ci_types(method, config.ci_types, config.ci_pairing)
    thetas = np.empty((len(kinds), hi - lo))
    v_hats = np.empty((len(kinds), hi - lo))
    bounds = np.full((len(kinds), len(cis), hi - lo, 2), np.nan)
    for t, r in enumerate(range(lo, hi)):
        rng = make_rng(config.master_seed, cell_stream_base(n, method) + r)
        sample = srswor(pop, n, rng)
        runs = bootstrap(method, sample, config.B, kinds, rng, with_t_variances=True)
        for e, (kind, reps) in enumerate(zip(kinds, runs)):
            thetas[e, t] = estimate(kind, sample)
            v_hat, bounds[e, :, t] = one_row(cis, reps, sample, kind, config.level)
            assert v_hat == bootstrap_variance(reps)
            v_hats[e, t] = v_hat
            for i, ci in enumerate(cis):
                public = public_interval(ci, reps, sample, kind, config.level, events)
                assert_same_floats(np.array(public), bounds[e, i, t])
    return thetas, v_hats, bounds


def assert_same_floats(a, b):
    # bit for bit, with NaN (no interval) where the other has NaN
    assert a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.nan_to_num(a, nan=0.0).tobytes() == np.nan_to_num(b, nan=0.0).tobytes()


class TestIntervalBatch:
    """The study's batched interval pass against a per-replication loop."""

    # N = 60: at n = 4 a PP sample often has no flagged unit (a one-sided
    # bootstrap distribution and v_hat = 0) or one (many zero-variance
    # replicates); n = 60 is the FPC engines' census
    SIZES = (4, 20, 60)

    @staticmethod
    def config(B, R):
        return StudyConfig(
            population_source=SynthSpec(size=60, mncs=1.275, pp=13.7),
            sample_sizes=TestIntervalBatch.SIZES, B=B, repetitions=R, methods=METHODS, ci_types=ALL_CIS,
            estimators=tuple(EstimatorKind), master_seed=9, ci_pairing="all",
        )

    @staticmethod
    def run(B, R, tasks):
        config = TestIntervalBatch.config(B, R)
        pop = study.resolve_population(config)
        events = Counter()
        for n in TestIntervalBatch.SIZES:
            for method in METHODS:
                for lo, hi in tasks:
                    thetas, v_hats, bounds = study._run_replications((config, pop, n, method, lo, hi))
                    ref_thetas, ref_v, ref_bounds = loop_replications(config, pop, n, method, lo, hi, events)
                    assert_same_floats(thetas, ref_thetas)
                    assert_same_floats(v_hats, ref_v)
                    assert_same_floats(bounds, ref_bounds)
        return events

    @pytest.mark.parametrize("B", [2, 3, 7, 8, 9, 1000, 1001])
    def test_small_batches_match_the_loop(self, B):
        # tasks of 5 and 4 replications, each one interval pass
        events = self.run(B, 9, [(1, 6), (6, 10)])
        assert events["bca fallback"] > 0
        assert events["boot-t census point"] > 0
        if B >= 7:
            assert events["boot-t rejected"] > 0 and events["boot-t"] > 0

    def test_default_batches_match_the_loop(self):
        # a task of 70 replications at B = 1000, more than a study's cap of
        # 65, stacks them all for its one pass
        events = self.run(1000, 70, [(1, 71)])
        assert min(events.values()) > 0 and len(events) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_cap_keeps_the_report(self, workers, monkeypatch, tmp_path):
        # tasks capped at 3 replications give the report of the default split
        # (one task of 14, or tasks of 4 over two workers)
        B, R = 7, 14
        config = self.config(B, R)
        run_tasks = study._execute
        spans = []

        def execute(tasks, workers):
            spans.append({hi - lo for *_, lo, hi in tasks})
            return run_tasks(tasks, workers)

        monkeypatch.setattr(study, "_execute", execute)
        paths = [tmp_path / "default.json", tmp_path / "capped.json"]
        emit_report(coverage_study(config, workers=workers), "json", paths[0])
        monkeypatch.setattr(study, "_BATCH_CELLS", 3 * B)
        emit_report(coverage_study(config, workers=workers), "json", paths[1])
        assert spans == [{14} if workers == 1 else {4, 2}, {3, 2}]
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_a_task_is_the_rows_of_any_longer_task(method):
    # each replication has its own stream and the interval pass works row by
    # row, so a study of R replications is the first R rows of a longer one
    config = StudyConfig(
        population_source=SynthSpec(size=60, mncs=1.275, pp=13.7), sample_sizes=(20,), B=50, repetitions=40,
        methods=(method,), ci_types=ALL_CIS, estimators=tuple(EstimatorKind), master_seed=3, ci_pairing="all",
    )
    pop = study.resolve_population(config)
    whole = study._run_replications((config, pop, 20, method, 1, 41))
    tail = study._run_replications((config, pop, 20, method, 21, 41))
    for rows, part in zip(whole, tail):
        # thetas and v_hats are [estimator, rep], bounds [estimator, ci, rep, (lower, upper)]
        assert_same_floats(rows[..., 20:, :] if rows.ndim == 4 else rows[:, 20:], part)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_the_table_is_one_task_whatever_the_split(method, monkeypatch):
    # the replication table, thetas included (reports see only reductions),
    # is bit for bit one task over [1, R + 1) at one and two workers and
    # with tasks capped at 3 replications
    B, R = 7, 14
    config = StudyConfig(
        population_source=SynthSpec(size=60, mncs=1.275, pp=13.7), sample_sizes=(4, 20), B=B, repetitions=R,
        methods=(method,), ci_types=ALL_CIS, estimators=tuple(EstimatorKind), master_seed=9, ci_pairing="all",
    )
    pop = study.resolve_population(config)
    run_tasks = study._execute
    spans = []

    def execute(tasks, workers):
        spans.append(max(hi - lo for *_, lo, hi in tasks))
        return run_tasks(tasks, workers)

    monkeypatch.setattr(study, "_execute", execute)
    tables = [study._replications(config, pop, workers) for workers in (1, 2)]
    monkeypatch.setattr(study, "_BATCH_CELLS", 3 * B)
    tables += [study._replications(config, pop, workers) for workers in (1, 2)]
    assert spans == [14, 4, 3, 3]
    for table in tables:
        assert [row[:3] for row in table] == [(n, method, ALL_CIS) for n in (4, 20)]
        for (n, *_, thetas, v_hats, bounds) in table:
            task = study._run_replications((config, pop, n, method, 1, R + 1))
            for got, want in zip((thetas, v_hats, bounds), task):
                assert_same_floats(got, want)


# SHA-256 of the JSON report of the config below at master seed 1, per n.
# JSON writes every float with repr, so a replicate value that moves by an
# ulp shows. At n = 60 the population is exactly 5 copies of the sample and
# mirror-match's k is 5 in every replicate; at n = 70 the pseudo-population
# needs a completion and mirror-match's k is 4 or 5. A change that
# deliberately alters stream consumption, replicate values or interval
# arithmetic updates these and says so in CHANGES.md.
GOLDEN_SHA256 = {
    60: "2375562ef86385ec19843a97cef814c8b6c59dfbc39ed6cc6341e3d863b25e89",
    70: "66356d187bee2a89d6005df502f1a2faa99ce70a747f9bf713351ab6466bebb3",
}
# The same study's CSV report and its length sweep written by emit_sweep:
# they pin the 12-digit CSV formatting of both writers.
GOLDEN_CSV_SHA256 = {
    60: "eb6fe662e57cba68c077591a7f570b83e36baa8f85a269f37380b1947deaf17a",
    70: "24491f4cb8f1549b9e28315ed0d8ffdac1a0a11bd9650e352f288fbc9760f4c9",
}
GOLDEN_SWEEP_SHA256 = {
    60: "f45ef10d7968efa0d64722172fde8be1d1ca39748421e1dd2b15516c838704f5",
    70: "45e93b2f7a8dc268dc4f20b5fe2491b6151b8672bb218038424b4fb2da6d1d41",
}


def golden_config(n):
    return StudyConfig(
        population_source=SynthSpec(size=300, mncs=1.275, pp=13.7),
        sample_sizes=(n,),
        B=50,
        repetitions=5,
        methods=METHODS,
        ci_types=ALL_CIS,
        estimators=tuple(EstimatorKind),
        master_seed=1,
        ci_pairing="all",
    )


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
def test_golden_report(tmp_path, n):
    path = tmp_path / "report.json"
    emit_report(coverage_study(golden_config(n)), "json", path)
    assert sha256_of(path) == GOLDEN_SHA256[n]


@pytest.mark.parametrize("n", sorted(GOLDEN_CSV_SHA256))
def test_golden_csv_and_sweep(tmp_path, n):
    csv_path, sweep_path = tmp_path / "report.csv", tmp_path / "sweep.csv"
    emit_report(coverage_study(golden_config(n)), "csv", csv_path)
    emit_sweep(length_sweep(golden_config(n)), sweep_path)
    assert sha256_of(csv_path) == GOLDEN_CSV_SHA256[n]
    assert sha256_of(sweep_path) == GOLDEN_SWEEP_SHA256[n]


def test_study_leaves_numpy_ma_unloaded():
    # numpy.ma costs every fresh process 12-50 ms to import; nothing on a
    # study's path (every engine and CI type, both indicators) may load it
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from fpboot import CiType, EstimatorKind, Method, StudyConfig, SynthSpec, coverage_study\n"
        "coverage_study(StudyConfig(population_source=SynthSpec(size=300, mncs=1.275, pp=13.7),\n"
        "    sample_sizes=(70, 300), B=50, repetitions=3, methods=(Method.STANDARD, Method.PPB, Method.MIRROR_MATCH),\n"
        "    ci_types=tuple(CiType),\n"
        "    estimators=tuple(EstimatorKind), master_seed=1, ci_pairing='all'))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_only_a_study_that_fans_out_loads_the_pool(tmp_path):
    # concurrent.futures and multiprocessing cost every fresh process ~30 ms
    # and ~1.2 MB to import; the import, a population load, a serial study
    # and `fpboot estimate` must leave them unloaded, and the first study
    # that starts a pool loads them and reports what the serial study did
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    pop_path = str(tmp_path / "pop.csv")
    write_population(synth(size=300), pop_path)
    code = (
        "import json, sys\n"
        "import fpboot\n"
        "from fpboot.cli import cli_dispatch\n"
        "path, out = sys.argv[1], sys.argv[2]\n"
        "pop = fpboot.load_population(path)\n"
        "config = fpboot.StudyConfig(population_source=path, sample_sizes=(30, 300), B=50, repetitions=3,\n"
        "    methods=(fpboot.Method.STANDARD, fpboot.Method.PPB, fpboot.Method.MIRROR_MATCH), master_seed=1)\n"
        "fpboot.emit_report(fpboot.coverage_study(config, pop, workers=1), 'json', out + '.1')\n"
        "assert cli_dispatch(['estimate', '--population', path, '--estimator', 'mncs', '--n', '30', '--B', '50']) == 0\n"
        "serial = sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
        "fpboot.emit_report(fpboot.coverage_study(config, pop, workers=2), 'json', out + '.2')\n"
        "print(json.dumps({'serial': serial, 'parallel': 'concurrent.futures.process' in sys.modules}))\n"
    )
    out = str(tmp_path / "report")
    proc = subprocess.run([sys.executable, "-c", code, pop_path, out], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True, timeout=120)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"serial": [], "parallel": True}
    assert Path(out + ".2").read_bytes() == Path(out + ".1").read_bytes()


START_METHODS_SCRIPT = """
import concurrent.futures, multiprocessing, sys
from fpboot import StudyConfig, SynthSpec, coverage_study, emit_report
from fpboot.study import _close_pool

if __name__ == "__main__":
    config = StudyConfig(population_source=SynthSpec(size=300, mncs=1.275, pp=13.7),
                         sample_sizes=(60,), B=120, repetitions=12)
    out = sys.argv[1]
    emit_report(coverage_study(config), "json", out + ".serial")
    executor = concurrent.futures.ProcessPoolExecutor
    for method in multiprocessing.get_all_start_methods():
        def forced(max_workers, mp_context):
            return executor(max_workers, mp_context=multiprocessing.get_context(method))

        concurrent.futures.ProcessPoolExecutor = forced
        emit_report(coverage_study(config, workers=2), "json", f"{out}.{method}")
        _close_pool()
        print(method)
"""


def test_report_bytes_hold_under_every_start_method(tmp_path):
    # forkserver and spawn workers import the study afresh instead of
    # inheriting it; a workers=2 study on a pool forced to each start method
    # the platform offers writes the serial report's bytes
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    script = tmp_path / "start_methods.py"
    script.write_text(START_METHODS_SCRIPT, encoding="utf-8")
    out = str(tmp_path / "report")
    proc = subprocess.run([sys.executable, str(script), out], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    methods = proc.stdout.split()
    assert methods == multiprocessing.get_all_start_methods()
    serial = Path(out + ".serial").read_bytes()
    assert [m for m in methods if Path(f"{out}.{m}").read_bytes() != serial] == []


def test_pool_closes_with_the_process():
    # the live pool outlasts its studies but not the process: its workers
    # are gone once the interpreter has exited, and the exit prints nothing
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    code = (
        "import multiprocessing\n"
        "from fpboot import StudyConfig, SynthSpec, coverage_study\n"
        "config = StudyConfig(population_source=SynthSpec(size=300, mncs=1.275, pp=13.7),\n"
        "    sample_sizes=(60,), B=120, repetitions=12)\n"
        "coverage_study(config, workers=2)\n"
        "print(*sorted(p.pid for p in multiprocessing.active_children()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True, timeout=120)
    pids = {int(pid) for pid in proc.stdout.split()}
    assert len(pids) == 2 and proc.stderr == ""
    wait_gone(pids)


def test_forked_child_starts_its_own_pool():
    # a child forked after a parallel study neither reuses nor stops the
    # parent's pool: its own study fans out on a pool of its own, and the
    # parent's next study still runs on the parent's workers
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    code = (
        "import multiprocessing, os, sys\n"
        "from fpboot import StudyConfig, SynthSpec, coverage_study\n"
        "config = StudyConfig(population_source=SynthSpec(size=300, mncs=1.275, pp=13.7),\n"
        "    sample_sizes=(60,), B=120, repetitions=12)\n"
        "serial = coverage_study(config).to_dict()\n"
        "assert coverage_study(config, workers=2).to_dict() == serial\n"
        "pids = {p.pid for p in multiprocessing.active_children()}\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    assert coverage_study(config, workers=2).to_dict() == serial\n"
        "    mine = {p.pid for p in multiprocessing.active_children()}\n"
        "    assert len(mine) == 2 and not mine & pids, (mine, pids)\n"
        "    sys.exit(0)\n"
        "_, status = os.waitpid(child, 0)\n"
        "assert os.waitstatus_to_exitcode(status) == 0\n"
        "assert coverage_study(config, workers=2).to_dict() == serial\n"
        "assert {p.pid for p in multiprocessing.active_children()} == pids\n"
        "print('ok')\n"
    )
    # its own session, so that a hung run is killed with the child and workers
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env={"PYTHONPATH": src}, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    assert out == "ok\n" and err == ""
