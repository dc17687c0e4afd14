import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpboot import DegenerateDistributionError, PopulationParseError, load_population
from fpboot.cli import _workers, cli_dispatch, emit_report
from fpboot.sampling import make_rng, srswor
from fpboot.study import (
    StudyConfig,
    SynthSpec,
    _run_replications,
    bootstrap,
    cell_stream_base,
    config_from_dict,
    coverage_study,
    emit_sweep,
    length_sweep,
)
from fpboot.estimators import EstimatorKind, estimate, unit_values
from fpboot.intervals import (
    CiType,
    _interval_batch,
    ci_bca,
    jackknife_acceleration,
)
from fpboot.resampling import Method, bootstrap_variance
from public_chain import public_interval

# the three engines, named: a method added without an engine cannot join them
METHODS = (Method.STANDARD, Method.PPB, Method.MIRROR_MATCH)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadPopulation:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "pop.csv", "ncs,top10\n1.0,0\n2.0,1\n")
        pop = load_population(path)
        assert pop.size == 2
        assert pop.ncs.tolist() == [1.0, 2.0]
        assert pop.top10.tolist() == [False, True]

    def test_flag_spellings(self, tmp_path):
        path = write(tmp_path / "pop.csv", "ncs,top10\n1.0,true\n2.0,false\n3.0,1\n")
        pop = load_population(path)
        assert pop.top10.tolist() == [True, False, True]

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "pop.csv", "score,flag\n1.0,0\n")
        with pytest.raises(PopulationParseError, match=":1:"):
            load_population(path)

    def test_bad_row_names_line(self, tmp_path):
        path = write(tmp_path / "pop.csv", "ncs,top10\n1.0,0\nxyz,0\n")
        with pytest.raises(PopulationParseError, match=":3:"):
            load_population(path)

    def test_bad_flag_names_line(self, tmp_path):
        path = write(tmp_path / "pop.csv", "ncs,top10\n1.0,2\n")
        with pytest.raises(PopulationParseError, match=":2:"):
            load_population(path)

    def test_negative_ncs_is_validation_error(self, tmp_path):
        path = write(tmp_path / "pop.csv", "ncs,top10\n-1.0,0\n")
        with pytest.raises(ValueError) as err:
            load_population(path)
        assert not isinstance(err.value, PopulationParseError)

    def test_empty_body_rejected(self, tmp_path):
        path = write(tmp_path / "pop.csv", "ncs,top10\n")
        with pytest.raises(ValueError):
            load_population(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_population(tmp_path / "nope.csv")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # spreadsheet exports often start the file with a UTF-8 byte-order mark
        text = "ncs,top10\n1.0,0\n2.5,1\n0.5,0\n"
        plain = write(tmp_path / "plain.csv", text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected, pop = load_population(plain), load_population(marked)
        assert pop.ncs.tobytes() == expected.ncs.tobytes()
        assert pop.top10.tobytes() == expected.top10.tobytes()
        assert cli_dispatch(["estimate", "--population", str(marked), "--estimator", "mncs"]) == 0
        assert capsys.readouterr().out.startswith("mncs ")


def tiny_report(seed=3):
    cfg = StudyConfig(
        population_source=SynthSpec(size=80, mncs=1.275, pp=13.7),
        sample_sizes=(20,),
        B=60,
        repetitions=4,
        methods=(Method.PPB,),
        ci_types=(CiType.NORMAL, CiType.PERCENTILE),
        estimators=(EstimatorKind.MNCS,),
        master_seed=seed,
    )
    return coverage_study(cfg)


class TestEmitReport:
    def test_csv_shape(self, tmp_path):
        report = tiny_report()
        out = tmp_path / "r.csv"
        emit_report(report, "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,method,ci_type,estimator,coverage,avg_length,avg_variance,R"
        assert len(lines) == 1 + len(report.cells)

    def test_csv_byte_stable(self, tmp_path):
        report = tiny_report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, "csv", a)
        emit_report(report, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        report = tiny_report()
        out = tmp_path / "r.json"
        emit_report(report, "json", out)
        assert json.loads(out.read_text()) == report.to_dict()

    def test_csv_round_trip_precision(self, tmp_path):
        report = tiny_report()
        out = tmp_path / "r.csv"
        emit_report(report, "csv", out)
        lines = out.read_text().splitlines()[1:]
        for line, cell in zip(lines, report.cells):
            fields = line.split(",")
            assert float(fields[4]) == pytest.approx(cell.coverage, rel=1e-11)
            assert float(fields[5]) == pytest.approx(cell.avg_length, rel=1e-11)
            assert float(fields[6]) == pytest.approx(cell.avg_variance, rel=1e-11)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(tiny_report(), "yaml", tmp_path / "r.yaml")


class TestCliDispatch:
    def test_synth_then_estimate(self, tmp_path, capsys):
        pop_path = str(tmp_path / "pop.csv")
        assert cli_dispatch(["synth", "--n", "6224", "--mncs", "1.275", "--pp", "13.7",
                             "--seed", "42", "--out", pop_path]) == 0
        capsys.readouterr()
        assert cli_dispatch(["estimate", "--population", pop_path, "--estimator", "mncs"]) == 0
        out = capsys.readouterr().out
        assert "mncs 1.275" in out.splitlines()[0]

    def test_estimate_with_sample(self, tmp_path, capsys):
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "300", "--out", pop_path])
        capsys.readouterr()
        code = cli_dispatch(["estimate", "--population", pop_path, "--estimator", "pp_top10",
                             "--n", "50", "--method", "ppb", "--ci", "boot-t",
                             "--B", "200", "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("pp_top10 ")
        assert "ci boot-t" in out

    def test_pp_is_not_an_estimator_token(self, tmp_path, capsys):
        pop_path = two_flag_population(tmp_path)
        out = str(tmp_path / "r.csv")
        for argv in (["estimate", "--population", pop_path, "--estimator", "pp"],
                     ["simulate", "--population", pop_path, "--sizes", "20", "--estimator", "pp", "--out", out]):
            assert cli_dispatch(argv) == 1
            assert capsys.readouterr().err == "error: unknown estimator: 'pp' (choose from ['mncs', 'pp_top10'])\n"
        assert not Path(out).exists()

    def test_population_round_trip(self, tmp_path):
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "500", "--seed", "3", "--out", pop_path])
        pop = load_population(pop_path)
        assert pop.size == 500
        assert estimate(EstimatorKind.MNCS, pop) == pytest.approx(1.275, abs=1e-12)

    @staticmethod
    def study_config(tmp_path, pop_path, **extra):
        # an extra value of None drops that key
        cfg = {
            "population": pop_path,
            "sample_sizes": [30],
            "B": 80,
            "repetitions": 6,
            "methods": ["standard", "ppb", "mirror"],
            "ci_types": ["normal", "percentile", "bca", "boot-t"],
            "estimators": ["mncs", "pp_top10"],
            "level": 0.95,
            "master_seed": 42,
        }
        cfg.update(extra)
        path = tmp_path / "study.json"
        path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}), encoding="utf-8")
        return str(path)

    def test_simulate_deterministic(self, tmp_path, capsys):
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "120", "--seed", "1", "--out", pop_path])
        cfg = self.study_config(tmp_path, pop_path)
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out1]) == 0
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out2, "--threads", "2"]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_simulate_flag_overrides(self, tmp_path, capsys):
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "120", "--seed", "1", "--out", pop_path])
        cfg = self.study_config(tmp_path, pop_path)
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out, "--format", "json",
                             "--reps", "3", "--method", "ppb", "--estimator", "mncs"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["repetitions"] == 3
        assert report["config"]["methods"] == ["ppb"]
        assert {c["method"] for c in report["cells"]} == {"ppb"}
        assert all(c["R"] <= 3 for c in report["cells"])

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "120", "--seed", "1", "--out", pop_path])
        cfg = self.study_config(tmp_path, pop_path, typo_key=1)
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_ppb_completion_key_rejected(self, tmp_path, capsys):
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "120", "--seed", "1", "--out", pop_path])
        cfg = self.study_config(tmp_path, pop_path, ppb_completion="fixed")
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"synth": {"mncs": 1.3, "pp": 12.0}}, "missing synth keys: ['size']"),
            ({"B": None}, "config 'B' must be a whole number >= 2, got None"),
            ({"methods": [1]}, "unknown method: 1"),
            ({"sample_sizes": [10.7]}, "config 'sample_sizes' must be a whole number >= 2, got 10.7"),
            ({"B": 20.9}, "config 'B' must be a whole number >= 2, got 20.9"),
            ({"repetitions": 2.5}, "config 'repetitions' must be a whole number >= 1, got 2.5"),
        ],
        ids=["synth-without-size", "null-B", "method-not-a-token", "fractional-size", "fractional-B",
             "fractional-repetitions"],
    )
    def test_malformed_config_value_exits_1(self, tmp_path, capsys, bad, message):
        # written here, not by study_config, which drops keys set to None
        cfg = json.loads(Path(self.study_config(tmp_path, two_flag_population(tmp_path))).read_text())
        if "synth" in bad:
            del cfg["population"]
        cfg.update(bad)
        path = write(tmp_path / "bad.json", json.dumps(cfg))
        out = tmp_path / "r.csv"
        assert cli_dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["population", "synth"])
    def test_report_config_round_trip(self, tmp_path, capsys, source):
        # the "config" block of a JSON report, saved as a config file,
        # reproduces the report: the echo and the accepted keys agree
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "120", "--seed", "1", "--out", pop_path])
        extra = {"level": 0.9, "ci_pairing": "all", "master_seed": 7, "sample_sizes": [30, 50]}
        if source == "synth":
            extra.update(population=None, synth={"size": 150, "mncs": 1.3, "pp": 12.0, "shape": 0.8})
        cfg = self.study_config(tmp_path, pop_path, **extra)
        first, again = tmp_path / "r.json", tmp_path / "again.json"
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(first), "--format", "json"]) == 0
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        echo = write(tmp_path / "echo.json", json.dumps(json.loads(first.read_text())["config"]))
        assert cli_dispatch(["simulate", "--config", echo, "--out", str(again), "--format", "json"]) == 0
        assert cli_dispatch(["simulate", "--config", echo, "--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
        assert json.loads(again.read_text())["config"] == json.loads(first.read_text())["config"]

    def test_run_without_population_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_dispatch(["simulate", "--out", str(out)]) == 1
        assert "config must name a 'population' file or a 'synth' spec" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_census_limit(self, tmp_path, capsys):
        # at n = N every FPC resample is the population: its intervals have length 0
        pop_path = str(tmp_path / "pop.csv")
        cli_dispatch(["synth", "--n", "90", "--seed", "2", "--out", pop_path])
        out = tmp_path / "r.csv"
        code = cli_dispatch(["simulate", "--population", pop_path, "--sizes", "30,90",
                             "--B", "80", "--reps", "4", "--estimator", "mncs", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        zero_rows = [r for r in rows if r["n"] == "90" and r["method"] in ("ppb", "mirror")]
        assert zero_rows and all(r["avg_length"] == "0" for r in zero_rows)

    def test_length_table_is_the_simulate_csv_avg_length_column(self, tmp_path, capsys):
        # emit_sweep(length_sweep(cfg)) is the simulate CSV restricted to five
        # of its columns: the length table needs no command of its own
        cfg_path = self.study_config(tmp_path, None, synth={"size": 120, "mncs": 1.275, "pp": 13.7},
                                     sample_sizes=[30, 120])
        out = tmp_path / "r.csv"
        assert cli_dispatch(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        columns = ["n", "method", "ci_type", "estimator", "avg_length"]
        rows = [[row[c] for c in columns] for row in csv.DictReader(out.read_text().splitlines())]
        emit_sweep(length_sweep(config_from_dict(json.loads(Path(cfg_path).read_text()))), tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_text() == "".join(",".join(r) + "\n" for r in [columns, *rows])

    def test_sweep_is_not_a_command(self, tmp_path, capsys):
        assert cli_dispatch(["sweep", "--population", "pop.csv", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "argument command: invalid choice: 'sweep' (choose from 'synth', 'estimate', 'simulate')" in err

    def test_exit_codes(self, tmp_path, capsys):
        # io error: missing population file
        assert cli_dispatch(["estimate", "--population", str(tmp_path / "none.csv"),
                             "--estimator", "mncs"]) == 2
        # parse error: bad header
        bad = write(tmp_path / "bad.csv", "a,b\n1,0\n")
        assert cli_dispatch(["estimate", "--population", bad, "--estimator", "mncs"]) == 2
        # validation error: negative score
        neg = write(tmp_path / "neg.csv", "ncs,top10\n-1.0,0\n")
        assert cli_dispatch(["estimate", "--population", neg, "--estimator", "mncs"]) == 1
        # usage error: unknown subcommand
        assert cli_dispatch(["frobnicate"]) == 1
        # validation error: sample larger than population
        pop_path = str(tmp_path / "p.csv")
        cli_dispatch(["synth", "--n", "50", "--out", pop_path])
        assert cli_dispatch(["estimate", "--population", pop_path, "--estimator", "mncs",
                             "--n", "51"]) == 1


def test_bad_flag_value_names_the_flag(tmp_path, capsys):
    # usage errors exit 1 and say, after the usage, what argparse rejected
    out = tmp_path / "x.csv"
    assert cli_dispatch(["simulate", "--B", "abc", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: fpboot simulate")
    assert "fpboot simulate: error: argument --B: invalid int value: 'abc'" in err
    assert not out.exists()


def two_flag_population(tmp_path):
    """200 records, two of them flagged: most samples of 20 hold no flag."""
    rows = [f"{0.01 * (i + 1)!r},{1 if i in (50, 150) else 0}" for i in range(200)]
    return write(tmp_path / "pop.csv", "ncs,top10\n" + "\n".join(rows) + "\n")


def one_flag_census(tmp_path):
    """20 records, one flagged: about a third of the standard resamples of
    the whole file miss the flag and have zero variance."""
    rows = [f"{1.0 + i!r},{1 if i == 0 else 0}" for i in range(20)]
    return write(tmp_path / "census.csv", "ncs,top10\n" + "\n".join(rows) + "\n")


class TestEstimateSharesTheStudyPath:
    def test_bca_falls_back_like_the_study(self, tmp_path, capsys):
        # the sample at seed 1 holds no flag: every PP replicate is 0
        pop_path = two_flag_population(tmp_path)
        code = cli_dispatch(["estimate", "--population", pop_path, "--estimator", "pp_top10",
                             "--n", "20", "--ci", "bca", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()

        # the study's interval pass on this one replication
        pop = load_population(pop_path)
        rng = make_rng(1, cell_stream_base(20, Method.STANDARD) + 1)
        sample = srswor(pop, 20, rng)
        assert not sample.top10.any()
        reps = bootstrap(Method.STANDARD, sample, 1000, EstimatorKind.PP_TOP10, rng)
        theta = estimate(EstimatorKind.PP_TOP10, sample)
        values = unit_values(EstimatorKind.PP_TOP10, sample)
        with pytest.raises(DegenerateDistributionError):
            ci_bca(reps, theta, jackknife_acceleration(sample, EstimatorKind.PP_TOP10))
        _, bounds = _interval_batch((CiType.BCA,), 0.95, reps.estimates[None], [theta], values=values[None])
        lower, upper = bounds[0, 0]
        assert out[2] == f"ci bca {lower:.12g} {upper:.12g}"

    def test_boot_t_with_zero_variance_replicates_exits_1(self, tmp_path, capsys):
        pop_path = one_flag_census(tmp_path)
        code = cli_dispatch(["estimate", "--population", pop_path, "--estimator", "pp_top10", "--ci", "boot-t"])
        assert code == 1
        assert "bootstrap-t" in capsys.readouterr().err

    @pytest.mark.parametrize("ci", ["normal", "percentile"])
    def test_one_replicate_exits_1(self, tmp_path, capsys, ci):
        pop_path = two_flag_population(tmp_path)
        code = cli_dispatch(["estimate", "--population", pop_path, "--estimator", "mncs",
                             "--n", "20", "--ci", ci, "--B", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: config 'B' must be a whole number >= 2, got 1\n"


# (population, --n, --seed, flags in every engine's sample): a sample with
# one flag (many zero-variance PP replicates), a sample with no flag (a
# one-sided bootstrap distribution, v_hat = 0 for PP) and the one-flag
# census (v_hat = 0 for the FPC engines)
ESTIMATE_CASES = [("two", 20, 131, 1), ("two", 20, 5, 0), ("census", None, 0, 1)]


def estimate_lines(tmp_path, capsys, method, ci, estimator, name, n, seed):
    """Exit code, stderr and stdout lines of ``fpboot estimate`` at B = 300, and the population it read."""
    path = two_flag_population(tmp_path) if name == "two" else one_flag_census(tmp_path)
    argv = ["estimate", "--population", path, "--estimator", estimator.value, "--method", method.value,
            "--ci", ci.value, "--B", "300", "--seed", str(seed)]
    code = cli_dispatch(argv + ([] if n is None else ["--n", str(n)]))
    captured = capsys.readouterr()
    return code, captured.err, captured.out.splitlines(), load_population(path)


@pytest.mark.parametrize("estimator", list(EstimatorKind))
@pytest.mark.parametrize("ci", list(CiType))
@pytest.mark.parametrize("method", METHODS)
def test_estimate_matches_the_constructors(tmp_path, capsys, method, ci, estimator):
    # the ci_* constructors run the row kernels one replication at a time,
    # apart from the interval pass estimate goes through; the sample is
    # replication 1 of the (n, method) cell, n = N for the whole file
    exits = []
    for name, n, seed, flags in ESTIMATE_CASES:
        code, err, out, pop = estimate_lines(tmp_path, capsys, method, ci, estimator, name, n, seed)
        n = n or pop.size
        rng = make_rng(seed, cell_stream_base(n, method) + 1)
        sample = srswor(pop, n, rng)
        assert np.count_nonzero(sample.top10) == flags
        reps = bootstrap(method, sample, 300, estimator, rng, with_t_variances=ci is CiType.BOOTSTRAP_T)
        theta, v_hat = estimate(estimator, sample), bootstrap_variance(reps)
        expected = public_interval(ci, reps, sample, estimator)
        if math.isnan(expected[0]):
            assert code == 1 and "bootstrap-t interval undefined" in err
        else:
            assert code == 0
            assert out == [
                f"{estimator.value} {theta:.12g}",
                f"variance {v_hat:.12g}",
                f"ci {ci.value} {expected[0]:.12g} {expected[1]:.12g}",
            ]
        exits.append(code)
    # the standard engine on the one-flag census drops a third of its replicates
    assert exits[2] == (1 if (method, ci, estimator) == (Method.STANDARD, CiType.BOOTSTRAP_T, EstimatorKind.PP_TOP10) else 0)


@pytest.mark.parametrize("estimator", list(EstimatorKind))
@pytest.mark.parametrize("ci", list(CiType))
@pytest.mark.parametrize("method", METHODS)
def test_estimate_prints_replication_1_of_the_cell(tmp_path, capsys, method, ci, estimator):
    # the one-cell study simulate runs with the same seed: its task's first
    # replication, and a report cell whose one replication is that one
    for name, n, seed, _ in ESTIMATE_CASES:
        code, err, out, pop = estimate_lines(tmp_path, capsys, method, ci, estimator, name, n, seed)
        n = n or pop.size
        config = StudyConfig(
            population_source=name, sample_sizes=(n,), B=300, repetitions=1, methods=(method,), ci_types=(ci,),
            estimators=(estimator,), master_seed=seed, ci_pairing="all",
        )
        thetas, v_hats, bounds = _run_replications((config, pop, n, method, 1, 2))
        lower, upper = bounds[0, 0, 0]
        assert coverage_study(config, pop).cells[0].avg_variance == v_hats[0, 0]
        if np.isnan(lower):
            assert code == 1 and "bootstrap-t interval undefined" in err
            continue
        assert code == 0
        assert out == [
            f"{estimator.value} {thetas[0, 0]:.12g}",
            f"variance {v_hats[0, 0]:.12g}",
            f"ci {ci.value} {lower:.12g} {upper:.12g}",
        ]


@pytest.mark.parametrize("method", METHODS)
def test_estimate_defaults_to_the_census_draw(tmp_path, capsys, method):
    # without --n the sample is the whole file, drawn as n = N
    for name, n in (("two", 200), ("census", 20)):
        for estimator in EstimatorKind:
            whole = estimate_lines(tmp_path, capsys, method, CiType.NORMAL, estimator, name, None, 7)
            drawn = estimate_lines(tmp_path, capsys, method, CiType.NORMAL, estimator, name, n, 7)
            assert whole[:3] == drawn[:3] and whole[0] == 0


class TestConfigLists:
    @pytest.mark.parametrize("key", ["sample_sizes", "methods", "ci_types", "estimators"])
    def test_empty_list_in_config_rejected(self, tmp_path, capsys, key):
        pop_path = two_flag_population(tmp_path)
        cfg = TestCliDispatch.study_config(tmp_path, pop_path, **{key: []})
        out = tmp_path / "r.csv"
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra,flags,message",
        [
            ({"sample_sizes": [50, 50]}, [], "sample_sizes must be distinct, got [50, 50]"),
            ({"methods": ["ppb", "PPB", " ppb"]}, [], "methods must be distinct, got ['ppb', 'ppb', 'ppb']"),
            ({}, ["--method", "ppb", "--method", "ppb"], "methods must be distinct, got ['ppb', 'ppb']"),
            ({"estimators": ["PP_TOP10", "pp_top10"]}, [], "estimators must be distinct, got ['pp_top10', 'pp_top10']"),
        ],
        ids=["sizes", "method-case-variants", "method-flags", "estimator-alias"],
    )
    def test_repeated_entry_rejected(self, tmp_path, capsys, extra, flags, message):
        pop_path = two_flag_population(tmp_path)
        cfg = TestCliDispatch.study_config(tmp_path, pop_path, **extra)
        out = tmp_path / "r.csv"
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_import_fpboot_skips_the_cli():
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    probe = (
        "import json, sys\n"
        "import fpboot\n"
        "print(json.dumps({'loaded': sorted({'fpboot.cli', 'argparse', 'scipy'} & set(sys.modules)),\n"
        "                  'unresolved': [n for n in fpboot.__all__ if not hasattr(fpboot, n)]}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True).stdout
    seen = json.loads(out)
    assert seen["loaded"] == []
    assert seen["unresolved"] == []


def test_simulate_runs_without_scipy(tmp_path):
    src = str(Path(__import__("fpboot").__file__).resolve().parents[1])
    cfg = write(tmp_path / "study.json", json.dumps({
        "synth": {"size": 150, "mncs": 1.3, "pp": 12.0},
        "sample_sizes": [30],
        "B": 40,
        "repetitions": 3,
        "ci_types": ["normal", "percentile", "bca", "boot-t"],
    }))
    # a None entry in sys.modules makes every later "import scipy" fail
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fpboot.cli import cli_dispatch\n"
        f"sys.exit(cli_dispatch(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'r.csv')!r},"
        " '--threads', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "r.csv").read_text().count("\n") > 1


def test_all_threads_means_usable_cores(monkeypatch):
    args = argparse.Namespace(threads=0)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _workers(args) == 1
    assert _workers(argparse.Namespace(threads=3)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _workers(args) == 8


def test_negative_threads_exits_1(tmp_path, capsys):
    cfg = TestCliDispatch.study_config(tmp_path, two_flag_population(tmp_path))
    out = tmp_path / "r.csv"
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out), "--threads", "-3"]) == 1
    assert "--threads must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_1_before_loading(tmp_path, capsys, seed):
    # the config rejects the seed before the population file is opened
    out = tmp_path / "r.csv"
    argv = ["simulate", "--population", str(tmp_path / "none.csv"), "--sizes", "20", "--B", "50",
            "--reps", "3", "--seed", seed, "--threads", "2", "--out", str(out)]
    assert cli_dispatch(argv) == 1
    message = f"error: config 'master_seed' must be a whole number in [0, 2**64 - 1], got {seed}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_estimate_bca_needs_three_records(tmp_path, capsys):
    pop_path = two_flag_population(tmp_path)
    code = cli_dispatch(["estimate", "--population", pop_path, "--estimator", "mncs", "--n", "2", "--ci", "bca"])
    assert code == 1
    assert capsys.readouterr().err == "error: BCA intervals need sample sizes >= 3 (jackknife acceleration)\n"


def test_estimate_one_record_is_a_study_error(tmp_path, capsys):
    pop_path = two_flag_population(tmp_path)
    assert cli_dispatch(["estimate", "--population", pop_path, "--estimator", "mncs", "--n", "1"]) == 1
    assert capsys.readouterr().err == "error: config 'sample_sizes' must be a whole number >= 2, got 1\n"


def test_oversized_n_is_one_error_for_estimate_and_simulate(tmp_path, capsys, monkeypatch):
    # one n <= N check serves both commands, before a task runs or a pool starts
    def no_task(*args):
        raise AssertionError("a task ran before the sample sizes were checked")

    monkeypatch.setattr("fpboot.study._run_replications", no_task)
    monkeypatch.setattr("fpboot.study._execute", no_task)
    pop_path = str(tmp_path / "pop.csv")
    cli_dispatch(["synth", "--n", "300", "--out", pop_path])
    capsys.readouterr()
    assert cli_dispatch(["estimate", "--population", pop_path, "--estimator", "mncs", "--n", "301"]) == 1
    estimate_err = capsys.readouterr().err
    out = tmp_path / "r.csv"
    argv = ["simulate", "--population", pop_path, "--sizes", "301", "--B", "50", "--reps", "3",
            "--threads", "2", "--out", str(out)]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err == estimate_err == "error: sample size 301 exceeds population size 300\n"
    assert not out.exists()


def test_help_lists_every_token(capsys):
    assert cli_dispatch(["simulate", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    for enum in (Method, CiType, EstimatorKind):
        assert "repeatable: " + " | ".join(m.value for m in enum) in help_text
