import json
import os
import shutil
import subprocess

import numpy as np
import pytest
from conftest import stdout_with_blas_threads

from halflearn import LabeledSampleSet, UnitVector, cli, io
from halflearn.cli import main
from halflearn.datagen import MarginalFamily, NoiseModel, generate
from halflearn.io import read_samples_csv, write_samples_csv
from halflearn.learner import plan_budget


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def gaussian_csv(tmp_path_factory):
    # Smallest budget that supports one localization round (~334k).
    base = tmp_path_factory.mktemp("data") / "clean"
    code = run(["generate", "--d", "5", "--n", "340000", "--marginal",
                "gaussian", "--noise", "clean", "--seed", "7", "--out",
                str(base)])
    assert code == 0
    return base


class TestGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        base = tmp_path / "run7"
        code = run(["generate", "--d", "3", "--n", "500", "--marginal",
                    "gaussian", "--noise", "random-flip", "--opt", "0.05",
                    "--seed", "7", "--out", str(base)])
        assert code == 0
        samples = read_samples_csv(base.with_suffix(".csv"))
        assert samples.n == 500 and samples.d == 3
        meta = json.loads(base.with_suffix(".json").read_text())
        assert meta["n"] == 500
        assert meta["noise"]["opt"] == 0.05
        assert len(meta["v_star"]) == 3

    def test_rademacher_values(self, tmp_path):
        base = tmp_path / "rad"
        run(["generate", "--d", "3", "--n", "200", "--marginal",
             "rademacher", "--seed", "1", "--out", str(base)])
        samples = read_samples_csv(base.with_suffix(".csv"))
        assert set(np.unique(samples.points)) == {-1.0, 1.0}

    def test_scaled_gaussian_flags(self, tmp_path):
        base = tmp_path / "scaled"
        code = run(["generate", "--d", "4", "--n", "20000", "--marginal",
                    "scaled-gaussian", "--scale-axis", "2",
                    "--scale-factor", "3.0", "--seed", "2", "--out",
                    str(base)])
        assert code == 0
        samples = read_samples_csv(base.with_suffix(".csv"))
        second = (samples.points ** 2).mean(axis=0)
        assert second[2] == pytest.approx(9.0, rel=0.1)
        assert second[0] == pytest.approx(1.0, rel=0.1)
        meta = json.loads(base.with_suffix(".json").read_text())
        assert meta["marginal"] == {"kind": "scaled-gaussian", "axis": 2,
                                    "factor": 3.0}

    @pytest.mark.parametrize("out, stem", [
        ("eps_0.05", "eps_0.05"), ("eps_0.05.csv", "eps_0.05"),
        ("eps_0.05.json", "eps_0.05"), ("run7", "run7"),
        ("run7.csv", "run7"), ("run7.txt", "run7.txt")])
    def test_out_keeps_every_dot_but_its_own_suffix(self, tmp_path, out,
                                                    stem):
        code = run(["generate", "--d", "3", "--n", "50", "--marginal",
                    "gaussian", "--seed", "1", "--out",
                    str(tmp_path / "runs" / out)])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            f"{stem}.csv", f"{stem}.json"]

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["generate", "--d", "3", "--n", "10", "--marginal",
                 "gaussian", "--seed", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--d", "1"], ["--d", "0"], ["--n", "0"], ["--opt", "0.7"],
        ["--seed", "-1"],
        ["--marginal", "scaled-gaussian", "--scale-axis", "3"],
        # A marginal field that the gaussian kind does not read.
        ["--scale-factor", "3"], ["--scale-axis", "1"], ["--t-dof", "2"],
        ["--mixture-separation", "1.5"],
    ])
    def test_out_of_range_flag_exits_two(self, tmp_path, capsys, flags):
        # --out's parents do not exist yet; a usage error creates none.
        base = tmp_path / "nd" / "sub" / "bad"
        code = run(["generate", "--d", "3", "--n", "10", "--marginal",
                    "gaussian", "--noise", "random-flip", "--opt", "0.1",
                    "--seed", "1", "--out", str(base), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_directory_output_exits_one_before_any_sample(
            self, tmp_path, capsys, monkeypatch, suffix):
        def never(*args):
            raise AssertionError("a sample was drawn before --out was checked")

        monkeypatch.setattr(cli, "generate", never)
        blocked = tmp_path / "runs" / f"run{suffix}"
        blocked.mkdir(parents=True)
        code = run(["generate", "--d", "3", "--n", "10", "--marginal",
                    "gaussian", "--seed", "1", "--out",
                    str(tmp_path / "runs" / "run")])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: '{blocked}'\n")
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            blocked.name]


class TestLearn:
    def test_clean_gaussian_exits_zero(self, gaussian_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        code = run(["learn", "--in", str(gaussian_csv.with_suffix(".csv")),
                    "--out", str(report_path), "--seed", "7"])
        assert code == 0
        # Per-stage times come from the benchmark's trace, not stderr.
        assert capsys.readouterr() == ("verdict: learned\n", "")
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "learned"
        assert len(report["input_csv_sha256"]) == 64
        assert report["hypothesis"] is not None

    def test_rademacher_exits_three(self, tmp_path, capsys):
        base = tmp_path / "rad"
        run(["generate", "--d", "5", "--n", "340000", "--marginal",
             "rademacher", "--seed", "3", "--out", str(base)])
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        code = run(["learn", "--in", str(base.with_suffix(".csv")),
                    "--out", str(report_path), "--seed", "3"])
        assert code == 3
        assert capsys.readouterr() == (
            "verdict: rejected_non_gaussian (weak_learner.moment_test)\n", "")
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "rejected_non_gaussian"
        assert report["rejection_stage"] == "weak_learner.moment_test"

    def test_budget_failure_exits_one(self, tmp_path, capsys):
        # A valid CSV too small for the budget plan; main maps the
        # ValueError to exit 1.
        base = tmp_path / "small"
        run(["generate", "--d", "4", "--n", "4000", "--marginal", "gaussian",
             "--seed", "1", "--out", str(base)])
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = run(["learn", "--in", str(base.with_suffix(".csv")), "--out",
                    str(report_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: sample budget insufficient")
        assert not report_path.exists()

    def test_truncated_row_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,1\n0.5\n")
        code = run(["learn", "--in", str(bad), "--out",
                    str(tmp_path / "r.json")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_field_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,1\n\nnan,0.5,-1\n")
        code = run(["learn", "--in", str(bad), "--out",
                    str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.csv: line 3: non-finite field" in err

    def test_non_utf8_byte_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0,2.0,1\n0.5,\xff,1\n")
        code = run(["learn", "--in", str(bad), "--out",
                    str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err \
            == f"error: {bad}: line 2: non-numeric field\n"

    def test_huge_finite_coordinate_keeps_stderr_empty(self, tmp_path,
                                                       capsys):
        # The smallest fundable budget at d = 2, with one coordinate of
        # 1e200, or a whole row of +-1.7e308 whose margin along v
        # overflows, in one stage's slice. The verdict must come without
        # a RuntimeWarning.
        n = 333_334
        plan = plan_budget(n, 0.05)
        s = generate(2, n, MarginalFamily("gaussian"),
                     UnitVector(np.array([0.6, 0.8])), NoiseModel("clean"),
                     5)
        weak = (1000, 3, "weak_learner.moment_test")
        round_0 = (plan.round_slices[0][0] + 1000, 0, None)
        wedge = (plan.wedge_slice[0] + 1000, 3,
                 "wedge.candidate_0.slab_moment_check")
        selection = (plan.selection_slice[0] + 1000, 0, None)
        cases = [(1, 1e200, *stage) for stage in (weak, round_0, wedge)]
        cases += [(slice(None), sign * 1.7e308, *stage)
                  for sign in (1.0, -1.0)
                  for stage in (weak, round_0, wedge, selection)]
        out = tmp_path / "r.json"
        csv = tmp_path / "huge.csv"
        # The set is written once; each case swaps in its edited line,
        # which write_samples_csv writes as a one-row set.
        write_samples_csv(csv, s)
        lines = csv.read_bytes().splitlines(keepends=True)
        for i, (column, value, row, code, stage) in enumerate(cases):
            points = s.points.copy()
            points[row, column] = value
            edited = LabeledSampleSet(points, s.labels)
            write_samples_csv(csv, edited.subset(slice(row, row + 1)))
            csv.write_bytes(b"".join(lines[:row] + [csv.read_bytes()]
                                     + lines[row + 1:]))
            if i == 0:  # once: the patched file is the edited set's CSV
                whole = tmp_path / "whole.csv"
                write_samples_csv(whole, edited)
                assert whole.read_bytes() == csv.read_bytes()
            capsys.readouterr()
            assert run(["learn", "--in", str(csv), "--out", str(out)]) \
                == code, (row, value)
            assert capsys.readouterr().err == ""
            assert json.loads(out.read_text())["rejection_stage"] == stage

    def test_c_a_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["learn", "--in", str(tmp_path / "x.csv"), "--out",
                 str(tmp_path / "r.json"), "--c-a", "2.0"])
        assert excinfo.value.code == 2

    def test_slack_flag_is_usage_error(self, tmp_path):
        # The tolerance width is the frozen constant SLACK, not a flag.
        with pytest.raises(SystemExit) as excinfo:
            run(["learn", "--in", str(tmp_path / "x.csv"), "--out",
                 str(tmp_path / "r.json"), "--slack", "1000"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [["--k-cap", "21"], ["--epsilon", "2"],
                                       ["--epsilon", "0.7"],
                                       ["--epsilon", "0.5"]])
    def test_out_of_range_flag_exits_two_before_reading(self, tmp_path,
                                                         capsys, flags):
        # The input does not exist, so exit 2 shows it was never opened.
        code = run(["learn", "--in", str(tmp_path / "nope.csv"), "--out",
                    str(tmp_path / "r.json"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_exits_one(self, tmp_path):
        code = run(["learn", "--in", str(tmp_path / "nope.csv"), "--out",
                    str(tmp_path / "r.json")])
        assert code == 1

    def test_directory_out_exits_one_before_reading(self, gaussian_csv,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        def never(path):
            raise AssertionError("the input was read before --out was checked")

        monkeypatch.setattr(cli, "read_samples_csv", never)
        capsys.readouterr()
        code = run(["learn", "--in", str(gaussian_csv.with_suffix(".csv")),
                    "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_report_bytes_reproducible(self, gaussian_csv, tmp_path, capsys,
                                       monkeypatch):
        # One CPU reads the file as one byte range, three CPUs as three.
        csv = gaussian_csv.with_suffix(".csv")
        assert csv.stat().st_size >= 3 * io._MIN_RANGE_BYTES
        reports = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)))
            out = tmp_path / f"{cpus}.json"
            capsys.readouterr()
            assert run(["learn", "--in", str(csv), "--out", str(out),
                        "--seed", "7"]) == 0
            assert capsys.readouterr().err == ""
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestExperiment:
    def test_grid_rows_and_summary(self, tmp_path, capsys):
        spec = {
            "grid": {"d": [5], "n": [340000], "epsilon": [0.05],
                     "marginal": ["gaussian", "rademacher"],
                     "noise": ["clean"], "opt": [0.0]},
            "seeds": [0, 1],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "agg.csv"
        code = run(["experiment", "--spec", str(spec_path), "--out",
                    str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 cells x 2 seeds
        header = lines[0].split(",")
        assert {"verdict", "rounds_completed", "wall_time_s",
                "disagreement_vs_planted"} <= set(header)
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        by_marginal = {}
        for row in rows:
            by_marginal.setdefault(row["marginal"], set()).add(row["verdict"])
        assert by_marginal["gaussian"] == {"learned"}
        assert by_marginal["rademacher"] == {"rejected_non_gaussian"}
        assert "accept_rate" in capsys.readouterr().out

    def test_bad_spec_exits_one(self, tmp_path, capsys, monkeypatch):
        def never(task):
            raise AssertionError("a task ran from a refused spec")

        monkeypatch.setattr(cli, "run_experiment_task", never)
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "agg.csv"
        # Values RunConfig, MarginalFamily, the noise model, the budget
        # plan or generate refuses must fail before any task runs. At
        # opt 0 any noise kind is clean.
        grid = {"d": [4], "n": [340000]}
        refused = [{"grid": {"d": [4], "n": [40000]}, "seeds": [1, 2]},
                   {"grid": dict(grid, epsilon=[0.7]), "seeds": [1]},
                   {"grid": grid, "tau": 2, "seeds": [1]},
                   {"grid": grid, "seeds": [-1]},
                   {"grid": dict(grid, epsilon=["0.05"]), "seeds": [1]},
                   {"grid": grid, "seeds": [True]},
                   {"grid": dict(grid, marginal=["bogus"]), "seeds": [1]},
                   {"grid": dict(grid, noise=["bogus"], opt=[0.1]),
                    "seeds": [1]},
                   # A key the runner does not read.
                   {"grid": grid, "seeds": [1], "taus": 0.5},
                   {"grid": dict(grid, eps=[0.2]), "seeds": [1]},
                   {"grid": grid, "seeds": [1], "output_path": "agg.csv"},
                   # An axis with no values, so no cells.
                   {"grid": dict(grid, d=[]), "seeds": [1]},
                   # A marginal field that its kind does not read.
                   {"grid": dict(grid, marginal=[
                       {"kind": "gaussian", "dof": 5}]), "seeds": [1]}]
        # A d, n or scaled-gaussian axis that no task of its cell could
        # run with.
        refused += [{"grid": dict(grid, d=[d]), "seeds": [1]}
                    for d in (1, True, "8", 2.5)]
        refused += [{"grid": dict(grid, n=[340000.5]), "seeds": [1]}]
        refused += [{"grid": dict(grid, marginal=[
            {"kind": "scaled-gaussian", "axis": axis}]), "seeds": [1]}
            for axis in (9, 1.5)]
        for text in ["{not json", "[]", '{"grid": {}, "seeds": 3}',
                     '{"grid": 5, "seeds": [1]}', '{"grid": {}, "seeds": []}',
                     '{"grid": {}, "seeds": [1, "a"]}',
                     *map(json.dumps, refused)]:
            spec_path.write_text(text)
            assert run(["experiment", "--spec", str(spec_path), "--out",
                        str(out_path)]) == 1, text
            assert "error: bad experiment spec: " in capsys.readouterr().err
            assert not out_path.exists(), text

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_two(self, tmp_path, capsys, workers):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"grid": {"d": [4], "n": [4000]},
                                         "seeds": [0]}))
        out_path = tmp_path / "agg.csv"
        code = run(["experiment", "--spec", str(spec_path), "--out",
                    str(out_path), "--workers", workers])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_path.exists()

    def test_unwritable_out_fails_before_any_task(self, tmp_path, capsys,
                                                  monkeypatch):
        def never(task):
            raise AssertionError("a task ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment_task", never)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"grid": {"d": [4], "n": [340000]},
                                         "seeds": [0]}))
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        code = run(["experiment", "--spec", str(spec_path), "--out",
                    str(blocker / "rows.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_out_fails_before_any_task(self, tmp_path, capsys,
                                                 monkeypatch):
        def never(task):
            raise AssertionError("a task ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment_task", never)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"grid": {"d": [4], "n": [340000]},
                                         "seeds": [0, 1]}))
        out_dir = tmp_path / "rows.csv"
        out_dir.mkdir()
        code = run(["experiment", "--spec", str(spec_path), "--out",
                    str(out_dir)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: '{out_dir}'\n")
        assert list(out_dir.iterdir()) == []

    def test_crashing_cells_recorded_and_counted(self, tmp_path,
                                                 monkeypatch):
        # 3-cell grid x 5 seeds -> 15 rows + header even though every run
        # crashes in the learner; failures are recorded in-row.
        def crash(*args):
            raise RuntimeError("learner crashed")

        monkeypatch.setattr(cli, "testable_learn", crash)
        spec = {"grid": {"d": [5], "n": [340000, 350000, 360000],
                         "marginal": ["gaussian"]},
                "seeds": [0, 1, 2, 3, 4]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "agg.csv"
        assert run(["experiment", "--spec", str(spec_path), "--out",
                    str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 15
        assert all("RuntimeError: learner crashed" in line
                   for line in lines[1:])

    def test_workers_capped_at_the_task_count(self, tmp_path, monkeypatch):
        # A forking pool starts all max_workers processes at its first
        # submit, so the pool must ask for no more than there are tasks.
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        def stub(task):
            return dict(dict.fromkeys(cli._FIELDS, ""), verdict="error",
                        cell_index=task["cell_index"], seed=task["config"].seed)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(cli, "run_experiment_task", stub)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"grid": {"d": [4], "n": [340000]},
                                         "seeds": [0, 1]}))
        out_path = tmp_path / "agg.csv"
        for workers in ("32", "2", "1"):
            assert run(["experiment", "--spec", str(spec_path), "--out",
                        str(out_path), "--workers", workers]) == 0
            assert len(out_path.read_text().splitlines()) == 1 + 2
        assert started == [2, 2]

    def test_worker_pool_matches_serial(self, tmp_path):
        spec = {"grid": {"d": [4], "n": [340000],
                         "marginal": ["gaussian", "rademacher"]},
                "seeds": [0, 1]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert run(["experiment", "--spec", str(spec_path), "--out",
                    str(serial)]) == 0
        assert run(["experiment", "--spec", str(spec_path), "--out",
                    str(pooled), "--workers", "2"]) == 0

        def stable_columns(path):
            lines = path.read_text().strip().splitlines()
            header = lines[0].split(",")
            drop = header.index("wall_time_s")
            return [[f for i, f in enumerate(line.split(",")) if i != drop]
                    for line in lines]

        assert stable_columns(serial) == stable_columns(pooled)


def test_import_leaves_experiment_modules_unloaded():
    # Only `experiment` uses them; `learn` and `generate` skip the import.
    script = ("import sys, halflearn.cli\n"
              "print(sorted({'csv', 'concurrent.futures'} "
              "& set(sys.modules)))")
    assert stdout_with_blas_threads(script, 1) == b"[]\n"


def test_console_script_installed():
    exe = shutil.which("halflearn")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
