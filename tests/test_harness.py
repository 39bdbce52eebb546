import json
import os
import platform
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import sigfbsde
from sigfbsde import cli, harness, sde, solver


class TestLoadConfig:
    def test_lookback_defaults_follow_reference_settings(self):
        cfg = harness.load_config(overrides={"experiment": "lookback"})
        spec = cfg.spec
        assert spec.grid.n_fine == 2000
        assert spec.grid.n_coarse == 20
        assert spec.depth == 3
        assert spec.batch_size == 100
        assert spec.model.x0 == (10.0,)
        assert spec.feature == "signature"
        assert spec.driver.rate == 0.01

    def test_method_switch_changes_batch_default(self):
        cfg = harness.load_config(overrides={"experiment": "lookback",
                                             "method": "backward"})
        assert cfg.spec.batch_size == 1000

    def test_indivisible_grid_rejected(self):
        with pytest.raises(harness.ConfigError, match="divide"):
            harness.load_config(overrides={"experiment": "lookback",
                                           "n_fine": 2001})

    def test_unknown_keys_listed(self):
        with pytest.raises(harness.ConfigError, match="swoosh"):
            harness.load_config(overrides={"experiment": "lookback",
                                           "swoosh": 1, "n_fine": 100})

    @pytest.mark.parametrize("overrides, named", [
        ({"lr": -0.1}, ["lr"]), ({"lr": 0}, ["lr"]), ({"lr": "nan"}, ["lr"]),
        ({"lr": "-inf"}, ["lr"]), ({"rate": "nan"}, ["rate"]),
        ({"sigma": "inf"}, ["sigma"]), ({"x0": "-inf"}, ["x0"]),
        ({"strike": "nan"}, ["strike"]), ({"horizon": "inf"}, ["horizon"]),
        ({"horizon": "nan"}, ["horizon"]),
        ({"rate": "nan", "sigma": "inf", "lr": 0}, ["rate", "sigma", "lr"]),
    ])
    def test_bad_numbers_rejected_with_every_key_named(self, overrides, named):
        with pytest.raises(harness.ConfigError) as err:
            harness.load_config(overrides={"experiment": "lookback", **overrides})
        for key in named:
            assert f"{key}=" in str(err.value)

    @pytest.mark.parametrize("overrides, named", [
        ({"experiment": "lookback", "reference_paths": 5000}, ["reference_paths"]),
        ({"experiment": "quadratic", "reference_paths": 5000}, ["reference_paths"]),
        ({"experiment": "lookback", "method": "backward", "strike": 1.0}, ["strike"]),
        ({"experiment": "quadratic", "method": "backward", "sigma": 1.0}, ["sigma"]),
        ({"experiment": "quadratic", "strike": 1.0}, ["strike"]),
        ({"experiment": "lookback", "method": "backward",
          "reference_paths": 5000, "strike": 1.0}, ["reference_paths", "strike"]),
        ({"experiment": "quadratic", "method": "backward", "sigma": 1.0,
          "reference_paths": 5000, "rate": 0.5}, ["sigma", "reference_paths", "rate"]),
    ])
    def test_ignored_keys_rejected_with_every_key_named(self, overrides, named):
        with pytest.raises(harness.ConfigError) as err:
            harness.load_config(overrides=overrides)
        for key in named:
            assert f"{key}=" in str(err.value)

    @pytest.mark.parametrize("overrides", [
        {"experiment": "amerasian", "reference_paths": 5000},
        {"experiment": "amerasian", "method": "forward"},
        {"experiment": "lookback", "strike": 0.0},
        {"experiment": "quadratic", "method": "backward", "reference_paths": 200_000,
         "embed_dim": None},
    ])
    def test_keys_the_run_reads_accepted(self, overrides):
        harness.load_config(overrides=overrides)

    @pytest.mark.parametrize("key, value", [
        ("d", True), ("iterations", False), ("lr", True), ("x0", False)])
    def test_json_booleans_rejected_for_numeric_keys(self, key, value):
        with pytest.raises(harness.ConfigError, match=repr(key)):
            harness.load_config(overrides={"experiment": "lookback", "profile": "desk",
                                           key: value})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(harness.ConfigError, match="vanilla"):
            harness.load_config(overrides={"experiment": "vanilla"})

    def test_high_dimension_enables_embedding(self):
        cfg = harness.load_config(overrides={"experiment": "amerasian",
                                             "d": 100})
        assert cfg.spec.embed_dim == 5

    def test_moderate_dimension_keeps_plain_features(self):
        cfg = harness.load_config(overrides={"experiment": "amerasian",
                                             "d": 5})
        assert cfg.spec.embed_dim is None

    def test_file_and_overrides_compose(self, tmp_path):
        doc = {"experiment": "quadratic", "d": 4, "iterations": 7}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = harness.load_config(str(path), overrides={"iterations": 9})
        assert cfg.spec.model.dim == 4
        assert cfg.spec.iterations == 9

    def test_string_values_coerced(self):
        cfg = harness.load_config(overrides={"experiment": "quadratic",
                                             "d": "6", "lr": "0.01",
                                             "embed_dim": "none"})
        assert cfg.spec.model.dim == 6
        assert cfg.spec.learning_rate == 0.01
        assert cfg.spec.embed_dim is None

    def test_round_trip(self):
        cfg = harness.load_config(overrides={
            "experiment": "amerasian", "profile": "desk", "d": 2,
            "iterations": 11, "seed": 99, "out": "/tmp/somewhere"})
        again = harness.load_config(overrides=harness.config_document(cfg))
        assert again == cfg

    def test_per_run_seeds_distinct_and_reproducible(self):
        seeds_a = [solver.derive_seed(7, 6, r) for r in range(20)]
        seeds_b = [solver.derive_seed(7, 6, r) for r in range(20)]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == 20


def tiny_quadratic_overrides(**extra):
    doc = {"experiment": "quadratic", "profile": "desk", "d": 2,
           "n_fine": 20, "n_coarse": 5, "batch": 16, "iterations": 6,
           "runs": 2, "seed": 5}
    doc.update(extra)
    return doc


def poison_batches_after(monkeypatch, k):
    """Give every simulated batch after the first ``k`` a NaN state, so the
    loss turns non-finite after ``k`` finished iterations."""
    simulate, calls = sde.simulate_batch, []

    def poisoned(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        calls.append(None)
        if len(calls) > k:
            batch.states[0, 1, 0] = np.nan
        return batch

    monkeypatch.setattr(sde, "simulate_batch", poisoned)


class TestRunExperiment:
    def test_quadratic_summary_and_files(self, tmp_path):
        out = str(tmp_path / "results")
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(out=out))
        table = harness.run_experiment(cfg)
        assert len(table.rows) == 2
        # the payoff's exact mean on the 20-step grid, and its continuous limit
        assert abs(table.summary["reference"] - 0.6175) < 1e-12
        assert abs(table.summary["continuous_reference"] - 2.0 / 3.0) < 1e-12
        # summary mean recomputable from the rows
        assert abs(table.summary["mean"]
                   - np.mean([row[1] for row in table.rows])) < 1e-12
        for name in ("curve_run0.csv", "curve_run1.csv", "summary.csv",
                     "report.json"):
            assert os.path.exists(os.path.join(out, name))
        report = json.loads((tmp_path / "results" / "report.json").read_text())
        assert report["runs"] == 2
        assert "rel_error" in report
        assert report["continuous_reference"] == table.summary["continuous_reference"]

    def test_lookback_reference_is_discretely_monitored(self):
        cfg = harness.load_config(overrides={"experiment": "lookback", "profile": "desk"})
        refs = harness.reference_values(cfg)
        assert abs(refs["reference"] - 5.705) < 1e-3
        assert abs(refs["continuous_reference"] - 5.828175) < 5e-4

    def test_zero_isquared_iterations_still_emit(self, tmp_path):
        out = str(tmp_path / "zero")
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(
            out=out, iterations=0, runs=1))
        table = harness.run_experiment(cfg)
        assert len(table.rows) == 1
        curve = (tmp_path / "zero" / "curve_run0.csv").read_text()
        assert curve == "iteration,loss,y0_estimate,elapsed_s\n"

    def test_abort_leaves_partial_curve(self, tmp_path, monkeypatch):
        k = 3
        poison_batches_after(monkeypatch, k)
        out = tmp_path / "aborted"
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(
            out=str(out), method="backward", runs=1, workers=1))
        with pytest.raises(solver.SolverAbort) as err:
            harness.run_experiment(cfg)
        assert err.value.iteration == k
        assert err.value.report.iterations == k
        rows = (out / "curve_run0.csv").read_text().splitlines()
        assert rows[0] == "iteration,loss,y0_estimate,elapsed_s"
        assert [row.split(",")[0] for row in rows[1:]] == [str(i) for i in range(k)]
        assert not (out / "report.json").exists()

    def test_abort_in_a_later_run_keeps_the_curves_before_it(self, tmp_path, monkeypatch):
        # run 0 finishes its 6 iterations; run 1 aborts after k of them
        k = 2
        poison_batches_after(monkeypatch, 6 + k)
        out = tmp_path / "aborted"
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(
            out=str(out), method="backward", runs=3, workers=1))
        with pytest.raises(solver.SolverAbort) as err:
            harness.run_experiment(cfg)
        assert err.value.iteration == k
        for run, rows in ((0, 6), (1, k)):
            lines = (out / f"curve_run{run}.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(rows)]
        assert not (out / "curve_run2.csv").exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "report.json").exists()

    def test_emission_is_deterministic(self, tmp_path):
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(runs=1))
        table = harness.run_experiment(cfg)
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        harness.emit_outputs(table, d1)
        harness.emit_outputs(table, d2)
        for name in ("curve_run0.csv", "summary.csv", "report.json"):
            with open(os.path.join(d1, name), "rb") as fa, \
                 open(os.path.join(d2, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_report_records_provenance(self, tmp_path, monkeypatch):
        # the BLAS thread settings as the process saw them, null where unset
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "provenance"
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(out=str(out), runs=1))
        harness.run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"] == {
            "cores": sde.thread_count(), "numpy": np.__version__,
            "python": platform.python_version(), "sigfbsde": sigfbsde.__version__,
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}

    def test_report_records_the_config_and_run_seeds(self, tmp_path):
        out = tmp_path / "config"
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(out=str(out)))
        harness.run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert report["config"] == harness.config_document(cfg)
        assert harness.load_config(overrides=report["config"]).spec == cfg.spec
        assert report["run_seeds"] == [solver.derive_seed(5, 6, r) for r in range(2)]

    @pytest.mark.parametrize("setting, embed_dim", [({"embed_dim": "none"}, None),
                                                    ({}, 5)])
    def test_explicit_no_embedding_holds_above_twenty_assets(self, tmp_path, setting,
                                                             embed_dim):
        out = tmp_path / "d30"
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(
            d=30, runs=1, iterations=1, out=str(out), **setting))
        assert cfg.spec.embed_dim == embed_dim
        harness.run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert harness.load_config(overrides=report["config"]).spec == cfg.spec

    def test_worker_processes_match_one_process_on_threaded_draws(self, monkeypatch):
        # streams above the thread cut; the one-process run leaves the
        # parent having drawn on threads before the pool forks its workers
        monkeypatch.setattr(sde, "thread_count", lambda: 2)
        doc = {"experiment": "quadratic", "profile": "desk", "d": 20, "n_fine": 100,
               "n_coarse": 5, "batch": 256, "iterations": 2, "runs": 2, "seed": 7}
        assert len(sde._row_blocks(doc["batch"], doc["n_fine"], doc["d"])) == 2
        one = harness.run_experiment(harness.load_config(overrides=dict(doc, workers=1)))
        two = harness.run_experiment(harness.load_config(overrides=dict(doc, workers=2)))
        for a, b in zip(one.reports, two.reports, strict=True):
            np.testing.assert_array_equal(a.losses, b.losses)
            np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_workers_are_capped_by_usable_cores(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was made on one usable core")

        monkeypatch.setattr(sde, "thread_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = harness.load_config(overrides=tiny_quadratic_overrides(runs=2, workers=2))
        assert len(harness.run_experiment(cfg).reports) == 2

    def test_amerasian_summary_includes_bound(self):
        cfg = harness.load_config(overrides={
            "experiment": "amerasian", "profile": "desk", "d": 1,
            "n_fine": 40, "n_coarse": 10, "batch": 32, "iterations": 2,
            "runs": 1, "reference_paths": 2000, "seed": 1})
        table = harness.run_experiment(cfg)
        assert abs(table.summary["jensen_bound"] - 2.418) < 1e-3
        assert table.summary["european_se"] > 0.0


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli")
        code = cli.main(["run", "--experiment", "quadratic",
                         "--profile", "desk", "--seed", "3", "--out", out,
                         "--set", "d=2", "--set", "n_fine=20",
                         "--set", "n_coarse=5", "--set", "batch=16",
                         "--set", "iterations=4"])
        assert code == 0
        assert "quadratic" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_imports_load_no_scipy(self):
        src = os.path.dirname(os.path.dirname(sigfbsde.__file__))
        code = ("import sys, sigfbsde, sigfbsde.harness, sigfbsde.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_imports_load_no_multiprocessing(self):
        # the process pool's import is deferred to runs with workers > 1
        src = os.path.dirname(os.path.dirname(sigfbsde.__file__))
        code = ("import sys, sigfbsde.harness, sigfbsde.solver; "
                "print('multiprocessing' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False"

    def test_imports_load_no_thread_pool(self):
        # the thread pool's import is deferred to the first split into blocks
        src = os.path.dirname(os.path.dirname(sigfbsde.__file__))
        code = ("import sys, sigfbsde.harness, sigfbsde.solver; "
                "print('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False"

    def test_validation_error_exit_two(self, capsys):
        code = cli.main(["run", "--experiment", "lookback",
                         "--set", "n_fine=2001"])
        assert code == 2
        assert "divide" in capsys.readouterr().err

    def test_lookback_without_rate_exits_two_before_training(self, tmp_path,
                                                              capsys):
        out = tmp_path / "never"
        code = cli.main(["run", "--experiment", "lookback", "--profile", "desk",
                         "--out", str(out), "--set", "rate=0",
                         "--set", "iterations=3", "--set", "n_fine=40"])
        assert code == 2
        assert "rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["lr=-0.1", "lr=0", "lr=nan", "rate=nan",
                                         "sigma=inf"])
    def test_bad_number_exits_two_before_training(self, tmp_path, capsys, setting):
        out = tmp_path / "never"
        code = cli.main(["run", "--experiment", "lookback", "--profile", "desk",
                         "--out", str(out), "--set", setting,
                         "--set", "iterations=3", "--set", "n_fine=40"])
        assert code == 2
        assert setting.split("=")[0] + "=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--experiment", "lookback", "--profile", "desk", "--seed", "-1",
         "--set", "iterations=0"],
        ["oracle", "--experiment", "amerasian", "--set", "seed=-1"],
    ], ids=["run", "oracle"])
    def test_negative_seed_exits_two_before_training(self, tmp_path, capsys, argv):
        # a negative seed would reach np.random.SeedSequence, which rejects it
        out = tmp_path / "never"
        extra = ["--out", str(out)] if argv[0] == "run" else []
        with mock.patch.object(solver, "derive_seed", wraps=solver.derive_seed) as derive:
            code = cli.main(argv + extra)
        assert code == 2
        assert "seed=-1" in capsys.readouterr().err
        assert not derive.called and not out.exists()

    def test_zero_coarse_dates_exit_two(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = cli.main(["run", "--experiment", "quadratic", "--profile", "desk",
                         "--out", str(out), "--set", "n_coarse=0"])
        assert code == 2
        assert "n_coarse=0" in capsys.readouterr().err
        assert not out.exists()

    def test_coarse_dates_not_dividing_fine_steps_exit_two(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = cli.main(["run", "--experiment", "quadratic", "--profile", "desk",
                         "--out", str(out), "--set", "n_coarse=7"])
        assert code == 2
        assert "n_coarse=7 does not divide n_fine=100" in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_beyond_depth_three_runs(self, tmp_path):
        out = tmp_path / "m4"
        code = cli.main(["run", "--experiment", "quadratic", "--profile", "desk",
                         "--out", str(out), "--set", "d=30", "--set", "m=4",
                         "--set", "iterations=1", "--set", "batch=64"])
        assert code == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("experiment, setting", [
        ("quadratic", "rate=0.5"), ("quadratic", "sigma=3"),
        ("quadratic", "strike=1"), ("lookback", "strike=1")])
    def test_ignored_key_exits_two(self, tmp_path, capsys, experiment, setting):
        out = tmp_path / "never"
        code = cli.main(["run", "--experiment", experiment, "--profile", "desk",
                         "--out", str(out), "--set", setting,
                         "--set", "iterations=2"])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_initial_value_key_exits_two_before_training(self, tmp_path, capsys,
                                                         monkeypatch):
        # the forward scheme solves its initial value, so no start is configurable
        def never(*args, **kwargs):
            raise AssertionError("simulated a batch")

        path, out = tmp_path / "cfg.json", tmp_path / "never"
        path.write_text(json.dumps({"experiment": "lookback", "profile": "desk",
                                    "y0_init": 1.0, "iterations": 2}))
        monkeypatch.setattr(sde, "simulate_batch", never)
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "unknown config keys: y0_init" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_in_config_file_exits_two_before_training(self, tmp_path, capsys,
                                                              monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated a batch")

        path, out = tmp_path / "cfg.json", tmp_path / "never"
        path.write_text('{"experiment": "lookback", "profile": "desk", "iterations": true}')
        monkeypatch.setattr(sde, "simulate_batch", never)
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "'iterations' expects int, got True" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_negative_spot_exits_two(self, capsys):
        code = cli.main(["oracle", "--experiment", "lookback", "--set", "x0=-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "x0=-1.0" in err

    def test_oracle_too_few_reference_paths_exits_two(self, capsys):
        code = cli.main(["oracle", "--experiment", "amerasian",
                         "--set", "reference_paths=500"])
        assert code == 2
        assert "reference_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--experiment", "lookback", "--profile", "desk", "--set", "method=backward"],
        ["run", "--experiment", "lookback", "--profile", "desk", "--set", "method=forward"],
        ["oracle", "--experiment", "lookback"]])
    def test_multi_asset_lookback_exits_two_before_simulating(self, command, capsys,
                                                              monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated a batch")

        monkeypatch.setattr(sde, "simulate_batch", never)
        assert cli.main(command + ["--set", "d=2"]) == 2
        assert "single asset" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["-5", "0"])
    @pytest.mark.parametrize("command", [
        ["run", "--experiment", "amerasian", "--profile", "desk", "--set", "iterations=1",
         "--set", "runs=1", "--set", "reference_paths=1000"],
        ["oracle", "--experiment", "amerasian"]])
    def test_non_positive_amerasian_spot_exits_two_before_simulating(self, command, x0,
                                                                     capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated a batch")

        monkeypatch.setattr(sde, "simulate_batch", never)
        assert cli.main(command + ["--set", f"x0={x0}"]) == 2
        assert f"x0={float(x0)}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, '{"experiment": "lookback",'],
                             ids=["missing", "malformed"])
    def test_bad_config_file_exits_two_before_training(self, tmp_path, capsys,
                                                       monkeypatch, content):
        def never(*args, **kwargs):
            raise AssertionError("simulated a batch")

        path, out = tmp_path / "cfg.json", tmp_path / "never"
        if content is not None:
            path.write_text(content)
        monkeypatch.setattr(sde, "simulate_batch", never)
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["file", "file/sub"], ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_exits_two_before_training(
            self, tmp_path, capsys, below):
        (tmp_path / "file").write_text("taken")
        out = tmp_path / below
        with mock.patch.object(solver, "train") as train:
            code = cli.main(["run", "--experiment", "lookback", "--profile", "desk",
                             "--set", "iterations=3", "--out", str(out)])
        assert code == 2
        assert f"out={out}" in capsys.readouterr().err
        assert not train.called
        assert (tmp_path / "file").read_text() == "taken"

    @pytest.mark.parametrize("experiment, method", [
        ("lookback", "forward"), ("lookback", "backward"), ("amerasian", "reflected")])
    def test_one_path_exits_two_before_simulating(
            self, tmp_path, capsys, monkeypatch, experiment, method):
        # the batch variance of one path is zero, so no gradient would flow
        def never(*args, **kwargs):
            raise AssertionError("simulated a batch")

        out = tmp_path / "never"
        monkeypatch.setattr(sde, "simulate_batch", never)
        code = cli.main(["run", "--experiment", experiment, "--profile", "desk",
                         "--out", str(out), "--set", f"method={method}",
                         "--set", "batch=1", "--set", "iterations=2"])
        assert code == 2
        assert "batch=1 must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_two_path_forward_is_accepted(self):
        cfg = harness.load_config(overrides={"experiment": "lookback", "profile": "desk",
                                             "method": "forward", "batch": 2})
        assert cfg.spec.batch_size == 2

    # lookback payoffs near 1e200 spread too widely for their variance to be finite
    def test_numerical_abort_exit_three(self, capsys):
        code = cli.main(["run", "--experiment", "lookback",
                         "--profile", "desk",
                         "--set", "n_fine=20", "--set", "n_coarse=5",
                         "--set", "batch=8", "--set", "iterations=3",
                         "--set", "x0=1e200"])
        assert code == 3

    def test_numerical_abort_in_worker_processes_exits_three(self, capsys):
        code = cli.main(["run", "--experiment", "lookback",
                         "--profile", "desk",
                         "--set", "n_fine=20", "--set", "n_coarse=5",
                         "--set", "batch=8", "--set", "iterations=3",
                         "--set", "x0=1e200", "--set", "runs=2", "--set", "workers=2"])
        assert code == 3
        assert "non-finite loss" in capsys.readouterr().err

    def test_numerical_abort_in_worker_processes_leaves_curve(self, tmp_path, capsys):
        out = tmp_path / "aborted"
        code = cli.main(["run", "--experiment", "lookback", "--profile", "desk",
                         "--set", "iterations=5", "--set", "n_fine=40",
                         "--set", "x0=1e200", "--set", "runs=2",
                         "--set", "workers=2", "--set", f"out={out}"])
        assert code == 3
        assert "non-finite loss" in capsys.readouterr().err
        curves = sorted(p.name for p in out.glob("curve_run*.csv"))
        assert curves == ["curve_run0.csv"]
        assert (out / "curve_run0.csv").read_text() == \
            "iteration,loss,y0_estimate,elapsed_s\n"

    def test_zero_workers_exits_two(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = cli.main(["run", "--experiment", "quadratic", "--profile", "desk",
                         "--out", str(out), "--set", "workers=0"])
        assert code == 2
        assert "workers=0" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_command(self, capsys):
        code = cli.main(["oracle", "--experiment", "quadratic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "6.666" in out
        assert "continuous_reference" in out

    def test_oracle_takes_the_config_options_of_run(self, tmp_path, capsys):
        path = tmp_path / "desk.json"
        path.write_text('{"profile": "desk", "seed": 4}')
        common = ["oracle", "--experiment", "amerasian", "--set", "reference_paths=2000"]
        printed = []
        for extra in (["--profile", "desk", "--seed", "4"],
                      ["--set", "profile=desk", "--set", "seed=4"],
                      ["--config", str(path)],
                      ["--seed", "4"]):
            assert cli.main(common + extra) == 0
            printed.append(capsys.readouterr().out)
        desk, *same, paper = printed
        assert same == [desk, desk]
        assert paper != desk

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out
