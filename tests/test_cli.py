import dataclasses
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from saddlemap import cli
from saddlemap.driver import DriverConfig, run_search
from saddlemap.geometry import christoffel

from conftest import QuadraticSaddleChart, flat_problem


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": "sphere",
        "mode": "learned_chart",
        "output_dir": str(tmp_path / "out"),
        "driver": {
            "n_iterations_max": 2,
            "n_ode_steps": 60,
            "seed": 7,
            "sampler": {"n_samples": 300},
        },
    }
    for key, value in overrides.items():
        if key in ("n_iterations_max", "n_ode_steps", "ode_dt", "seed", "tol_force"):
            cfg["driver"][key] = value
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_outputs_and_exit_code(self, tmp_path):
        code = cli.main(["run", str(write_config(tmp_path))])
        # the search's budget of 2 x 60 steps (flow time 0.12) cannot reach
        # the saddle, and it is spent on one chart the trajectory never leaves
        assert code == 2
        out = tmp_path / "out"
        for name in ("trajectory.csv", "summary.json", "error.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "max_iterations"
        assert summary["iterations"] == 1
        rows = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 121

    def test_csv_consistency(self, tmp_path):
        cli.main(["run", str(write_config(tmp_path))])
        out = tmp_path / "out"
        rows = (out / "trajectory.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert header[:2] == ["iteration", "step"]
        assert "energy" in header and "force_norm" in header and "lambda_min" in header
        summary = json.loads((out / "summary.json").read_text())
        iters_in_csv = {int(r.split(",")[0]) for r in rows[1:]}
        assert len(iters_in_csv) == summary["iterations"]
        err_rows = (out / "error.csv").read_text().strip().split("\n")
        assert len(err_rows) == 1 + summary["iterations"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["run", str(cfg)])
        names = ("trajectory.csv", "summary.json", "error.csv")
        first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
        cli.main(["run", str(cfg)])
        for n in names:
            assert (tmp_path / "out" / n).read_bytes() == first[n]

    def test_invalid_dt_exits_1_without_outputs(self, tmp_path, capsys):
        code = cli.main(["run", str(write_config(tmp_path, ode_dt=-1.0))])
        assert code == 1
        assert not (tmp_path / "out").exists()
        assert "invalid config" in capsys.readouterr().err

    def test_unknown_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": "torus", "output_dir": str(tmp_path / "o")}))
        assert cli.main(["run", str(path)]) == 1

    def test_exact_chart_mode_only_for_sphere(self, tmp_path):
        code = cli.main(["run", str(write_config(tmp_path, problem="mb_surface", mode="exact_chart"))])
        assert code == 1

    @pytest.mark.parametrize("n_samples", [2, 3, 5, 9])
    def test_small_cloud_fails_with_outputs(self, tmp_path, n_samples):
        # too few points for a held-out R^2 or a diffusion map: no chart can
        # be built, and the search ends failed, not in a traceback or a warning
        raw = {"problem": "sphere", "output_dir": str(tmp_path / "out"),
               "driver": {"n_iterations_max": 1, "sampler": {"n_samples": n_samples}}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_raw(tmp_path, raw) == 1
        assert [str(w.message) for w in caught] == []
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdict"] == "failed"
        assert summary["iterations"] == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "error.csv").exists()

    def test_unwritable_output_dir_fails_before_the_search(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "out").write_text("a file, not a directory\n")
        called = []
        monkeypatch.setattr(cli, "run_search", lambda *args, **kwargs: called.append(args))
        monkeypatch.setitem(cli.PROBLEMS["sphere"], "oracle", lambda: called.append("oracle"))
        assert cli.main(["run", str(write_config(tmp_path))]) == 1
        assert called == []
        err = capsys.readouterr().err
        assert err.startswith("cannot write outputs: ") and err.count("\n") == 1

    def test_exact_chart_run(self, tmp_path):
        cfg = write_config(tmp_path, mode="exact_chart")
        assert cli.main(["run", str(cfg)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "exact_chart"

    @staticmethod
    def run_raw(tmp_path, raw):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw))
        return cli.main(["run", str(path)])

    def test_non_object_config_rejected(self, tmp_path, capsys):
        assert self.run_raw(tmp_path, []) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_non_object_driver_rejected(self, tmp_path, capsys):
        raw = {"problem": "sphere", "output_dir": str(tmp_path / "out"), "driver": 5}
        assert self.run_raw(tmp_path, raw) == 1
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_knob_rejected(self, tmp_path, capsys):
        # module constants or gone (the sampler's flow horizon and seed, the
        # tether noise); setting one must not pass silently
        removed = [
            {"rank_tol": 0.3},
            {"tol_index": 1e-8},
            {"sampler": {"seed": 987654}},
            {"sampler": {"sigma": 5.0}},
            {"sampler": {"dt": 0.7}},
            {"sampler": {"n_steps": 10}},
            {"sampler": {"tau": 1.0}},
        ]
        for driver in removed:
            raw = {"problem": "sphere", "output_dir": str(tmp_path / "out"), "driver": driver}
            assert self.run_raw(tmp_path, raw) == 1, driver
            assert "invalid config" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # a knob put beside "driver" instead of inside it must not load
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({
            "problem": "sphere", "output_dir": str(tmp_path / "out"),
            "driver": {"sampler": {"n_samples": 10}}, "n_ode_steps": 3,
        }))
        with pytest.raises(ValueError, match="n_ode_steps"):
            cli.load_run_config(path)

    # json.load accepts NaN and Infinity, which pass a plain <= 0 test; a
    # zero perturbation scale would sample every point at the base
    @pytest.mark.parametrize("driver", [
        {"n_ode_steps": 50.5},
        {"n_iterations_max": 1.5},
        {"sampler": {"n_samples": 300.5}},
        {"seed": -1},
        {"ode_dt": float("nan")},
        {"ode_dt": float("inf")},
        {"tol_force": float("nan")},
        {"tol_force": float("inf")},
        {"sampler": {"perturbation_scale": float("nan")}},
        {"sampler": {"perturbation_scale": float("inf")}},
        {"sampler": {"perturbation_scale": float("-inf")}},
        {"ode_dt": True},
        {"tol_force": True},
        {"sampler": {"perturbation_scale": True}},
        {"sampler": {"perturbation_scale": 0}},
    ], ids=["fractional_steps", "fractional_iterations", "fractional_samples", "negative_seed",
            "nan_dt", "inf_dt", "nan_tol_force", "inf_tol_force", "nan_perturbation_scale",
            "inf_perturbation_scale", "neg_inf_perturbation_scale", "bool_dt", "bool_tol_force",
            "bool_perturbation_scale", "zero_perturbation_scale"])
    def test_fractional_count_or_negative_seed_rejected(self, tmp_path, capsys, driver):
        raw = {"problem": "sphere", "output_dir": str(tmp_path / "out"), "driver": driver}
        assert self.run_raw(tmp_path, raw) == 1
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWriteOutputs:
    def test_record_degenerate_at_step_zero(self, tmp_path):
        # a rank-deficient psi fails the first step of the exact chart; its
        # one record keeps one placeholder row, with NaN force norm and lambda_min
        problem = dataclasses.replace(
            flat_problem(), exact_chart=QuadraticSaddleChart(psi=[[1.0, 0.0], [0.0, 0.0]])
        )
        cfg = DriverConfig(n_iterations_max=2, n_ode_steps=5)
        traj = run_search(problem, np.array([0.3, 0.2]), cfg, mode="exact_chart")
        assert [r.exit_reason for r in traj.records] == ["degenerate"]
        rec = traj.records[0]
        assert len(rec.step_force_norms) == len(rec.step_lambda_mins) == 1
        config = cli.RunConfig(problem="sphere", mode="exact_chart", driver=cfg,
                               output_dir=tmp_path / "out")
        report = SimpleNamespace(saddles=lambda: np.zeros((1, 2)))
        cli.write_outputs(config, problem, report, traj)
        rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[:2] for r in rows] == [["1", "0"]]
        assert all(r.split(",")[-2:] == ["nan", "nan"] for r in rows)


class TestValidateGeometry:
    # float.hex of the five errors at --n 100 --seed 0, frozen from the
    # kernels before their finite-difference loops became central_difference
    ERRORS_N100_SEED0 = {
        "metric_analytic": "0x1.28c55b25a71cep-52",
        "christoffel_analytic": "0x1.8032a2d0b242cp-52",
        "christoffel_fd": "0x1.e6d3897f1e34fp-34",
        "gradient_fd": "0x1.6fcaad40939bdp-34",
        "hessian_fd": "0x1.435d6cd266219p-32",
    }

    def test_errors_bitwise(self):
        errors = cli.validate_geometry(100, seed=0)["errors"]
        assert {k: float(v).hex() for k, v in errors.items()} == self.ERRORS_N100_SEED0

    def test_analytic_paths_pass(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = cli.main(["validate-geometry", "--n", "100", "--seed", "0",
                         "--output", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"]
        assert report["errors"]["metric_analytic"] < 1e-6
        assert report["errors"]["christoffel_analytic"] < 1e-6
        assert report["errors"]["christoffel_fd"] < 1e-4
        assert report["errors"]["hessian_fd"] < 1e-4

    def test_corrupted_christoffel_detected(self):
        # mutation fixture: drop the 1/2 factor of the connection formula
        def corrupted(g_inv, dg):
            return 2.0 * christoffel(g_inv, dg)

        result = cli.validate_geometry(25, seed=1, christoffel_fn=corrupted)
        assert not result["passed"]
        assert result["errors"]["christoffel_analytic"] > 1e-4

    def test_zero_points_vacuous_pass(self):
        assert cli.main(["validate-geometry", "--n", "0", "--seed", "0"]) == 0

    def test_unwritable_output_fails_before_validating(self, tmp_path, capsys, monkeypatch):
        called = []
        monkeypatch.setattr(cli, "validate_geometry", lambda *args: called.append(args))
        assert cli.main(["validate-geometry", "--n", "1", "--output", str(tmp_path)]) == 1
        assert called == []
        err = capsys.readouterr().err
        assert err.startswith("cannot write outputs: ") and err.count("\n") == 1

    def test_negative_points_rejected(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert cli.main(["validate-geometry", "--n", "-3", "--output", str(report_path)]) == 1
        assert "--n" in capsys.readouterr().err
        assert not report_path.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert cli.main(["validate-geometry", "--seed", "-1", "--output", str(report_path)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not report_path.exists()


class TestOracleCommand:
    def test_sphere_report(self, tmp_path):
        out = tmp_path / "sphere.json"
        assert cli.main(["oracle", "sphere", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["points"]) == 14

    def test_mb_report(self, tmp_path):
        out = tmp_path / "mb.json"
        assert cli.main(["oracle", "mb_surface", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["points"]) == 5
        assert report["indices"].count(1) == 2

    def test_unwritable_output_fails_before_the_oracle(self, tmp_path, capsys, monkeypatch):
        called = []
        monkeypatch.setitem(cli.PROBLEMS["sphere"], "oracle", lambda: called.append("oracle"))
        output = tmp_path / "missing" / "sphere.json"
        assert cli.main(["oracle", "sphere", "--output", str(output)]) == 1
        assert called == []
        err = capsys.readouterr().err
        assert err.startswith("cannot write outputs: ") and err.count("\n") == 1

    def test_unknown_problem(self, capsys):
        assert cli.main(["oracle", "klein_bottle"]) == 1
        assert "unknown problem" in capsys.readouterr().err
