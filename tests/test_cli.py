import os
import subprocess
import sys
from pathlib import Path

import pytest

from soilgp import cli, synthetic
from soilgp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from soilgp.gp import FitConfig
from soilgp.io import parse_observations
from soilgp.kernels import KernelMode
from soilgp.mapping import MAX_GRID_CELLS, GridSpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMass:
    def test_prints_one_decimal(self, capsys):
        code, out, _ = run(
            capsys, "mass", "--rho", "1.3e-3", "--depth", "200", "--diameter", "19"
        )
        assert code == EXIT_OK
        assert out.strip() == "73.7"

    def test_invalid_spec_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "mass", "--rho", "-1", "--depth", "200", "--diameter", "19"
        )
        assert code == EXIT_DATA
        assert "bulk density" in err

    @pytest.mark.parametrize("flag", ["--rho", "--diameter"])
    def test_infinite_dimension_named_with_its_value(self, capsys, flag):
        argv = {"--rho": "1.3e-3", "--depth": "200", "--diameter": "19", flag: "inf"}
        code, out, err = run(capsys, "mass", *(x for kv in argv.items() for x in kv))
        assert code == EXIT_DATA
        assert out == ""
        assert "must be positive and finite, got inf" in err

    @pytest.mark.parametrize("rho, diameter", [("1e-3", "1e200"), ("1e308", "100")])
    def test_mass_beyond_float_range_is_data_error(self, capsys, rho, diameter):
        code, out, err = run(
            capsys, "mass", "--rho", rho, "--depth", "200", "--diameter", diameter
        )
        assert code == EXIT_DATA
        assert out == ""
        assert "sample mass" in err and "not finite" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "fit", "--bogus")
        assert code == EXIT_USAGE

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "fit", "--obs", "x.csv")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("fit", "--obs", "o.csv", "--out", "m.txt"),
        ("eval-sequential", "--obs", "o.csv", "--truth", "t.csv", "--out", "c.csv"),
        ("correlations", "--obs", "o.csv", "--out", "c.csv"),
    ], ids=["fit", "eval-sequential", "correlations"])
    def test_noise_floor_is_not_a_setting(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--noise-floor", "1e-6")
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --noise-floor 1e-6" in err

    def test_correlations_needs_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run(capsys, "correlations", "--out", str(tmp_path / "c.csv"))
        assert code == EXIT_USAGE
        assert "exactly one" in err


class TestDataErrors:
    def test_fit_empty_csv(self, capsys, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("sample_id,x_m,y_m,task,value\n")
        code, _, err = run(
            capsys, "fit", "--obs", str(p), "--out", str(tmp_path / "m.txt")
        )
        assert code == EXIT_DATA
        assert "empty dataset" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fit", "--obs", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "m.txt"),
        )
        assert code == EXIT_DATA

    def test_digest_mismatch(self, capsys, tmp_path):
        obs, model = tmp_path / "obs.csv", tmp_path / "model.txt"
        code, _, _ = run(capsys, "synth", "--out", str(obs), "--seed", "1",
                         "--n-samples", "6")
        assert code == EXIT_OK
        code, _, _ = run(capsys, "fit", "--obs", str(obs), "--out", str(model),
                         "--restarts", "1", "--max-iters", "30")
        assert code == EXIT_OK
        other = tmp_path / "other.csv"
        run(capsys, "synth", "--out", str(other), "--seed", "2", "--n-samples", "6")
        q = tmp_path / "q.csv"
        q.write_text("task,x_m,y_m\npH,0,0\n")
        code, _, err = run(
            capsys, "predict", "--model", str(model), "--obs", str(other),
            "--queries", str(q), "--out", str(tmp_path / "p.csv"),
        )
        assert code == EXIT_DATA
        assert "digest mismatch" in err


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A small synthetic campaign and a model fitted to it."""
    d = tmp_path_factory.mktemp("fitted")
    obs, model = d / "obs.csv", d / "model.txt"
    assert main(["synth", "--out", str(obs), "--seed", "1", "--n-samples", "6"]) == EXIT_OK
    assert main(["fit", "--obs", str(obs), "--out", str(model), "--restarts", "1",
                 "--max-iters", "30"]) == EXIT_OK
    return obs, model


def with_field(model, tmp_path, key, edit):
    """A copy of a model file whose ``key`` entries pass through ``edit``."""
    lines = model.read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith(key + " "):
            lines[k] = f"{key} " + " ".join(edit(line.split()[1:]))
    out = tmp_path / "edited_model.txt"
    out.write_text("\n".join(lines) + "\n")
    return out


class TestWriteErrors:
    def test_missing_directory_names_the_file(self, capsys, tmp_path):
        # mkstemp's error named its random temp file, so stderr changed
        # from run to run
        out = tmp_path / "nodir" / "o.csv"
        errs = []
        for _ in range(2):
            code, _, err = run(capsys, "synth", "--out", str(out))
            assert code == EXIT_DATA
            errs.append(err)
        assert errs[0] == errs[1]
        assert f"cannot write {out} in {out.parent}" in errs[0]
        assert "o.csv." not in errs[0]
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteInputs:
    def test_map_bounds(self, capsys, tmp_path, fitted):
        obs, model = fitted
        code, _, err = run(
            capsys, "map", "--model", str(model), "--obs", str(obs),
            "--out-dir", str(tmp_path / "maps"), "--bounds", "0,0,inf,170",
        )
        assert code == EXIT_DATA
        assert "finite" in err

    def test_map_bounds_not_a_number(self, capsys, tmp_path, fitted):
        obs, model = fitted
        code, _, err = run(
            capsys, "map", "--model", str(model), "--obs", str(obs),
            "--out-dir", str(tmp_path / "maps"), "--bounds", "0,0,x,10",
        )
        assert code == EXIT_DATA
        assert "bounds must be a number, got 'x'" in err
        assert not (tmp_path / "maps").exists()

    def test_synth_truth_grid_width(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "o.csv"), "--width", "inf",
            "--truth-out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_DATA
        assert "finite" in err

    def test_plan_boundary_vertex(self, capsys, tmp_path):
        bound = tmp_path / "bound.csv"
        bound.write_text("ring,x_m,y_m\n0,0,0\n0,inf,0\n0,90,90\n0,0,90\n")
        code, _, err = run(capsys, "plan", "--boundary", str(bound),
                           "--spacing", "45", "--out", str(tmp_path / "plan.csv"))
        assert code == EXIT_DATA
        assert "non-finite vertex" in err

    def test_plan_spacing(self, capsys, tmp_path):
        bound = tmp_path / "bound.csv"
        bound.write_text("ring,x_m,y_m\n0,0,0\n0,90,0\n0,90,90\n0,0,90\n")
        code, out, err = run(capsys, "plan", "--boundary", str(bound),
                             "--spacing", "inf", "--out", str(tmp_path / "plan.csv"))
        assert code == EXIT_DATA
        assert "spacing" in err and not out

    def test_correlations_model_nan_theta(self, capsys, tmp_path, fitted):
        _, model = fitted
        bad = with_field(model, tmp_path, "theta", lambda v: ["nan"] + v[1:])
        code, _, err = run(capsys, "correlations", "--model", str(bad),
                           "--out", str(tmp_path / "corr.csv"))
        assert code == EXIT_DATA
        assert "finite" in err
        assert not (tmp_path / "corr.csv").exists()

    def test_correlations_model_extra_theta(self, capsys, tmp_path, fitted):
        obs, model = fitted
        bad = with_field(model, tmp_path, "theta", lambda v: v + ["0.5"])
        code, _, err = run(capsys, "correlations", "--model", str(bad),
                           "--out", str(tmp_path / "corr.csv"))
        assert code == EXIT_DATA
        assert "theta dimension mismatch" in err
        code, _, err = run(capsys, "map", "--model", str(bad), "--obs", str(obs),
                           "--out-dir", str(tmp_path / "maps"))
        assert code == EXIT_DATA
        assert "theta dimension mismatch" in err

    @pytest.mark.parametrize("flag, value",
                             [("--tol", "nan"), ("--tol", "inf"), ("--seed", "-1")])
    def test_fit_setting(self, capsys, tmp_path, fitted, flag, value):
        obs, _ = fitted
        out = tmp_path / "model.txt"
        code, _, err = run(capsys, "fit", "--obs", str(obs), "--out", str(out),
                           "--restarts", "1", "--max-iters", "5", flag, value)
        assert code == EXIT_DATA
        assert {"--tol": "tol must be positive and finite",
                "--seed": "seed must be a non-negative integer, got -1"}[flag] in err
        assert not out.exists()

    def test_correlations_model_theta_beyond_bound(self, capsys, tmp_path, fitted):
        # exp(-400) underflows the first task's factor diagonal to 0: the
        # correlations were 0/0, written as inf after RuntimeWarnings
        obs, model = fitted
        bad = with_field(model, tmp_path, "theta", lambda v: ["-400"] + v[1:])
        code, _, err = run(capsys, "correlations", "--model", str(bad),
                           "--out", str(tmp_path / "corr.csv"))
        assert code == EXIT_DATA
        assert "model file field theta: hyperparameter vector out of numeric range" in err
        assert "Warning" not in err
        assert not (tmp_path / "corr.csv").exists()
        code, _, err = run(capsys, "map", "--model", str(bad), "--obs", str(obs),
                           "--out-dir", str(tmp_path / "maps"))
        assert code == EXIT_DATA
        assert "model file field theta" in err

    def test_map_points_whose_distances_overflow(self, capsys, tmp_path, fitted):
        # 100 x 100 cells: every cell's distance to the samples squares to inf
        obs, model = fitted
        out_dir = tmp_path / "maps"
        code, _, err = run(
            capsys, "map", "--model", str(model), "--obs", str(obs), "--out-dir",
            str(out_dir), "--bounds", "0,0,1e308,1e308", "--resolution", "1e306",
        )
        assert code == EXIT_DATA
        assert "distances overflow" in err
        assert "Warning" not in err
        assert not (out_dir / "map.csv").exists()

    def test_fit_samples_whose_distances_overflow(self, capsys, tmp_path):
        # the squared offset between x = 0 and x = 1e200 is inf
        obs, out = tmp_path / "obs.csv", tmp_path / "model.txt"
        obs.write_text("sample_id,x_m,y_m,task,value\nS01,0,0,pH,0.5\n"
                       "S02,1e200,0,pH,-0.5\n")
        code, _, err = run(capsys, "fit", "--obs", str(obs), "--out", str(out),
                           "--restarts", "1", "--max-iters", "5")
        assert code == EXIT_DATA
        assert "distances overflow" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_synth_plan_whose_distances_overflow(self, capsys, tmp_path):
        plan, out = tmp_path / "plan.csv", tmp_path / "o.csv"
        plan.write_text("sample_id,x_m,y_m\nS01,0,0\nS02,1e200,0\n")
        code, _, err = run(capsys, "synth", "--out", str(out), "--plan", str(plan))
        assert code == EXIT_DATA
        assert "distances overflow" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_synth_extent_whose_distances_overflow(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "synth", "--out", str(out), "--n-samples", "5",
                           "--width", "1e308", "--height", "1e308")
        assert code == EXIT_DATA
        assert "width 1e+308 and height 1e+308" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--width", "nan"), ("--width", "inf"), ("--width", "-5"), ("--height", "0"),
    ])
    def test_synth_extent(self, capsys, tmp_path, flag, value):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "synth", "--out", str(out), flag, value)
        assert code == EXIT_DATA
        assert f"{flag[2:]} must be positive and finite" in err
        assert not out.exists()


FIELD = "ring,x_m,y_m\n0,0,0\n0,300,0\n0,300,170\n0,0,170\n"


class TestModelFileFields:
    """A model file's bad field exits 2 with a message naming the field:
    at read time when its text does not parse, at rebuild time when a
    stored value disagrees with the observations."""

    @pytest.mark.parametrize("key, edit", [
        ("n_tasks", lambda v: ["four"]),
        ("theta", lambda v: v[:-1] + ["abc"]),
        ("norm_means", lambda v: ["x"] + v[1:]),
        ("norm_stds", lambda v: v[:-1] + ["1,5"]),
        ("noise_floor", lambda v: ["tiny"]),
        ("lml", lambda v: ["high"]),
    ])
    def test_unparsable_field_is_named(self, capsys, tmp_path, fitted, key, edit):
        _, model = fitted
        bad = with_field(model, tmp_path, key, edit)
        code, _, err = run(capsys, "correlations", "--model", str(bad),
                           "--out", str(tmp_path / "corr.csv"))
        assert code == EXIT_DATA
        assert f"model file field {key}:" in err
        assert not (tmp_path / "corr.csv").exists()

    @pytest.mark.parametrize("key, edit", [
        ("norm_means", lambda v: [repr(float(v[0]) + 1e-9)] + v[1:]),
        ("norm_stds", lambda v: ["nan"] * len(v)),
        ("lml", lambda v: ["nan"]),
        ("lml", lambda v: [repr(float(v[0]) * (1 + 1e-6))]),
    ], ids=["norm_means", "norm_stds_nan", "lml_nan", "lml_off"])
    def test_stored_value_checked_against_data(self, capsys, tmp_path, fitted, key, edit):
        obs, model = fitted
        bad = with_field(model, tmp_path, key, edit)
        code, _, err = run(capsys, "map", "--model", str(bad), "--obs", str(obs),
                           "--out-dir", str(tmp_path / "maps"))
        assert code == EXIT_DATA
        assert f"model file field {key}:" in err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", ["map", "predict"])
    def test_noise_floor_fit_cannot_write(self, capsys, tmp_path, fitted, command, value):
        obs, model = fitted
        bad = with_field(model, tmp_path, "noise_floor", lambda v: [value])
        queries = tmp_path / "q.csv"
        queries.write_text("task,x_m,y_m\npH,1.0,2.0\n")
        out = {"map": ["--out-dir", str(tmp_path / "maps")],
               "predict": ["--queries", str(queries), "--out", str(tmp_path / "p.csv")]}
        code, _, err = run(capsys, command, "--model", str(bad), "--obs", str(obs),
                           *out[command])
        assert code == EXIT_DATA
        assert "model file field noise_floor: must be 1e-08, got" in err
        assert not (tmp_path / "maps").exists() and not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["map", "predict"])
    def test_noise_floor_is_the_constant(self, capsys, tmp_path, fitted, command):
        # every model has the floor 1e-08; a file with another one is not rebuilt
        obs, model = fitted
        bad = with_field(model, tmp_path, "noise_floor", lambda v: ["1e-06"])
        queries = tmp_path / "q.csv"
        queries.write_text("task,x_m,y_m\npH,1.0,2.0\n")
        out = {"map": ["--out-dir", str(tmp_path / "maps")],
               "predict": ["--queries", str(queries), "--out", str(tmp_path / "p.csv")]}
        code, _, err = run(capsys, command, "--model", str(bad), "--obs", str(obs),
                           *out[command])
        assert code == EXIT_DATA
        assert "model file field noise_floor: must be 1e-08, got 1e-06" in err
        assert not (tmp_path / "maps").exists() and not (tmp_path / "p.csv").exists()

    def test_lml_within_rounding_accepted(self, capsys, tmp_path, fitted):
        obs, model = fitted
        ok = with_field(model, tmp_path, "lml", lambda v: [repr(float(v[0]) * (1 + 1e-12))])
        code, _, _ = run(capsys, "map", "--model", str(ok), "--obs", str(obs),
                         "--out-dir", str(tmp_path / "maps"), "--resolution", "50")
        assert code == EXIT_OK


class TestOversizedCounts:
    """Counts that overflow a float, or lattices too large to walk, exit 2."""

    def test_map_resolution(self, capsys, tmp_path, fitted):
        obs, model = fitted
        code, _, err = run(
            capsys, "map", "--model", str(model), "--obs", str(obs),
            "--out-dir", str(tmp_path / "maps"), "--resolution", "1e-310",
        )
        assert code == EXIT_DATA
        assert "not finite" in err
        assert not (tmp_path / "maps").exists()

    def test_synth_truth_resolution(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "o.csv"),
            "--truth-out", str(tmp_path / "t.csv"), "--truth-resolution", "1e-310",
        )
        assert code == EXIT_DATA
        assert "not finite" in err

    def test_map_grid_over_cap(self, capsys, tmp_path, fitted, monkeypatch):
        def allocated(grid):
            raise AssertionError("cell centers built for a refused grid")

        monkeypatch.setattr(GridSpec, "cell_centers", property(allocated))
        obs, model = fitted
        code, _, err = run(
            capsys, "map", "--model", str(model), "--obs", str(obs),
            "--out-dir", str(tmp_path / "maps"), "--resolution", "0.001",
        )
        assert code == EXIT_DATA
        assert f"exceeds {MAX_GRID_CELLS} cells" in err
        assert not (tmp_path / "maps").exists()

    def test_synth_joint_draw_over_cap(self, capsys, tmp_path, monkeypatch):
        def assembled(*args):
            raise AssertionError("covariance assembled for a refused draw")

        monkeypatch.setattr(synthetic, "_joint_chol", assembled)
        code, out, err = run(
            capsys, "synth", "--out", str(tmp_path / "o.csv"),
            "--truth-out", str(tmp_path / "t.csv"), "--truth-resolution", "1",
        )
        assert code == EXIT_DATA
        assert "(30 samples + 51000 truth points) x 4 tasks = 204120 exceeds" in err
        assert not out and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("spacing, reason", [
        ("1e-310", "not finite"), ("0.01", "30001 x 17001 lattice exceeds"),
    ], ids=["overflow", "over-cap"])
    def test_plan_spacing(self, capsys, tmp_path, spacing, reason):
        bound = tmp_path / "bound.csv"
        bound.write_text(FIELD)
        code, out, err = run(capsys, "plan", "--boundary", str(bound),
                             "--spacing", spacing, "--out", str(tmp_path / "plan.csv"))
        assert code == EXIT_DATA
        assert reason in err and not out

    def test_plan_boundary_extent(self, capsys, tmp_path):
        bound = tmp_path / "bound.csv"
        bound.write_text("ring,x_m,y_m\n0,-1e308,0\n0,1.7e308,0\n0,1.7e308,1\n"
                         "0,-1e308,1\n")
        code, _, err = run(capsys, "plan", "--boundary", str(bound),
                           "--spacing", "1e300", "--out", str(tmp_path / "plan.csv"))
        assert code == EXIT_DATA
        assert "non-finite coordinate extent" in err


class TestModeFlag:
    """Both --mode flags parse through KernelMode.parse, like the config file."""

    def test_fit_mode_any_case(self, capsys, tmp_path, fitted):
        obs, _ = fitted
        models = []
        for spelling in ("icm", "ICM"):
            out = tmp_path / f"{spelling}.txt"
            code, _, _ = run(capsys, "fit", "--obs", str(obs), "--out", str(out),
                             "--mode", spelling, "--restarts", "1", "--max-iters", "30")
            assert code == EXIT_OK
            models.append(out.read_bytes())
        assert b"\nmode icm\n" in models[0]
        assert models[0] == models[1]

    def test_synth_mode_any_case(self, capsys, tmp_path):
        draws = []
        for spelling in ("icm", " Icm "):
            out = tmp_path / f"{spelling.strip()}.csv"
            code, _, _ = run(capsys, "synth", "--out", str(out), "--mode", spelling,
                             "--lengthscales", "40", "--seed", "2")
            assert code == EXIT_OK
            draws.append(out.read_bytes())
        assert draws[0] == draws[1]

    @pytest.mark.parametrize("command", ["fit", "synth"])
    def test_unknown_mode_is_usage_error(self, capsys, tmp_path, command):
        argv = [command, "--out", str(tmp_path / "o"), "--mode", "bogus"]
        if command == "fit":
            argv += ["--obs", str(tmp_path / "obs.csv")]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "--mode" in err and "'bogus'" in err


class TestSynth:
    def test_default_draw(self, capsys, tmp_path):
        out = tmp_path / "obs.csv"
        code, msg, _ = run(capsys, "synth", "--out", str(out), "--seed", "3")
        assert code == EXIT_OK
        ds = parse_observations(out)
        assert ds.n_tasks == 4 and len(ds) == 120
        assert ds.labels == ("pH", "N", "P", "K")

    def test_truth_grid_written(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", "--out", str(tmp_path / "obs.csv"),
            "--truth-out", str(tmp_path / "truth.csv"),
            "--truth-resolution", "50", "--seed", "4",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        assert lines[0] == "task,x_m,y_m,value"
        assert len(lines) == 1 + 4 * 6 * 3  # 6x3 cells at 50 m on 300x170

    def test_from_plan(self, capsys, tmp_path):
        bound = tmp_path / "bound.csv"
        bound.write_text("ring,x_m,y_m\n0,0,0\n0,90,0\n0,90,90\n0,0,90\n")
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "plan", "--boundary", str(bound),
                         "--spacing", "45", "--out", str(plan))
        assert code == EXIT_OK
        obs = tmp_path / "obs.csv"
        code, _, _ = run(capsys, "synth", "--out", str(obs), "--plan", str(plan),
                         "--seed", "5")
        assert code == EXIT_OK
        ds = parse_observations(obs)
        assert ds.n_samples == 9

    @pytest.mark.parametrize("argv, lengthscales", [
        ((), "40,40,60,80"),
        (("--mode", "icm"), "40"),
        (("--labels", "pH,N"), "40,40"),
        (("--labels", "pH,N,P,K,Ca", "--mode", "icm"), "40"),
    ], ids=["four_tasks", "icm", "two_tasks", "five_tasks_icm"])
    def test_default_lengthscales_are_the_front_of_the_list(
            self, capsys, tmp_path, argv, lengthscales):
        # four_tasks: the default draw keeps its bytes
        draws = []
        for extra in ((), ("--lengthscales", lengthscales)):
            out = tmp_path / f"obs{len(draws)}.csv"
            code, _, err = run(capsys, "synth", "--out", str(out), "--seed", "3",
                               *argv, *extra)
            assert code == EXIT_OK, err
            draws.append(out.read_bytes())
        assert draws[0] == draws[1]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_refused(self, capsys, tmp_path, count):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "synth", "--out", str(out), "--n-samples", count)
        assert code == EXIT_DATA
        assert f"n_samples must be at least 1, got {count}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("--labels", ",N"), "invalid task label ''"),
        (("--labels", "p H,N"), "invalid task label 'p H'"),
        (("--labels", ",".join(f"T{i}" for i in range(17)), "--mode", "icm"),
         "more than 16 task labels"),
    ], ids=["empty", "space", "seventeen_icm"])
    def test_labels_fit_would_refuse(self, capsys, tmp_path, argv, message):
        # fit reads the observation file with this rule and exits 2 on it
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "synth", "--out", str(out), *argv)
        assert code == EXIT_DATA
        assert message in err
        assert not out.exists()

    def test_five_tasks_need_lengthscales(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "o.csv"),
                           "--labels", "pH,N,P,K,Ca")
        assert code == EXIT_DATA
        assert "--lengthscales" in err

    @pytest.mark.parametrize("argv, message", [
        (("--mode", "icm", "--lengthscales", "40,50"), "lengthscales needs 1 value"),
        (("--labels", "pH", "--variances", "1,2"), "variances needs 1 value"),
        (("--lengthscales", "40,50"), "lengthscales needs 1 or 4 comma-separated values"),
    ], ids=["icm_lengthscales", "one_task_variances", "four_task_lengthscales"])
    def test_value_count_error_names_the_count(self, capsys, tmp_path, argv, message):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "synth", "--out", str(out), *argv)
        assert code == EXIT_DATA
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("--corr", "pH,pH=0.5"), "correlations: (0, 0) must be two of 4 tasks, once"),
        (("--corr", "pH,N=0.5", "--corr", "N,pH=-0.5"),
         "correlations: (0, 1) must be two of 4 tasks, once"),
        (("--corr", "pH,N=1.5"), "correlations: (0, 1) has r = 1.5, not in [-1, 1]"),
        (("--corr", "pH,N=nan"), "correlations: (0, 1) has r = nan"),
        (("--corr", "pH,N=0.9", "--corr", "N,P=0.9", "--corr", "pH,P=-0.9"),
         "are not jointly valid"),
        (("--variances", "-1"), "variances must be positive and finite, got -1.0"),
        (("--noise", "nan"), "noise must be positive and finite, got nan"),
        (("--noise", "abc"), "noise must be a number, got 'abc'"),
        (("--variances", "1,x,1,1"), "variances must be a number, got 'x'"),
        (("--corr", "pH,N=abc"), "corr must be a number, got 'abc'"),
        (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ], ids=["self", "twice", "above_one", "nan_r", "not_jointly", "variance", "noise",
            "noise_not_number", "variance_not_number", "corr_not_number", "seed"])
    def test_generator_setting_refused(self, capsys, tmp_path, argv, message):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "synth", "--out", str(out), *argv)
        assert code == EXIT_DATA
        assert message in err
        assert "Warning" not in err
        assert not out.exists()

    def test_bad_corr_spec(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "o.csv"),
            "--corr", "pH+N:0.5",
        )
        assert code == EXIT_DATA


class TestNumericFailureExit:
    def test_maps_to_exit_3(self, capsys, monkeypatch, tmp_path):
        import soilgp.cli as cli
        from soilgp.gp import NumericFailure

        def explode(args):
            raise NumericFailure("search failed")

        monkeypatch.setitem(cli._COMMANDS, "mass", explode)
        code, _, err = run(
            capsys, "mass", "--rho", "1e-3", "--depth", "100", "--diameter", "10"
        )
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err


class TestPipelineByteStability:
    def test_fit_and_map_reproducible(self, capsys, tmp_path):
        outputs = []
        for run_dir in ["a", "b"]:
            d = tmp_path / run_dir
            d.mkdir()
            obs = d / "obs.csv"
            run(capsys, "synth", "--out", str(obs), "--seed", "11",
                "--n-samples", "8", "--width", "100", "--height", "80")
            model = d / "model.txt"
            run(capsys, "fit", "--obs", str(obs), "--out", str(model),
                "--restarts", "2", "--max-iters", "50", "--seed", "0")
            run(capsys, "map", "--model", str(model), "--obs", str(obs),
                "--out-dir", str(d / "maps"), "--bounds", "0,0,100,80",
                "--resolution", "20")
            blob = obs.read_bytes() + model.read_bytes()
            for f in sorted((d / "maps").iterdir()):
                blob += f.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1]

    def test_fit_and_map_bytes_independent_of_blas_threads(self, capsys, tmp_path):
        """At paper size (30 samples x 4 tasks, M = 120) fit and map write
        the same bytes at one and at two BLAS threads, each thread count
        set in its own process's environment."""
        obs = tmp_path / "obs.csv"
        assert main(["synth", "--out", str(obs), "--seed", "3"]) == EXIT_OK
        src = str(Path(cli.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            d = tmp_path / f"threads{threads}"
            d.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            for argv in (
                ["fit", "--obs", str(obs), "--out", str(d / "model.txt"),
                 "--restarts", "2"],
                ["map", "--model", str(d / "model.txt"), "--obs", str(obs),
                 "--out-dir", str(d / "maps"), "--resolution", "10"],
            ):
                subprocess.run([sys.executable, "-m", "soilgp.cli", *argv], env=env,
                               check=True, capture_output=True, timeout=600)
            files = [d / "model.txt", *sorted((d / "maps").iterdir())]
            outputs.append({f.name: f.read_bytes() for f in files})
        assert outputs[0] == outputs[1]


@pytest.fixture
def fit_configs(monkeypatch):
    """The FitConfig of every fit the CLI runs, in order."""
    seen = []

    def recording_fit(dataset, config):
        seen.append(config)
        return real_fit(dataset, config)

    real_fit = cli.fit
    monkeypatch.setattr(cli, "fit", recording_fit)
    return seen


class TestConfigFile:
    """--config settings reach the commands, and flags override them."""

    def fit(self, capsys, tmp_path, obs, *argv, name="model.txt"):
        model = tmp_path / name
        code, _, _ = run(capsys, "fit", "--obs", str(obs), "--out", str(model), *argv)
        assert code == EXIT_OK
        return model.read_bytes()

    def test_file_reaches_fit(self, capsys, tmp_path, fitted, fit_configs):
        obs, _ = fitted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = icm\nrestarts = 1  # one start\nmax_iters = 30\n")
        model = self.fit(capsys, tmp_path, obs, "--config", str(cfg))
        assert b"\nmode icm\n" in model
        assert fit_configs == [FitConfig(restarts=1, max_iters=30, mode=KernelMode.ICM)]
        flags = self.fit(capsys, tmp_path, obs, "--mode", "icm", "--restarts", "1",
                         "--max-iters", "30", name="flags.txt")
        assert model == flags

    def test_defaults_are_fit_configs(self, capsys, tmp_path, fitted, fit_configs):
        obs, _ = fitted
        self.fit(capsys, tmp_path, obs)
        assert fit_configs == [FitConfig()]

    def test_flag_overrides_file_even_when_zero(self, capsys, tmp_path, fitted):
        obs, _ = fitted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nrestarts = 1\nmax_iters = 30\n")
        from_file = self.fit(capsys, tmp_path, obs, "--config", str(cfg), name="f.txt")
        overridden = self.fit(capsys, tmp_path, obs, "--config", str(cfg),
                              "--seed", "0", name="o.txt")
        flags_only = self.fit(capsys, tmp_path, obs, "--restarts", "1",
                              "--max-iters", "30", "--seed", "0", name="z.txt")
        assert overridden == flags_only
        assert from_file != flags_only  # the seed matters, so the test can fail

    def test_setting_checked_from_file(self, capsys, tmp_path, fitted):
        obs, _ = fitted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        code, _, err = run(capsys, "fit", "--obs", str(obs), "--out",
                           str(tmp_path / "m.txt"), "--config", str(cfg))
        assert code == EXIT_DATA
        assert "seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "m.txt").exists()

    def test_noise_floor_key_refused(self, capsys, tmp_path, fitted):
        obs, _ = fitted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise_floor = 1e-6\n")
        code, _, err = run(capsys, "fit", "--obs", str(obs), "--out",
                           str(tmp_path / "m.txt"), "--config", str(cfg))
        assert code == EXIT_DATA
        assert "line 1: unknown key 'noise_floor'" in err
        assert not (tmp_path / "m.txt").exists()

    def test_file_reaches_map(self, capsys, tmp_path, fitted):
        obs, model = fitted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("resolution = 20\n")
        code, _, _ = run(capsys, "map", "--model", str(model), "--obs", str(obs),
                         "--out-dir", str(tmp_path / "maps"), "--bounds", "0,0,100,80",
                         "--config", str(cfg))
        assert code == EXIT_OK
        asc = (tmp_path / "maps" / "map_pH_mean.asc").read_text().splitlines()
        assert asc[:2] == ["ncols 5", "nrows 4"]


# Run in a fresh interpreter: what a command loads, step by step.
_IMPORT_PROBE = """
import sys, tempfile
import soilgp, soilgp.cli
from soilgp import gp, io, synthetic
from soilgp.mapping import GridSpec, predict_map

def loaded():
    print(sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules))

loaded()
field = synthetic.SyntheticField(n_samples=6, width=40.0, height=30.0)
dataset, _ = synthetic.draw_field(field, 1)
model = gp.condition(dataset, synthetic.prior_theta(field))
grid = GridSpec(dataset.field_bounds, 10.0)
mean, variance = predict_map(model, grid)
with tempfile.TemporaryDirectory() as d:
    io.write_maps(d, "m", dataset.labels, grid, mean, variance)
loaded()
gp.fit(dataset, gp.FitConfig(restarts=1, max_iters=5))
loaded()
"""


def test_only_fitting_loads_the_optimizer():
    """Importing the package and the CLI, conditioning, mapping and writing
    the maps load neither scipy.optimize nor scipy.spatial (about 21 MB
    resident together); the first fit loads scipy.optimize."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    after_import, after_map, after_fit = done.stdout.splitlines()
    assert after_import == after_map == "[]"
    assert "'scipy.optimize'" in after_fit
