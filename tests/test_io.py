import dataclasses
import hashlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilgp import io
from soilgp.data import Rect
from soilgp.gp import FitConfig, fit
from soilgp.io import (
    RunConfig,
    dataset_digest,
    model_from_record,
    parse_boundary,
    parse_observations,
    parse_plan,
    parse_queries,
    parse_run_config,
    parse_truth,
    read_model,
    write_asc,
    write_map_csv,
    write_maps,
    write_model,
    write_observations,
    write_plan,
    write_predictions,
    write_rmse_curves,
    write_trajectory,
    write_truth,
)
from soilgp.kernels import KernelMode
from soilgp.mapping import CorrelationTrajectory, GridSpec, GroundTruth, RmseCurves
from soilgp.mission import FieldBoundary, grid_plan
from soilgp.synthetic import SyntheticField, draw_field

OBS_TEXT = """sample_id,x_m,y_m,task,value
S01,0.0,0.0,pH,6.5
S01,0.0,0.0,N,21.0
S02,45.5,10.25,pH,5.9
S02,45.5,10.25,N,34.5
"""


@pytest.fixture
def obs_file(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text(OBS_TEXT)
    return p


class TestParseObservations:
    def test_labels_by_first_appearance(self, obs_file):
        ds = parse_observations(obs_file)
        assert ds.labels == ("pH", "N")
        assert len(ds) == 4
        assert ds.observations[3].value == 34.5

    def test_synthetic_round_trip(self, tmp_path):
        cfg = SyntheticField(n_samples=12, width=100.0, height=80.0)
        ds, _ = draw_field(cfg, 5)
        path = tmp_path / "round.csv"
        write_observations(path, ds)
        back = parse_observations(path)
        assert back.labels == ds.labels
        assert back.observations == ds.observations
        assert dataset_digest(back) == dataset_digest(ds)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,x,y,task,value\nS01,0,0,N,5\n")
        with pytest.raises(ValueError, match="row 1.*header"):
            parse_observations(p)

    def test_bad_field_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("sample_id,x_m,y_m,task,value\nS01,abc,0,N,5\n")
        with pytest.raises(ValueError, match=r"row 2.*x_m"):
            parse_observations(p)

    def test_empty_file_and_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            parse_observations(p)
        p.write_text("sample_id,x_m,y_m,task,value\n")
        with pytest.raises(ValueError, match="empty dataset"):
            parse_observations(p)

    def test_noncontiguous_sample_rejected(self, tmp_path):
        p = tmp_path / "split.csv"
        p.write_text(
            "sample_id,x_m,y_m,task,value\n"
            "S01,0,0,pH,6\nS02,1,1,pH,7\nS01,0,0,N,21\n"
        )
        with pytest.raises(ValueError, match="row 4.*contiguous"):
            parse_observations(p)

    def test_too_many_labels(self, tmp_path):
        rows = ["sample_id,x_m,y_m,task,value"]
        rows += [f"S01,0,0,t{i},1.0" for i in range(17)]
        p = tmp_path / "many.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="more than 16"):
            parse_observations(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("sample_id,x_m,y_m,task,value\nS01,0,0,bad label,5\n")
        with pytest.raises(ValueError, match="row 2.*label"):
            parse_observations(p)


class TestRunConfig:
    def test_defaults(self):
        fc = RunConfig().fit
        assert fc.restarts == 8 and fc.max_iters == 200 and fc.tol == 1e-6
        assert fc.mode is KernelMode.CONVOLVED
        assert fc == FitConfig() and RunConfig.from_settings({}) == RunConfig()

    def test_parse_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# fit settings\nmode = icm\nrestarts = 3\nseed=42\n"
            "tol = 1e-8  # tight\nresolution = 2.5\ndenormalize = true\n"
        )
        cfg = RunConfig.from_settings(parse_run_config(p))
        assert cfg.fit.mode is KernelMode.ICM
        assert cfg.fit.restarts == 3 and cfg.fit.seed == 42
        assert cfg.fit.tol == 1e-8 and cfg.resolution == 2.5
        assert cfg.denormalize is True

    def test_every_fit_setting_is_a_key(self):
        fit_keys = [f.name for f in dataclasses.fields(FitConfig)]
        assert list(io.SETTING_PARSERS) == fit_keys + ["resolution", "denormalize"]

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme.split("with keys", 1)[1].split(";", 1)[0]
        assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(io.SETTING_PARSERS)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("restartz = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_run_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("restarts = many\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_run_config(p)


class TestModelFile:
    def fitted(self, seed=2):
        cfg = SyntheticField(n_samples=8, width=100.0, height=80.0)
        ds, _ = draw_field(cfg, seed)
        model = fit(ds, FitConfig(restarts=1, seed=0, max_iters=40))
        return ds, model

    def test_round_trip(self, tmp_path):
        ds, model = self.fitted()
        path = tmp_path / "model.txt"
        write_model(path, model, dataset_digest(ds))
        record = read_model(path)
        assert record.theta.mode is model.mode
        assert record.labels == ds.labels
        np.testing.assert_array_equal(record.theta.values, model.theta.values)
        np.testing.assert_array_equal(record.norm_means, model.stats.means)
        assert record.lml == model.lml

        rebuilt = model_from_record(record, ds)
        np.testing.assert_array_equal(rebuilt.alpha, model.alpha)
        assert rebuilt.lml == model.lml

    def test_digest_mismatch_refused(self, tmp_path):
        ds, model = self.fitted()
        other_ds, _ = draw_field(
            SyntheticField(n_samples=8, width=100.0, height=80.0), 99
        )
        path = tmp_path / "model.txt"
        write_model(path, model, dataset_digest(ds))
        record = read_model(path)
        with pytest.raises(ValueError, match="digest mismatch"):
            model_from_record(record, other_ds)

    @pytest.mark.parametrize("key, edit, message", [
        ("theta", lambda raw: raw + " 0.5", "theta dimension mismatch"),
        ("mode", lambda raw: "icm", "theta dimension mismatch"),
        ("n_tasks", lambda raw: "3", "theta dimension mismatch"),
        ("theta", lambda raw: "nan " + raw.split(" ", 1)[1], "must be finite"),
        ("theta", lambda raw: "-400 " + raw.split(" ", 1)[1],
         "model file field theta: hyperparameter vector out of numeric range"),
        ("theta", lambda raw: raw.rsplit(" ", 1)[0] + " 250.5", "beyond ±250"),
    ], ids=["extra_entry", "other_mode", "other_n_tasks", "nan_entry", "below_bound",
            "above_bound"])
    def test_theta_checked_at_read(self, tmp_path, key, edit, message):
        ds, model = self.fitted()
        path = tmp_path / "model.txt"
        write_model(path, model, dataset_digest(ds))
        lines = [
            f"{key} {edit(ln.split(' ', 1)[1])}" if ln.startswith(key + " ") else ln
            for ln in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_model(path)

    @pytest.mark.parametrize("labels, message", [
        ("pH,pH,P,K", "task labels must be unique"),
        ("p H,N,P,K", "invalid task label 'p H'"),
    ], ids=["repeated", "space"])
    def test_labels_follow_the_label_rule(self, tmp_path, labels, message):
        ds, model = self.fitted()
        path = tmp_path / "model.txt"
        write_model(path, model, dataset_digest(ds))
        text = path.read_text()
        assert "\nlabels pH,N,P,K\n" in text
        path.write_text(text.replace("\nlabels pH,N,P,K\n", f"\nlabels {labels}\n"))
        with pytest.raises(ValueError, match=f"^model file field labels: {message}$"):
            read_model(path)

    def test_theta_on_the_bound_read(self, tmp_path):
        ds, model = self.fitted()
        path = tmp_path / "model.txt"
        write_model(path, model, dataset_digest(ds))
        theta = model.theta.values.tolist()
        line = "theta " + " ".join(map(repr, theta))
        theta[:2] = [-250.0, 250.0]
        path.write_text(path.read_text().replace(line, "theta " + " ".join(map(repr, theta))))
        assert read_model(path).theta.values[:2].tolist() == [-250.0, 250.0]

    def test_wrong_format_tag(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("something else\n")
        with pytest.raises(ValueError, match="not a model file"):
            read_model(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("soilgp-model v1\nmode icm\n")
        with pytest.raises(ValueError, match="missing field"):
            read_model(p)


class TestAsciiGrid:
    def test_header_and_north_first_rows(self, tmp_path):
        grid = GridSpec(Rect(10.0, 20.0, 40.0, 40.0), 10.0)  # 3 x 2 cells
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # row-major from south
        p = tmp_path / "t.asc"
        write_asc(p, grid, values)
        lines = p.read_text().splitlines()
        assert lines[:6] == [
            "ncols 3",
            "nrows 2",
            "xllcorner 10.0",
            "yllcorner 20.0",
            "cellsize 10.0",
            "NODATA_value -9999.0",
        ]
        assert lines[6] == "4.0 5.0 6.0"  # northernmost row first
        assert lines[7] == "1.0 2.0 3.0"

    def test_value_count_checked(self, tmp_path):
        grid = GridSpec(Rect(0, 0, 30, 20), 10.0)
        with pytest.raises(ValueError, match="does not match"):
            write_asc(tmp_path / "t.asc", grid, np.zeros(5))
        with pytest.raises(ValueError, match="does not match"):
            write_asc(tmp_path / "t.asc", grid, [0.0] * 5)

    def test_list_writes_the_array_bytes(self, tmp_path):
        grid = GridSpec(Rect(0, 0, 30, 20), 10.0)
        values = [0.5, -1.25, 3.0, 1e-300, 7.0, 2.0]
        write_asc(tmp_path / "list.asc", grid, values)
        write_asc(tmp_path / "array.asc", grid, np.array(values))
        assert (tmp_path / "list.asc").read_bytes() == (tmp_path / "array.asc").read_bytes()


class TestMapCsv:
    def test_row_count_is_tasks_times_cells(self, tmp_path):
        from soilgp.gp import condition, theta_from_moments
        from soilgp.io import write_map_csv
        from soilgp.mapping import predict_map

        cfg = SyntheticField(n_samples=6, width=60.0, height=40.0)
        ds, _ = draw_field(cfg, 9)
        theta = theta_from_moments(
            [1.0] * 4, np.eye(4), [20.0] * 4, [0.05] * 4, KernelMode.CONVOLVED
        )
        grid = GridSpec(Rect(0, 0, 60, 40), 10.0)
        mean, variance = predict_map(condition(ds, theta), grid)
        p = tmp_path / "map.csv"
        write_map_csv(p, ds.labels, grid, mean, variance)
        lines = p.read_text().splitlines()
        assert lines[0] == "task,x_m,y_m,mean,variance"
        assert len(lines) == 1 + 4 * grid.n_cells


class TestPlanBoundaryFiles:
    def test_plan_round_trip(self, tmp_path):
        square = FieldBoundary(((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)))
        plan = grid_plan(square, 45.0)
        p = tmp_path / "plan.csv"
        write_plan(p, plan)
        points = parse_plan(p)
        assert [(q.x, q.y) for q in points] == [(q.x, q.y) for q in plan]

    def test_boundary_with_exclusions(self, tmp_path):
        p = tmp_path / "bound.csv"
        p.write_text(
            "ring,x_m,y_m\n0,0,0\n0,100,0\n0,100,100\n0,0,100\n"
            "1,40,40\n1,60,40\n1,60,60\n1,40,60\n"
        )
        b = parse_boundary(p)
        assert len(b.exclusions) == 1
        assert not b.contains(50.0, 50.0)
        assert b.contains(10.0, 10.0)

    def test_boundary_requires_ring_zero(self, tmp_path):
        p = tmp_path / "bound.csv"
        p.write_text("ring,x_m,y_m\n1,0,0\n1,1,0\n1,0,1\n")
        with pytest.raises(ValueError, match="ring 0"):
            parse_boundary(p)


class TestEvaluationOutputs:
    def test_rmse_curves_rows_by_method_task_then_k(self, tmp_path):
        curves = [RmseCurves("mtgp", (1, 2), np.array([[0.5, 0.25], [0.1, 1 / 3]])),
                  RmseCurves("stgp", (1, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))]
        p = tmp_path / "curves.csv"
        write_rmse_curves(p, ("a", "b"), curves)
        assert p.read_text().splitlines() == [
            "method,task,k,rmse",
            "mtgp,a,1,0.5", "mtgp,a,2,0.1", "mtgp,b,1,0.25", f"mtgp,b,2,{1 / 3!r}",
            "stgp,a,1,1.0", "stgp,a,2,3.0", "stgp,b,1,2.0", "stgp,b,2,4.0",
        ]

    def test_trajectory_rows_by_pair_then_k(self, tmp_path):
        traj = CorrelationTrajectory((1, 2), ((0, 1), (0, 2), (1, 2)),
                                     np.array([[0.5, -0.25, 0.0], [0.75, 0.125, -1.0]]))
        p = tmp_path / "traj.csv"
        write_trajectory(p, ("a", "b", "c"), traj)
        assert p.read_text().splitlines() == [
            "task_i,task_j,k,r",
            "a,b,1,0.5", "a,b,2,0.75", "a,c,1,-0.25", "a,c,2,0.125",
            "b,c,1,0.0", "b,c,2,-1.0",
        ]


class TestTruthAndQueries:
    def test_truth_round_trip(self, tmp_path):
        xy = np.array([[0.0, 0.0], [10.0, 5.0], [20.0, 15.0]])
        truth = GroundTruth(xy, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        p = tmp_path / "truth.csv"
        write_truth(p, ("a", "b"), truth)
        back = parse_truth(p, ("a", "b"))
        np.testing.assert_array_equal(back.xy, truth.xy)
        np.testing.assert_array_equal(back.values, truth.values)

    def test_truth_point_set_must_match(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("task,x_m,y_m,value\na,0,0,1\na,1,0,2\nb,0,0,3\nb,2,0,4\n")
        with pytest.raises(ValueError, match="share one point set"):
            parse_truth(p, ("a", "b"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_truth_non_finite_value_rejected(self, tmp_path, bad):
        p = tmp_path / "truth.csv"
        p.write_text(f"task,x_m,y_m,value\na,0,0,1\nb,0,0,{bad}\n")
        with pytest.raises(ValueError, match="row 3: non-finite value"):
            parse_truth(p, ("a", "b"))

    def test_truth_nan_point_shared_by_every_task(self, tmp_path):
        # NaN != NaN: checked later, the point sets would compare unequal
        # and the error would read "truth tasks do not share one point set"
        p = tmp_path / "truth.csv"
        p.write_text("task,x_m,y_m,value\na,nan,0,1\nb,nan,0,2\n")
        with pytest.raises(ValueError,
                           match=re.escape("row 2: non-finite coordinates (nan, 0.0)")):
            parse_truth(p, ("a", "b"))

    def test_truth_missing_task(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("task,x_m,y_m,value\na,0,0,1\n")
        with pytest.raises(ValueError, match="missing tasks"):
            parse_truth(p, ("a", "b"))

    def test_queries(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("task,x_m,y_m\nb,1.5,2.5\na,0,0\n")
        tasks, xy = parse_queries(p, ("a", "b"))
        np.testing.assert_array_equal(tasks, [1, 0])
        np.testing.assert_allclose(xy, [[1.5, 2.5], [0.0, 0.0]])

    def test_unknown_query_label(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("task,x_m,y_m\nzinc,0,0\n")
        with pytest.raises(ValueError, match="row 2.*zinc"):
            parse_queries(p, ("a", "b"))


# Values whose shortest repr is easy to get wrong: signed zero, subnormals,
# the switch to exponent notation at 1e16, and values near underflow.
AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16,
           9999999999999998.0, 1e-300, -1e-300, 0.1, -1.5e300]
FLOATS = st.one_of(
    st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False)
)


def _reference_asc(grid, values):
    """The writers' format, one ``repr(float(v))`` per value."""
    lines = [f"ncols {grid.nx}", f"nrows {grid.ny}",
             f"xllcorner {float(grid.bounds.xmin)!r}",
             f"yllcorner {float(grid.bounds.ymin)!r}",
             f"cellsize {float(grid.resolution)!r}", "NODATA_value -9999.0"]
    rows = values.reshape(grid.ny, grid.nx)
    for iy in range(grid.ny - 1, -1, -1):
        lines.append(" ".join(repr(float(v)) for v in rows[iy]))
    return "\n".join(lines) + "\n"


def _reference_map_csv(labels, grid, mean, variance):
    lines = ["task,x_m,y_m,mean,variance"]
    c = grid.cell_centers
    for i, label in enumerate(labels):
        for k in range(grid.n_cells):
            vals = (c[k, 0], c[k, 1], mean[i, k], variance[i, k])
            lines.append(",".join([label] + [repr(float(v)) for v in vals]))
    return "\n".join(lines) + "\n"


def _reference_export(prefix, labels, grid, mean, variance):
    """File name -> bytes of every file ``write_maps`` should write."""
    files = {f"{prefix}.csv": _reference_map_csv(labels, grid, mean, variance).encode()}
    for i, label in enumerate(labels):
        for kind, values in (("mean", mean), ("variance", variance)):
            files[f"{prefix}_{label}_{kind}.asc"] = _reference_asc(grid, values[i]).encode()
    return files


def _read_tree(d):
    return {f.name: f.read_bytes() for f in d.iterdir()}


@st.composite
def grids(draw):
    res = draw(st.sampled_from([0.1, 1.0, 2.5, 7.0, 1e-3]))
    xmin = draw(st.floats(-1e6, 1e6, allow_nan=False))
    ymin = draw(st.sampled_from([-0.0, 0.0, 1e-300, 12.25]))
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return GridSpec(Rect(xmin, ymin, xmin + (nx + 0.5) * res, ymin + (ny + 0.5) * res), res)


def _values(draw, n):
    return np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)


MAP_LABELS = ("t0", "t1", "t2")


def _three_task_maps(draw):
    """A drawn grid and the mean and variance arrays of three tasks on it."""
    grid = draw(grids())
    mean = _values(draw, 3 * grid.n_cells).reshape(3, grid.n_cells)
    var = np.abs(_values(draw, 3 * grid.n_cells)).reshape(3, grid.n_cells)
    return grid, mean, var


class TestWriterBytes:
    """The fast writers give the same bytes as per-value formatting."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_asc_matches_per_value_repr(self, tmp_path_factory, data):
        grid = data.draw(grids())
        values = _values(data.draw, grid.n_cells)
        p = tmp_path_factory.mktemp("asc") / "t.asc"
        write_asc(p, grid, values)
        assert p.read_bytes() == _reference_asc(grid, values).encode()

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_map_csv_matches_per_value_repr(self, tmp_path_factory, data):
        grid, mean, var = _three_task_maps(data.draw)
        p = tmp_path_factory.mktemp("map") / "map.csv"
        write_map_csv(p, MAP_LABELS, grid, mean, var)
        assert p.read_bytes() == _reference_map_csv(MAP_LABELS, grid, mean, var).encode()

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_map_export_matches_per_value_repr(self, tmp_path_factory, data):
        grid, mean, var = _three_task_maps(data.draw)
        d = tmp_path_factory.mktemp("export")
        write_maps(d, "m", MAP_LABELS, grid, mean, var)
        assert _read_tree(d) == _reference_export("m", MAP_LABELS, grid, mean, var)

    def test_cli_map_matches_per_value_repr(self, tmp_path):
        """The nine files ``soilgp map`` writes equal the per-value format
        of the arrays ``predict_map`` returns for the same model and grid."""
        from soilgp.cli import main
        from soilgp.gp import condition, theta_from_moments
        from soilgp.mapping import predict_map

        ds, _ = draw_field(SyntheticField(n_samples=6, width=60.0, height=40.0), 9)
        theta = theta_from_moments(
            [1.0] * 4, np.eye(4), [20.0] * 4, [0.05] * 4, KernelMode.CONVOLVED
        )
        obs, model = tmp_path / "obs.csv", tmp_path / "model.txt"
        write_observations(obs, ds)
        write_model(model, condition(ds, theta), dataset_digest(ds))
        out = tmp_path / "maps"
        assert main(["map", "--model", str(model), "--obs", str(obs), "--out-dir",
                     str(out), "--bounds", "0,0,60,40", "--resolution", "7"]) == 0
        rebuilt = model_from_record(read_model(model), parse_observations(obs))
        grid = GridSpec(Rect(0, 0, 60, 40), 7.0)
        mean, var = predict_map(rebuilt, grid)
        expected = _reference_export("map", ds.labels, grid, mean, var)
        assert _read_tree(out) == expected  # 1 CSV + 8 grids

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_truth_matches_per_value_repr(self, tmp_path_factory, data):
        g, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        xy = _values(data.draw, 2 * g).reshape(g, 2)
        truth = GroundTruth(xy, _values(data.draw, n * g).reshape(n, g))
        labels = [f"t{i}" for i in range(n)]
        p = tmp_path_factory.mktemp("truth") / "truth.csv"
        write_truth(p, labels, truth)
        lines = ["task,x_m,y_m,value"] + [
            ",".join([lab] + [repr(float(v)) for v in (*xy[k], truth.values[i, k])])
            for i, lab in enumerate(labels) for k in range(g)
        ]
        assert p.read_bytes() == ("\n".join(lines) + "\n").encode()

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_predictions_match_per_value_repr(self, tmp_path_factory, data):
        q = data.draw(st.integers(1, 8))
        tasks = np.array(data.draw(st.lists(st.integers(0, 2), min_size=q, max_size=q)))
        xy = _values(data.draw, 2 * q).reshape(q, 2)
        mean, var = _values(data.draw, q), np.abs(_values(data.draw, q))
        labels = ("a", "b", "c")
        p = tmp_path_factory.mktemp("pred") / "pred.csv"
        write_predictions(p, labels, tasks, xy, mean, var)
        lines = ["task,x_m,y_m,mean,variance"] + [
            ",".join([labels[tasks[k]]]
                     + [repr(float(v)) for v in (*xy[k], mean[k], var[k])])
            for k in range(q)
        ]
        assert p.read_bytes() == ("\n".join(lines) + "\n").encode()


READERS = [
    # (reader, header, data rows, error an empty file gives)
    (parse_observations, io.OBS_HEADER, ["S01,0,0,pH,6.5", "S01,0,0,N,21"],
     "empty dataset"),
    (lambda p: parse_queries(p, ("pH",)), "task,x_m,y_m", ["pH,0,0", "pH,1.5,2"],
     "no queries"),
    (lambda p: parse_truth(p, ("pH",)), "task,x_m,y_m,value", ["pH,0,0,1", "pH,1,0,2"],
     "missing tasks"),
    (parse_plan, "sample_id,x_m,y_m", ["S01,0,0", "S02,45,0"], "empty plan"),
    (parse_boundary, "ring,x_m,y_m", ["0,0,0", "0,10,0", "0,0,10"], "no ring 0"),
]
READER_IDS = ["observations", "queries", "truth", "plan", "boundary"]


def _plain(result):
    """A reader's result in a form == can compare."""
    if isinstance(result, GroundTruth):
        return result.xy.tolist(), result.values.tolist()
    if isinstance(result, tuple) and isinstance(result[0], np.ndarray):
        return [a.tolist() for a in result]
    return result


@pytest.mark.parametrize("reader, header, rows, empty_error", READERS, ids=READER_IDS)
class TestOneReader:
    """Every CSV reader shares the header, field-count and blank-row rules."""

    def test_wrong_header_names_row_1_and_expected_header(
            self, tmp_path, reader, header, rows, empty_error):
        p = tmp_path / "f.csv"
        p.write_text("\n".join(["x_m,y_m,task"] + rows) + "\n")
        expected = f"row 1: malformed header 'x_m,y_m,task' (expected {header!r})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            reader(p)

    def test_short_row_names_its_row(self, tmp_path, reader, header, rows, empty_error):
        n = len(header.split(","))
        short = rows[0].rsplit(",", 1)[0]
        p = tmp_path / "f.csv"
        # header, a data row, a blank line (still counted), then the short row
        p.write_text("\n".join([header, rows[0], "", short]) + "\n")
        with pytest.raises(ValueError, match=f"row 4: expected {n} fields, got {n - 1}"):
            reader(p)

    def test_blank_lines_skipped(self, tmp_path, reader, header, rows, empty_error):
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("\n".join([header] + rows) + "\n")
        padded.write_text("\r\n".join([header, ""] + [f"{r}\n   " for r in rows] + [""]))
        assert _plain(reader(padded)) == _plain(reader(plain))

    def test_empty_file_gives_the_readers_own_error(
            self, tmp_path, reader, header, rows, empty_error):
        p = tmp_path / "f.csv"
        for text in ("", header + "\n\n"):
            p.write_text(text)
            with pytest.raises(ValueError, match=empty_error):
                reader(p)


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize("column", [1, 2], ids=["x", "y"])
@pytest.mark.parametrize("reader, header, rows, empty_error", READERS[:4],
                         ids=READER_IDS[:4])
def test_non_finite_coordinate_names_its_row(
        tmp_path, reader, header, rows, empty_error, column, bad):
    # every point file goes through Location as it reads the row, so a
    # later check never sees the point and the error names the row
    fields = rows[1].split(",")
    fields[column] = bad
    p = tmp_path / "f.csv"
    p.write_text("\n".join([header, rows[0], ",".join(fields)]) + "\n")
    with pytest.raises(ValueError, match=rf"row 3: non-finite coordinates \(.*{bad}"):
        reader(p)


class TestStreamingWrite:
    def test_failure_mid_write_keeps_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        streamed = []

        def lines():
            for _ in range(100_000):  # 2 MB, well past the write buffers
                yield "x" * 20
            (tmp,) = [f for f in tmp_path.iterdir() if f != target]
            streamed.append(tmp.stat().st_size)
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            io._write_lines(target, "h", lines())
        assert streamed and streamed[0] > 1_000_000  # lines reached the temp file
        assert target.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_digest_text_equals_written_file(self, obs_file, tmp_path):
        ds = parse_observations(obs_file)
        out = tmp_path / "again.csv"
        write_observations(out, ds)
        assert out.read_text() == OBS_TEXT
        assert dataset_digest(ds) == hashlib.sha256(out.read_bytes()).hexdigest()


def _export_maps(n_maps):
    """Labels, grid, mean and variance of ``n_maps`` tasks on 7,200 cells."""
    grid = GridSpec(Rect(0.0, 0.0, 120.0, 60.0), 1.0)
    rng = np.random.default_rng(0)
    return (tuple(f"t{i}" for i in range(n_maps)), grid,
            rng.normal(size=(n_maps, grid.n_cells)), rng.random((n_maps, grid.n_cells)))


class TestMapExport:
    def test_memory_holds_one_maps_text_not_every_maps(self, tmp_path):
        """Beyond its input maps, the export's traced peak is bounded by
        one map's ASC text, and a 4-map export peaks within a quarter of
        that text of a 1-map export on the same grid."""
        labels, grid, mean, var = _export_maps(4)
        grid.cell_centers  # cached on the grid, as predict_map leaves it
        one_map_text = sum(len(" ".join(map(repr, a.tolist()))) for a in (mean[0], var[0]))

        def peak(n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_maps(tmp_path, "m", labels[:n], grid, mean[:n], var[:n])
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one, four = peak(1), peak(4)
        assert one < 2 * one_map_text
        assert four < one + one_map_text / 4

    def test_failed_target_leaves_old_or_complete_files_and_no_temp(self, tmp_path):
        maps = _export_maps(3)
        expected = _reference_export("m", *maps)
        blocked = "m_t1_variance.asc"
        for name in expected:
            if name != blocked:
                (tmp_path / name).write_bytes(b"old\n")
        (tmp_path / blocked).mkdir()
        with pytest.raises(OSError):
            write_maps(tmp_path, "m", *maps)
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(expected)
        assert (tmp_path / blocked).is_dir()
        written = {name: (tmp_path / name).read_bytes()
                   for name in expected if name != blocked}
        assert all(v in (b"old\n", expected[name]) for name, v in written.items())
        # the CSV is renamed into place only after the last map's grids
        assert written["m.csv"] == b"old\n"
        assert written["m_t0_mean.asc"] == expected["m_t0_mean.asc"]

    @pytest.mark.parametrize("writer", ["csv", "export"])
    @pytest.mark.parametrize("bad", ["mean_cells", "variance_tasks", "one_dim", "labels"])
    def test_mis_shaped_arrays_refused_and_nothing_written(self, tmp_path, writer, bad):
        labels, grid, mean, var = _export_maps(2)
        if bad == "mean_cells":
            mean = mean[:, :-1]
        elif bad == "variance_tasks":
            var = var[:1]
        elif bad == "one_dim":
            mean, var = mean[0], var[0]
        else:
            labels = labels + ("t2",)
        with pytest.raises(ValueError, match="tasks x cells"):
            if writer == "csv":
                write_map_csv(tmp_path / "m.csv", labels, grid, mean, var)
            else:
                write_maps(tmp_path, "m", labels, grid, mean, var)
        assert list(tmp_path.iterdir()) == []
