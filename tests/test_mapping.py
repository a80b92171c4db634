import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilgp import gp as gp_module
from soilgp.data import Rect, make_dataset
from soilgp.gp import FitConfig, condition, predict_arrays, theta_from_moments
from soilgp.kernels import KernelMode
from soilgp.mapping import (
    GridSpec,
    GroundTruth,
    correlation_trajectory,
    predict_map,
    rmse,
    sequential_eval,
)
from soilgp.synthetic import SyntheticField, draw_field


def tiny_model(seed=31, n_samples=6):
    cfg = SyntheticField(
        n_tasks=2, labels=("a", "b"), variances=(1.0, 1.0),
        correlations=((0, 1, 0.6),), lengthscales=(15.0, 25.0),
        noise_vars=(0.05, 0.05), width=60.0, height=40.0, n_samples=n_samples,
    )
    ds, _ = draw_field(cfg, seed)
    theta = theta_from_moments(
        [1.0, 1.0], np.array([[1.0, 0.6], [0.6, 1.0]]), [15.0, 25.0],
        [0.05, 0.05], KernelMode.CONVOLVED,
    )
    return condition(ds, theta)


class TestGridSpec:
    def test_field_grid_cell_count(self):
        grid = GridSpec(Rect(0, 0, 300, 170), 5.0)
        assert (grid.nx, grid.ny) == (60, 34)
        assert grid.n_cells == 2040

    def test_centers_row_major_from_min_corner(self):
        grid = GridSpec(Rect(10, 20, 40, 50), 10.0)
        c = grid.cell_centers
        np.testing.assert_allclose(c[0], [15.0, 25.0])
        np.testing.assert_allclose(c[1], [25.0, 25.0])  # x varies fastest
        np.testing.assert_allclose(c[grid.nx], [15.0, 35.0])

    def test_centers_strictly_inside(self):
        grid = GridSpec(Rect(0, 0, 47, 33), 6.0)
        c = grid.cell_centers
        assert np.all(c[:, 0] > 0) and np.all(c[:, 0] < 47)
        assert np.all(c[:, 1] > 0) and np.all(c[:, 1] < 33)

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError, match="zero cells"):
            GridSpec(Rect(0, 0, 3, 3), 5.0)
        with pytest.raises(ValueError):
            GridSpec(Rect(0, 0, 10, 10), -1.0)


class TestPredictMap:
    def test_single_cell_equals_point_predict(self):
        model = tiny_model()
        grid = GridSpec(Rect(10, 10, 20, 20), 10.0)
        maps = predict_map(model, grid)
        assert grid.n_cells == 1
        for i, pm in enumerate(maps):
            res = predict_arrays(model, np.array([i]), grid.cell_centers)
            assert pm.mean[0] == res.mean[0]
            assert pm.variance[0] == res.variance[0]

    def test_matches_pointwise_predict(self):
        model = tiny_model()
        grid = GridSpec(Rect(0, 0, 60, 40), 8.0)
        maps = predict_map(model, grid, denormalize=True)
        for i, pm in enumerate(maps):
            res = predict_arrays(
                model,
                np.full(grid.n_cells, i, dtype=np.intp),
                grid.cell_centers,
                denormalize=True,
            )
            np.testing.assert_array_equal(pm.mean, res.mean)
            np.testing.assert_array_equal(pm.variance, res.variance)

    def test_memory_bounded_for_any_grid(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; beyond its outputs,
        # predict_map holds one block's temporaries (and the last block's
        # small leftovers), whatever the cell count. A 1 MiB budget puts
        # both grids past their first few blocks.
        monkeypatch.setattr(gp_module, "_BLOCK_BYTES", 1 << 20)
        model = tiny_model()
        extra = []
        for resolution in (1.0, 0.3125):  # 10,000 and 102,400 cells
            grid = GridSpec(Rect(0, 0, 100, 100), resolution)
            grid.cell_centers  # cached on the grid, made outside the measurement
            tracemalloc.start()
            try:
                maps = predict_map(model, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(pm.mean.nbytes + pm.variance.nbytes for pm in maps)
            extra.append(peak - outputs)
        assert abs(extra[1] - extra[0]) <= 16 * 1024
        assert max(extra) <= 2 * gp_module._BLOCK_BYTES

    def test_far_grid_reverts_to_prior(self):
        model = tiny_model()
        grid = GridSpec(Rect(50_000.0, 50_000.0, 50_060.0, 50_040.0), 20.0)
        Kc = model.theta.task_cov()
        for i, pm in enumerate(predict_map(model, grid)):
            assert np.max(np.abs(pm.mean)) <= 1e-6
            np.testing.assert_allclose(pm.variance, Kc[i, i], atol=1e-6)

    def test_one_map_per_task_with_labels(self):
        model = tiny_model()
        maps = predict_map(model, GridSpec(Rect(0, 0, 60, 40), 10.0))
        assert [pm.task.label for pm in maps] == ["a", "b"]
        assert all(pm.normalized for pm in maps)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rmse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])

    @given(
        vals=st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        c=st.floats(-100, 100, allow_nan=False),
    )
    @settings(deadline=None, max_examples=50)
    def test_symmetry_and_homogeneity(self, vals, c):
        p = np.array([v[0] for v in vals])
        t = np.array([v[1] for v in vals])
        assert rmse(p, t) == rmse(t, p)
        assert rmse(c * p, c * t) == pytest.approx(abs(c) * rmse(p, t), rel=1e-9)


def small_campaign(n_samples=5, seed=41):
    cfg = SyntheticField(
        n_tasks=2, labels=("a", "b"), variances=(1.0, 1.0),
        correlations=((0, 1, 0.7),), lengthscales=(20.0, 20.0),
        noise_vars=(0.05, 0.05), width=60.0, height=40.0, n_samples=n_samples,
    )
    gx, gy = np.meshgrid((np.arange(4) + 0.5) * 15, (np.arange(4) + 0.5) * 10)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    ds, truth = draw_field(cfg, seed, truth_xy=grid)
    return ds, truth


FAST = FitConfig(restarts=1, seed=0, max_iters=40)


class TestSequentialEval:
    def test_curve_lengths(self):
        ds, truth = small_campaign()
        curves = sequential_eval(ds, truth, "mtgp", FAST)
        assert curves.ks == (1, 2, 3, 4, 5)
        assert curves.values.shape == (5, 2)
        assert np.all(curves.values >= 0)
        assert curves.curve(0)[0][0] == 1

    def test_methods_share_prefixes_and_stgp_ignores_other_tasks(self):
        ds, truth = small_campaign(seed=43)
        stgp_full = sequential_eval(ds, truth, "stgp", FAST)
        # drop task b entirely except one sample to keep fit valid, then
        # compare task-a curve: unchanged observations give unchanged curve
        obs_a = [o for o in ds.observations if o.task == 0]
        obs_b = [o for o in ds.observations if o.task == 1]
        thinned = make_dataset(obs_a + obs_b[:1], 2, ds.labels)
        # same task-a rows per prefix only when sample order matches
        if thinned.sample_order == ds.sample_order:
            stgp_thin = sequential_eval(thinned, truth, "stgp", FAST)
            np.testing.assert_allclose(
                stgp_thin.values[:, 0], stgp_full.values[:, 0], atol=1e-12
            )

    def test_deterministic(self):
        ds, truth = small_campaign(seed=44)
        a = sequential_eval(ds, truth, "mtgp", FAST)
        b = sequential_eval(ds, truth, "mtgp", FAST)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_method(self):
        ds, truth = small_campaign()
        with pytest.raises(ValueError, match="method"):
            sequential_eval(ds, truth, "kriging", FAST)

    def test_truth_task_count_checked(self):
        ds, truth = small_campaign()
        bad = GroundTruth(truth.xy, truth.values[:1])
        with pytest.raises(ValueError, match="task count"):
            sequential_eval(ds, bad, "mtgp", FAST)

    def test_error_normalization_scales(self):
        ds, truth = small_campaign(seed=45)
        normed = sequential_eval(ds, truth, "mtgp", FAST)
        raw = sequential_eval(ds, truth, "mtgp", FAST, normalize_errors=False)
        scales = truth.values.std(axis=1)
        np.testing.assert_allclose(normed.values, raw.values / scales, rtol=1e-9)


class TestCorrelationTrajectory:
    def test_independent_tasks_stay_near_zero_at_final_k(self):
        # a truly uncorrelated prior yields small final-k estimates when
        # the field holds many correlation lengths and sampling is dense
        # enough to identify the spatial signal (80 samples, 25-30 m
        # length-scales on 300x170 m)
        from soilgp.gp import fit, task_correlations
        from soilgp.synthetic import grid_locations

        cfg = SyntheticField(
            n_tasks=2, labels=("a", "b"), variances=(1.0, 1.0),
            correlations=(), lengthscales=(25.0, 30.0),
            noise_vars=(0.0025, 0.0025), width=300.0, height=170.0, n_samples=80,
        )
        locs = grid_locations(cfg)
        hits = 0
        trials = 20
        for seed in range(trials):
            ds, _ = draw_field(cfg, 7000 + seed, locations=locs)
            corr = task_correlations(fit(ds, FitConfig(restarts=4, seed=seed)))
            hits += abs(corr[0, 1]) <= 0.2
        assert hits >= int(0.8 * trials)

    def test_pair_count_and_bounds(self):
        cfg = SyntheticField(n_samples=4, width=80.0, height=60.0)
        ds, _ = draw_field(cfg, 51)
        traj = correlation_trajectory(ds, FAST)
        assert len(traj.pairs) == 6  # n(n-1)/2 for n=4
        assert traj.ks == (1, 2, 3, 4)
        assert np.all(np.abs(traj.values) <= 1 + 1e-12)
        assert traj.curve(0, 1)[0][0] == 1

    def test_needs_two_samples(self):
        cfg = SyntheticField(n_samples=1, width=10.0, height=10.0)
        ds, _ = draw_field(cfg, 52)
        with pytest.raises(ValueError, match="two samples"):
            correlation_trajectory(ds, FAST)
