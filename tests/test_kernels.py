import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import cholesky
from scipy.spatial.distance import cdist

from conftest import ULP_LENGTHSCALE, assemble_cross_cov, naive_cov, traced_squares
from soilgp import kernels
from soilgp.kernels import (
    KernelMode,
    NumericFailure,
    _joint_chol,
    _joint_cov,
    _Layout,
    assemble_training_cov,
    chol_with_jitter,
    cross_cov_table,
    cross_matern32,
    cross_matern32_dli,
    matern32,
    matern32_dl,
    pack_theta,
    theta_dim,
    unpack_theta,
)

lengthscales = st.floats(min_value=0.1, max_value=300.0)


class TestMatern32:
    def test_zero_lag_is_one(self):
        for l in [0.5, 3.0, 80.0]:
            assert matern32(0.0, l) == 1.0

    def test_decay_limit(self):
        assert matern32(50.0 * 7.0, 7.0) < 1e-10

    def test_frozen_point_value(self):
        # (1 + sqrt(3)) * exp(-sqrt(3)) evaluated at high precision
        assert matern32(1.0, 1.0) == pytest.approx(0.4833577245965077, abs=1e-12)

    @given(l=lengthscales, r1=st.floats(0, 500), r2=st.floats(0, 500))
    @settings(deadline=None)
    def test_strictly_decreasing(self, l, r1, r2):
        if r1 == r2:
            return
        lo, hi = min(r1, r2), max(r1, r2)
        klo, khi = matern32(lo, l), matern32(hi, l)
        assert klo >= khi - 1e-15  # monotone to within an ulp
        # strict decrease once the analytic gap is representable: the
        # kernel is flat at zero lag, so tiny separations change nothing
        if (hi - lo) > 1e-3 * l and lo < 10 * l:
            assert klo > khi

    def test_rejects_bad_lengthscale(self):
        with pytest.raises(ValueError):
            matern32(1.0, 0.0)
        with pytest.raises(ValueError):
            matern32(1.0, -2.0)


def spectral_cross_oracle(r, li, lj):
    """Inverse Fourier transform of the geometric-mean spectral density.

    The per-task Matérn 3/2 kernel has 1-d spectral density
    S(w) = 12·√3·l⁻³·(3/l² + w²)⁻²; the convolution construction gives
    the cross kernel the density √(S_i·S_j). quad with the cosine weight
    handles the oscillatory transform accurately.
    """

    def density(w):
        si = 12.0 * np.sqrt(3.0) / li**3 * (3.0 / li**2 + w**2) ** -2
        sj = 12.0 * np.sqrt(3.0) / lj**3 * (3.0 / lj**2 + w**2) ** -2
        return np.sqrt(si * sj)

    if r == 0:
        val, _ = quad(density, 0, np.inf, limit=200)
    else:
        val, _ = quad(density, 0, np.inf, weight="cos", wvar=r, limit=200)
    return val / np.pi


class TestCrossMatern32:
    def test_equal_lengthscales_reduce_to_matern(self):
        assert cross_matern32(2.0, 3.0, 3.0) == matern32(2.0, 3.0)

    def test_zero_lag_closed_form(self):
        assert cross_matern32(0.0, 1.0, 4.0) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize(
        "r,li,lj", [(0.0, 1.0, 4.0), (2.0, 1.0, 4.0), (5.0, 0.7, 3.2), (10.0, 2.0, 9.0)]
    )
    def test_matches_convolution_oracle(self, r, li, lj):
        assert cross_matern32(r, li, lj) == pytest.approx(
            spectral_cross_oracle(r, li, lj), rel=1e-6, abs=1e-9
        )

    @given(
        r=st.floats(0, 1000),
        li=lengthscales,
        lj=lengthscales,
    )
    @settings(deadline=None)
    def test_symmetric_in_lengthscales(self, r, li, lj):
        a = cross_matern32(r, li, lj)
        b = cross_matern32(r, lj, li)
        assert abs(a - b) <= 1e-14

    def test_continuous_across_switch(self):
        for l in [1.0, 7.5, 40.0]:
            for r in [0.0, l / 2, l, 5 * l]:
                d = abs(cross_matern32(r, l, l * (1 + 1e-4)) - matern32(r, l))
                assert d <= 1e-6

    @given(li=lengthscales, lj=lengthscales, r=st.floats(0, 500))
    @settings(deadline=None)
    def test_cauchy_schwarz(self, li, lj, r):
        # k_ii(0) = k_jj(0) = 1 for the unit-amplitude kernels
        assert cross_matern32(r, li, lj) ** 2 <= 1.0 + 1e-12

    def test_rejects_bad_lengthscale(self):
        with pytest.raises(ValueError):
            cross_matern32(1.0, -1.0, 2.0)


def packed_task_cov(L):
    """Kc = L Lᵀ through the packed space, as the objective forms it."""
    n = L.shape[0]
    theta = pack_theta(L, np.ones(n), np.ones(n), KernelMode.CONVOLVED)
    L2, _, _ = unpack_theta(theta, n, KernelMode.CONVOLVED)
    return L2 @ L2.T


class TestTaskCov:
    def test_identity_factor(self):
        np.testing.assert_array_equal(packed_task_cov(np.eye(3)), np.eye(3))

    def test_hand_two_by_two(self):
        L = np.array([[1.0, 0.0], [0.9, 0.43589]])
        Kc = packed_task_cov(L)
        np.testing.assert_allclose(Kc, [[1.0, 0.9], [0.9, 1.0]], atol=1e-4)

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=50)
    def test_always_psd_with_jitter(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        L = np.tril(rng.uniform(-2, 2, (n, n)))
        np.fill_diagonal(L, rng.uniform(0.1, 3, n))
        Kc = packed_task_cov(L)
        np.testing.assert_allclose(Kc, Kc.T, atol=1e-12)
        chol_with_jitter(Kc + 1e-10 * np.eye(n))  # must not raise

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            pack_theta(np.array([[0.0]]), [1.0], [1.0], KernelMode.ICM)


class TestThetaPacking:
    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_round_trip(self, mode, n):
        rng = np.random.default_rng(7 * n)
        L = np.tril(rng.normal(size=(n, n)))
        np.fill_diagonal(L, rng.uniform(0.2, 2.0, n))
        ls = rng.uniform(1, 50, 1 if mode is KernelMode.ICM else n)
        noise = rng.uniform(1e-4, 0.5, n)
        theta = pack_theta(L, ls, noise, mode)
        assert theta.shape == (theta_dim(n, mode),)
        L2, ls2, noise2 = unpack_theta(theta, n, mode)
        np.testing.assert_allclose(L2, L, atol=1e-12)
        np.testing.assert_allclose(ls2, ls, rtol=1e-12)
        np.testing.assert_allclose(noise2, noise, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_row_major_lower_triangle_order(self, n):
        # entry k of a sentinel theta lands in the k-th row-major slot of
        # the factor's lower triangle, exponentiated on the diagonal
        theta = np.arange(theta_dim(n, KernelMode.CONVOLVED), dtype=float)
        L, _, _ = unpack_theta(theta, n, KernelMode.CONVOLVED)
        expected = np.zeros((n, n))
        k = 0
        for a in range(n):
            for b in range(a + 1):
                expected[a, b] = np.exp(k) if a == b else k
                k += 1
        np.testing.assert_array_equal(L, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            unpack_theta(np.zeros(5), 2, KernelMode.CONVOLVED)

    def test_noise_floor_applied(self):
        theta = pack_theta(np.eye(1), [10.0], [1e-12], KernelMode.ICM)
        _, _, noise = unpack_theta(theta, 1, KernelMode.ICM)
        assert noise[0] == 1e-8

    @pytest.mark.parametrize(("piece", "L", "noise"), [
        ("noise variances", np.eye(2), [np.inf, 1.0]),
        ("noise variances", np.eye(2), [1.0, np.nan]),
        ("noise variances", np.eye(2), [1.0, -0.1]),
        ("factor diagonal", np.diag([1.0, np.nan]), [1.0, 1.0]),
        ("factor diagonal", np.diag([np.inf, 1.0]), [1.0, 1.0]),
    ], ids=["inf_noise", "nan_noise", "negative_noise", "nan_factor", "inf_factor"])
    def test_bad_piece_refused_by_name(self, piece, L, noise):
        # an inf or NaN here used to pass into theta (NaN <= 0 is false)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{piece} must be positive and finite"):
                pack_theta(L, [10.0, 10.0], noise, KernelMode.CONVOLVED)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_nonfinite_lower_factor_entry_refused_by_name(self, entry):
        # only the strictly-lower triangle is packed; it used to carry the
        # NaN or inf into theta
        with pytest.raises(ValueError, match="^factor strictly-lower entries must be finite"):
            pack_theta([[1.0, 0.0], [entry, 1.0]], [10.0, 10.0], [1.0, 1.0],
                       KernelMode.CONVOLVED)


def random_layout(rng, m, n):
    tasks = rng.integers(0, n, m)
    tasks[:n] = np.arange(n)
    xy = rng.uniform(0, 80, (m, 2))
    return tasks, xy


class TestAssembleTrainingCov:
    def test_kronecker_oracle_icm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 6))
            L = np.tril(rng.normal(size=(n, n)))
            np.fill_diagonal(L, rng.uniform(0.3, 2, n))
            Kc = L @ L.T
            pts = rng.uniform(0, 50, (m, 2))
            l0 = float(rng.uniform(2, 40))
            noise = rng.uniform(1e-3, 0.3, n)
            tasks = np.repeat(np.arange(n), m)  # task-major ordering
            xy = np.tile(pts, (n, 1))
            K = assemble_training_cov(tasks, xy, Kc, [l0], noise, KernelMode.ICM)
            r = np.hypot(
                pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1]
            )
            expected = np.kron(Kc, matern32(r, l0)) + np.diag(np.repeat(noise, m))
            np.testing.assert_allclose(K, expected, atol=1e-12)

    def test_shape_30_locations_4_tasks(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 300, (30, 2))
        tasks = np.tile(np.arange(4), 30)
        xy = np.repeat(pts, 4, axis=0)
        K = assemble_training_cov(
            tasks, xy, np.eye(4), [40.0, 40.0, 60.0, 80.0],
            np.full(4, 0.05), KernelMode.CONVOLVED,
        )
        assert K.shape == (120, 120)

    def test_convolved_equals_icm_when_lengthscales_equal(self):
        rng = np.random.default_rng(2)
        n, m = 3, 7
        tasks, xy = random_layout(rng, m, n)
        L = np.tril(rng.normal(size=(n, n)))
        np.fill_diagonal(L, rng.uniform(0.3, 2, n))
        Kc = L @ L.T
        noise = rng.uniform(1e-3, 0.1, n)
        K_conv = assemble_training_cov(
            tasks, xy, Kc, [12.0, 12.0, 12.0], noise, KernelMode.CONVOLVED
        )
        K_icm = assemble_training_cov(tasks, xy, Kc, [12.0], noise, KernelMode.ICM)
        np.testing.assert_allclose(K_conv, K_icm, atol=1e-12)

    def test_matches_naive_loop_oracle_both_modes(self):
        rng = np.random.default_rng(3)
        for mode in KernelMode:
            n, m = 3, 9
            tasks, xy = random_layout(rng, m, n)
            L = np.tril(rng.normal(size=(n, n)))
            np.fill_diagonal(L, rng.uniform(0.3, 2, n))
            Kc = L @ L.T
            ls = rng.uniform(3, 50, 1 if mode is KernelMode.ICM else n)
            noise = rng.uniform(1e-3, 0.1, n)
            K = assemble_training_cov(tasks, xy, Kc, ls, noise, mode)
            np.testing.assert_allclose(
                K, naive_cov(tasks, xy, Kc, ls, noise, mode), atol=1e-12
            )

    def test_noise_on_diagonal_only_and_symmetric(self):
        rng = np.random.default_rng(4)
        tasks, xy = random_layout(rng, 10, 2)
        noise = np.array([0.3, 0.7])
        K = assemble_training_cov(
            tasks, xy, np.eye(2), [5.0, 9.0], noise, KernelMode.CONVOLVED
        )
        K0 = assemble_training_cov(
            tasks, xy, np.eye(2), [5.0, 9.0], np.zeros(2), KernelMode.CONVOLVED
        )
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.testing.assert_allclose(K - K0, np.diag(noise[tasks]), atol=1e-14)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        n, m = 3, 12
        tasks, xy = random_layout(rng, m, n)
        L = np.tril(rng.normal(size=(n, n)))
        np.fill_diagonal(L, rng.uniform(0.3, 2, n))
        Kc = L @ L.T
        ls = [4.0, 11.0, 25.0]
        noise = rng.uniform(1e-3, 0.1, n)
        K = assemble_training_cov(tasks, xy, Kc, ls, noise, KernelMode.CONVOLVED)
        perm = rng.permutation(m)
        K_perm = assemble_training_cov(
            tasks[perm], xy[perm], Kc, ls, noise, KernelMode.CONVOLVED
        )
        np.testing.assert_allclose(K_perm, K[np.ix_(perm, perm)], atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_training_cov(
                np.array([0, 1]), np.zeros((3, 2)), np.eye(2), [5.0, 5.0],
                np.ones(2), KernelMode.CONVOLVED,
            )

    @pytest.mark.parametrize("tasks", [[0.7, 1.6], [True, False]], ids=["float", "bool"])
    def test_non_integer_task_ids_refused(self, tasks):
        # they were cast to intp: [0.7, 1.6] read as tasks 0 and 1, and
        # [True, False] as 1 and 0
        with pytest.raises(ValueError, match="task ids must be a sequence of integers"):
            assemble_training_cov(tasks, np.zeros((2, 2)), np.eye(2), [5.0, 5.0],
                                  np.ones(2), KernelMode.CONVOLVED)

    def test_unknown_task_ids_named(self):
        # training rows have no query and no model, so the message names neither
        with pytest.raises(ValueError, match=re.escape(
                "unknown task ids [5]: there are 2 tasks, ids 0 to 1")):
            assemble_training_cov([0, 5], np.zeros((2, 2)), np.eye(2), [5.0, 5.0],
                                  np.ones(2), KernelMode.CONVOLVED)


class TestTrainingKernel:
    """The dense objective's spatial matrix and its length-scale
    derivative, gathered from the kernel table through the training set's
    layout, reproduce the public value and derivative functions bit for
    bit, on and off the equal-length-scale switch."""

    CASES = {
        "icm": (KernelMode.ICM, [23.0]),
        "icm_ulp": (KernelMode.ICM, [ULP_LENGTHSCALE]),
        "distinct": (KernelMode.CONVOLVED, [9.0, 23.0, 51.0]),
        "tied": (KernelMode.CONVOLVED, [40.0, 40.0, 60.0]),
        "in_band": (KernelMode.CONVOLVED, [40.0, 40.0 * (1 + 5e-5), 60.0]),
        "ulp": (KernelMode.CONVOLVED,
                [ULP_LENGTHSCALE, ULP_LENGTHSCALE * (1 + 5e-5), ULP_LENGTHSCALE]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_public_kernels(self, case):
        self.check(case)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_in_row_blocks(self, case, monkeypatch):
        # a 20,000-byte budget takes the 40 locations two at a time
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 20_000)
        assert self.check(case) == 20

    def check(self, case):
        """Compares the table route with the public kernels on one
        layout; returns the number of row blocks it took."""
        mode, ls = self.CASES[case]
        ls = np.array(ls)
        rng = np.random.default_rng(9)
        tasks, xy = random_layout(rng, 40, 3)
        r = cdist(xy, xy)
        layout = _Layout(tasks, xy, 3)
        blocks = list(layout.blocks(2))
        value_table, dl_table = _joint_cov(layout, blocks, None, ls, dl=True)
        # ∂k_ij/∂l_i of the row task in both modes: each row's length-scale
        # is its task's, or under ICM the one shared
        ls_index = tasks if mode is KernelMode.CONVOLVED else np.zeros_like(tasks)
        li, lj = ls[ls_index][:, None], ls[ls_index][None, :]
        value = matern32(r, ls[0]) if mode is KernelMode.ICM else cross_matern32(r, li, lj)
        assert np.array_equal(value_table, value)
        assert np.array_equal(dl_table, cross_matern32_dli(r, li, lj))
        return len(blocks)

    @pytest.mark.parametrize("l", [23.0, ULP_LENGTHSCALE], ids=["plain", "ulp"])
    def test_one_task_bitwise(self, l):
        # the eigen-path's call, one task written into Ks[None, None] and
        # dKs[None, None], and a one-task CONVOLVED layout through the
        # dense objective's route
        rng = np.random.default_rng(9)
        _, xy = random_layout(rng, 40, 1)
        r = cdist(xy, xy)
        Ks, dKs = np.empty((2, 40, 40))
        cross_cov_table(r, (0,), None, [l], Ks[None, None], dKs[None, None])
        assert np.array_equal(Ks, matern32(r, l))
        assert np.array_equal(dKs, cross_matern32_dli(r, l, l))
        layout = _Layout(np.zeros(40, dtype=np.intp), xy, 1)
        value, dl = _joint_cov(layout, layout.blocks(2), None, np.array([l]), dl=True)
        assert np.array_equal(value, cross_matern32(r, l, l))
        assert np.array_equal(dl, cross_matern32_dli(r, l, l))

    @pytest.mark.parametrize("rows", [(1, 0), (3, 0, 2)], ids=["two", "three"])
    @pytest.mark.parametrize("with_kc", [False, True], ids=["unit", "kc"])
    def test_row_tasks_a_permuted_subset(self, rows, with_kc):
        # prediction may ask for some of the tasks, in any order; tasks 0
        # and 2 tie bitwise, and task 1 lies inside the band of both
        ls = np.array([40.0, 40.0 * (1 + 5e-5), 40.0, 60.0])
        rng = np.random.default_rng(11)
        L = np.tril(rng.normal(size=(4, 4)))
        Kc = L @ L.T if with_kc else None
        r = cdist(rng.uniform(0, 150, (9, 2)), rng.uniform(0, 150, (13, 2)))
        value, dl = np.empty((2, len(rows), 4) + r.shape)
        cross_cov_table(r, rows, Kc, ls, value, dl)
        for a, i in enumerate(rows):
            for j in range(4):
                k = cross_matern32(r, ls[i], ls[j])
                assert np.array_equal(value[a, j], k if Kc is None else Kc[i, j] * k)
                assert np.array_equal(dl[a, j], cross_matern32_dli(r, ls[i], ls[j]))

    def test_lengthscales_whose_cube_overflows(self):
        # θ's bound lets a length-scale reach e^250 = 3.7e108, whose cube is
        # inf; the value takes no cube, and a RuntimeWarning fails the test
        ls = np.array([1e105, 1e105 * (1 + 5e-5), 3e105])
        r = cdist(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[1.0, 1.0], [9.0, 2.0]]))
        value = np.empty((3, 3) + r.shape)
        cross_cov_table(r, (0, 1, 2), None, ls, value)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(value[i, j], cross_matern32(r, ls[i], ls[j]))

    def test_scalar_derivatives_are_floats(self):
        assert isinstance(matern32_dl(5.0, 12.0), float)
        assert isinstance(cross_matern32_dli(5.0, 12.0, 30.0), float)
        assert cross_matern32_dli(5.0, 12.0, 12.0) == pytest.approx(
            0.5 * matern32_dl(5.0, 12.0), rel=1e-15
        )


class TestLayout:
    def test_locations_in_unique_order(self):
        # np.unique's sorted order: the eigen-path's spatial matrix, and so
        # its rounding, follows it. Points 3 and 5 share x, so y decides.
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 50, (9, 2))
        pts[3, 0] = pts[5, 0]
        xy = pts[rng.integers(0, 9, 40)]
        layout = _Layout(rng.integers(0, 3, 40), xy, 3)
        locs, loc = np.unique(xy, axis=0, return_inverse=True)
        assert np.array_equal(layout.locs, locs)
        assert np.array_equal(layout.loc, loc.ravel())

    def test_builds_where_every_distance_is_finite(self):
        # the bounding box's squared diagonal, 1.81e308, overflows, but no
        # pairwise distance does (the largest squares to 1.06e308)
        xy = np.array([[0.0, 0.9e154], [1e154, 0.9e154], [0.5e154, 0.0]])
        layout = _Layout(np.zeros(3, dtype=np.intp), xy, 1)
        (_, _, r), = layout.blocks()
        assert np.array_equal(r, cdist(layout.locs, layout.locs))
        assert np.isfinite(r).all()


class TestDistances:
    """kernels._cdist, every distance the package takes, against scipy's cdist."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e10, 1e50, 1e150])
    def test_bitwise_scipy_cdist(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 10)
        a = rng.uniform(-scale, scale, (301, 2)) + rng.uniform(-1e3, 1e3)
        b = rng.uniform(-scale, scale, (207, 2))
        np.testing.assert_array_equal(kernels._cdist(a, b), cdist(a, b))

    def test_integer_points(self):
        # a Dataset built from integer Locations holds an int64 xy
        rng = np.random.default_rng(4)
        a, b = rng.integers(-1000, 1000, (53, 2)), rng.integers(-1000, 1000, (31, 2))
        got = kernels._cdist(a, b)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, cdist(a, b))

    def test_holds_one_output_sized_array(self):
        # the squared y offsets are added a bounded row chunk at a time, so
        # the output is the one array of its size
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 300, (2000, 2)), rng.uniform(0, 300, (120, 2))
        r, peak, _ = traced_squares(lambda: kernels._cdist(a, b), 1)  # in float64s
        np.testing.assert_array_equal(r, cdist(a, b))
        assert peak <= 1.25 * r.size

    @pytest.mark.parametrize("a, b", [
        ([[0.0, 0.0], [-1e308, 1e308], [1.0, 2.0]], [[2e154, 0.0], [0.0, -1.4e154]]),
        ([[0.0, 0.0], [1.0, 2.0]], [[3.0, 4.0], [1e155, 0.0]]),
        ([[0.0, 0.0], [np.nan, 2.0]], [[3.0, 4.0]]),
        ([[0.0, 0.0]], [[3.0, 4.0], [np.inf, 0.0]]),
        ([[np.inf, 0.0]], [[np.inf, 0.0]]),
    ], ids=["overflow_everywhere", "overflow_once", "nan", "inf", "inf_minus_inf"])
    def test_non_finite_distances_refused(self, a, b):
        # cdist squares each offset: one beyond ~1.3e154 m is inf, and the
        # Matérn there (1 + z)·e^(−z) = inf·0 would be a NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points must be finite, and not so far "
                               "apart that their distances overflow"):
                kernels._cdist(np.array(a), np.array(b))


@pytest.mark.xfail(
    strict=True,
    reason="the cross kernel is the 1-D convolution of two Matérn 3/2 kernels; "
    "on 2-D distances it is not positive semidefinite for every length-scale pair",
)
def test_convolved_cov_psd_on_dense_2d_grid():
    # two tasks on a 15 x 15 grid at 10 m, length-scales 40 and 80 m,
    # correlation 0.95, no noise: the smallest eigenvalue is about -0.16
    g = np.arange(15) * 10.0
    pts = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    tasks = np.repeat([0, 1], len(pts))
    Kc = np.array([[1.0, 0.95], [0.95, 1.0]])
    K = assemble_training_cov(
        tasks, np.tile(pts, (2, 1)), Kc, [40.0, 80.0], np.zeros(2), KernelMode.CONVOLVED
    )
    assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestAssembleCrossCov:
    def test_queries_equal_obs_reproduces_noiseless_block(self):
        rng = np.random.default_rng(6)
        tasks, xy = random_layout(rng, 8, 2)
        Kc = np.array([[1.0, 0.5], [0.5, 2.0]])
        ls = [6.0, 14.0]
        K_train = assemble_training_cov(
            tasks, xy, Kc, ls, np.zeros(2), KernelMode.CONVOLVED
        )
        K_cross = assemble_cross_cov(tasks, xy, tasks, xy, Kc, ls, KernelMode.CONVOLVED)
        np.testing.assert_allclose(K_cross, K_train, atol=1e-14)

    def test_far_query_decays(self):
        rng = np.random.default_rng(7)
        tasks, xy = random_layout(rng, 8, 2)
        Kc = np.array([[1.5, 0.5], [0.5, 2.0]])
        ls = [6.0, 14.0]
        far = np.array([[100 * 14.0 + 100, 0.0]])
        K = assemble_cross_cov(np.array([0]), far, tasks, xy, Kc, ls, KernelMode.CONVOLVED)
        assert np.all(np.abs(K) < 1e-8 * np.abs(Kc).max())

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_table_gathers_to_cross_cov_bitwise(self, mode):
        # 3 tasks at 7 distinct locations, some shared by only some tasks;
        # tasks 0 and 1 lie inside the equal-length-scale band
        rng = np.random.default_rng(9)
        locs = rng.uniform(0, 80, (7, 2))
        loc = np.array([0, 0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6])
        tasks = np.array([0, 1, 2, 0, 2, 1, 1, 2, 0, 2, 0, 1])
        ls = [9.0] if mode is KernelMode.ICM else [9.0, 9.0004, 21.0]
        L = np.tril(rng.normal(size=(3, 3)))
        Kc = L @ L.T
        q_xy = rng.uniform(-10, 90, (11, 2))
        rows = (2, 0, 1)
        layout = _Layout(tasks, locs[loc], 3)
        table = np.empty((3, 3, 11, 7))
        cross_cov_table(cdist(q_xy, layout.locs), rows, Kc, ls, table)
        gathered = np.take(
            table.reshape(3, -1), layout.index(0, np.arange(11)[:, None], 11), axis=1
        )
        for a, i in enumerate(rows):
            expected = assemble_cross_cov(
                np.full(11, i), q_xy, tasks, locs[loc], Kc, ls, mode
            )
            np.testing.assert_array_equal(gathered[a], expected)

    def test_shape_one_query_120_obs(self):
        rng = np.random.default_rng(8)
        tasks = np.tile(np.arange(4), 30)
        xy = np.repeat(rng.uniform(0, 300, (30, 2)), 4, axis=0)
        K = assemble_cross_cov(
            np.array([2]), np.array([[10.0, 10.0]]), tasks, xy,
            np.eye(4), [40.0, 40.0, 60.0, 80.0], KernelMode.CONVOLVED,
        )
        assert K.shape == (1, 120)


class TestCholWithJitter:
    def test_reports_jitter_used(self):
        L, jitter = chol_with_jitter(np.eye(3))
        assert jitter == 0.0
        np.testing.assert_allclose(L, np.eye(3))

    def test_escalates_then_fails(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericFailure):
            chol_with_jitter(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericFailure):
            chol_with_jitter(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("jitter", [np.nan, np.inf])
    def test_rejects_non_finite_jitter(self, jitter):
        # the jitter is added before the finiteness check, which sees it
        with pytest.raises(NumericFailure, match="non-finite entries"):
            chol_with_jitter(np.eye(3), jitter)

    def test_finiteness_flags_stay_within_a_slice_budget(self):
        # N = 1,720, the size of the benchmark's campaign draw: factoring
        # holds the N×N covariance and one column slice of finiteness flags,
        # about 1 MiB. One N²-byte array of flags added 2.8 MB instead.
        n = 1720
        L, peak, _ = traced_squares(lambda: kernels._chol_in_place(np.eye(n).T), n)
        assert np.array_equal(L, np.eye(n))
        assert (peak - 1.0) * n * n * 8 <= 1.5 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refused_in_every_slice(self, monkeypatch, bad):
        # One non-finite entry in column ``col`` of the positive definite
        # I; with 16 bytes of flags a slice is two of the eight columns.
        monkeypatch.setattr(kernels, "_CHECK_BYTES", 16)
        n = 8
        for col in range(n):
            K = np.eye(n).T
            K[(col + 3) % n, col] = bad
            with pytest.raises(NumericFailure, match="non-finite entries"):
                kernels._chol_in_place(K)

    def test_jittered_factor_bitwise_scipy(self):
        # K + jitter·I through scipy's cholesky, with K left untouched
        a = np.random.default_rng(4).standard_normal((30, 30))
        K = a @ a.T
        before = K.copy()
        L, jitter = chol_with_jitter(K, 1e-9)
        assert jitter == 1e-9
        assert np.array_equal(L, cholesky(K + 1e-9 * np.eye(len(K)), lower=True))
        assert np.array_equal(K, before)

    def test_one_attempt(self):
        # The all-ones matrix's second pivot is exactly 0: it fails without
        # jitter, and one factorization is all it gets
        with pytest.raises(NumericFailure, match="not positive definite"):
            chol_with_jitter(np.ones((5, 5)))

    @staticmethod
    def one_location(tasks):
        """A layout whose rows all lie at one point: its joint covariance
        is the task covariance gathered by the rows' tasks."""
        tasks = np.asarray(tasks, dtype=np.intp)
        return _Layout(tasks, np.zeros((len(tasks), 2)), int(tasks.max()) + 1)

    @pytest.mark.parametrize("kc", [[[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
                             ids=["indefinite", "non_finite"])
    def test_joint_factor_refuses(self, kc):
        with pytest.raises(NumericFailure):
            _joint_chol(self.one_location([0, 1]), np.array(kc), [10.0], 0.0)
