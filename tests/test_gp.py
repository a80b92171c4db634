import logging
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.stats import ttest_rel

from scipy.spatial.distance import cdist

from conftest import (
    ULP_LENGTHSCALE,
    assemble_cross_cov,
    dense_lml_oracle,
    fd_gradient_oracle,
    homotopic_instance,
    random_instance,
    random_theta,
    reference_prediction,
    traced_squares,
)
from soilgp.data import Location, Observation, Rect, make_dataset, normalize
from soilgp.gp import (
    FitConfig,
    HyperParams,
    condition,
    fit,
    fit_stgp,
    log_marginal_likelihood,
    lml_gradient,
    predict_arrays,
    predict_tasks,
    task_correlations,
    theta_from_moments,
)
from soilgp import gp as gp_module
from soilgp import kernels, synthetic
from soilgp.kernels import (
    KernelMode,
    assemble_training_cov,
    cross_cov_table,
    cross_matern32,
    cross_matern32_dli,
    matern32,
)
from soilgp.mapping import GridSpec, rmse
from soilgp.synthetic import SyntheticField, draw_field, prior_theta


def spy_objective_factor(monkeypatch, record):
    """Pass each matrix the dense objective factors to ``record`` before
    the factorization overwrites it."""
    factor = gp_module._chol_in_place

    def chol_spy(K):
        record(K)
        return factor(K)

    monkeypatch.setattr(gp_module, "_chol_in_place", chol_spy)


def single_point_dataset():
    return make_dataset([Observation("S01", Location(0, 0), 0, 0.0)], 1)


class TestLogMarginalLikelihood:
    def test_single_point_standard_normal(self):
        theta = HyperParams(
            np.array([0.0, 0.0, np.log(1e-12)]), 1, KernelMode.CONVOLVED
        )
        lml = log_marginal_likelihood(theta, single_point_dataset())
        # K + Sigma ~ 1 (amplitude 1, noise at the 1e-8 floor)
        assert lml == pytest.approx(-0.9189385332046727, abs=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_oracle(self, seed):
        ds, theta = random_instance(seed, max_points=8)
        assert log_marginal_likelihood(theta, ds) == pytest.approx(
            dense_lml_oracle(theta, ds), abs=1e-8
        )

    def test_noise_changes_value(self, small_dataset):
        base = theta_from_moments(
            [1.0, 1.0], np.eye(2), [10.0, 15.0], [0.1, 0.1], KernelMode.CONVOLVED
        )
        doubled = theta_from_moments(
            [1.0, 1.0], np.eye(2), [10.0, 15.0], [0.2, 0.2], KernelMode.CONVOLVED
        )
        assert log_marginal_likelihood(base, small_dataset) != log_marginal_likelihood(
            doubled, small_dataset
        )

    @pytest.mark.parametrize("variances", [[1.0, -1.0], [np.nan, 1.0], [1.0, np.inf]],
                             ids=["negative", "nan", "inf"])
    def test_theta_from_moments_refuses_bad_variances(self, variances):
        # a negative variance used to reach √ (a RuntimeWarning) and then
        # fail in scipy's Cholesky on the NaNs it made
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^variances must be positive and finite"):
                theta_from_moments(variances, np.eye(2), [10.0, 10.0], [0.1, 0.1],
                                   KernelMode.CONVOLVED)

    def test_theta_from_moments_refuses_nan_correlation(self):
        # a data error before any factorization, not a numeric failure
        corr = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="^correlations must be finite"):
            theta_from_moments([1.0, 1.0], corr, [10.0, 10.0], [0.1, 0.1],
                               KernelMode.CONVOLVED)

    @pytest.mark.parametrize("corr, message", [
        ([[1.0, 0.5], [-0.9, 1.0]], "must be symmetric"),
        ([[2.0, 0.0], [0.0, 1.0]], "must have a unit diagonal"),
    ], ids=["asymmetric", "diagonal"])
    def test_theta_from_moments_refuses_non_correlation_matrix(self, corr, message):
        # LAPACK read the lower triangle: r = -0.9, or task 1's variance doubled
        with pytest.raises(ValueError, match=f"^correlation matrix {message}, got"):
            theta_from_moments([1.0, 1.0], np.array(corr), [10.0, 10.0], [0.1, 0.1],
                               KernelMode.CONVOLVED)

    def test_theta_from_moments_indefinite_after_one_factorization(self, monkeypatch):
        calls = []
        factor = kernels._chol_in_place

        def chol_spy(K):
            calls.append(K.shape)
            return factor(K)

        monkeypatch.setattr(kernels, "_chol_in_place", chol_spy)
        corr = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(gp_module.NumericFailure, match="not positive definite"):
            theta_from_moments([1.0] * 3, corr, [10.0] * 3, [0.1] * 3,
                               KernelMode.CONVOLVED)
        assert calls == [(3, 3)]

    def test_dimension_mismatch(self, small_dataset):
        theta3 = theta_from_moments(
            [1.0] * 3, np.eye(3), [5.0] * 3, [0.1] * 3, KernelMode.CONVOLVED
        )
        with pytest.raises(ValueError):
            log_marginal_likelihood(theta3, small_dataset)


class TestGradient:
    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fd_oracle(self, mode, seed):
        ds, theta = random_instance(seed + 100, mode=mode)
        analytic = lml_gradient(theta, ds)
        oracle = fd_gradient_oracle(
            lambda v: log_marginal_likelihood(
                HyperParams(v, theta.n_tasks, mode), ds
            ),
            theta.values,
        )
        assert np.linalg.norm(analytic - oracle) <= 1e-4 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("gap", [0.0, 5e-5], ids=["tied", "in_band"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fd_oracle_on_the_switch(self, seed, gap):
        # The paper's generator gives pH and N the same length-scale, which
        # puts their cross kernel on its equal-length-scale switch and its
        # derivative on the 1/2, 1 and 0 limit weights. A log gap of 5e-5
        # lies inside the 1e-4 band, and so do the oracle's 1e-5 steps.
        ds, theta = random_instance(seed + 200, n_tasks=3, mode=KernelMode.CONVOLVED)
        v = theta.values.copy()
        v[7] = v[6] + gap  # log l_2 against log l_1 (after 6 task-factor entries)
        theta = HyperParams(v, 3, KernelMode.CONVOLVED)
        analytic = lml_gradient(theta, ds)
        oracle = fd_gradient_oracle(
            lambda u: log_marginal_likelihood(HyperParams(u, 3, KernelMode.CONVOLVED), ds),
            v,
        )
        assert np.linalg.norm(analytic - oracle) <= 1e-4 * np.linalg.norm(oracle)

    def test_small_norm_at_converged_optimum(self, small_dataset):
        model = fit(small_dataset, FitConfig(restarts=3, seed=1, tol=1e-12))
        g = lml_gradient(model.theta, model.dataset)
        assert np.linalg.norm(g) <= 1e-3


class TestObjectiveCovariance:
    @pytest.mark.parametrize("ulp", [False, True], ids=["random", "ulp_lengthscale"])
    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_factors_assemble_training_cov_bitwise(self, monkeypatch, mode, ulp):
        ds, theta = random_instance(301, n_tasks=3, max_points=14, mode=mode)
        if ulp:
            v = theta.values.copy()
            v[6 : 6 + (1 if mode is KernelMode.ICM else 3)] = np.log(ULP_LENGTHSCALE)
            theta = HyperParams(v, 3, mode)
        factored = []
        spy_objective_factor(monkeypatch, lambda K: factored.append(K.copy()))
        log_marginal_likelihood(theta, ds)
        L, ls, noise = theta.unpack()
        expected = assemble_training_cov(ds.task_index, ds.xy, L @ L.T, ls, noise, mode)
        assert len(factored) == 1
        assert np.array_equal(factored[0], expected)
        # bitwise symmetric, so the transpose view factored in place is the
        # Fortran-ordered copy chol_with_jitter would factor
        assert np.array_equal(factored[0], factored[0].T)

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_memory_on_a_layout_without_shared_locations(self, mode):
        # 4 tasks at M = 400 distinct locations, one observation each: the
        # table over every (task, location) pair would be 16 M², so the
        # objective builds it in row blocks. Building the problem, its
        # value and its gradient peaked at 15.3 M×M arrays (CONVOLVED) and
        # 9.1 (ICM) through the objective's per-entry M×M kernel.
        rng = np.random.default_rng(1108)
        m, n = 400, 4
        obs = [Observation(f"S{j + 1:03d}", Location(*rng.uniform(0, 300, 2)), j % n,
                           float(rng.normal())) for j in range(m)]
        ds = make_dataset(obs, n)
        theta = random_theta(rng, n, mode, 1e-3)

        def evaluate():
            prob = gp_module._Problem(ds, mode)
            lml, state = prob.value(theta.values)
            prob.gradient(state, theta.values)
            return lml

        lml, peak, _ = traced_squares(evaluate, m)
        assert np.isfinite(lml)
        assert peak < 9.5

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_value_factors_its_covariance_in_place(self, mode):
        # One value at M = 400 (100 locations x 4 tasks) holds the task
        # factor gathered per entry, S, ∂S/∂l and K, which it factors in its
        # own memory, plus the row blocks' tables. Factoring a Fortran-ordered
        # copy of K instead peaked at 5.13 M×M arrays in both modes.
        ds, theta = homotopic_instance(1109, 4, mode=mode, n_locations=100)
        prob = gp_module._Problem(ds, mode)
        (lml, _), peak, held = traced_squares(lambda: prob.value(theta.values), len(ds))
        assert np.isfinite(lml)
        assert peak < 4.5
        assert held < 4.1  # S, ∂S/∂l, the gathered task factor and the factor

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_memory_of_the_model_build(self, mode):
        # 100 locations × 4 tasks: M = 400. The model's factor is the one
        # M×M array the build holds; building it through the objective's
        # value peaked at 6.3 M×M arrays.
        ds, theta = homotopic_instance(1109, 4, mode=mode, n_locations=100)
        model, peak, held = traced_squares(lambda: condition(ds, theta), len(ds))
        assert np.isfinite(model.lml)
        assert held < 1.25  # the factor
        assert peak < 2.5


def dense_reference(theta, ds, noise_floor=gp_module.NOISE_FLOOR):
    """The dense objective written out from the public kernels and scipy's
    cholesky and cho_solve, in the library's order of operations:
    (lml, gradient, Cholesky factor, α), where K factors."""
    n, mode, t, y = theta.n_tasks, theta.mode, ds.task_index, ds.values
    L, ls, noise = theta.unpack(noise_floor)
    Kc = L @ L.T
    K = assemble_training_cov(t, ds.xy, Kc, ls, noise, mode)
    Lf = cholesky(K, lower=True)
    alpha = cho_solve((Lf, True), y)
    lml = -0.5 * y @ alpha - np.log(np.diag(Lf)).sum() - 0.5 * len(y) * np.log(2.0 * np.pi)

    r = cdist(ds.xy, ds.xy)
    # each row's length-scale: its task's, or under ICM the one shared
    ls_index = t if mode is KernelMode.CONVOLVED else np.zeros_like(t)
    li, lj = ls[ls_index][:, None], ls[ls_index][None, :]
    S = matern32(r, ls[0]) if mode is KernelMode.ICM else cross_matern32(r, li, lj)
    dS = cross_matern32_dli(r, li, lj)  # ∂k/∂l_i of the row task
    W = np.outer(alpha, alpha) - cho_solve((Lf, True), np.eye(len(y)))
    pair = t[:, None] * n + t[None, :]
    A = np.bincount(pair.ravel(), weights=(W * S).ravel(), minlength=n * n).reshape(n, n)
    WdS = W * Kc[np.ix_(t, t)] * dS
    g_ls = np.bincount(ls_index, weights=np.sum(WdS, axis=1), minlength=len(ls)) * ls
    g_noise = 0.5 * np.bincount(t, weights=np.diag(W), minlength=n)
    rows, cols = np.tril_indices(n)
    g_chol = (A @ L)[rows, cols]
    g_chol[rows == cols] *= L.diagonal()
    raw = np.exp(theta.values[-n:])
    grad = np.concatenate([g_chol, g_ls, g_noise * raw * (raw > noise_floor)])
    return lml, grad, Lf, alpha


def with_lengthscales(theta, ls):
    v = theta.values.copy()
    n_tri = theta.n_tasks * (theta.n_tasks + 1) // 2
    v[n_tri : n_tri + len(ls)] = np.log(ls)
    return HyperParams(v, theta.n_tasks, theta.mode)


class TestDenseObjectiveBitwise:
    """The dense objective returns the bits of its reference: the public
    kernels, the assembled covariance and scipy's cholesky/cho_solve."""

    @staticmethod
    def case(name):
        conv, icm = KernelMode.CONVOLVED, KernelMode.ICM
        if name == "homotopic_4":
            return homotopic_instance(1101, 4, mode=conv, n_locations=30)
        if name == "heterotopic":
            return random_instance(1102, n_tasks=3, max_points=14, mode=conv)
        if name == "one_task":
            return random_instance(1103, n_tasks=1, max_points=10, mode=conv)
        if name == "dense_icm":
            return random_instance(1104, n_tasks=3, max_points=14, mode=icm)
        if name == "in_band":  # distinct length-scales inside the switch's band
            ds, theta = random_instance(1105, n_tasks=3, max_points=14, mode=conv)
            return ds, with_lengthscales(theta, [40.0, 40.0 * (1 + 5e-5), 60.0])
        if name == "ulp_convolved":
            ds, theta = random_instance(1106, n_tasks=3, max_points=14, mode=conv)
            u = ULP_LENGTHSCALE
            return ds, with_lengthscales(theta, [u, u * (1 + 5e-5), u])
        ds, theta = random_instance(1107, n_tasks=3, max_points=14, mode=icm)
        return ds, with_lengthscales(theta, [ULP_LENGTHSCALE])

    @staticmethod
    def evaluate(prob, theta):
        """(lml, state, gradient) of one evaluation at theta."""
        lml, state = prob.value(theta.values)
        return lml, state, prob.gradient(state, theta.values)

    @pytest.mark.parametrize("name", [
        "homotopic_4", "heterotopic", "one_task", "dense_icm", "in_band",
        "ulp_convolved", "ulp_icm",
    ])
    def test_value_and_gradient_bitwise(self, name):
        ds, theta = self.case(name)
        if name == "in_band":
            ls = theta.unpack()[1]
            assert ls[0] != ls[1] and abs(ls[0] - ls[1]) <= 1e-4 * max(ls[:2])
        lml, state, grad = self.evaluate(gp_module._Problem(ds, theta.mode), theta)
        ref_lml, ref_grad, ref_Lf, ref_alpha = dense_reference(theta, ds)
        assert lml == ref_lml
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(state[0], ref_Lf)
        assert np.array_equal(state[1], ref_alpha)

    @pytest.mark.parametrize("name", [
        "homotopic_4", "heterotopic", "one_task", "dense_icm", "in_band",
        "ulp_convolved", "ulp_icm",
    ])
    def test_model_build_bitwise(self, name):
        # the model factors its covariance without the objective, to the bit
        ds, theta = self.case(name)
        model = condition(ds, theta)
        ref_lml, _, ref_Lf, ref_alpha = dense_reference(theta, model.dataset)
        assert model.jitter == 0.0
        assert model.lml == ref_lml
        assert np.array_equal(model.chol_factor, ref_Lf)
        assert np.array_equal(model.alpha, ref_alpha)

    def test_states_do_not_share_memory(self):
        ds, theta1 = self.case("heterotopic")
        theta2 = HyperParams(theta1.values + 0.2, theta1.n_tasks, theta1.mode)
        prob = gp_module._Problem(ds, theta1.mode)
        lml1, state1 = prob.value(theta1.values)
        kept = [state1[0].copy(), state1[1].copy()]
        lml2, state2, grad2 = self.evaluate(prob, theta2)
        grad1 = prob.gradient(state1, theta1.values)
        for theta, lml, grad in ((theta1, lml1, grad1), (theta2, lml2, grad2)):
            ref_lml, ref_grad, _, _ = dense_reference(theta, ds)
            assert lml == ref_lml
            assert np.array_equal(grad, ref_grad)
        assert np.array_equal(state1[0], kept[0])
        assert np.array_equal(state1[1], kept[1])

    def test_model_unchanged_by_later_evaluations(self):
        ds, theta = self.case("heterotopic")
        model = condition(ds, theta)
        kept = model.chol_factor.copy(), model.alpha.copy()
        prob = gp_module._Problem(model.dataset, theta.mode)
        other = HyperParams(theta.values - 0.3, theta.n_tasks, theta.mode)
        for th in (other, theta, other):
            self.evaluate(prob, th)
        assert np.array_equal(model.chol_factor, kept[0])
        assert np.array_equal(model.alpha, kept[1])


class TestKroneckerPath:
    """Homotopic ICM inputs of two or more tasks take the Kronecker
    eigen-path; its LML and gradient meet the criterion-4 and criterion-5
    bounds and agree with the dense path to rounding."""

    ORDERS = pytest.mark.parametrize("shuffled", [False, True],
                                     ids=["sample_major", "shuffled"])
    TASKS = pytest.mark.parametrize("n", [2, 3, 4])

    @staticmethod
    def dense(ds, theta):
        prob = gp_module._Problem(ds, theta.mode)
        lml, state = prob.value(theta.values)
        if lml == gp_module.REJECTED:
            return lml, None
        return lml, prob.gradient(state, theta.values)

    @staticmethod
    def factorizations(monkeypatch):
        calls = []
        spy_objective_factor(monkeypatch, lambda K: calls.append(K.shape))
        return calls

    @ORDERS
    @TASKS
    @pytest.mark.parametrize("seed", range(4))
    def test_lml_matches_dense_oracle(self, monkeypatch, seed, n, shuffled):
        ds, theta = homotopic_instance(400 + seed, n, shuffled)
        calls = self.factorizations(monkeypatch)
        lml = log_marginal_likelihood(theta, ds)
        assert calls == []  # no dense Cholesky: the Kronecker path ran
        assert lml == pytest.approx(dense_lml_oracle(theta, ds), abs=1e-8)

    @ORDERS
    @TASKS
    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_fd_oracle(self, seed, n, shuffled):
        ds, theta = homotopic_instance(500 + seed, n, shuffled)
        analytic = lml_gradient(theta, ds)
        oracle = fd_gradient_oracle(
            lambda v: log_marginal_likelihood(HyperParams(v, n, KernelMode.ICM), ds),
            theta.values,
        )
        assert np.linalg.norm(analytic - oracle) <= 1e-4 * np.linalg.norm(oracle)

    @ORDERS
    @TASKS
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_dense_path(self, seed, n, shuffled):
        ds, theta = homotopic_instance(600 + seed, n, shuffled)
        lml, grad = self.dense(ds, theta)
        assert abs(log_marginal_likelihood(theta, ds) - lml) <= 1e-10 * abs(lml)
        diff = np.linalg.norm(lml_gradient(theta, ds) - grad)
        assert diff <= 1e-10 * np.linalg.norm(grad)

    # m = 40 is above syevd's divide-and-conquer cutoff of 25 rows; at
    # m = 260 with n = 4 the n·m·m products reach OpenBLAS's threading
    # threshold. The default instances (m ≤ 6) reach neither.
    SIZES = pytest.mark.parametrize("m", [40, 260])

    @SIZES
    def test_agrees_with_dense_path_at_size(self, m):
        ds, theta = homotopic_instance(1000 + m, 4, shuffled=True, n_locations=m)
        lml, grad = self.dense(ds, theta)
        assert abs(log_marginal_likelihood(theta, ds) - lml) <= 1e-10 * abs(lml)
        diff = np.linalg.norm(lml_gradient(theta, ds) - grad)
        assert diff <= 1e-10 * np.linalg.norm(grad)

    @SIZES
    def test_gradient_matches_fd_oracle_at_size(self, m):
        ds, theta = homotopic_instance(1100 + m, 4, shuffled=True, n_locations=m)
        analytic = lml_gradient(theta, ds)
        oracle = fd_gradient_oracle(
            lambda v: log_marginal_likelihood(HyperParams(v, 4, KernelMode.ICM), ds),
            theta.values,
        )
        assert np.linalg.norm(analytic - oracle) <= 1e-4 * np.linalg.norm(oracle)

    def test_runs_on_scipys_lapack(self, monkeypatch):
        # numpy and scipy each bundle their own OpenBLAS with its own thread
        # pool, and L-BFGS-B runs on scipy's. An eigendecomposition or an
        # m-sized product taken from numpy puts the objective on the other
        # pool, and inside a fit the two pools' threads compete for the
        # cores (on 2 vCPUs an n = 4, M = 120 evaluation took ~6.6 ms that
        # way, against ~0.28 ms on one pool). The results agree either way to
        # rounding, so only this test catches the return.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called on the eigen-path")

        products, real = [], gp_module.dgemm

        def dgemm(*args, **kwargs):
            products.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(gp_module, "dgemm", dgemm)
        ds, theta = homotopic_instance(1200, 4, shuffled=True, n_locations=40)
        # Exact counts, so one product moved back to numpy's @ fails too:
        # the value has four products with an m-sized operand, and the
        # gradient repeats the value's four and adds five.
        assert np.isfinite(log_marginal_likelihood(theta, ds))
        assert len(products) == 4
        products.clear()
        assert np.all(np.isfinite(lml_gradient(theta, ds)))
        assert len(products) == 9

    # (log L11, L21, log L22) of a task factor whose stored product
    # Kc = fl(L Lᵀ) is indefinite: c² > ab, checked exactly below.
    INDEFINITE = (29.12520648375756, 134.40206424733452, -100.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_where_the_dense_ladder_rejects(self, n):
        # Kc ~ 1e25 over a spatial kernel that is constant in floating point
        # (l = e^200), with noise at the 1e-8 floor: on most layouts no
        # jitter rung makes the covariance factorable, and on each layout
        # both paths must decide alike.
        L = np.diag(np.exp([self.INDEFINITE[0], self.INDEFINITE[2]]))
        L[1, 0] = self.INDEFINITE[1]
        Kc = L @ L.T
        a, b, c = (Fraction(float(x)) for x in (Kc[0, 0], Kc[1, 1], Kc[0, 1]))
        assert c * c > a * b  # the premise: the stored Kc is indefinite
        dense, kron = [], []
        for seed in range(12):
            ds, theta = homotopic_instance(700 + seed, n)
            v = np.zeros_like(theta.values)
            v[:3] = self.INDEFINITE
            n_tri = n * (n + 1) // 2
            v[n_tri] = 200.0
            v[n_tri + 1 :] = np.log(1e-8)
            theta = HyperParams(v, n, KernelMode.ICM)
            dense.append(self.dense(ds, theta)[0] == gp_module.REJECTED)
            kron.append(log_marginal_likelihood(theta, ds) == gp_module.REJECTED)
            if kron[-1]:
                with pytest.raises(gp_module.NumericFailure):
                    lml_gradient(theta, ds)
        assert sum(dense) >= 6  # the dense ladder rejects most of them
        assert kron == dense

    def test_rejects_theta_above_the_cap(self):
        ds, theta = homotopic_instance(710, 2)
        v = theta.values.copy()
        v[3] = gp_module._THETA_CAP + 1.0  # log length-scale
        prob = gp_module._objective(ds, KernelMode.ICM)
        assert prob.value(v)[0] == gp_module.REJECTED
        with pytest.raises(gp_module.NumericFailure):
            condition(ds, HyperParams(v, 2, KernelMode.ICM))

    def drop_one(self, ds):
        return make_dataset(ds.observations[1:], ds.n_tasks, ds.labels)

    def twice(self, ds):
        return make_dataset(ds.observations + ds.observations[:1], ds.n_tasks, ds.labels)

    @pytest.mark.parametrize("case", ["convolved", "heterotopic", "repeated", "one_task"])
    def test_other_inputs_take_the_dense_path(self, monkeypatch, case):
        n = 1 if case == "one_task" else 3
        mode = KernelMode.CONVOLVED if case == "convolved" else KernelMode.ICM
        ds, theta = homotopic_instance(800, n, mode=mode)
        ds = {"heterotopic": self.drop_one, "repeated": self.twice}.get(
            case, lambda d: d)(ds)
        calls = self.factorizations(monkeypatch)
        lml = log_marginal_likelihood(theta, ds)
        assert calls == [(len(ds), len(ds))]
        assert lml == pytest.approx(dense_lml_oracle(theta, ds), abs=1e-8)

    def test_fit_builds_no_dense_problem(self, monkeypatch):
        ds, _ = homotopic_instance(900, 3, shuffled=True)
        built = []

        class Counted(gp_module._Problem):
            def __init__(self, dataset, mode):
                built.append(len(dataset))
                super().__init__(dataset, mode)

        monkeypatch.setattr(gp_module, "_Problem", Counted)
        model = fit(ds, FitConfig(restarts=2, seed=3, max_iters=40, mode=KernelMode.ICM))
        assert built == []  # the model factors its covariance without one
        assert model.lml == pytest.approx(
            log_marginal_likelihood(model.theta, model.dataset), abs=1e-8)


class TestOneFactorization:
    """A covariance that fails its Cholesky is refused after that one
    attempt: the dense objective rejects the proposal, and a model build
    raises NumericFailure, each having built and factored K once."""

    @staticmethod
    def indefinite_case():
        # TestKroneckerPath's indefinite task factor on a dense CONVOLVED
        # layout (6 rows) whose covariance fails to factor
        ds, theta = homotopic_instance(700, 2, mode=KernelMode.CONVOLVED)
        v = np.zeros_like(theta.values)
        v[:3] = TestKroneckerPath.INDEFINITE
        v[3:5] = 200.0  # both log length-scales: the kernel is constant
        v[5:] = np.log(1e-8)
        return ds, HyperParams(v, 2, KernelMode.CONVOLVED)

    @staticmethod
    def count(monkeypatch, module, name, calls):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_rejected_dense_proposal(self, monkeypatch):
        ds, theta = self.indefinite_case()
        factored, calls = [], []
        spy_objective_factor(monkeypatch, lambda K: factored.append(K.shape))
        self.count(monkeypatch, gp_module, "_joint_cov", calls)
        self.count(monkeypatch, kernels, "dpotrf", calls)
        prob = gp_module._objective(ds, theta.mode)
        assert isinstance(prob, gp_module._Problem)
        assert prob.value(theta.values) == (gp_module.REJECTED, None)
        assert factored == [(6, 6)]
        assert calls == ["_joint_cov", "dpotrf"]

    def test_condition_raises_after_one_factorization(self, monkeypatch):
        ds, theta = self.indefinite_case()
        calls = []
        for name in ("_joint_cov", "_chol_in_place", "dpotrf"):
            self.count(monkeypatch, kernels, name, calls)
        with pytest.raises(gp_module.NumericFailure, match="not positive definite"):
            condition(ds, theta)
        assert calls == ["_joint_cov", "_chol_in_place", "dpotrf"]


class TestFit:
    def test_deterministic_given_seed(self, small_dataset):
        cfg = FitConfig(restarts=3, seed=11, max_iters=60)
        a = fit(small_dataset, cfg)
        b = fit(small_dataset, cfg)
        np.testing.assert_array_equal(a.theta.values, b.theta.values)
        assert a.lml == b.lml

    @pytest.mark.parametrize("name", ["restarts", "max_iters", "seed"])
    def test_counts_are_integers(self, name):
        # 1.5 passed the range check and failed later with TypeError, or
        # reached L-BFGS-B as max_iters
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5$"):
            FitConfig(**{name: 1.5})
        assert getattr(FitConfig(**{name: np.int64(3)}), name) == 3

    def test_reported_lml_is_max_over_restarts(self, small_dataset):
        model = fit(small_dataset, FitConfig(restarts=5, seed=3, max_iters=60))
        assert len(model.restart_lmls) == 5
        for r_lml in model.restart_lmls:
            assert model.lml >= r_lml - 1e-9

    @pytest.mark.parametrize("fitter", [fit, fit_stgp], ids=["fit", "fit_stgp"])
    def test_missing_task_rejected(self, fitter):
        obs = [Observation("S01", Location(0, 0), 0, 1.0)]
        ds = make_dataset(obs, 2, ("pH", "N"))
        with pytest.raises(ValueError, match=r"at least one observation; missing \['N'\]"):
            fitter(ds, FitConfig(restarts=1))

    def test_model_invariants(self, small_dataset):
        model = fit(small_dataset, FitConfig(restarts=2, seed=5, max_iters=60))
        L_task, ls, noise = model.theta.unpack(model.noise_floor)
        K = assemble_training_cov(
            model.dataset.task_index, model.dataset.xy, L_task @ L_task.T,
            ls, noise, model.mode,
        )
        reconstructed = model.chol_factor @ model.chol_factor.T
        np.testing.assert_allclose(reconstructed, K, atol=1e-8)
        residual = (K + model.jitter * np.eye(len(K))) @ model.alpha - model.dataset.values
        assert np.linalg.norm(residual, np.inf) <= 1e-8

    def test_single_task_matches_independent_fit(self):
        rng = np.random.default_rng(17)
        obs = []
        for j in range(8):
            obs.append(
                Observation(
                    f"S{j + 1:02d}",
                    Location(float(rng.uniform(0, 30)), float(rng.uniform(0, 30))),
                    0,
                    float(np.sin(j) + 0.1 * rng.normal()),
                )
            )
        ds = make_dataset(obs, 1)
        ours = fit(ds, FitConfig(restarts=8, seed=0, tol=1e-10))

        # independent single-task implementation: amplitude * Matern + noise
        normed, _ = normalize(ds)
        xy, y = normed.xy, normed.values
        r = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])

        def neg_lml(p):
            if np.max(np.abs(p)) > 200:  # Nelder-Mead excursion guard
                return np.inf
            amp2, l, s2 = np.exp(p)
            s2 = max(s2, 1e-8)
            K = amp2 * (1 + np.sqrt(3) * r / l) * np.exp(-np.sqrt(3) * r / l)
            K[np.diag_indices_from(K)] += s2
            try:
                L = cholesky(K, lower=True)
            except np.linalg.LinAlgError:
                return np.inf
            a = cho_solve((L, True), y)
            return 0.5 * y @ a + np.log(np.diag(L)).sum() + 0.5 * len(y) * np.log(2 * np.pi)

        rng2 = np.random.default_rng(1)
        best = np.inf
        for _ in range(12):
            x0 = np.array(
                [rng2.normal(0, 0.5), np.log(rng2.uniform(2, 40)), np.log(0.05)]
            )
            res = minimize(neg_lml, x0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
            best = min(best, res.fun)
        assert ours.lml == pytest.approx(-best, abs=1e-6)


class TestPredict:
    def model_on_prior_draw(self, noise=1e-10, seed=23):
        cfgs = SyntheticField(
            labels=("a", "b"), variances=(1.0, 1.0),
            correlations=((0, 1, 0.7),), lengthscales=(20.0, 35.0),
            noise_vars=(0.05, 0.05), width=100.0, height=80.0, n_samples=10,
        )
        ds, _ = draw_field(cfgs, seed)
        theta = theta_from_moments(
            [1.0, 1.0], np.array([[1.0, 0.7], [0.7, 1.0]]), [20.0, 35.0],
            [noise, noise], KernelMode.CONVOLVED,
        )
        return condition(ds, theta), ds

    def test_interpolates_training_points_at_tiny_noise(self):
        model, _ = self.model_on_prior_draw()
        mean, var = predict_arrays(model, model.dataset.task_index, model.dataset.xy)
        np.testing.assert_allclose(mean, model.dataset.values, atol=1e-5)
        assert np.all(var <= 1e-4)

    def test_far_field_reverts_to_prior(self):
        model, _ = self.model_on_prior_draw()
        mean, var = predict_arrays(model, [0], [(100 * 35.0 + 500.0, 0.0)])
        assert abs(mean[0]) <= 1e-6
        Kc = model.theta.task_cov()
        assert var[0] == pytest.approx(Kc[0, 0], abs=1e-6)

    def test_batch_order_preserving(self):
        model, _ = self.model_on_prior_draw()
        rng = np.random.default_rng(2)
        tasks = rng.integers(0, 2, 15)
        xy = rng.uniform(0, 100, (15, 2))
        mean, var = predict_arrays(model, tasks, xy)
        perm = rng.permutation(15)
        mean_p, var_p = predict_arrays(model, tasks[perm], xy[perm])
        # order-preserving: each query's result rides with the query,
        # bitwise, whatever block and position it lands in
        np.testing.assert_array_equal(mean_p, mean[perm])
        np.testing.assert_array_equal(var_p, var[perm])

    def test_unknown_task_rejected(self):
        model, _ = self.model_on_prior_draw()
        with pytest.raises(ValueError, match="unknown task"):
            predict_arrays(model, [2], [(0.0, 0.0)])

    def test_unknown_task_ids_named(self):
        model, _ = self.model_on_prior_draw()
        with pytest.raises(ValueError, match=re.escape(
                "unknown task ids [-1, 7]: there are 2 tasks, ids 0 to 1")):
            predict_tasks(model, [7, 0, -1, 7], [(0.0, 0.0)])

    @pytest.mark.parametrize(("entry", "tasks"), [
        ("predict_tasks", (1.5,)),
        ("predict_tasks", np.array([1.0])),
        ("predict_tasks", [0, np.nan]),
        ("predict_arrays", [1.7]),
        ("predict_arrays", np.array([True])),
        ("predict_tasks", np.array([[0, 1]])),
    ], ids=["tasks_half", "tasks_float_array", "tasks_nan", "arrays_float", "arrays_bool",
            "tasks_two_dim"])
    def test_non_integer_task_id_rejected(self, entry, tasks):
        # a float id used to be truncated to the task below it
        model, _ = self.model_on_prior_draw()
        xy = np.zeros((np.size(tasks), 2)) if entry == "predict_arrays" else [(1.0, 2.0)]
        with pytest.raises(ValueError, match="task ids must be a sequence of integers"):
            getattr(gp_module, entry)(model, tasks, xy)

    def test_mismatched_query_shapes_rejected(self):
        model, _ = self.model_on_prior_draw()
        with pytest.raises(ValueError, match="one \\(x, y\\) per task id"):
            predict_arrays(model, np.array([0]), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="one \\(x, y\\) per task id"):
            predict_arrays(model, np.array([0, 1, 0]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="one \\(x, y\\) per task id"):
            predict_arrays(model, np.array([0, 1]), np.zeros((2, 3)))

    def test_non_finite_query_rejected(self):
        model, _ = self.model_on_prior_draw()
        with pytest.raises(ValueError, match="finite"):
            predict_arrays(
                model, np.array([0, 1]), np.array([[0.0, 1.0], [np.nan, 2.0]])
            )

    @pytest.mark.parametrize("points", [[[1e200, 1e200]], [[10.0, 10.0], [-1e160, 5.0]]],
                             ids=["far", "far_after_near"])
    def test_query_whose_distances_overflow_rejected(self, points):
        # cdist squares the offsets: beyond ~1.3e154 m the distance is inf
        # and the Matérn there (1 + z)·e^(−z) = inf·0 was a NaN
        model, _ = self.model_on_prior_draw()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distances overflow"):
                predict_tasks(model, range(model.n_tasks), points)

    def test_include_noise_adds_task_variance(self):
        model, _ = self.model_on_prior_draw(noise=0.04)
        q = ([1], [(12.0, 13.0)])
        _, plain = predict_arrays(model, *q)
        _, noisy = predict_arrays(model, *q, include_noise=True)
        assert noisy[0] == pytest.approx(plain[0] + 0.04)

    def test_denormalize_rescales(self):
        model, ds = self.model_on_prior_draw(noise=0.01)
        tasks, xy = [0, 1], [(5.0, 5.0), (50.0, 40.0)]
        normed_mean, normed_var = predict_arrays(model, tasks, xy)
        raw_mean, raw_var = predict_arrays(model, tasks, xy, denormalize=True)
        stds, means = model.stats.stds, model.stats.means
        for i, t in enumerate(tasks):
            assert raw_mean[i] == pytest.approx(normed_mean[i] * stds[t] + means[t])
            assert raw_var[i] == pytest.approx(normed_var[i] * stds[t] ** 2)

    def test_no_tasks_gives_empty_rows(self):
        model, _ = self.model_on_prior_draw()
        xy = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mean, var = predict_tasks(model, (), xy)
        assert mean.shape == var.shape == (0, 3)
        mean, var = predict_arrays(model, [], np.zeros((0, 2)))
        assert mean.shape == var.shape == (0,)

    def test_model_builds_one_layout(self, monkeypatch):
        first, ds = self.model_on_prior_draw()
        built = []

        class CountingLayout(kernels._Layout):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(gp_module, "_Layout", CountingLayout)
        model = condition(ds, first.theta)
        predict_tasks(model, (0, 1), [(1.0, 2.0)])
        predict_arrays(model, [1, 0], [(3.0, 4.0), (5.0, 6.0)])
        assert built == [model.layout]

    def test_clamp_logged_once_per_call(self, monkeypatch, caplog):
        model, _ = self.model_on_prior_draw()
        solves = []

        def inflated(*args, **kwargs):
            # v = 1.01 L⁻¹K*ᵀ: at a training point vᵀv then exceeds the prior
            v = 1.01 * solve_triangular(*args, **kwargs)
            solves.append(v)
            return v

        monkeypatch.setattr(gp_module, "solve_triangular", inflated)
        ds = model.dataset
        xy = ds.xy[ds.task_index == 0]
        with caplog.at_level(logging.DEBUG, logger="soilgp.gp"):
            _, var = predict_tasks(model, (0,), xy)
            predict_tasks(model, (0,), [(1e5, 0.0)])  # far away: nothing to clamp
            predict_arrays(model, ds.task_index, ds.xy)  # one call per task
        prior = model.theta.task_cov()[0, 0]
        raw = (prior - np.einsum("ij,ij->j", solves[0], solves[0]))[: len(xy)]
        neg = raw < 0
        assert neg.any() and np.all(var[0][neg] == 0.0)
        line = (f"clamped {neg.sum()} negative predictive variances "
                f"(max magnitude {-raw.min():.3e})")
        assert caplog.messages[0] == line
        assert len(caplog.messages) == 1 + model.n_tasks
        assert all(m.startswith("clamped ") for m in caplog.messages[1:])

    def test_variance_cancellation_stays_tiny(self):
        # raw (un-clamped) predictive variance may only go negative by
        # floating-point cancellation, never materially
        model, _ = self.model_on_prior_draw(noise=1e-6)
        rng = np.random.default_rng(5)
        tasks = rng.integers(0, 2, 200)
        xy = rng.uniform(-10, 110, (200, 2))
        L_task, ls, _ = model.theta.unpack(model.noise_floor)
        Kc = L_task @ L_task.T
        Ks = assemble_cross_cov(
            tasks, xy, model.dataset.task_index, model.dataset.xy, Kc, ls, model.mode
        )
        v = solve_triangular(model.chol_factor, Ks.T, lower=True)
        raw_var = Kc[tasks, tasks] - np.einsum("ij,ij->j", v, v)
        assert raw_var.min() >= -1e-8
        _, var = predict_arrays(model, tasks, xy)
        assert np.all(var >= 0)


def partly_shared_model(mode):
    """Three tasks at twelve locations: four locations carry every task,
    three carry tasks 0 and 1, three task 2 only and two task 1 only.
    Tasks 0 and 1 have distinct length-scales inside the cross kernel's
    equal-length-scale band."""
    rng = np.random.default_rng(17)
    groups = [(0, 1, 2)] * 4 + [(0, 1)] * 3 + [(2,)] * 3 + [(1,)] * 2
    obs = []
    for j, tasks in enumerate(groups):
        loc = Location(float(rng.uniform(0, 60)), float(rng.uniform(0, 40)))
        obs += [
            Observation(f"S{j + 1:02d}", loc, t, float(rng.normal())) for t in tasks
        ]
    corr = np.array([[1.0, 0.7, -0.3], [0.7, 1.0, 0.2], [-0.3, 0.2, 1.0]])
    ls = [15.0] if mode is KernelMode.ICM else [15.0, 15.0005, 30.0]
    theta = theta_from_moments([1.0, 0.8, 1.3], corr, ls, [0.01] * 3, mode)
    return condition(make_dataset(obs, 3), theta)


def one_task_model():
    rng = np.random.default_rng(18)
    obs = [
        Observation(f"S{j + 1:02d}", Location(*map(float, rng.uniform(0, 60, 2))), 0,
                    float(rng.normal()))
        for j in range(9)
    ]
    theta = theta_from_moments([1.0], np.eye(1), [20.0], [0.01], KernelMode.CONVOLVED)
    return condition(make_dataset(obs, 1), theta)


PREDICTION_MODELS = {
    "convolved": lambda: partly_shared_model(KernelMode.CONVOLVED),
    "icm": lambda: partly_shared_model(KernelMode.ICM),
    "one-task": one_task_model,
}


class TestPredictionCore:
    """The blocked prediction core against ``assemble_cross_cov`` and one
    triangular solve over all rows, bitwise, at any block size."""

    @pytest.fixture
    def cdist_calls(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((len(a), len(b)))
            return kernels._cdist(a, b)

        monkeypatch.setattr(gp_module, "cdist", counting)
        return calls

    @pytest.mark.parametrize("name", sorted(PREDICTION_MODELS))
    def test_grid_over_several_blocks(self, name, monkeypatch, cdist_calls):
        model = PREDICTION_MODELS[name]()
        grid = GridSpec(Rect(-5, 0, 65, 40), 3.0)  # 23 x 13 = 299 cells
        monkeypatch.setattr(gp_module, "_BLOCK_BYTES", 50_000)
        # The means' product runs on scipy's BLAS, one per block (see
        # TestSamplePrior.test_product_runs_on_scipys_blas). It is the
        # kernel numpy's K* @ α runs, so the comparison below stays bitwise.
        products, real = [], gp_module.dgemv

        def dgemv(*args, **kwargs):
            products.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gp_module, "dgemv", dgemv)
        cdist_calls.clear()  # the conditioning's own
        got = predict_tasks(model, range(model.n_tasks), grid.cell_centers,
                            denormalize=True, include_noise=True)

        n_locations = len(np.unique(model.dataset.xy, axis=0))
        block = cdist_calls[0][0]
        assert len(cdist_calls) >= 3 and grid.n_cells % block != 0
        assert all(b == n_locations for _, b in cdist_calls)  # one per block
        assert len(products) == len(cdist_calls)

        n, p = model.n_tasks, grid.n_cells
        tasks = np.repeat(np.arange(n), p)
        xy = np.tile(grid.cell_centers, (n, 1))
        mean, var = reference_prediction(model, tasks, xy)
        _, _, noise = model.theta.unpack(model.noise_floor)
        stds, means = model.stats.stds[tasks], model.stats.means[tasks]
        mean = mean * stds + means
        var = (var + noise[tasks]) * stds**2
        np.testing.assert_array_equal(got[0].reshape(-1), mean)
        np.testing.assert_array_equal(got[1].reshape(-1), var)

    @pytest.mark.parametrize("budget", [1, 20_000, None])
    @pytest.mark.parametrize("name", sorted(PREDICTION_MODELS))
    def test_mixed_task_rows(self, name, budget, monkeypatch):
        model = PREDICTION_MODELS[name]()
        if budget is not None:  # 1 byte: a block of one point
            monkeypatch.setattr(gp_module, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(19)
        tasks = rng.integers(0, model.n_tasks, 203)
        xy = rng.uniform(-10, 70, (203, 2))
        xy[:9] = model.dataset.xy[:9]  # training locations too
        got_mean, got_var = predict_arrays(model, tasks, xy)
        mean, var = reference_prediction(model, tasks, xy)
        np.testing.assert_array_equal(got_mean, mean)
        np.testing.assert_array_equal(got_var, var)


class TestTaskCorrelations:
    def test_identity_factor_gives_zero_offdiagonals(self, small_dataset):
        theta = theta_from_moments(
            [1.0, 1.0], np.eye(2), [10.0, 10.0], [0.1, 0.1], KernelMode.CONVOLVED
        )
        corr = task_correlations(condition(small_dataset, theta))
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0

    def test_hand_value(self, small_dataset):
        theta = theta_from_moments(
            [1.0, 1.0], np.array([[1.0, 0.9], [0.9, 1.0]]), [10.0, 10.0],
            [0.1, 0.1], KernelMode.CONVOLVED,
        )
        corr = task_correlations(condition(small_dataset, theta))
        assert corr[0, 1] == pytest.approx(0.9, abs=1e-12)

    def test_unit_diagonal_exactly(self, small_dataset):
        model = fit(small_dataset, FitConfig(restarts=2, seed=9, max_iters=50))
        corr = task_correlations(model)
        np.testing.assert_array_equal(np.diag(corr), np.ones(2))
        np.testing.assert_allclose(corr, corr.T, atol=1e-15)
        assert np.all(np.abs(corr) <= 1 + 1e-12)


class TestFitStgp:
    def test_one_model_per_task(self):
        cfgs = SyntheticField(n_samples=8, width=100.0, height=80.0)
        ds, _ = draw_field(cfgs, 3)
        models = fit_stgp(ds, FitConfig(restarts=1, seed=0, max_iters=40))
        assert len(models) == 4
        for m in models:
            assert m.n_tasks == 1

    def test_ignores_other_tasks_bitwise(self):
        cfgs = SyntheticField(n_samples=8, width=100.0, height=80.0)
        ds, _ = draw_field(cfgs, 4)
        cfg = FitConfig(restarts=2, seed=1, max_iters=50)
        full = fit_stgp(ds, cfg)

        only_ph = make_dataset(
            [o for o in ds.observations if o.task == 0], 1, ("pH",)
        )
        alone = fit(only_ph, cfg)
        np.testing.assert_array_equal(full[0].theta.values, alone.theta.values)

        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 100, (20, 2))
        a = predict_arrays(full[0], np.zeros(20, dtype=np.intp), xy)
        b = predict_arrays(alone, np.zeros(20, dtype=np.intp), xy)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_matches_mtgp_on_independent_tasks(self):
        # with a truly independent prior the paired RMSE difference over
        # seeds is statistically indistinguishable from zero
        cfgs = SyntheticField(
            labels=("a", "b"), variances=(1.0, 1.0), correlations=(),
            lengthscales=(25.0, 30.0), noise_vars=(0.01, 0.01),
            width=120.0, height=100.0, n_samples=14,
        )
        gx, gy = np.meshgrid((np.arange(8) + 0.5) * 15, (np.arange(8) + 0.5) * 12.5)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        diffs = []
        for seed in range(20):
            ds, truth = draw_field(cfgs, 600 + seed, truth_xy=grid)
            cfg = FitConfig(restarts=4, seed=seed)
            m_mt = fit(ds, cfg)
            m_st = fit_stgp(ds, cfg)
            g = grid.shape[0]
            for t in range(2):
                p_mt, _ = predict_arrays(
                    m_mt, np.full(g, t, dtype=np.intp), grid, denormalize=True
                )
                p_st, _ = predict_arrays(
                    m_st[t], np.zeros(g, dtype=np.intp), grid, denormalize=True
                )
                diffs.append(rmse(p_mt, truth.values[t]) - rmse(p_st, truth.values[t]))
        _, p_value = ttest_rel(diffs, np.zeros(len(diffs)))
        assert p_value > 0.01


class TestSamplePrior:
    """The prior draw, :func:`synthetic.draw_field`, at given locations."""

    def make_field(self, n_samples):
        return SyntheticField(
            labels=("a", "b"), variances=(1.0, 1.0),
            correlations=((0, 1, 0.8),), lengthscales=(10.0, 10.0),
            noise_vars=(0.3, 0.3), n_samples=n_samples,
        )

    def draw(self, locs, seed):
        return draw_field(self.make_field(len(locs)), seed, locations=locs)[0]

    @pytest.mark.parametrize("labels, message", [
        (("p H", "N", "P", "K"), "invalid task label 'p H'"),
        (tuple(f"T{i}" for i in range(17)), "more than 16 task labels"),
        (("pH", "N", "pH", "K"), "task labels must be unique"),
    ], ids=["space", "seventeen", "repeated"])
    def test_labels_follow_the_observation_file_rule(self, labels, message):
        # refused before anything is drawn: the space drew and wrote a file
        # that parse_observations refuses
        with pytest.raises(ValueError, match=message):
            SyntheticField(labels=labels, n_samples=4)

    def test_n_samples_is_an_integer(self):
        with pytest.raises(ValueError, match="^n_samples must be an integer, got 2.5$"):
            SyntheticField(n_samples=2.5)
        assert SyntheticField(n_samples=np.int64(4)).n_samples == 4

    def test_seed_is_an_integer(self):
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
            draw_field(SyntheticField(n_samples=4), 1.5)

    def test_extent_whose_distances_overflow_refused(self):
        with pytest.raises(ValueError, match="width 1e\\+200 and height 1.0"):
            SyntheticField(width=1e200, height=1.0)
        SyntheticField(width=1e150, height=1e150)  # squares stay finite

    def test_shape_and_ordering(self):
        locs = [Location(0, 0), Location(5, 5), Location(9, 2)]
        ds = self.draw(locs, seed=0)
        assert len(ds) == 6 and ds.labels == ("a", "b")
        assert ds.sample_order == ("S01", "S02", "S03")
        assert list(ds.task_index[:2]) == [0, 1]  # sample-major layout

    def test_deterministic_per_seed(self):
        locs = [Location(0, 0), Location(5, 5)]
        a = self.draw(locs, seed=7)
        b = self.draw(locs, seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        c = self.draw(locs, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_monte_carlo_covariance(self):
        locs = [Location(0, 0), Location(4, 0), Location(0, 6)]
        draws = np.stack([self.draw(locs, seed=s).values for s in range(2000)])
        empirical = np.cov(draws, rowvar=False, bias=True)
        L_task, ls, noise = prior_theta(self.make_field(3)).unpack()
        tasks = np.tile(np.arange(2), 3)
        xy = np.repeat(np.array([(p.x, p.y) for p in locs]), 2, axis=0)
        expected = assemble_training_cov(
            tasks, xy, L_task @ L_task.T, ls, noise, KernelMode.CONVOLVED
        )
        np.testing.assert_allclose(empirical, expected, rtol=0.10, atol=0.02)

    # (field, sample locations or None for random ones, truth points, mask)
    GRID = [(x, y) for y in (10.0, 30.0, 50.0) for x in (5.0, 25.0, 45.0, 65.0)]
    DRAWS = {
        "convolved_truth": (SyntheticField(n_samples=12, width=80.0, height=60.0),
                            GRID, np.array(GRID) + 3.0, None),
        "icm_random": (SyntheticField(labels=("a", "b", "c"),
                                      variances=(1.0, 2.0, 0.5),
                                      correlations=((0, 2, -0.6),),
                                      lengthscales=(30.0,), noise_vars=(0.1,) * 3,
                                      n_samples=10, width=90.0, height=70.0,
                                      mode=KernelMode.ICM),
                       None, np.array(GRID[:7]) * 1.3, None),
        "observed_mask": (SyntheticField(n_samples=12, width=80.0, height=60.0),
                          GRID, None, np.arange(48).reshape(12, 4) % 3 != 1),
        # the second truth point is the third sample location: one location
        # carries each task twice, as a sample and as a truth point
        "truth_on_sample": (SyntheticField(n_samples=12, width=80.0, height=60.0),
                            GRID, np.array([(1.0, 2.0), GRID[2], (70.0, 55.0)]), None),
    }

    @staticmethod
    def reference_draw(cfg, seed, truth_xy, observed, locations):
        """draw_field written out from the public kernels: the dense
        assemble_training_cov, K + 1e-10·I and scipy's cholesky, on the same
        generator stream. Returns (the joint covariance, the training
        values, the truth values or None)."""
        rng = np.random.default_rng(seed)
        if locations is None:
            locations = rng.uniform((0.0, 0.0), (cfg.width, cfg.height),
                                    size=(cfg.n_samples, 2))
        L_task, ls, _ = prior_theta(cfg).unpack()
        n, m = cfg.n_tasks, cfg.n_samples
        g = 0 if truth_xy is None else len(truth_xy)
        tasks = np.concatenate([np.tile(np.arange(n), m), np.repeat(np.arange(n), g)])
        xy = np.repeat(np.asarray(locations, dtype=float), n, axis=0)
        if g:
            xy = np.vstack([xy, np.tile(truth_xy, (n, 1))])
        K = assemble_training_cov(tasks, xy, L_task @ L_task.T, ls, np.zeros(n), cfg.mode)
        latent = cholesky(K + 1e-10 * np.eye(len(tasks)), lower=True) @ rng.standard_normal(
            len(tasks))
        noise = rng.standard_normal(m * n) * np.sqrt(np.asarray(cfg.noise_vars))[tasks[: m * n]]
        y = latent[: m * n] + noise
        if observed is not None:
            y = y[observed.reshape(-1)]
        return K, y, None if g == 0 else latent[m * n :].reshape(n, g)

    @pytest.mark.parametrize("budget", [None, 20_000], ids=["one_block", "blocks"])
    @pytest.mark.parametrize("case", sorted(DRAWS))
    def test_bitwise_equal_to_dense_reference(self, case, budget, monkeypatch):
        cfg, locs, truth_xy, observed = self.DRAWS[case]
        if budget is not None:
            monkeypatch.setattr(kernels, "_BLOCK_BYTES", budget)
        factored, tables = [], []
        factor = kernels._chol_in_place

        def chol_spy(K):  # the joint matrix the draw factors, not the n×n prior's
            if len(K) > cfg.n_tasks:
                factored.append(K.copy())
            return factor(K)

        def table_spy(*args):
            tables.append(args[0].shape)
            return cross_cov_table(*args)

        monkeypatch.setattr(kernels, "_chol_in_place", chol_spy)
        monkeypatch.setattr(kernels, "cross_cov_table", table_spy)
        ds, truth = draw_field(cfg, 21, truth_xy=truth_xy, observed=observed,
                               locations=locs)
        K, y, truth_values = self.reference_draw(cfg, 21, truth_xy, observed, locs)
        if budget is None:
            assert len(tables) == 1
        else:  # every block of distinct locations, and at least three of them
            assert len(tables) >= 3
            assert sum(r for r, _ in tables) == tables[0][1]
        (drawn_K,) = factored  # its diagonal carries the draw's jitter
        assert np.array_equal(drawn_K, K + 1e-10 * np.eye(len(K)))
        assert np.array_equal(drawn_K, drawn_K.T)
        assert np.array_equal(ds.values, y)
        if truth_values is None:
            assert truth is None
        else:
            assert np.array_equal(truth.values, truth_values)

    def test_product_runs_on_scipys_blas(self, monkeypatch):
        # numpy and scipy each bundle their own OpenBLAS with its own worker
        # threads. A threaded product on numpy's leaves its worker busy
        # while the next threaded scipy call starts, and the two share the
        # cores: back-to-back draws took ~1.6x a draw after a pause (2 vCPU
        # Xeon). The bits agree either way, so only this test catches the
        # product's return to numpy.
        products, real = [], synthetic.dgemv

        def dgemv(*args, **kwargs):
            out = real(*args, **kwargs)
            products.append((args, kwargs, out))
            return out

        monkeypatch.setattr(synthetic, "dgemv", dgemv)
        cfg = SyntheticField(n_samples=20, width=100.0, height=80.0)
        truth_xy = np.random.default_rng(3).uniform(0, 80, (180, 2))
        draw_field(cfg, 5, truth_xy=truth_xy)
        ((args, kwargs, latent),) = products  # one product, Lf z, on the N×N factor
        alpha, Lf, z = args
        assert alpha == 1.0 and not kwargs and Lf.shape == (800, 800)
        assert np.array_equal(latent, Lf @ z)  # numpy's product of the same operands

    def test_memory_holds_covariance_and_factor_only(self):
        # 20 samples + 180 truth points, 4 tasks: N = 800. The dense
        # assembly and the jittered factorization kept about eight N×N
        # arrays alive, and a factor copied from the covariance two; the
        # draw needs one, the covariance factored in its own memory.
        cfg = SyntheticField(n_samples=20, width=100.0, height=80.0)
        gx, gy = np.meshgrid(np.arange(18) * 5.0 + 2.0, np.arange(10) * 7.0 + 4.0)
        truth_xy = np.column_stack([gx.ravel(), gy.ravel()])
        out, peak, held = traced_squares(lambda: draw_field(cfg, 5, truth_xy=truth_xy),
                                         4 * (20 + len(truth_xy)))
        assert held < 0.05  # the outputs are small
        assert peak - held < 1.5
        assert out[1].values.shape == (4, 180)


class TestStructuralInvariants:
    def test_translation_invariance(self):
        ds, theta = random_instance(77, n_tasks=2, max_points=8)
        shift = np.array([123.4, -56.7])
        moved = make_dataset(
            [
                Observation(
                    o.sample_id,
                    Location(o.location.x + shift[0], o.location.y + shift[1]),
                    o.task,
                    o.value,
                )
                for o in ds.observations
            ],
            ds.n_tasks,
            ds.labels,
        )
        assert log_marginal_likelihood(theta, moved) == pytest.approx(
            log_marginal_likelihood(theta, ds), abs=1e-8
        )
        m1 = condition(ds, theta)
        m2 = condition(moved, theta)
        q = np.array([[3.0, 4.0], [20.0, 1.0]])
        r1 = predict_arrays(m1, np.array([0, 1]), q)
        r2 = predict_arrays(m2, np.array([0, 1]), q + shift)
        np.testing.assert_allclose(r1[0], r2[0], atol=1e-8)
        np.testing.assert_allclose(r1[1], r2[1], atol=1e-8)
        np.testing.assert_allclose(
            task_correlations(m1), task_correlations(m2), atol=1e-12
        )

    def test_lml_invariant_under_observation_reordering(self):
        ds, theta = random_instance(88, n_tasks=2, max_points=8)
        base = log_marginal_likelihood(theta, ds)
        obs = list(ds.observations)
        moved = obs[:2] + obs[3:] + [obs[2]]  # delete then re-add at the end
        reordered = make_dataset(moved, ds.n_tasks, ds.labels)
        assert log_marginal_likelihood(theta, reordered) == pytest.approx(
            base, abs=1e-10
        )
