"""Multi-task Gaussian-process training, prediction and diagnostics.

Hyperparameters are selected by maximizing the log marginal likelihood

    log p(y | X, θ) = −½ yᵀ(K+Σ)⁻¹y − ½ log det(K+Σ) − (M/2) log 2π

with a multi-start quasi-Newton ascent (L-BFGS-B) in the unconstrained
packed space. Fitting operates on per-task z-scored values; predictions
can be returned in normalized or original units.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
# cho_solve is no longer called here (the objective calls LAPACK's potrs
# directly), but bench/tracing.py patches it in this module by name.
from scipy.linalg import cho_solve, cholesky as scipy_cholesky, solve_triangular  # noqa: F401
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrs, dsyevd

from .data import Dataset, NormStats, Observation, make_dataset, normalize
from .kernels import (
    JITTER_LADDER,
    NOISE_FLOOR,
    KernelMode,
    NumericFailure,
    _chol_in_place,
    _joint_chol,
    _joint_cov,
    _Layout,
    _cdist as cdist,  # under scipy's name, which bench/tracing.py patches here
    _tril_slots,
    _unpack,
    cross_cov_table,
    pack_theta,
    theta_dim,
    unpack_theta,
)

__all__ = [
    "HyperParams",
    "FitConfig",
    "FittedModel",
    "log_marginal_likelihood",
    "lml_gradient",
    "fit",
    "condition",
    "predict_arrays",
    "predict_tasks",
    "task_correlations",
    "correlation_matrix",
    "fit_stgp",
    "theta_from_moments",
]

logger = logging.getLogger(__name__)

LOG_2PI = np.log(2.0 * np.pi)

REJECTED = -np.inf  # sentinel for hyperparameters whose covariance is not PSD


@dataclass(frozen=True)
class HyperParams:
    """Packed unconstrained hyperparameter vector.

    Layout (see kernels.pack_theta): task-factor entries with
    log-diagonal, then log length-scale(s), then log noise variances.
    """

    values: np.ndarray
    n_tasks: int
    mode: KernelMode

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # own copy; frozen below
        if v.shape != (theta_dim(self.n_tasks, self.mode),):
            raise ValueError(
                f"theta dimension mismatch: {v.shape} for n_tasks={self.n_tasks}, "
                f"mode={self.mode.value}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("theta entries must be finite")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    def unpack(self, noise_floor: float = NOISE_FLOOR):
        """(L, lengthscales, noise_variances) with the floor applied."""
        return unpack_theta(self.values, self.n_tasks, self.mode, noise_floor)

    def task_cov(self) -> np.ndarray:
        L, _, _ = self.unpack()
        return L @ L.T


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 8
    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0
    mode: KernelMode = KernelMode.CONVOLVED

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        _positive_finite("tol", self.tol)


def _positive_finite(name: str, v):
    """``v``, or ValueError naming ``name`` unless it is positive and finite."""
    if not (np.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return v


@dataclass(frozen=True)
class FittedModel:
    """Trained state: hyperparameters plus the cached training solve.

    Immutable after construction; safe for concurrent read-only
    prediction.
    """

    theta: HyperParams
    dataset: Dataset  # values in normalized units
    stats: NormStats
    layout: _Layout  # the training rows' slots, which prediction gathers through
    chol_factor: np.ndarray  # lower Cholesky of K + Σ (+ jitter)
    alpha: np.ndarray  # (K + Σ)⁻¹ y
    lml: float
    jitter: float
    restart_lmls: tuple[float, ...] = field(default=())

    @property
    def n_tasks(self) -> int:
        return self.theta.n_tasks

    @property
    def noise_floor(self) -> float:
        return NOISE_FLOOR

    @property
    def mode(self) -> KernelMode:
        return self.theta.mode


# ---------------------------------------------------------------------------
# Marginal likelihood and gradient
# ---------------------------------------------------------------------------


class _Problem:
    """Per-dataset quantities of the dense objective, reused across
    optimizer iterations, so that an evaluation does only its arithmetic:
    the geometry is computed once, the solves call LAPACK directly, and
    the gradient writes into workspaces kept from its first call. Each
    evaluation performs the same floating-point operations in the same
    order as scipy's cholesky and cho_solve on the assembled covariance,
    so its results are bitwise those of that reference."""

    def __init__(self, dataset: Dataset, mode: KernelMode):
        self.n_tasks = n = dataset.n_tasks
        self.n_ls = mode.n_lengthscales(n)
        self.tasks = t = dataset.task_index
        # each row's length-scale: its task's, or under ICM the one shared
        self.ls_index = t if mode is KernelMode.CONVOLVED else np.zeros_like(t)
        self.y = dataset.values  # finite: Observation refuses any other value
        self.m = len(self.y)
        # task-pair code t_p·n + t_q of every entry, in the narrowest
        # unsigned type (one byte per entry for up to 16 tasks)
        self.pair = (t[:, None] * n + t[None, :]).astype(np.min_scalar_type(n * n - 1))
        self.layout = _Layout(t, dataset.xy, n)
        self.blocks = list(self.layout.blocks(2))  # the spatial matrix and ∂/∂l
        self._work = None  # the gradient's M×M workspaces

    def value(self, theta_vec):
        """(lml, state), or (REJECTED, None). The state holds the Cholesky
        factor, the jitter, α = K⁻¹y and what :meth:`gradient` reuses."""
        try:
            _check_theta(theta_vec)
            L, ls, noise = _unpack(theta_vec, self.n_tasks, self.n_ls, NOISE_FLOOR)
            Kce = (L @ L.T).take(self.pair)  # Kc[t_p, t_q] for every entry
            S, dS = _joint_cov(self.layout, self.blocks, None, ls, dl=True)
            diag = noise[self.tasks]
            def build():
                K = Kce * S
                K.reshape(-1)[:: self.m + 1] += diag  # the diagonal
                return K.T  # K is bitwise symmetric: this is K in Fortran order
            Lf, jitter = _chol_in_place(build, JITTER_LADDER)
        except NumericFailure:
            return REJECTED, None
        alpha, lml = _solve(Lf, self.y)
        return lml, (Lf, jitter, alpha, (S, dS, L, Kce, ls))

    def gradient(self, state, theta_vec):
        Lf, _, alpha, (S, dS, L, Kce, ls) = state
        n = self.n_tasks
        t = self.tasks
        if self._work is None:
            # Built here, not in __init__: a value-only use
            # (log_marginal_likelihood) holds no gradient workspace.
            self._work = np.empty((self.m, self.m)), np.empty((self.m, self.m), order="F")
        W, eye = self._work
        np.multiply(alpha[:, None], alpha[None, :], out=W)  # ααᵀ
        eye.fill(0.0)
        eye.T.reshape(-1)[:: self.m + 1] = 1.0
        # cho_solve((Lf, True), I), written over the Fortran-ordered identity
        Kinv, _ = dpotrs(Lf, eye, lower=1, overwrite_b=1)
        W -= Kinv
        # K⁻¹ is spent: its memory, read through the C-ordered transpose,
        # holds the products below, C-ordered as the sums need
        WX = Kinv.T

        # Task factor: A_ab = Σ W∘S over the entries of task pair (a, b)
        np.multiply(W, S, out=WX)
        A = np.bincount(
            self.pair.reshape(-1), weights=WX.reshape(-1), minlength=n * n
        ).reshape(n, n)

        # Length-scales: row sums of W∘Kce∘∂S/∂l_i (W, K symmetric: a row counts
        # its column's share), binned by each row's length-scale
        np.multiply(W, Kce, out=WX)
        WX *= dS
        g_ls = np.bincount(self.ls_index, weights=np.sum(WX, axis=1), minlength=self.n_ls) * ls

        # Noise variances
        g_noise = 0.5 * np.bincount(t, weights=W.reshape(-1)[:: self.m + 1], minlength=n)
        return _pack_gradient(A, L, g_ls, g_noise, theta_vec)


# Magnitude bound on packed entries: keeps exp() and the Kc = L Lᵀ
# products finite, so extreme line-search proposals reject cleanly
# instead of overflowing. After it, exp() of the length-scale entries
# gives positive, finite length-scales, which the objective relies on.
_THETA_CAP = 250.0


def _check_theta(theta_vec):
    if not (np.abs(theta_vec) <= _THETA_CAP).all():  # also false for NaN and ±inf
        raise NumericFailure("hyperparameter vector out of numeric range")


def _solve(Lf, y):
    """(α = K⁻¹y, the LML) from the lower Cholesky factor of K."""
    alpha, _ = dpotrs(Lf, y, lower=1)  # cho_solve((Lf, True), y)
    return alpha, -0.5 * y @ alpha - np.log(Lf.diagonal()).sum() - 0.5 * len(y) * LOG_2PI


def _pack_gradient(A, L, g_ls, g_noise, theta_vec):
    """The packed gradient from the task-factor term A (the LML's
    gradient in Kc is ½A), the length-scale gradient in log space and
    the noise gradient ½ Σ_p W_pp per task in variance space."""
    rows, cols, diag = _tril_slots(L.shape[0])
    g_chol = (A @ L)[rows, cols]  # dK/dL_ab = (δ_ia L_jb + δ_ja L_ib) S
    g_chol[diag] *= L.diagonal()  # chain through the log-diagonal
    # noise: chain through the log, zero below the floor, where it is clamped
    raw = np.exp(theta_vec[-L.shape[0]:])
    return np.concatenate([g_chol, g_ls, g_noise * raw * (raw > NOISE_FLOOR)])


class _KroneckerProblem:
    """The objective of a homotopic ICM dataset on the Kronecker eigen-path.

    Every one of the m distinct locations carries every one of the n
    tasks once, so in task-major order the covariance is
    K = Kc ⊗ Ks + D ⊗ I, with D the per-task noise (Bonilla, Chai &
    Williams, NeurIPS 2007; Rakitsch et al., NeurIPS 2013). Whitening by
    the noise and taking D^{-½} Kc D^{-½} = U Λ Uᵀ and Ks = V S Vᵀ
    separately gives, with P = D^{-½} U and G = λ sᵀ + 1 (n×m),

        K⁻¹ = (P ⊗ V) diag(vec G)⁻¹ (P ⊗ V)ᵀ,  log det K = Σ log G + m Σ log d_i,

    so the LML and its gradient cost O(n³ + m³) instead of O((nm)³). It
    agrees with the dense :class:`_Problem` to rounding, not bitwise.
    """

    def __init__(self, Y: np.ndarray, r: np.ndarray):
        self.y = Y  # n×m: the values of task i at location p in row i, column p
        self.n_tasks, self.m = Y.shape
        self.r = r  # the m×m distances between the locations

    @classmethod
    def from_dataset(cls, dataset: Dataset):
        """The problem of a homotopic dataset, in any row order; None when
        some location lacks a task or carries one twice."""
        n = dataset.n_tasks
        layout = _Layout(dataset.task_index, dataset.xy, n)
        slot = layout.slot
        if len(slot) != n * layout.u or np.bincount(slot).max() > 1:
            return None
        Y = np.empty(len(slot))
        Y[slot] = dataset.values
        return cls(Y.reshape(n, layout.u), layout.distances())

    def value(self, theta_vec):
        """(lml, what :meth:`gradient` reuses), or (REJECTED, None)."""
        try:
            _check_theta(theta_vec)
            L, ls, noise = _unpack(theta_vec, self.n_tasks, 1, NOISE_FLOOR)  # ICM: one l
            Kc = L @ L.T
            Ks, dKs = np.empty((2, self.m, self.m))  # the one-task table
            cross_cov_table(self.r, (0,), None, ls, Ks[None, None], dKs[None, None])
            s, V = _eigh(Ks)
            d, w, lam, U, G = _whitened_eigh(Kc, noise, s)
        except (NumericFailure, np.linalg.LinAlgError):
            return REJECTED, None
        P = U * w[:, None]
        Ginv = 1.0 / G
        Y = _dot(_dot(P.T, self.y), V)  # the data in the eigenbasis
        Y *= Ginv
        alpha = _dot(_dot(P, Y), V.T)
        lml = (
            -0.5 * np.sum(self.y * alpha)
            - 0.5 * (np.log(G).sum() + self.m * np.log(d).sum())
            - 0.5 * self.y.size * LOG_2PI
        )
        return lml, (L, Kc, ls, Ks, dKs, s, V, lam, P, Ginv, alpha)

    def gradient(self, state, theta_vec):
        L, Kc, ls, Ks, dKs, s, V, lam, P, Ginv, alpha = state
        # Task factor: A = α Ks αᵀ − P diag(G⁻¹s) Pᵀ
        A = _dot(_dot(alpha, Ks), alpha.T)
        A -= (P * (Ginv @ s)) @ P.T
        # Length-scale: Σ (αᵀKcα − V diag(ΛG⁻¹) Vᵀ) ∘ dKs · l, dKs = ∂k/∂l_i = ½ dk/dl
        B = _dot(alpha.T, _dot(Kc, alpha))
        B -= _dot(V * (lam @ Ginv), V.T)
        B *= dKs
        g_ls = np.array([np.sum(B) * ls[0]])
        # Noise: ½ (Σ_p α_ip² − Σ_k P_ik² Σ_q G⁻¹_kq)
        g_noise = 0.5 * (np.sum(alpha**2, axis=1) - P**2 @ Ginv.sum(axis=1))
        return _pack_gradient(A, L, g_ls, g_noise, theta_vec)


# One BLAS per fit. numpy and scipy each load their own OpenBLAS, each with
# its own pool of worker threads, and L-BFGS-B runs on scipy's between
# evaluations. So every LAPACK or BLAS call of the eigen-path with an
# m-sized operand is scipy's too: _eigh, and the products through _dot.
# With them on numpy's pool the two pools' threads competed for the cores.
# On a 2 vCPU Xeon an evaluation inside a fit took a median 6.6 ms against
# 0.28 ms with one pool at n = 4, M = 120, and 14.5 ms against 6.6 ms at
# the benchmark's `large` (n = 4, M = 1000) (BENCH_9.json).
def _dot(a, b):
    """a @ b of 2-D arrays on scipy's dgemm. dgemm reads Fortran order: the
    product is formed as (bᵀaᵀ)ᵀ, each operand passed as its
    Fortran-ordered view with the transpose flag that undoes it, so no
    C- or Fortran-ordered operand is copied."""
    bt, tb = (b.T, 0) if b.flags.c_contiguous else (b, 1)
    at, ta = (a.T, 0) if a.flags.c_contiguous else (a, 1)
    return dgemm(1.0, bt, at, trans_a=tb, trans_b=ta).T


def _eigh(a):
    """(ascending eigenvalues, eigenvectors) of the symmetric a, from its
    lower triangle, by scipy's LAPACK syevd: the call that
    scipy.linalg.eigh(a, driver="evd") makes, without its ~15 µs of
    argument checks per call, which made an n = 4, M = 40 evaluation
    slower than on numpy's eigh."""
    s, V, info = dsyevd(a, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"syevd failed to converge (info {info})")
    return s, V


def _whitened_eigh(Kc, noise, s):
    """(d, d^{-½}, Λ, U, G) of the first rung of the jitter ladder whose
    whitening d = noise + jitter leaves every G = λ sᵀ + 1 positive, the
    Kronecker form of the dense path's Cholesky of K + jitter·I.

    Under ICM the exact K is positive definite for any positive noise, so
    either path rejects only from rounding, and near such a point the two
    can decide differently: the whitened G keeps a 1e-8 noise that the
    dense Cholesky loses against a task covariance of ~1e25."""
    for jitter in JITTER_LADDER:
        d = noise + jitter
        w = 1.0 / np.sqrt(d)
        white = Kc * np.outer(w, w)
        if not np.all(np.isfinite(white)):
            raise NumericFailure("covariance contains non-finite entries")
        lam, U = _eigh(white)
        G = np.outer(lam, s)
        G += 1.0
        if np.all(G > 0):
            return d, w, lam, U, G
    raise NumericFailure(
        f"covariance not positive definite after jitter {JITTER_LADDER[-1]:g}"
    )


def _objective(dataset: Dataset, mode: KernelMode):
    """The objective's per-dataset problem: the Kronecker eigen-path for a
    homotopic ICM dataset of two or more tasks, the dense path otherwise
    (with one task the dense Cholesky is the faster)."""
    if mode is KernelMode.ICM and dataset.n_tasks >= 2:
        kron = _KroneckerProblem.from_dataset(dataset)
        if kron is not None:
            return kron
    return _Problem(dataset, mode)


def _check_tasks(theta: HyperParams, dataset: Dataset):
    if theta.n_tasks != dataset.n_tasks:
        raise ValueError(
            f"theta is for {theta.n_tasks} tasks, dataset has {dataset.n_tasks}"
        )


def log_marginal_likelihood(theta: HyperParams, dataset: Dataset) -> float:
    """Log evidence of the data under theta; −inf when the covariance is
    rejected (its factorization fails at every rung of the jitter ladder).
    Homotopic ICM data of two or more tasks is evaluated on the Kronecker
    eigen-path, which agrees with the dense one to rounding."""
    _check_tasks(theta, dataset)
    prob = _objective(dataset, theta.mode)
    return prob.value(theta.values)[0]


def lml_gradient(theta: HyperParams, dataset: Dataset) -> np.ndarray:
    """Gradient of the log marginal likelihood in the packed space."""
    _check_tasks(theta, dataset)
    prob = _objective(dataset, theta.mode)
    lml, state = prob.value(theta.values)
    if lml == REJECTED:
        raise NumericFailure("cannot differentiate a rejected hyperparameter point")
    return prob.gradient(state, theta.values)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _initial_theta(rng: np.random.Generator, n: int, mode: KernelMode, extent: float):
    # near-identity factor: 0.1-scale noise on the log-diagonal and
    # off-diagonal entries (one scalar draw per packed entry, in order)
    tri = [0.1 * rng.standard_normal() for _ in range(n * (n + 1) // 2)]
    lo, hi = np.log(extent / 20.0), np.log(extent)
    log_ls = rng.uniform(lo, hi, size=mode.n_lengthscales(n))
    log_noise = np.full(n, np.log(0.05))
    return np.concatenate([tri, log_ls, log_noise])


def _data_extent(dataset: Dataset) -> float:
    b = dataset.field_bounds
    extent = max(b.width, b.height)
    return extent if extent > 0 else 1.0


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first fit: a command that
    only predicts never loads scipy's optimizer (about 21 MB resident)."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _optimize(prob, config: FitConfig, x0: np.ndarray):
    def objective(x):
        lml, state = prob.value(x)
        if lml == REJECTED:
            return np.inf, np.zeros_like(x)
        return -lml, -prob.gradient(state, x)

    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": config.max_iters, "ftol": config.tol, "gtol": 1e-6},
    )
    final_lml = -res.fun if np.isfinite(res.fun) else REJECTED
    return res.x, final_lml


def fit(dataset: Dataset, config: FitConfig) -> FittedModel:
    """Maximum-marginal-likelihood fit with seeded multi-start.

    Deterministic for a given (dataset, config): restarts are drawn from
    one seeded generator and the best restart is chosen by strict
    maximum (earliest restart wins ties).
    """
    counts = dataset.counts_per_task()
    if np.any(counts == 0):
        missing = [dataset.labels[i] for i in np.flatnonzero(counts == 0)]
        raise ValueError(f"every task needs at least one observation; missing {missing}")
    norm_ds, stats = normalize(dataset)
    prob = _objective(norm_ds, config.mode)
    extent = _data_extent(norm_ds)
    rng = np.random.default_rng(config.seed)

    best = None
    restart_lmls = []
    for _ in range(config.restarts):
        x0 = _initial_theta(rng, dataset.n_tasks, config.mode, extent)
        x, final_lml = _optimize(prob, config, x0)
        restart_lmls.append(final_lml)
        if final_lml != REJECTED and (best is None or final_lml > best[1]):
            best = (x, final_lml)
    del prob  # freed before the dense build below, which holds one M×M array
    if best is None:
        raise NumericFailure("all restarts rejected; hyperparameter search failed")

    theta = HyperParams(best[0], dataset.n_tasks, config.mode)
    return _build_model(norm_ds, stats, theta, tuple(restart_lmls))


def condition(dataset: Dataset, theta: HyperParams) -> FittedModel:
    """Model at fixed hyperparameters (no optimization); data is
    normalized exactly as in :func:`fit`."""
    norm_ds, stats = normalize(dataset)
    return _build_model(norm_ds, stats, theta, ())


def _build_model(norm_ds, stats, theta, restart_lmls) -> FittedModel:
    # always dense: prediction needs the Cholesky factor (the objective's, bitwise)
    _check_tasks(theta, norm_ds)
    _check_theta(theta.values)
    L, ls, noise = theta.unpack()
    t = norm_ds.task_index
    layout = _Layout(t, norm_ds.xy, theta.n_tasks)
    Lf, jitter = _joint_chol(layout, L @ L.T, ls, noise[t], JITTER_LADDER)
    alpha, lml = _solve(Lf, norm_ds.values)
    Lf.flags.writeable = False
    alpha.flags.writeable = False
    return FittedModel(
        theta=theta,
        dataset=norm_ds,
        stats=stats,
        layout=layout,
        chol_factor=Lf,
        alpha=alpha,
        lml=lml,
        jitter=jitter,
        restart_lmls=restart_lmls,
    )


# ---------------------------------------------------------------------------
# Prediction and diagnostics
# ---------------------------------------------------------------------------


def predict_arrays(
    model: FittedModel,
    q_tasks: np.ndarray,
    q_xy: np.ndarray,
    denormalize: bool = False,
    include_noise: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at (task, location) rows, one row per
    entry of ``q_tasks`` with its point in ``q_xy`` (Q×2), as two arrays
    of Q. The rows of each task go through :func:`predict_tasks`
    together, so a row pays for its own task only.
    """
    q_tasks = np.asarray(q_tasks, dtype=np.intp)
    q_xy = np.asarray(q_xy, dtype=float)
    if q_tasks.ndim != 1 or q_xy.shape != (q_tasks.size, 2):
        raise ValueError(
            f"queries need one (x, y) per task id: {q_tasks.shape} task ids, "
            f"points of shape {q_xy.shape}"
        )
    mean, var = np.empty((2, q_tasks.size))
    for i in np.unique(q_tasks):
        rows = np.flatnonzero(q_tasks == i)
        m, v = predict_tasks(model, (i,), q_xy[rows], denormalize, include_noise)
        mean[rows], var[rows] = m[0], v[0]
    return mean, var


# Byte budget for one prediction block's temporaries: the kernel tables,
# the cross-covariance rows and their triangular solve. Points are taken
# in blocks that fit it, so memory beyond the outputs does not grow with
# the number of points.
_BLOCK_BYTES = 4 << 20

# OpenBLAS's gemv computes rows four at a time and the one to three rows
# left at the end (of the matrix, or of a thread's share) in another
# kernel, which rounds differently. Each block's row count is padded to a
# multiple of this, so a row's mean does not depend on where blocks end.
_ROW_ALIGN = 8


def _aligned(rows):
    return -(-rows // _ROW_ALIGN) * _ROW_ALIGN


def predict_tasks(
    model: FittedModel,
    tasks,
    xy: np.ndarray,
    denormalize: bool = False,
    include_noise: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The prediction core: posterior mean and variance of every task in
    ``tasks`` at every point of ``xy`` (P×2), as two len(tasks)×P arrays.

    Variance is the latent-function uncertainty; ``include_noise`` adds
    the per-task observation noise for held-out-value intervals.
    Negative variances produced by floating-point cancellation are
    clamped at zero; a call that clamps logs their count and largest
    magnitude once, at DEBUG.

    Points are taken in blocks sized by ``_BLOCK_BYTES``. Per block, the
    distances go to the training set's distinct locations once,
    :func:`kernels.cross_cov_table` evaluates the kernel for every task
    pair from one exponential per length-scale, and the model's layout
    gathers each observation's column of the rows' cross-covariance K*.
    One gemv gives the means K* α and one triangular solve v = L⁻¹K*ᵀ the
    variances Kc_ii − vᵀv.

    Raises ValueError for a point that is not finite, or whose distance to
    a training location overflows.
    """
    n = model.n_tasks
    rows = np.array([int(i) for i in tasks], dtype=np.intp)
    if np.any((rows < 0) | (rows >= n)):
        raise ValueError(f"unknown task id in queries (model has {n} tasks)")
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"points must be (P, 2), got {xy.shape}")
    layout = model.layout
    u, m, k, p = layout.u, len(layout.tasks), len(rows), len(xy)
    mean, var = np.empty((2, k, p))
    if not k:
        return mean, var
    L_task, ls, noise = model.theta.unpack()
    Kc = L_task @ L_task.T
    # per point: k rows of the table (n·U) and of K* (M), a row of the
    # gather index (M) and, transient, the distances and the table's
    # per-task arrays over them
    per_point = 8 * (k * (m + n * u) + m + (3 * n + k + 1) * u)
    block = max(1, _BLOCK_BYTES // per_point)
    table = np.empty((k, n, block, u))
    index = layout.index(0, np.arange(block)[:, None], block)
    Ks = np.zeros((_aligned(k * block), m))

    prior = Kc[rows, rows][:, None]
    noise = noise[rows][:, None]
    stds, means = model.stats.stds[rows][:, None], model.stats.means[rows][:, None]
    clamped, worst = 0, 0.0
    for s in range(0, p, block):
        e = min(s + block, p)
        b = e - s
        if not np.all(np.isfinite(xy[s:e])):
            raise ValueError("query coordinates must be finite")
        r = cdist(xy[s:e], layout.locs)
        # kernels._cdist squares each offset, so one beyond ~1.3e154 m gives
        # r = inf, and the Matérn there (1 + z)·e^(−z) = inf·0, a NaN
        if not np.all(np.isfinite(r)):
            raise ValueError("query points lie too far from the training locations: "
                             "their distances overflow")
        cross_cov_table(r, rows, Kc, ls, table[:, :, :b])
        q = _aligned(k * b)
        np.take(table.reshape(k, -1), index[:b], axis=1,
                out=Ks[: k * b].reshape(k, b, m), mode="clip")
        mu = (Ks[:q] @ model.alpha)[: k * b].reshape(k, b)
        v = solve_triangular(
            model.chol_factor, Ks[:q].T, lower=True, overwrite_b=True,
            check_finite=False,
        )
        vv = prior - np.einsum("ij,ij->j", v, v)[: k * b].reshape(k, b)
        neg = vv < 0
        if np.any(neg):
            clamped += int(neg.sum())
            worst = max(worst, float(-vv[neg].min()))
            vv[neg] = 0.0
        if include_noise:
            vv = vv + noise
        if denormalize:
            mu = mu * stds + means
            vv = vv * stds**2
        mean[:, s:e] = mu
        var[:, s:e] = vv
    if clamped:
        logger.debug("clamped %d negative predictive variances (max magnitude %.3e)",
                     clamped, worst)
    return mean, var


def task_correlations(model: FittedModel) -> np.ndarray:
    """Inter-task correlation matrix r_ij = Kc_ij / √(Kc_ii Kc_jj)."""
    return correlation_matrix(model.theta.task_cov())


def correlation_matrix(Kc: np.ndarray) -> np.ndarray:
    """Correlation matrix of a task covariance, with an exact-1 diagonal."""
    d = np.sqrt(np.diag(Kc))
    corr = Kc / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)  # i = j is exactly 1 by definition
    return corr


def fit_stgp(dataset: Dataset, config: FitConfig) -> list[FittedModel]:
    """Independent single-task fits, one per task (the baseline method).

    Each model sees only its own task's observations, re-indexed to a
    one-task dataset, so other tasks cannot influence it.
    """
    models = []
    for i in range(dataset.n_tasks):
        obs = tuple(
            Observation(o.sample_id, o.location, 0, o.value)
            for o in dataset.observations
            if o.task == i
        )
        if not obs:
            raise ValueError(
                f"every task needs at least one observation; missing {dataset.labels[i]!r}"
            )
        sub = make_dataset(obs, 1, (dataset.labels[i],))
        models.append(fit(sub, config))
    return models


def theta_from_moments(
    variances,
    correlations: np.ndarray,
    lengthscales,
    noise_vars,
    mode: KernelMode,
) -> HyperParams:
    """Packed theta from interpretable pieces: per-task variances, an
    inter-task correlation matrix, length-scales, noise variances."""
    var = np.atleast_1d(np.asarray(variances, dtype=float))
    corr = np.asarray(correlations, dtype=float)
    n = len(var)
    if corr.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n}x{n}")
    d = np.sqrt(var)
    Kc = corr * np.outer(d, d)
    L = scipy_cholesky(Kc + 1e-12 * np.eye(n), lower=True)
    packed = pack_theta(L, lengthscales, noise_vars, mode)
    return HyperParams(packed, n, mode)
