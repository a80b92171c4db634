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
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .data import Dataset, NormStats, Observation, make_dataset, normalize
from .kernels import (
    JITTER_LADDER,
    NOISE_FLOOR,
    KernelMode,
    NumericFailure,
    TrainingKernel,
    _TrainingSet,
    _tril_slots,
    _unpack,
    chol_with_jitter,
    cross_cov_table,
    pack_theta,
    theta_dim,
    unpack_theta,
)

__all__ = [
    "HyperParams",
    "FitConfig",
    "FittedModel",
    "PredictionResult",
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
    noise_floor: float = NOISE_FLOOR

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        for name in ("tol", "noise_floor"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class FittedModel:
    """Trained state: hyperparameters plus the cached training solve.

    Immutable after construction; safe for concurrent read-only
    prediction.
    """

    theta: HyperParams
    dataset: Dataset  # values in normalized units
    stats: NormStats
    chol_factor: np.ndarray  # lower Cholesky of K + Σ (+ jitter)
    alpha: np.ndarray  # (K + Σ)⁻¹ y
    lml: float
    jitter: float
    noise_floor: float
    restart_lmls: tuple[float, ...] = field(default=())

    @property
    def n_tasks(self) -> int:
        return self.theta.n_tasks

    @property
    def mode(self) -> KernelMode:
        return self.theta.mode


@dataclass(frozen=True)
class PredictionResult:
    tasks: np.ndarray
    xy: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    normalized: bool


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

    def __init__(self, dataset: Dataset):
        self.n_tasks = n = dataset.n_tasks
        self.tasks = t = dataset.task_index
        self.y = dataset.values
        # checked once here, so the per-evaluation solves can skip it
        if not np.all(np.isfinite(self.y)):
            raise ValueError("observation values must be finite")
        self.m = len(self.y)
        # task-pair code t_p·n + t_q of every entry, in the narrowest
        # unsigned type (one byte per entry for up to 16 tasks)
        pair = (t[:, None] * n + t[None, :]).astype(np.min_scalar_type(n * n - 1))
        self.train = _TrainingSet(dataset.xy, t, pair)
        self._work = None  # the gradient's M×M workspaces

    def value(self, theta_vec, mode, noise_floor):
        """(lml, state), or (REJECTED, None). The state holds the Cholesky
        factor, the jitter, α = K⁻¹y and what :meth:`gradient` reuses."""
        try:
            _check_theta(theta_vec)
            L, ls, noise = _unpack(
                theta_vec, self.n_tasks, mode.n_lengthscales(self.n_tasks), noise_floor
            )
            Kce = (L @ L.T).take(self.train.pair)  # Kc[t_p, t_q] for every entry
            spatial = TrainingKernel._of(self.train, ls, mode)
            K = Kce * spatial.value
            K.reshape(-1)[:: self.m + 1] += noise[self.tasks]  # the diagonal
            Lf, jitter = chol_with_jitter(K, JITTER_LADDER)
        except NumericFailure:
            return REJECTED, None
        alpha, _ = dpotrs(Lf, self.y, lower=1)  # cho_solve((Lf, True), y)
        lml = (
            -0.5 * self.y @ alpha
            - np.log(Lf.diagonal()).sum()
            - 0.5 * self.m * LOG_2PI
        )
        return lml, (Lf, jitter, alpha, (spatial, L, Kce, ls))

    def gradient(self, state, theta_vec, mode, noise_floor):
        Lf, _, alpha, (spatial, L, Kce, ls) = state
        n = self.n_tasks
        t = self.tasks
        if self._work is None:
            # Built here, not in __init__: a value-only use (every fitted
            # model's factorization) holds no gradient workspace.
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
        np.multiply(W, spatial.value, out=WX)
        A = np.bincount(
            self.train.pair.reshape(-1), weights=WX.reshape(-1), minlength=n * n
        ).reshape(n, n)

        # Length-scales (ICM: dS/dl; CONVOLVED: ∂S/∂l of each entry's row task)
        np.multiply(W, Kce, out=WX)
        WX *= spatial.dl()
        if mode is KernelMode.ICM:
            g_ls = np.array([0.5 * np.sum(WX) * ls[0]])
        else:
            row = np.sum(WX, axis=1)
            g_ls = np.bincount(t, weights=row, minlength=n) * ls

        # Noise variances
        g_noise = 0.5 * np.bincount(t, weights=W.reshape(-1)[:: self.m + 1], minlength=n)
        return _pack_gradient(A, L, g_ls, g_noise, theta_vec, noise_floor)


# Magnitude bound on packed entries: keeps exp() and the Kc = L Lᵀ
# products finite, so extreme line-search proposals reject cleanly
# instead of overflowing. After it, exp() of the length-scale entries
# gives positive, finite length-scales, which the objective relies on.
_THETA_CAP = 250.0


def _check_theta(theta_vec):
    if not (np.abs(theta_vec) <= _THETA_CAP).all():  # also false for NaN and ±inf
        raise NumericFailure("hyperparameter vector out of numeric range")


def _pack_gradient(A, L, g_ls, g_noise, theta_vec, noise_floor):
    """The packed gradient from the task-factor term A (the LML's
    gradient in Kc is ½A), the length-scale gradient in log space and
    the noise gradient ½ Σ_p W_pp per task in variance space."""
    rows, cols, diag = _tril_slots(L.shape[0])
    g_chol = (A @ L)[rows, cols]  # dK/dL_ab = (δ_ia L_jb + δ_ja L_ib) S
    g_chol[diag] *= L.diagonal()  # chain through the log-diagonal
    # noise: chain through the log, zero below the floor, where it is clamped
    raw = np.exp(theta_vec[-L.shape[0]:])
    return np.concatenate([g_chol, g_ls, g_noise * raw * (raw > noise_floor)])


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

    def __init__(self, Y: np.ndarray, locations: np.ndarray):
        self.y = Y  # n×m: the values of task i at location p in row i, column p
        self.n_tasks, self.m = Y.shape
        self.train = _TrainingSet(locations)

    @classmethod
    def from_dataset(cls, dataset: Dataset):
        """The problem of a homotopic dataset, in any row order; None when
        some location lacks a task or carries one twice."""
        n = dataset.n_tasks
        locs, loc = np.unique(dataset.xy, axis=0, return_inverse=True)
        slot = dataset.task_index * len(locs) + loc.ravel()
        if len(slot) != n * len(locs) or np.bincount(slot).max() > 1:
            return None
        if not np.all(np.isfinite(dataset.values)):
            raise ValueError("observation values must be finite")
        Y = np.empty(len(slot))
        Y[slot] = dataset.values
        return cls(Y.reshape(n, len(locs)), locs)

    def value(self, theta_vec, mode, noise_floor):
        """(lml, what :meth:`gradient` reuses), or (REJECTED, None)."""
        try:
            _check_theta(theta_vec)
            L, ls, noise = _unpack(theta_vec, self.n_tasks, 1, noise_floor)  # ICM: one l
            Kc = L @ L.T
            spatial = TrainingKernel._of(self.train, ls, mode)
            s, V = _eigh(spatial.value)
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
        return lml, (L, Kc, ls, spatial, s, V, lam, P, Ginv, alpha)

    def gradient(self, state, theta_vec, mode, noise_floor):
        L, Kc, ls, spatial, s, V, lam, P, Ginv, alpha = state
        # Task factor: A = α Ks αᵀ − P diag(G⁻¹s) Pᵀ
        A = _dot(_dot(alpha, spatial.value), alpha.T)
        A -= (P * (Ginv @ s)) @ P.T
        # Length-scale: ½ Σ (αᵀKcα − V diag(ΛG⁻¹) Vᵀ) ∘ dKs · l
        B = _dot(alpha.T, _dot(Kc, alpha))
        B -= _dot(V * (lam @ Ginv), V.T)
        B *= spatial.dl()
        g_ls = np.array([0.5 * np.sum(B) * ls[0]])
        # Noise: ½ (Σ_p α_ip² − Σ_k P_ik² Σ_q G⁻¹_kq)
        g_noise = 0.5 * (np.sum(alpha**2, axis=1) - P**2 @ Ginv.sum(axis=1))
        return _pack_gradient(A, L, g_ls, g_noise, theta_vec, noise_floor)


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
    return _Problem(dataset)


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
    return prob.value(theta.values, theta.mode, NOISE_FLOOR)[0]


def lml_gradient(theta: HyperParams, dataset: Dataset) -> np.ndarray:
    """Gradient of the log marginal likelihood in the packed space."""
    _check_tasks(theta, dataset)
    prob = _objective(dataset, theta.mode)
    lml, state = prob.value(theta.values, theta.mode, NOISE_FLOOR)
    if lml == REJECTED:
        raise NumericFailure("cannot differentiate a rejected hyperparameter point")
    return prob.gradient(state, theta.values, theta.mode, NOISE_FLOOR)


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


def _optimize(prob, config: FitConfig, x0: np.ndarray):
    mode, floor = config.mode, config.noise_floor

    def objective(x):
        lml, state = prob.value(x, mode, floor)
        if lml == REJECTED:
            return np.inf, np.zeros_like(x)
        return -lml, -prob.gradient(state, x, mode, floor)

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
    del prob  # freed before the dense build below, which peaks at several M×M arrays
    if best is None:
        raise NumericFailure("all restarts rejected; hyperparameter search failed")

    theta = HyperParams(best[0], dataset.n_tasks, config.mode)
    return _build_model(
        norm_ds, stats, theta, config.noise_floor, tuple(restart_lmls)
    )


def condition(
    dataset: Dataset,
    theta: HyperParams,
    noise_floor: float = NOISE_FLOOR,
) -> FittedModel:
    """Model at fixed hyperparameters (no optimization); data is
    normalized exactly as in :func:`fit`."""
    norm_ds, stats = normalize(dataset)
    return _build_model(norm_ds, stats, theta, noise_floor, ())


def _build_model(norm_ds, stats, theta, noise_floor, restart_lmls) -> FittedModel:
    # always dense: prediction needs the Cholesky factor
    lml, state = _Problem(norm_ds).value(theta.values, theta.mode, noise_floor)
    if lml == REJECTED:
        raise NumericFailure("covariance rejected at the selected hyperparameters")
    Lf, jitter, alpha, _ = state
    Lf.flags.writeable = False
    alpha.flags.writeable = False
    return FittedModel(
        theta=theta,
        dataset=norm_ds,
        stats=stats,
        chol_factor=Lf,
        alpha=alpha,
        lml=lml,
        jitter=jitter,
        noise_floor=noise_floor,
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
) -> PredictionResult:
    """Posterior mean and variance at (task, location) rows, one row per
    entry of ``q_tasks`` with its point in ``q_xy`` (Q×2). The rows of
    each task go through the prediction core together, so a row pays
    for its own task only.

    Variance is the latent-function uncertainty; ``include_noise`` adds
    the per-task observation noise for held-out-value intervals.
    Negative variances produced by floating-point cancellation are
    clamped at zero (the clamp magnitude is logged).
    """
    n = model.n_tasks
    q_tasks = np.asarray(q_tasks, dtype=np.intp)
    q_xy = np.asarray(q_xy, dtype=float)
    if q_tasks.ndim != 1 or q_xy.shape != (q_tasks.size, 2):
        raise ValueError(
            f"queries need one (x, y) per task id: {q_tasks.shape} task ids, "
            f"points of shape {q_xy.shape}"
        )
    if q_tasks.size and (q_tasks.min() < 0 or q_tasks.max() >= n):
        raise ValueError(f"unknown task id in queries (model has {n} tasks)")

    mean = np.empty(q_tasks.size)
    var = np.empty(q_tasks.size)
    clamp = _Clamp()
    for i in np.unique(q_tasks):
        rows = np.flatnonzero(q_tasks == i)
        m, v = _predict_blocks(
            model, (i,), q_xy[rows], denormalize, include_noise, clamp
        )
        mean[rows], var[rows] = m[0], v[0]
    clamp.log()
    return PredictionResult(q_tasks, q_xy, mean, var, normalized=not denormalize)


def predict_tasks(
    model: FittedModel,
    tasks,
    xy: np.ndarray,
    denormalize: bool = False,
    include_noise: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of every task in ``tasks`` at every
    point of ``xy`` (P×2), as two len(tasks)×P arrays (used for grids)."""
    n = model.n_tasks
    tasks = tuple(int(i) for i in tasks)
    if any(i < 0 or i >= n for i in tasks):
        raise ValueError(f"unknown task id in queries (model has {n} tasks)")
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"points must be (P, 2), got {xy.shape}")
    clamp = _Clamp()
    out = _predict_blocks(model, tasks, xy, denormalize, include_noise, clamp)
    clamp.log()
    return out


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


class _Clamp:
    """Count of negative predictive variances clamped at zero, and the
    largest clamped magnitude, over the blocks of one call."""

    def __init__(self):
        self.count, self.worst = 0, 0.0

    def add(self, var):
        neg = var < 0
        if np.any(neg):
            self.count += int(neg.sum())
            self.worst = max(self.worst, float(-var[neg].min()))
            var[neg] = 0.0

    def log(self):
        if self.count:
            logger.debug(
                "clamped %d negative predictive variances (max magnitude %.3e)",
                self.count,
                self.worst,
            )


def _predict_blocks(model, tasks, xy, denormalize, include_noise, clamp):
    """The prediction core: mean and variance of each task in ``tasks``
    at each point of ``xy``, two len(tasks)×P arrays.

    Points are taken in blocks sized by ``_BLOCK_BYTES``. Per block, the
    distances go to the training set's distinct locations once,
    :func:`kernels.cross_cov_table` evaluates the kernel for every task
    pair from one exponential per length-scale, and each observation's
    (task, location) slot gathers the rows' cross-covariance K*, bitwise
    :func:`kernels.assemble_cross_cov`. One gemv gives the means K* α and
    one triangular solve v = L⁻¹K*ᵀ the variances Kc_ii − vᵀv.
    """
    L_task, ls, noise = model.theta.unpack(model.noise_floor)
    Kc = L_task @ L_task.T
    ds = model.dataset
    locs, loc = np.unique(ds.xy, axis=0, return_inverse=True)
    u = len(locs)
    slot = ds.task_index * u + loc.ravel()
    n, m, k, p = model.n_tasks, len(slot), len(tasks), len(xy)
    # per point: k rows of the table (n·U) and of K* (M), the distances
    # and up to two tables over them per length-scale, one transient
    per_point = 8 * (k * (m + n * u) + 2 * (n + 1) * u)
    block = max(1, _BLOCK_BYTES // per_point)
    table = np.empty((k, block, n * u))
    Ks = np.zeros((_aligned(k * block), m))

    rows = list(tasks)
    prior = Kc[rows, rows][:, None]
    noise = noise[rows][:, None]
    stds, means = model.stats.stds[rows][:, None], model.stats.means[rows][:, None]
    mean = np.empty((k, p))
    var = np.empty((k, p))
    for s in range(0, p, block):
        e = min(s + block, p)
        b = e - s
        if not np.all(np.isfinite(xy[s:e])):
            raise ValueError("query coordinates must be finite")
        r = cdist(xy[s:e], locs)
        tab = cross_cov_table(r, rows, Kc, ls, model.mode, table[:, :b])
        q = _aligned(k * b)
        np.take(tab, slot, axis=2, out=Ks[: k * b].reshape(k, b, m), mode="clip")
        mu = (Ks[:q] @ model.alpha)[: k * b].reshape(k, b)
        v = solve_triangular(
            model.chol_factor, Ks[:q].T, lower=True, overwrite_b=True,
            check_finite=False,
        )
        vv = prior - np.einsum("ij,ij->j", v, v)[: k * b].reshape(k, b)
        clamp.add(vv)
        if include_noise:
            vv = vv + noise
        if denormalize:
            mu = mu * stds + means
            vv = vv * stds**2
        mean[:, s:e] = mu
        var[:, s:e] = vv
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
