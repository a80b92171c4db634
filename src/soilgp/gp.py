"""Multi-task Gaussian-process training, prediction and diagnostics.

Hyperparameters are selected by maximizing the log marginal likelihood

    log p(y | X, θ) = −½ yᵀ(K+Σ)⁻¹y − ½ log det(K+Σ) − (M/2) log 2π

with a multi-start quasi-Newton ascent (L-BFGS-B) in the unconstrained
packed space. Fitting operates on per-task z-scored values; predictions
can be returned in normalized or original units.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky as scipy_cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .data import Dataset, Location, NormStats, Observation, make_dataset, normalize
from .kernels import (
    JITTER_LADDER,
    NOISE_FLOOR,
    KernelMode,
    NumericFailure,
    TrainingKernel,
    assemble_training_cov,
    chol_with_jitter,
    cross_cov_table,
    pack_theta,
    theta_dim,
    unpack_theta,
)

__all__ = [
    "GradientMethod",
    "HyperParams",
    "FitConfig",
    "FittedModel",
    "PredictionResult",
    "log_marginal_likelihood",
    "lml_gradient",
    "fit",
    "condition",
    "predict",
    "predict_tasks",
    "task_correlations",
    "correlation_matrix",
    "fit_stgp",
    "sample_prior",
    "theta_from_moments",
]

logger = logging.getLogger(__name__)

LOG_2PI = np.log(2.0 * np.pi)

REJECTED = -np.inf  # sentinel for hyperparameters whose covariance is not PSD


class GradientMethod(enum.Enum):
    ANALYTIC = "analytic"
    FINITE_DIFFERENCE = "finite_difference"


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
        if self.tol <= 0 or self.noise_floor <= 0:
            raise ValueError("tol and noise_floor must be positive")


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
    """Per-dataset quantities reused across optimizer iterations."""

    def __init__(self, dataset: Dataset):
        self.n_tasks = n = dataset.n_tasks
        self.tasks = t = dataset.task_index
        self.xy = dataset.xy
        self.y = dataset.values
        # checked once here, so the per-evaluation solves can skip it
        if not np.all(np.isfinite(self.y)):
            raise ValueError("observation values must be finite")
        self.r = cdist(self.xy, self.xy)
        self.m = len(self.y)
        # task-pair code t_p·n + t_q of every entry, in the narrowest
        # unsigned type (one byte per entry for up to 16 tasks)
        self.pair = (t[:, None] * n + t[None, :]).astype(np.min_scalar_type(n * n - 1))


# Magnitude bound on packed entries: keeps exp() and the Kc = L Lᵀ
# products finite, so extreme line-search proposals reject cleanly
# instead of overflowing.
_THETA_CAP = 250.0


def _covariance(prob: _Problem, theta_vec, mode, noise_floor):
    if not np.all(np.isfinite(theta_vec)) or np.max(np.abs(theta_vec)) > _THETA_CAP:
        raise NumericFailure("hyperparameter vector out of numeric range")
    L, ls, noise = unpack_theta(theta_vec, prob.n_tasks, mode, noise_floor)
    Kce = np.take(L @ L.T, prob.pair)  # Kc[t_p, t_q] for every entry
    spatial = TrainingKernel(prob.r, prob.tasks, prob.pair, ls, mode)
    K = Kce * spatial.value
    K[np.diag_indices_from(K)] += noise[prob.tasks]
    return K, (spatial, L, Kce, ls)


def _lml_core(prob: _Problem, theta_vec, mode, noise_floor):
    """Returns (lml, chol, jitter, alpha, parts) or (REJECTED, None, ...)."""
    try:
        K, parts = _covariance(prob, theta_vec, mode, noise_floor)
        Lf, jitter = chol_with_jitter(K, JITTER_LADDER)
    except NumericFailure:
        return REJECTED, None, 0.0, None, None
    alpha = cho_solve((Lf, True), prob.y, check_finite=False)
    lml = (
        -0.5 * prob.y @ alpha
        - np.log(np.diag(Lf)).sum()
        - 0.5 * prob.m * LOG_2PI
    )
    return lml, Lf, jitter, alpha, parts


def _analytic_gradient(prob: _Problem, mode, Lf, alpha, parts, theta_vec, noise_floor):
    spatial, L, Kce, ls = parts
    n = prob.n_tasks
    t = prob.tasks
    W = np.outer(alpha, alpha)
    W -= cho_solve((Lf, True), np.eye(prob.m), check_finite=False)  # K⁻¹

    # Task factor: dK/dL_ab = (δ_ia L_jb + δ_ja L_ib) S  →  grad = (A L)_ab
    A = np.bincount(
        prob.pair.ravel(), weights=(W * spatial.value).ravel(), minlength=n * n
    ).reshape(n, n)
    GL = A @ L
    g_chol = []
    for a in range(n):
        for b in range(a + 1):
            g = GL[a, b]
            if a == b:
                g *= L[a, a]  # chain through the log-diagonal
            g_chol.append(g)

    # Length-scales (ICM: dS/dl; CONVOLVED: ∂S/∂l of each entry's row task)
    WdS = W * Kce
    WdS *= spatial.dl()
    if mode is KernelMode.ICM:
        g_ls = np.array([0.5 * np.sum(WdS) * ls[0]])
    else:
        row = np.sum(WdS, axis=1)
        g_ls = np.bincount(t, weights=row, minlength=n) * ls

    # Noise variances (zero below the floor, where the value is clamped)
    n_tri = n * (n + 1) // 2
    n_ls = len(ls)
    raw = np.exp(theta_vec[n_tri + n_ls :])
    active = raw > noise_floor
    g_noise = 0.5 * np.bincount(t, weights=np.diag(W), minlength=n) * raw * active

    return np.concatenate([np.array(g_chol), g_ls, g_noise])


def _fd_gradient(prob: _Problem, theta_vec, mode, noise_floor, step=1e-5):
    g = np.empty_like(theta_vec)
    for i in range(len(theta_vec)):
        tp = theta_vec.copy()
        tp[i] += step
        fp = _lml_core(prob, tp, mode, noise_floor)[0]
        tp[i] -= 2 * step
        fm = _lml_core(prob, tp, mode, noise_floor)[0]
        g[i] = (fp - fm) / (2 * step)
    return g


def log_marginal_likelihood(theta: HyperParams, dataset: Dataset) -> float:
    """Log evidence of the data under theta; −inf when the covariance is
    rejected (Cholesky fails after the full jitter ladder)."""
    if theta.n_tasks != dataset.n_tasks:
        raise ValueError(
            f"theta is for {theta.n_tasks} tasks, dataset has {dataset.n_tasks}"
        )
    prob = _Problem(dataset)
    return _lml_core(prob, theta.values, theta.mode, NOISE_FLOOR)[0]


def lml_gradient(
    theta: HyperParams,
    dataset: Dataset,
    method: GradientMethod = GradientMethod.ANALYTIC,
    fd_step: float = 1e-5,
) -> np.ndarray:
    """Gradient of the log marginal likelihood in the packed space."""
    if theta.n_tasks != dataset.n_tasks:
        raise ValueError(
            f"theta is for {theta.n_tasks} tasks, dataset has {dataset.n_tasks}"
        )
    prob = _Problem(dataset)
    if method is GradientMethod.FINITE_DIFFERENCE:
        return _fd_gradient(prob, theta.values.copy(), theta.mode, NOISE_FLOOR, fd_step)
    lml, Lf, _, alpha, parts = _lml_core(prob, theta.values, theta.mode, NOISE_FLOOR)
    if lml == REJECTED:
        raise NumericFailure("cannot differentiate a rejected hyperparameter point")
    return _analytic_gradient(
        prob, theta.mode, Lf, alpha, parts, theta.values, NOISE_FLOOR
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _initial_theta(rng: np.random.Generator, n: int, mode: KernelMode, extent: float):
    # near-identity factor: 0.1-scale noise on the log-diagonal and
    # off-diagonal entries (one scalar draw per packed entry, in order)
    tri = [0.1 * rng.standard_normal() for _ in range(n * (n + 1) // 2)]
    n_ls = 1 if mode is KernelMode.ICM else n
    lo, hi = np.log(extent / 20.0), np.log(extent)
    log_ls = rng.uniform(lo, hi, size=n_ls)
    log_noise = np.full(n, np.log(0.05))
    return np.concatenate([tri, log_ls, log_noise])


def _data_extent(dataset: Dataset) -> float:
    b = dataset.field_bounds
    extent = max(b.width, b.height)
    return extent if extent > 0 else 1.0


def _optimize(prob: _Problem, config: FitConfig, x0: np.ndarray):
    mode, floor = config.mode, config.noise_floor

    def objective(x):
        lml, Lf, _, alpha, parts = _lml_core(prob, x, mode, floor)
        if lml == REJECTED:
            return np.inf, np.zeros_like(x)
        g = _analytic_gradient(prob, mode, Lf, alpha, parts, x, floor)
        return -lml, -g

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
    prob = _Problem(norm_ds)
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
    prob = _Problem(norm_ds)
    lml, Lf, jitter, alpha, _ = _lml_core(prob, theta.values, theta.mode, noise_floor)
    if lml == REJECTED:
        raise NumericFailure("covariance rejected at the selected hyperparameters")
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


def predict(
    model: FittedModel,
    queries,
    denormalize: bool = False,
    include_noise: bool = False,
) -> PredictionResult:
    """Posterior mean and variance at (task, location) queries.

    Variance is the latent-function uncertainty; ``include_noise`` adds
    the per-task observation noise for held-out-value intervals.
    Negative variances produced by floating-point cancellation are
    clamped at zero (the clamp magnitude is logged).
    """
    q_tasks = np.array([q[0] for q in queries], dtype=np.intp)
    q_xy = np.array(
        [(q[1].x, q[1].y) if isinstance(q[1], Location) else tuple(q[1]) for q in queries],
        dtype=float,
    ).reshape(len(queries), 2)
    return predict_arrays(model, q_tasks, q_xy, denormalize, include_noise)


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
    for its own task only."""
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


def sample_prior(
    theta: HyperParams,
    locations,
    seed: int,
    labels=None,
    sample_ids=None,
) -> Dataset:
    """One homotopic draw y ~ N(0, K+Σ) materialized as a Dataset.

    Observations are ordered sample-major (all tasks of location j
    before location j+1), defining the sequential-replay order.
    """
    locs = [loc if isinstance(loc, Location) else Location(*loc) for loc in locations]
    m, n = len(locs), theta.n_tasks
    if m == 0:
        raise ValueError("at least one location required")
    if sample_ids is None:
        width = max(2, len(str(m)))
        sample_ids = [f"S{j + 1:0{width}d}" for j in range(m)]

    tasks = np.tile(np.arange(n, dtype=np.intp), m)
    xy = np.repeat(np.array([(p.x, p.y) for p in locs]), n, axis=0)
    L_task, ls, noise = theta.unpack()
    Kc = L_task @ L_task.T
    K = assemble_training_cov(tasks, xy, Kc, ls, noise, theta.mode)
    Lf, _ = chol_with_jitter(K)
    rng = np.random.default_rng(seed)
    y = Lf @ rng.standard_normal(m * n)

    obs = []
    k = 0
    for j, loc in enumerate(locs):
        for i in range(n):
            obs.append(Observation(sample_ids[j], loc, i, float(y[k])))
            k += 1
    return make_dataset(obs, n, labels)


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
