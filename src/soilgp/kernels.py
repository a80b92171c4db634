"""Spatial and inter-task covariance functions.

Two joint-covariance constructions are supported for n correlated tasks
observed at planar locations:

* ``ICM`` — intrinsic coregionalization: a single shared Matérn 3/2
  spatial kernel, scaled per task pair by a free-form task covariance
  ``Kc = L @ L.T``. For homotopic, task-major-ordered data the joint
  matrix is exactly the Kronecker product ``Kc ⊗ Ks``, and homotopic
  ICM fits of two or more tasks run on that structure: the objective in
  :mod:`soilgp.gp` eigendecomposes the noise-whitened ``Kc`` and ``Ks``
  separately instead of factoring the joint matrix.
* ``CONVOLVED`` — each task keeps its own Matérn 3/2 length-scale and
  cross-task covariances take the closed form of the convolution of the
  per-task basis functions on a line, applied to planar distances. On a
  line it is positive semidefinite for any combination of length-scales;
  in the plane it is not in general. Unequal length-scales on strongly
  correlated tasks can give a joint matrix with negative eigenvalues on
  dense layouts (two tasks at 40 and 80 m with correlation 0.95 on a
  15 × 15 grid at 10 m spacing: about −0.16), which the Cholesky's
  jitter ladder then rejects.

All hyperparameters live in one packed unconstrained vector (see
:func:`pack_theta`); positivity is enforced by log-parameterization, so
the optimizer never needs box constraints.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist

__all__ = [
    "KernelMode",
    "NumericFailure",
    "NOISE_FLOOR",
    "JITTER_LADDER",
    "matern32",
    "matern32_dl",
    "cross_matern32",
    "cross_matern32_dli",
    "TrainingKernel",
    "theta_dim",
    "pack_theta",
    "unpack_theta",
    "assemble_training_cov",
    "assemble_cross_cov",
    "cross_cov_table",
    "chol_with_jitter",
]

SQRT3 = np.sqrt(3.0)

# Default floor on per-task noise variance (normalized units squared).
NOISE_FLOOR = 1e-8

# Escalation sequence tried before a covariance is declared non-PSD.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8)

# Relative length-scale difference below which the cross kernel switches
# to its equal-length-scale limit (the plain Matérn at the smaller
# length-scale); avoids the 0/0 in the closed form.
_EQ_TOL = 1e-4


class KernelMode(enum.Enum):
    ICM = "icm"
    CONVOLVED = "convolved"

    @classmethod
    def names(cls) -> list[str]:
        return [m.value for m in cls]

    @classmethod
    def parse(cls, name: str) -> "KernelMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            expected = "|".join(cls.names())
            raise ValueError(f"unknown kernel mode {name!r} (expected {expected})")

    def n_lengthscales(self, n_tasks: int) -> int:
        """One length-scale shared by all tasks in ICM, one per task otherwise."""
        return 1 if self is KernelMode.ICM else n_tasks


class NumericFailure(RuntimeError):
    """Covariance factorization failed after the full jitter ladder."""


def _check_lengthscale(l) -> np.ndarray:
    l = np.asarray(l, dtype=float)
    if np.any(l <= 0) or not np.all(np.isfinite(l)):
        raise ValueError("length-scale must be positive and finite")
    return l


def matern32(r, lengthscale):
    """Unit-amplitude Matérn 3/2 correlation, k(r) = (1 + √3 r/l) e^(−√3 r/l)."""
    l = _check_lengthscale(lengthscale)
    z = SQRT3 * np.asarray(r, dtype=float) / l
    return _matern32(z, np.exp(-z))


# Some private formula helpers below overwrite arguments their callers
# made for them (each docstring says which): at M ~ 100 a fresh M×M
# buffer costs about as much as the arithmetic that fills it.


def _matern32(z, e):
    """Matérn 3/2 at z = √3 r/l, given e = e^(−z); overwrites an array z."""
    z += 1.0
    z *= e
    return z


def matern32_dl(r, lengthscale):
    """d matern32 / d lengthscale = 3 r² / l³ · e^(−√3 r/l)."""
    l = _check_lengthscale(lengthscale)
    r = np.asarray(r, dtype=float)
    return _matern32_dl(r, l, np.exp(-SQRT3 * r / l))


def _matern32_dl(r, l, e):
    """d matern32 / d l, given e = e^(−√3 r/l)."""
    return 3.0 * r**2 / l**3 * e


def _cross_pair(li, lj):
    """Constants of the cross kernel that depend only on the length-scale
    pair: the equal-length-scale switch, the closed form's denominator
    l_i² − l_j² (1 on the switch) and its amplitude 2√(l_i l_j)/denom."""
    near = np.abs(li - lj) <= _EQ_TOL * np.maximum(li, lj)
    denom = np.where(near, 1.0, li**2 - lj**2)
    amp = 2.0 * np.sqrt(li * lj) / denom
    return near, denom, amp


def _cross_pair_dli(li, lj, denom):
    """Pair constants of ∂k/∂l_i: the coefficient of l_i e_i − l_j e_j in
    the closed form's bracket, three times the switch's limit weight
    (½ when l_i = l_j bitwise, 1 when l_i is the smaller, else 0) and
    min(l_i, l_j)³."""
    coef = 0.5 / li - 2.0 * li / denom
    weight3 = np.where(li == lj, 0.5, np.where(li < lj, 1.0, 0.0)) * 3.0
    return coef, weight3, np.minimum(li, lj) ** 3


def _cross(near, amp, diff, m_min):
    """k = amp · (l_i e_i − l_j e_j) off the switch, and on it the Matérn
    at min(l_i, l_j), ``m_min``."""
    return np.where(near, m_min, amp * diff)


def _cross_dli(near, amp, coef, weight3, lmin3, r2, diff, m_i, e_min):
    """∂k/∂l_i from the shared pieces: ``r2`` = r², ``diff`` =
    l_i e_i − l_j e_j, ``m_i`` the Matérn at l_i and ``e_min`` =
    e^(−√3 r/min(l_i, l_j)). On the switch it differentiates the value
    computed there. Overwrites the arrays ``coef`` and ``weight3``."""
    exact = coef  # amp · (coef · diff + m_i)
    exact *= diff
    exact += m_i
    exact *= amp
    limit = weight3  # weight3 · r² / lmin3 · e_min
    limit *= r2
    limit /= lmin3
    limit *= e_min
    return np.where(near, limit, exact)


def cross_matern32(r, l_i, l_j):
    """Unit-amplitude cross-covariance of two Matérn 3/2 kernels.

    For distinct length-scales the convolution of the two underlying
    basis functions has the closed form

        k(r) = 2 √(l_i l_j) / (l_i² − l_j²) · (l_i e^(−√3 r/l_i) − l_j e^(−√3 r/l_j)),

    which tends to the ordinary Matérn 3/2 as l_j → l_i and satisfies
    k(0) = 2 √(l_i l_j) / (l_i + l_j) ≤ 1. Length-scales within 1e-4
    relative of each other use the limit form at the smaller of the two
    (argument-order symmetric, exact on the task diagonal).
    """
    li = _check_lengthscale(l_i)
    lj = _check_lengthscale(l_j)
    r = np.asarray(r, dtype=float)
    li, lj, r = np.broadcast_arrays(li, lj, r)
    near, _, amp = _cross_pair(li, lj)
    diff = li * np.exp(-SQRT3 * r / li) - lj * np.exp(-SQRT3 * r / lj)
    zmin = SQRT3 * r / np.minimum(li, lj)
    out = _cross(near, amp, diff, _matern32(zmin, np.exp(-zmin)))
    return out if out.ndim else float(out)


def cross_matern32_dli(r, l_i, l_j):
    """Partial derivative of :func:`cross_matern32` with respect to ``l_i``.

    Inside the equal-length-scale switch this differentiates the value
    actually computed there (the Matérn at min(l_i, l_j)): the full
    d matern32/dl goes to the smaller argument, zero to the larger, and
    half to each when they coincide bitwise (the task diagonal, where
    row and column contributions add back to the full derivative).
    """
    li = _check_lengthscale(l_i)
    lj = _check_lengthscale(l_j)
    r = np.asarray(r, dtype=float)
    li, lj, r = np.broadcast_arrays(li, lj, r)
    near, denom, amp = _cross_pair(li, lj)
    zi = SQRT3 * r / li
    ei = np.exp(-zi)
    diff = li * ei - lj * np.exp(-SQRT3 * r / lj)
    e_min = np.exp(-SQRT3 * r / np.minimum(li, lj))
    out = _cross_dli(
        near, amp, *_cross_pair_dli(li, lj, denom), r**2, diff, _matern32(zi, ei), e_min
    )
    return out if out.ndim else float(out)


class _TrainingSet:
    """What every kernel evaluation on one training set shares: z = √3 r
    over every pair of its points ``xy``, its task index and the code
    ``tasks[p]·n + tasks[q]`` of every entry. The length-scale
    derivative's r² (CONVOLVED) or 3r² (ICM) is built on first use, so a
    value-only use holds one M×M array. r is the cdist of the points
    with themselves, which is exactly symmetric, as
    :class:`TrainingKernel` needs."""

    def __init__(self, xy, tasks=None, pair=None):
        self.xy, self.tasks, self.pair = xy, tasks, pair
        self.z = SQRT3 * cdist(xy, xy)

    @cached_property
    def r2(self):
        return cdist(self.xy, self.xy) ** 2

    @cached_property
    def r2x3(self):
        return 3.0 * cdist(self.xy, self.xy) ** 2


class TrainingKernel:
    """Spatial correlation of a training set with itself, evaluated once
    per hyperparameter point together with what its length-scale
    derivative reuses.

    ``xy`` are the set's points, ``tasks`` its task index and ``pair`` the
    code ``tasks[p]·n + tasks[q]`` of every entry. On the symmetric
    distance matrix the row-length-scale exponential e_i is the only one
    needed: e_j is its transpose, and the exponential at min(l_i, l_j)
    picks between the two. ``value`` is bitwise equal to :func:`matern32`
    (ICM) or :func:`cross_matern32` (CONVOLVED), and :meth:`dl` to
    :func:`matern32_dl` or :func:`cross_matern32_dli`.
    """

    def __init__(self, xy, tasks, pair, lengthscales, mode: KernelMode):
        ls = _check_lengthscale(np.atleast_1d(lengthscales))
        self._evaluate(_TrainingSet(xy, tasks, pair), ls, mode)

    @classmethod
    def _of(cls, train: _TrainingSet, ls, mode: KernelMode):
        """The kernel at length-scales ``ls`` that the caller guarantees
        positive and finite (the objective's, exponentials of capped θ)."""
        self = cls.__new__(cls)
        self._evaluate(train, ls, mode)
        return self

    def _evaluate(self, train, ls, mode):
        self.train, self.mode = train, mode
        if mode is KernelMode.ICM:
            # a 0-d array, as in matern32: l**3 of a scalar rounds differently
            l_row = self.l = np.asarray(ls[0])
        else:
            l_row = ls[train.tasks][:, None]
        z = train.z / l_row
        self.e = np.negative(z)
        np.exp(self.e, out=self.e)  # e_i = e^(−√3 r/l_i)
        if mode is KernelMode.ICM:
            self.value = _matern32(z, self.e)
            return

        li, lj = ls[:, None], ls[None, :]
        near, denom, amp = _cross_pair(li, lj)  # n×n
        # ∂k/∂l_i's pair constants, gathered by dl() with one take
        self.dl_pairs = np.array(_cross_pair_dli(li, lj, denom)).reshape(3, -1)
        self.near, self.amp = near.take(train.pair), amp.take(train.pair)
        # The switch takes min(l_i, l_j), which is l_i wherever l_i = l_j;
        # only pairs inside the band with distinct length-scales need a
        # per-entry pick between an array and its transpose.
        self.le = l_row <= l_row.T if (near & (li != lj)).any() else None
        d = l_row * self.e
        self.diff = d - d.T
        self.m = _matern32(z, self.e)  # the Matérn at l_i
        self.value = _cross(self.near, self.amp, self.diff, self._at_min(self.m))

    def _at_min(self, a):
        """``a``, given at l_i, on the switch entries at min(l_i, l_j)."""
        return a if self.le is None else np.where(self.le, a, a.T)

    def dl(self):
        """ICM: d value / d l. CONVOLVED: ∂k/∂l_i, the derivative with
        respect to the length-scale of each entry's row task."""
        if self.mode is KernelMode.ICM:
            out = self.train.r2x3 / self.l**3  # _matern32_dl, with 3r² built once
            out *= self.e
            return out
        coef, weight3, lmin3 = self.dl_pairs.take(self.train.pair, axis=1)
        return _cross_dli(
            self.near, self.amp, coef, weight3, lmin3, self.train.r2, self.diff,
            self.m, self._at_min(self.e),
        )


def cross_cov_table(r, rows, task_cov_matrix, lengthscales, mode: KernelMode, out):
    """Covariance of query points with a set of locations, for every
    (row task, column task) pair, written into ``out``.

    ``r`` is the B×U distance matrix from the points to the locations and
    ``rows`` the row tasks; ``out`` is a k×B×(n·U) array (k = len(rows))
    whose slot ``out[a, :, j·U:(j+1)·U]`` receives Kc[i, j] · k_ij(r) for
    the row task i = rows[a].
    Each distinct length-scale takes one exponential over ``r``, the pair
    constants are computed at n×n, and the pairs (i, j) and (j, i) share
    one spatial block, which the cross kernel makes bitwise symmetric.
    Gathered through each observation's (task, location) slot, the
    table is bitwise :func:`assemble_cross_cov`.
    """
    n, u = task_cov_matrix.shape[0], r.shape[1]
    ls = _check_lengthscale(lengthscales)
    if mode is KernelMode.ICM:
        ls = np.repeat(ls, n)  # one shared length-scale: every pair is on the switch
    near, _, amp = _cross_pair(ls[:, None], ls[None, :])
    m, d = {}, {}  # the Matérn at l and l·e^(−√3 r/l), per distinct l
    for l in np.unique(ls):
        z = SQRT3 * r
        z /= l
        e = np.exp(-z)
        if not near.all():
            d[l] = l * e
        m[l] = _matern32(z, e)
    spatial = {}  # per unordered task pair
    for a, i in enumerate(rows):
        for j in range(n):
            pair = (min(i, j), max(i, j))
            if pair not in spatial:
                li, lj = ls[i], ls[j]
                spatial[pair] = (
                    m[min(li, lj)] if near[i, j] else amp[i, j] * (d[li] - d[lj])
                )
            slot = out[a, :, j * u : (j + 1) * u]
            np.multiply(spatial[pair], task_cov_matrix[i, j], out=slot)
    return out


# ---------------------------------------------------------------------------
# Hyperparameter packing
#
# theta = [ vech(L) row-major, log-diagonal |
#           log l_1..l_n  (single entry in ICM mode) |
#           log sigma^2_1..sigma^2_n ]
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tril_slots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packing order of the task factor L: the (row, column) indices
    of its lower triangle, row-major, and the positions of the diagonal
    among them. Cached, one entry per task count, so every caller shares
    the same read-only arrays."""
    rows, cols = np.tril_indices(n)
    diag = np.flatnonzero(rows == cols)
    for a in (rows, cols, diag):
        a.flags.writeable = False
    return rows, cols, diag


def theta_dim(n_tasks: int, mode: KernelMode) -> int:
    return n_tasks * (n_tasks + 1) // 2 + mode.n_lengthscales(n_tasks) + n_tasks


def pack_theta(L: np.ndarray, lengthscales, noise_vars, mode: KernelMode) -> np.ndarray:
    """Pack materialized hyperparameters into the unconstrained vector."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValueError("factor must be square")
    if np.any(np.diag(L) <= 0):
        raise ValueError("factor diagonal must be strictly positive")
    rows, cols, diag = _tril_slots(n)
    tri = L[rows, cols]
    tri[diag] = np.log(tri[diag])
    ls = _check_lengthscale(np.atleast_1d(lengthscales))
    nv = np.atleast_1d(np.asarray(noise_vars, dtype=float))
    n_ls = mode.n_lengthscales(n)
    if ls.shape != (n_ls,):
        raise ValueError(f"expected {n_ls} length-scale(s) for mode {mode.value}")
    if nv.shape != (n,) or np.any(nv <= 0):
        raise ValueError(f"expected {n} positive noise variances")
    return np.concatenate([tri, np.log(ls), np.log(nv)])


def unpack_theta(
    theta: np.ndarray,
    n_tasks: int,
    mode: KernelMode,
    noise_floor: float = NOISE_FLOOR,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split packed theta into (L, lengthscales, noise variances).

    Noise variances are floored at ``noise_floor``. Raises ValueError on
    a dimension mismatch between theta and n_tasks/mode.
    """
    theta = np.asarray(theta, dtype=float)
    expected = theta_dim(n_tasks, mode)
    if theta.shape != (expected,):
        raise ValueError(
            f"theta dimension mismatch: got {theta.shape}, expected ({expected},) "
            f"for n_tasks={n_tasks}, mode={mode.value}"
        )
    return _unpack(theta, n_tasks, mode.n_lengthscales(n_tasks), noise_floor)


def _unpack(theta, n_tasks: int, n_ls: int, noise_floor: float):
    """:func:`unpack_theta` of a float vector known to have its dimension."""
    n_tri = n_tasks * (n_tasks + 1) // 2
    rows, cols, diag = _tril_slots(n_tasks)
    tri = theta[:n_tri].copy()
    tri[diag] = np.exp(tri[diag])
    L = np.zeros((n_tasks, n_tasks))
    L[rows, cols] = tri
    ls = np.exp(theta[n_tri : n_tri + n_ls])
    noise = np.maximum(np.exp(theta[n_tri + n_ls :]), noise_floor)
    return L, ls, noise


# ---------------------------------------------------------------------------
# Joint covariance assembly
# ---------------------------------------------------------------------------


def _spatial_block(r, tasks_row, tasks_col, lengthscales, mode: KernelMode):
    """Unit-amplitude spatial correlation for every (row, col) pair."""
    ls = np.atleast_1d(np.asarray(lengthscales, dtype=float))
    if mode is KernelMode.ICM:
        if ls.shape != (1,):
            raise ValueError("ICM mode takes a single shared length-scale")
        return matern32(r, ls[0])
    li = ls[tasks_row][:, None]
    lj = ls[tasks_col][None, :]
    return cross_matern32(r, li, lj)


def _validate_tasks(tasks, n: int) -> np.ndarray:
    tasks = np.asarray(tasks, dtype=np.intp)
    if tasks.size and (tasks.min() < 0 or tasks.max() >= n):
        raise ValueError(f"task index out of range for {n} tasks")
    return tasks


def assemble_training_cov(
    tasks,
    xy,
    task_cov_matrix: np.ndarray,
    lengthscales,
    noise_vars,
    mode: KernelMode,
) -> np.ndarray:
    """Full M×M training covariance with per-task noise on the diagonal.

    Entry [(i,p),(j,q)] = Kc[i,j] · k_ij(‖x_p − x_q‖), where k_ij is the
    shared Matérn 3/2 in ICM mode and the convolved cross kernel in
    CONVOLVED mode; σ²_task(p) is added on the diagonal only.
    """
    n = task_cov_matrix.shape[0]
    tasks = _validate_tasks(tasks, n)
    xy = np.asarray(xy, dtype=float)
    if xy.shape != (tasks.size, 2):
        raise ValueError(f"xy must be ({tasks.size}, 2), got {xy.shape}")
    noise = np.asarray(noise_vars, dtype=float)
    if noise.shape != (n,):
        raise ValueError(f"expected {n} noise variances, got {noise.shape}")
    r = cdist(xy, xy)
    K = task_cov_matrix[np.ix_(tasks, tasks)] * _spatial_block(
        r, tasks, tasks, lengthscales, mode
    )
    K[np.diag_indices_from(K)] += noise[tasks]
    return K


def assemble_cross_cov(
    query_tasks,
    query_xy,
    tasks,
    xy,
    task_cov_matrix: np.ndarray,
    lengthscales,
    mode: KernelMode,
) -> np.ndarray:
    """Q×M covariance between query points and observations (no noise)."""
    n = task_cov_matrix.shape[0]
    q_tasks = _validate_tasks(query_tasks, n)
    tasks = _validate_tasks(tasks, n)
    q_xy = np.asarray(query_xy, dtype=float)
    xy = np.asarray(xy, dtype=float)
    if q_xy.shape != (q_tasks.size, 2) or xy.shape != (tasks.size, 2):
        raise ValueError("coordinate array shape does not match task count")
    r = cdist(q_xy, xy)
    return task_cov_matrix[np.ix_(q_tasks, tasks)] * _spatial_block(
        r, q_tasks, tasks, lengthscales, mode
    )


def chol_with_jitter(
    K: np.ndarray, ladder: tuple[float, ...] = JITTER_LADDER
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, escalating diagonal jitter on failure.

    Returns (L, jitter_used). Raises :class:`NumericFailure` once the
    ladder is exhausted or the matrix is not finite; callers inside the
    optimizer treat that as a rejected hyperparameter draw, not a crash.
    """
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"covariance must be square, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise NumericFailure("covariance contains non-finite entries")
    for jitter in ladder:
        Kj = K if jitter == 0.0 else K + jitter * np.eye(K.shape[0])
        # the LAPACK call of scipy.linalg.cholesky(Kj, lower=True), without
        # its argument handling, which cost more than the factorization
        # itself at M = 12
        Lf, info = dpotrf(Kj, lower=1, clean=1)
        if info == 0:
            return Lf, jitter
    raise NumericFailure(
        f"covariance not positive definite after jitter {ladder[-1]:g}"
    )
