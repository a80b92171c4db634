"""Spatial and inter-task covariance functions.

Two joint-covariance constructions are supported for n correlated tasks
observed at planar locations:

* ``ICM`` — intrinsic coregionalization: a single shared Matérn 3/2
  spatial kernel (``CONVOLVED`` below with every length-scale tied, as
  the kernel table, which takes no mode, evaluates it), scaled per task
  pair by a free-form task covariance ``Kc = L @ L.T``. For homotopic,
  task-major-ordered data the joint matrix is exactly the Kronecker
  product ``Kc ⊗ Ks``, and homotopic ICM fits of two or more tasks run
  on that structure: the objective in :mod:`soilgp.gp` eigendecomposes
  the noise-whitened ``Kc`` and ``Ks`` separately instead of factoring
  the joint matrix.
* ``CONVOLVED`` — each task keeps its own Matérn 3/2 length-scale and
  cross-task covariances take the closed form of the convolution of the
  per-task basis functions on a line, applied to planar distances. On a
  line it is positive semidefinite for any combination of length-scales;
  in the plane it is not in general. Unequal length-scales on strongly
  correlated tasks can give a joint matrix with negative eigenvalues on
  dense layouts (two tasks at 40 and 80 m with correlation 0.95 on a
  15 × 15 grid at 10 m spacing: about −0.16), which the Cholesky then
  rejects.

Every covariance the package evaluates comes from one kernel table,
:func:`cross_cov_table`, over the distinct locations: the dense
objective's spatial matrix and its length-scale derivative, the
eigen-path's spatial matrix, the synthetic draw's joint covariance and
prediction's cross-covariance. A :class:`_Layout` gathers each row's
entries from it through the row's (task, location) slot.
:func:`matern32`, :func:`cross_matern32` and their derivatives write the
pair formula out per entry; they are the table's bitwise references. The
references and the table take every constant of a length-scale pair
from one function, :func:`_cross_pair`.
Distances come from :func:`_cdist`, scipy's ``cdist`` bitwise in numpy
alone, so of scipy this module loads only LAPACK. It is the one place
that refuses points whose distances are not finite: every training,
plan and query point reaches the kernel table through it.

All hyperparameters live in one packed unconstrained vector (see
:func:`pack_theta`); positivity is enforced by log-parameterization, so
the optimizer never needs box constraints.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf

from .data import _check_positive

__all__ = [
    "KernelMode",
    "NumericFailure",
    "NOISE_FLOOR",
    "matern32",
    "matern32_dl",
    "cross_matern32",
    "cross_matern32_dli",
    "theta_dim",
    "pack_theta",
    "unpack_theta",
    "assemble_training_cov",
    "cross_cov_table",
    "chol_with_jitter",
]

SQRT3 = np.sqrt(3.0)

# Default floor on per-task noise variance (normalized units squared).
NOISE_FLOOR = 1e-8

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
    """A covariance is not finite, or its one Cholesky factorization failed."""


def matern32(r, lengthscale):
    """Unit-amplitude Matérn 3/2 correlation, k(r) = (1 + √3 r/l) e^(−√3 r/l)."""
    l = _check_positive(lengthscale, "length-scale")
    z = SQRT3 * np.asarray(r, dtype=float) / l
    return _matern32(z, np.exp(-z))


def _matern32(z, e):
    """Matérn 3/2 at z = √3 r/l, given e = e^(−z). Overwrites an array z:
    at M ~ 100 a fresh M×M buffer costs about as much as the arithmetic
    that fills it."""
    z += 1.0
    z *= e
    return z


def matern32_dl(r, lengthscale):
    """d matern32 / d lengthscale = 3 r² / l³ · e^(−√3 r/l)."""
    l = _check_positive(lengthscale, "length-scale")
    r = np.asarray(r, dtype=float)
    return 3.0 * r**2 / l**3 * np.exp(-SQRT3 * r / l)


def _cross_pair(li, lj):
    """Every constant of the cross kernel that depends only on the
    length-scale pair: the equal-length-scale switch, the closed form's
    amplitude 2√(l_i l_j)/(l_i² − l_j²) (the denominator 1 on the switch),
    the coefficient of l_i e_i − l_j e_j in ∂k/∂l_i, three times the
    switch's limit weight (½ when l_i = l_j bitwise, 1 when l_i is the
    smaller, else 0) and min(l_i, l_j)³."""
    near = np.abs(li - lj) <= _EQ_TOL * np.maximum(li, lj)
    denom = np.where(near, 1.0, li**2 - lj**2)
    amp = 2.0 * np.sqrt(li * lj) / denom
    coef = 0.5 / li - 2.0 * li / denom
    weight3 = np.where(li == lj, 1.5, np.where(li < lj, 3.0, 0.0))
    # the cube is inf past 5.6e102, within θ's bound (e^250); only ∂k/∂l_i
    # reads it, so a value alone must not warn
    with np.errstate(over="ignore"):
        lmin3 = np.minimum(li, lj) ** 3
    return near, amp, coef, weight3, lmin3


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
    li = _check_positive(l_i, "length-scale")
    lj = _check_positive(l_j, "length-scale")
    r = np.asarray(r, dtype=float)
    li, lj, r = np.broadcast_arrays(li, lj, r)
    near, amp, *_ = _cross_pair(li, lj)
    diff = li * np.exp(-SQRT3 * r / li) - lj * np.exp(-SQRT3 * r / lj)
    zmin = SQRT3 * r / np.minimum(li, lj)
    out = np.where(near, _matern32(zmin, np.exp(-zmin)), amp * diff)
    return out if out.ndim else float(out)


def cross_matern32_dli(r, l_i, l_j):
    """Partial derivative of :func:`cross_matern32` with respect to ``l_i``.

    Inside the equal-length-scale switch this differentiates the value
    actually computed there (the Matérn at min(l_i, l_j)): the full
    d matern32/dl goes to the smaller argument, zero to the larger, and
    half to each when they coincide bitwise (the task diagonal, where
    row and column contributions add back to the full derivative).
    """
    li = _check_positive(l_i, "length-scale")
    lj = _check_positive(l_j, "length-scale")
    r = np.asarray(r, dtype=float)
    li, lj, r = np.broadcast_arrays(li, lj, r)
    near, amp, coef, weight3, lmin3 = _cross_pair(li, lj)
    zi = SQRT3 * r / li
    ei = np.exp(-zi)
    diff = li * ei - lj * np.exp(-SQRT3 * r / lj)
    exact = (coef * diff + _matern32(zi, ei)) * amp
    limit = weight3 * r**2 / lmin3 * np.exp(-SQRT3 * r / np.minimum(li, lj))
    out = np.where(near, limit, exact)
    return out if out.ndim else float(out)


# Byte budget for the squared y offsets :func:`_cdist` holds at a time.
_CDIST_BYTES = 1 << 17


def _cdist(a, b):
    """Distances between the rows of two (·, 2) point arrays: scipy's
    ``cdist(a, b)``, bitwise, without importing scipy.spatial. Raises
    ValueError, with no warning, when a distance is not finite: a point
    is NaN or infinite, or an offset beyond ~1.3e154 squares to inf. The
    squared y offsets are added a row chunk of about ``_CDIST_BYTES`` at
    a time, so the output is the one array of its size."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    step = max(1, _CDIST_BYTES // (8 * max(len(b), 1)))  # rows per chunk
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.subtract.outer(a[:, 0], b[:, 0])
        r *= r
        dy = np.empty((min(step, len(a)), len(b)))
        for s in range(0, len(a), step):
            rs = r[s : s + step]
            d = dy[: len(rs)]
            np.subtract.outer(a[s : s + step, 1], b[:, 1], out=d)
            d *= d
            rs += d
    if not np.isfinite(r.max(initial=0.0)):  # also false for NaN
        raise ValueError("points must be finite, and not so far apart that their "
                         "distances overflow")
    return np.sqrt(r, out=r)


# Byte budget for one row block's temporaries in :func:`_joint_cov`: the
# kernel tables of the block's locations and the joint rows gathered from
# them.
_BLOCK_BYTES = 1 << 20


class _Layout:
    """Where the rows of a joint covariance read their entries from a
    kernel table. A row is a (task, point) pair; the table is taken over
    the U distinct points, ``locs`` (sorted), and each row has its
    location ``loc`` among them and its slot task·U + loc. Built once per
    problem, model or draw; locations whose distances overflow are
    refused by :func:`_cdist` when their distances are first taken."""

    def __init__(self, tasks, xy, n_tasks: int):
        self.tasks, self.n = tasks, n_tasks
        # np.unique(xy, axis=0, return_inverse=True), in its order (which the
        # eigen-path's bytes depend on), at a third of its cost
        self.order = np.lexsort(xy.T[::-1])  # the rows by location, stably
        xs = xy[self.order]
        first = np.empty(len(xy), dtype=bool)
        first[:1] = True
        np.any(xs[1:] != xs[:-1], axis=1, out=first[1:])
        self.locs = xs[first]
        self.loc = np.empty(len(xy), dtype=np.intp)
        self.loc[self.order] = np.cumsum(first) - 1
        self.u = len(self.locs)
        self.slot = tasks * self.u + self.loc

    def distances(self, s=0, e=None):
        """Distances from the locations s to e to every location."""
        return _cdist(self.locs[s:e], self.locs)

    def index(self, a, b, block: int):
        """Flat index of each row's entry in a :func:`cross_cov_table` of
        ``block`` points, for the row task ``a`` at the table point ``b``."""
        return (a * self.n * block + b) * self.u + (self.tasks * block * self.u + self.loc)

    def blocks(self, outputs: int = 1):
        """The joint matrix in row blocks: per block of locations, the rows
        that lie there (all of them, as a slice, when one block holds every
        location), their flat index into the block's table, and the
        block's distances. A block is sized so that ``outputs`` tables,
        the rows gathered from them and the index stay within
        ``_BLOCK_BYTES``."""
        n, u, m = self.n, self.u, len(self.tasks)
        per_loc = 8 * (outputs * n * n * u + -(-m // u) * (outputs + 1) * m)
        block = min(u, max(1, _BLOCK_BYTES // per_loc))
        starts = np.searchsorted(self.loc[self.order], range(0, u + block, block))
        for k, s in enumerate(range(0, u, block)):
            rows = slice(None) if block == u else self.order[starts[k] : starts[k + 1]]
            idx = self.index(self.tasks[rows, None], self.loc[rows, None] - s, block)
            yield rows, idx, self.distances(s, s + block)


def cross_cov_table(r, rows, task_cov_matrix, lengthscales, out, dl_out=None):
    """Covariance of points with a set of locations, for every (row task,
    column task) pair, written into ``out``.

    ``r`` is the B×U distance matrix from the points to the locations and
    ``rows`` the row tasks; ``out`` is a k×n×B×U array (k = len(rows))
    whose block ``out[a, j]`` receives Kc[i, j] · k_ij(r) for the row task
    i = rows[a], or k_ij(r) when ``task_cov_matrix`` is None. ``dl_out``,
    in the same layout, receives ∂k_ij/∂l_i of the row task, in both modes
    (ICM's dk/dl is the row's plus the column's). The value is bitwise
    :func:`cross_matern32`, and :func:`matern32` under ICM, and the
    derivative :func:`cross_matern32_dli`.

    Each task's length-scale takes one exponential over ``r``, and one
    :func:`_cross_pair` call computes every pair constant at k×n; the
    blocks of the pairs on the equal-length-scale switch are then written
    from the Matérn (and its derivative) at the task of min(l_i, l_j).
    When every pair is on the switch (ICM, one task, or tied
    length-scales), every block is the one Matérn and the pair arithmetic
    is skipped.
    Gathered through a :class:`_Layout`, the table is the dense
    objective's spatial matrix and its derivative, the synthetic draw's
    joint covariance (see :func:`_joint_cov`) and the prediction core's
    K*; for one task and one length-scale it is the eigen-path's spatial
    matrix itself.
    """
    rows = np.asarray(rows)
    ls = _check_positive(lengthscales, "length-scale")
    kc = None if task_cov_matrix is None else task_cov_matrix[rows][:, :, None, None]
    if (ls == ls[0]).all():
        z = SQRT3 * r
        z /= ls[0]
        e = np.exp(-z)
        if dl_out is not None:  # on the switch: half of matern32_dl
            np.divide(1.5 * (r * r), ls[:1] ** 3, out=dl_out)
            dl_out *= e
        m = _matern32(z, e)
        if kc is None:
            out[...] = m
        else:
            np.multiply(m, kc, out=out)
        return out

    near, amp, coef, weight3, lmin3 = _cross_pair(ls[rows][:, None], ls[None, :])
    a, b = np.nonzero(near)  # the switch's pairs
    lo = np.where(ls[rows[a]] <= ls[b], rows[a], b)  # their task of min(l_i, l_j)
    z = (SQRT3 * r) / ls[:, None, None]  # per task: n×B×U
    e = np.exp(-z)
    d = ls[:, None, None] * e
    m = _matern32(z, e)
    np.subtract(d[rows][:, None], d[None], out=out)  # l_i e_i − l_j e_j
    if dl_out is not None:  # cross_matern32_dli's operations, in its order
        np.multiply(out, coef[:, :, None, None], out=dl_out)
        dl_out += m[rows][:, None]
        dl_out *= amp[:, :, None, None]
        dl_out[a, b] = weight3[a, b, None, None] * (r * r) / lmin3[a, b, None, None] * e[lo]
    out *= amp[:, :, None, None]
    out[a, b] = m[lo]
    if kc is not None:
        out *= kc
    return out


def _joint_cov(layout: _Layout, blocks, task_cov_matrix, lengthscales, dl: bool = False):
    """The layout's M×M joint covariance (with ``task_cov_matrix`` None,
    its spatial correlation), and with ``dl`` also the spatial ∂/∂l_i of
    each entry's row task, as a list of M×M arrays. Each of
    ``blocks`` (from :meth:`_Layout.blocks`) fills one
    :func:`cross_cov_table` over its locations and gathers its rows from
    it. Without noise, the covariance is bitwise
    :func:`assemble_training_cov`; beyond the results, memory stays at
    about ``_BLOCK_BYTES``; :func:`_joint_chol` factors it in place."""
    m = len(layout.tasks)
    outs = [np.empty((m, m)) for _ in range(1 + dl)]
    tables = None
    for rows, idx, r in blocks:
        if tables is None:  # the first block is the largest
            tables = [np.empty((layout.n, layout.n) + r.shape) for _ in outs]
        b = len(r)
        cross_cov_table(r, np.arange(layout.n), task_cov_matrix, lengthscales,
                        *(t[:, :, :b] for t in tables))
        for o, t in zip(outs, tables):
            o[rows] = t.take(idx)
    return outs


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
    _check_positive(np.diag(L), "factor diagonal")
    rows, cols, diag = _tril_slots(n)
    tri = L[rows, cols]
    if not np.isfinite(tri).all():  # the diagonal is checked above
        raise ValueError("factor strictly-lower entries must be finite")
    tri[diag] = np.log(tri[diag])
    ls = _check_positive(np.atleast_1d(lengthscales), "length-scale")
    nv = _check_positive(np.atleast_1d(noise_vars), "noise variances")
    n_ls = mode.n_lengthscales(n)
    if ls.shape != (n_ls,):
        raise ValueError(f"expected {n_ls} length-scale(s) for mode {mode.value}")
    if nv.shape != (n,):
        raise ValueError(f"expected {n} noise variances")
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


def _task_rows(tasks, n: int) -> np.ndarray:
    """``tasks`` as intp, or ValueError unless each is an integer id of the n tasks."""
    ids = np.asarray(tasks)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"task ids must be a sequence of integers, got {ids!r}")
    if np.any((ids < 0) | (ids >= n)):
        raise ValueError(f"unknown task id in queries (model has {n} tasks)")
    return ids.astype(np.intp)


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
    tasks = _task_rows(tasks, n)
    xy = np.asarray(xy, dtype=float)
    if xy.shape != (tasks.size, 2):
        raise ValueError(f"xy must be ({tasks.size}, 2), got {xy.shape}")
    noise = np.asarray(noise_vars, dtype=float)
    if noise.shape != (n,):
        raise ValueError(f"expected {n} noise variances, got {noise.shape}")
    r = _cdist(xy, xy)
    K = task_cov_matrix[np.ix_(tasks, tasks)] * _spatial_block(
        r, tasks, tasks, lengthscales, mode
    )
    K[np.diag_indices_from(K)] += noise[tasks]
    return K


def chol_with_jitter(K: np.ndarray, jitter: float = 0.0) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + jitter·I, in one attempt.

    Returns (L, jitter). Raises :class:`NumericFailure` when K + jitter·I
    is not finite (a NaN or inf jitter included) or not positive
    definite. K is left untouched: the jitter is added to the diagonal of
    one Fortran-ordered copy of K, which :func:`_chol_in_place` factors;
    that is bitwise ``K + jitter * np.eye(M)`` without the sum's three
    M×M temporaries.
    """
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"covariance must be square, got shape {K.shape}")
    F = np.array(K, order="F")
    F.T.reshape(-1)[:: len(F) + 1] += jitter  # the diagonal
    return _chol_in_place(F), jitter


# Byte budget for the finiteness flags of one column slice in
# :func:`_chol_in_place`: flags for all of K at once would add N² bytes
# beside the N×N covariance, 2.8 MB at N = 1,720 (the campaign draw).
_CHECK_BYTES = 1 << 20


def _chol_in_place(K):
    """The lower Cholesky factor of the Fortran-ordered K, factored once in
    K's own memory. It is the library's one Cholesky: each caller adds its
    own diagonal (noise or jitter) to K first. Finiteness is checked over
    contiguous column slices of K, with about ``_CHECK_BYTES`` of flags at
    a time, so K is the one N×N array held."""
    step = max(1, _CHECK_BYTES // max(len(K), 1))  # columns per slice
    for s in range(0, len(K), step):
        if not np.isfinite(K[:, s : s + step]).all():
            raise NumericFailure("covariance contains non-finite entries")
    # the LAPACK call of scipy.linalg.cholesky(K, lower=True), without
    # its argument handling, which cost more than the factorization
    # itself at M = 12
    Lf, info = dpotrf(K, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericFailure("covariance not positive definite")
    return Lf


def _joint_chol(layout, task_cov_matrix, lengthscales, diag):
    """The lower Cholesky factor of the layout's joint covariance plus
    ``diag`` on its diagonal (a fitted model's per-row noise, or the
    draw's jitter), in one M×M array: K is bitwise symmetric, so its
    transpose view is the Fortran-ordered K that LAPACK factors in place."""
    (K,) = _joint_cov(layout, layout.blocks(), task_cov_matrix, lengthscales)
    K.reshape(-1)[:: len(K) + 1] += diag
    return _chol_in_place(K.T)
