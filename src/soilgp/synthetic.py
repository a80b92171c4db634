"""Synthetic correlated fields with known hyperparameters.

Stands in for real campaign data: a latent multi-task surface is drawn
once from a specified prior, observed with noise at the sample
locations, and kept noise-free at held-out truth points so evaluation
curves have an exact reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Location, Observation, _sample_ids, check_labels, make_dataset
from .gp import HyperParams, _positive_finite, theta_from_moments
from .kernels import JITTER_LADDER, KernelMode, _joint_chol, _Layout
from .mapping import GroundTruth

__all__ = [
    "MAX_DRAW_POINTS",
    "SyntheticField",
    "correlation_matrix",
    "prior_theta",
    "grid_locations",
    "draw_field",
]


# Largest joint draw, in (samples + truth points) × tasks: the draw holds one
# such square, the joint covariance factored in place, and a 3,600-point
# draw peaked at 171 MB resident, 57 MB of it the imports (2 vCPU Xeon).
MAX_DRAW_POINTS = 3600


@dataclass(frozen=True)
class SyntheticField:
    """Generator settings for one synthetic campaign."""

    # one task's variance and noise variance unless given: the defaults
    # below at four tasks, and synth's at any task count
    TASK_VARIANCE = 1.0
    TASK_NOISE_VAR = 0.05

    labels: tuple[str, ...] = ("pH", "N", "P", "K")
    variances: tuple[float, ...] = (TASK_VARIANCE,) * 4
    # (i, j, r) entries; unlisted pairs are uncorrelated
    correlations: tuple[tuple[int, int, float], ...] = ((0, 1, 0.9),)
    lengthscales: tuple[float, ...] = (40.0, 40.0, 60.0, 80.0)
    noise_vars: tuple[float, ...] = (TASK_NOISE_VAR,) * 4
    width: float = 300.0
    height: float = 170.0
    n_samples: int = 30
    mode: KernelMode = field(default=KernelMode.CONVOLVED)

    @property
    def n_tasks(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        check_labels(self.labels)  # the rule the observation file is read by
        n = self.n_tasks
        if not len(self.variances) == len(self.noise_vars) == n:
            raise ValueError("per-task settings must all have one entry per label")
        n_ls = self.mode.n_lengthscales(n)
        if len(self.lengthscales) != n_ls:
            raise ValueError(f"expected {n_ls} length-scale(s)")
        for name in ("width", "height", "variances", "noise_vars"):
            for v in np.atleast_1d(getattr(self, name)).tolist():
                _positive_finite(name, v)
        w, h = float(self.width), float(self.height)
        if not math.isfinite(w * w + h * h):  # kernels._cdist squares the offsets
            raise ValueError(f"width {w!r} and height {h!r}: distances across the "
                             "field overflow")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")
        pairs = [{i, j} for i, j, _ in self.correlations]
        for i, j, r in self.correlations:
            if not (0 <= i < n and 0 <= j < n and i != j) or pairs.count({i, j}) > 1:
                raise ValueError(f"correlations: ({i}, {j}) must be two of {n} tasks, once")
            if not abs(r) <= 1:  # also false for NaN
                raise ValueError(f"correlations: ({i}, {j}) has r = {r!r}, not in [-1, 1]")


def correlation_matrix(cfg: SyntheticField) -> np.ndarray:
    corr = np.eye(cfg.n_tasks)
    for i, j, r in cfg.correlations:
        corr[i, j] = corr[j, i] = r
    return corr


def prior_theta(cfg: SyntheticField) -> HyperParams:
    try:
        return theta_from_moments(
            cfg.variances, correlation_matrix(cfg), cfg.lengthscales, cfg.noise_vars,
            cfg.mode,
        )
    except np.linalg.LinAlgError:  # each pair valid, the matrix not positive definite
        raise ValueError(f"correlations {cfg.correlations} are not jointly valid") from None


def random_locations(rng: np.random.Generator, n: int, width: float, height: float):
    pts = rng.uniform((0.0, 0.0), (width, height), size=(n, 2))
    return [Location(float(x), float(y)) for x, y in pts]


def grid_locations(cfg: SyntheticField) -> list[Location]:
    """Evenly covering layout: centers of a partition of the field into
    n_samples cells, using the most-square exact factorization when one
    exists (30 samples on 300×170 m gives the 6×5 grid)."""
    n = cfg.n_samples
    best = None
    for nx in range(1, n + 1):
        if n % nx:
            continue
        ny = n // nx
        badness = abs(cfg.width / nx - cfg.height / ny)
        if best is None or badness < best[0]:
            best = (badness, nx, ny)
    _, nx, ny = best
    sx, sy = cfg.width / nx, cfg.height / ny
    return [
        Location((ix + 0.5) * sx, (iy + 0.5) * sy)
        for iy in range(ny)
        for ix in range(nx)
    ]


def draw_field(
    cfg: SyntheticField,
    seed: int,
    truth_xy: np.ndarray | None = None,
    observed: np.ndarray | None = None,
    locations=None,
) -> tuple[Dataset, GroundTruth | None]:
    """One campaign draw: noisy training set plus noise-free truth.

    A single latent vector is drawn jointly over the sample locations
    and the optional truth points, so training values and reference
    values come from the same surface. ``observed`` is an optional
    (n_samples, n_tasks) boolean mask for heterotopic layouts; masked
    observations are dropped from the training set only. Explicit
    ``locations`` override the default uniform-random placement. The draw
    is dense, so more than ``MAX_DRAW_POINTS`` (samples + truth points) ×
    tasks is refused with ValueError before anything that size is built.
    The joint covariance is assembled in row blocks of the kernel table
    and factored in place with a jitter of at least 1e-10, as every fitted
    model's is (:func:`kernels._joint_chol`): the draw holds one N×N array.
    """
    rng = np.random.default_rng(seed)
    if locations is None:
        locs = random_locations(rng, cfg.n_samples, cfg.width, cfg.height)
    else:
        locs = [p if isinstance(p, Location) else Location(*p) for p in locations]
        if len(locs) != cfg.n_samples:
            raise ValueError(
                f"expected {cfg.n_samples} locations, got {len(locs)}"
            )
    L_task, ls, _ = prior_theta(cfg).unpack()
    n = cfg.n_tasks
    m = cfg.n_samples

    # sample-major training block, then task-major truth block
    train_tasks = np.tile(np.arange(n, dtype=np.intp), m)
    train_xy = np.repeat(np.array([(p.x, p.y) for p in locs]), n, axis=0)
    if truth_xy is not None:
        truth_xy = np.asarray(truth_xy, dtype=float)
        g = truth_xy.shape[0]
        all_tasks = np.concatenate([train_tasks, np.repeat(np.arange(n, dtype=np.intp), g)])
        all_xy = np.vstack([train_xy, np.tile(truth_xy, (n, 1))])
    else:
        g = 0
        all_tasks, all_xy = train_tasks, train_xy
    if len(all_tasks) > MAX_DRAW_POINTS:
        raise ValueError(
            f"joint draw of ({m} samples + {g} truth points) x {n} tasks = "
            f"{len(all_tasks)} exceeds {MAX_DRAW_POINTS}; use fewer samples or truth points"
        )

    layout = _Layout(all_tasks, all_xy, n)
    Lf, _ = _joint_chol(layout, L_task @ L_task.T, ls, 0.0, JITTER_LADDER[1:])
    latent = Lf @ rng.standard_normal(len(all_tasks))

    noise_std = np.sqrt(np.asarray(cfg.noise_vars))
    eps = rng.standard_normal(m * n) * noise_std[train_tasks]
    y_train = latent[: m * n] + eps

    obs = []
    k = 0
    for j, (sid, loc) in enumerate(zip(_sample_ids(m), locs)):
        for i in range(n):
            if observed is None or observed[j, i]:
                obs.append(Observation(sid, loc, i, float(y_train[k])))
            k += 1
    dataset = make_dataset(obs, n, cfg.labels)

    truth = None
    if truth_xy is not None:
        truth = GroundTruth(truth_xy, latent[m * n :].reshape(n, g).copy())
    return dataset, truth
