"""Grid prediction, RMSE, sequential-ingest evaluation and correlation
trajectories.

The evaluation loop replays a campaign sample by sample: for each prefix
of k samples it refits from scratch (no warm starts, so curve points are
independent) and scores predictions against a ground-truth grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, Rect, TaskId, prefix
from .gp import FitConfig, FittedModel, fit, fit_stgp, predict_tasks, task_correlations

__all__ = [
    "GridSpec",
    "PropertyMap",
    "GroundTruth",
    "RmseCurves",
    "CorrelationTrajectory",
    "predict_map",
    "rmse",
    "sequential_eval",
    "correlation_trajectory",
]

EVAL_METHODS = ("mtgp", "stgp")


@dataclass(frozen=True)
class GridSpec:
    """Regular cell grid over a rectangle; centers lie strictly inside.

    Cells are ordered row-major from the (min x, min y) corner: index =
    iy * nx + ix, with centers at min + (i + ½) · resolution.
    """

    bounds: Rect
    resolution: float

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(
                f"grid has zero cells: bounds {self.bounds} at resolution "
                f"{self.resolution}"
            )

    @property
    def nx(self) -> int:
        return int(np.floor(self.bounds.width / self.resolution + 1e-9))

    @property
    def ny(self) -> int:
        return int(np.floor(self.bounds.height / self.resolution + 1e-9))

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @cached_property
    def cell_centers(self) -> np.ndarray:
        xs = self.bounds.xmin + (np.arange(self.nx) + 0.5) * self.resolution
        ys = self.bounds.ymin + (np.arange(self.ny) + 0.5) * self.resolution
        gx, gy = np.meshgrid(xs, ys)  # row-major over y then x
        out = np.column_stack([gx.ravel(), gy.ravel()])
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class PropertyMap:
    """Posterior mean and variance surfaces for one task on a grid."""

    task: TaskId
    grid: GridSpec
    mean: np.ndarray
    variance: np.ndarray
    normalized: bool

    def __post_init__(self):
        n = self.grid.n_cells
        if self.mean.shape != (n,) or self.variance.shape != (n,):
            raise ValueError("map arrays must match the grid cell count")
        if np.any(self.variance < 0):
            raise ValueError("variance map must be non-negative")


@dataclass(frozen=True)
class GroundTruth:
    """Per-task reference values at shared evaluation points (raw units)."""

    xy: np.ndarray  # (G, 2)
    values: np.ndarray  # (n_tasks, G)

    def __post_init__(self):
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError("xy must be (G, 2)")
        if self.values.ndim != 2 or self.values.shape[1] != self.xy.shape[0]:
            raise ValueError("values must be (n_tasks, G)")

    @property
    def n_tasks(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class RmseCurves:
    """RMSE against ground truth after each ingested sample."""

    method: str
    ks: tuple[int, ...]
    values: np.ndarray  # (len(ks), n_tasks)

    def curve(self, task: int) -> list[tuple[int, float]]:
        return [(k, float(v)) for k, v in zip(self.ks, self.values[:, task])]


@dataclass(frozen=True)
class CorrelationTrajectory:
    """Estimated inter-task correlations after each ingested sample."""

    ks: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # ordered (i, j), i < j
    values: np.ndarray  # (len(ks), len(pairs))

    def curve(self, i: int, j: int) -> list[tuple[int, float]]:
        col = self.pairs.index((i, j))
        return [(k, float(v)) for k, v in zip(self.ks, self.values[:, col])]


def predict_map(
    model: FittedModel,
    grid: GridSpec,
    denormalize: bool = False,
    include_noise: bool = False,
) -> list[PropertyMap]:
    """One mean/variance surface per task, evaluated at every cell center."""
    tasks = range(model.n_tasks)
    mean, var = predict_tasks(
        model, tasks, grid.cell_centers, denormalize=denormalize,
        include_noise=include_noise,
    )
    return [
        PropertyMap(
            task=TaskId(i, model.dataset.labels[i]),
            grid=grid,
            mean=mean[i],
            variance=var[i],
            normalized=not denormalize,
        )
        for i in tasks
    ]


def rmse(predicted, truth) -> float:
    """√(mean squared difference); symmetric and absolutely homogeneous."""
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("rmse of empty vectors")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def _truth_scales(truth: GroundTruth) -> np.ndarray:
    """Per-task population std of the truth values (1 where degenerate)."""
    s = truth.values.std(axis=1)
    return np.where(s > 0, s, 1.0)


def _predict_all_tasks(models, n_tasks, xy) -> np.ndarray:
    """(n_tasks, G) raw-unit predictions from one MTGP or a list of STGPs."""
    if isinstance(models, list):  # one single-task model per task
        return np.vstack(
            [predict_tasks(m, (0,), xy, denormalize=True)[0] for m in models]
        )
    return predict_tasks(models, range(n_tasks), xy, denormalize=True)[0]


def sequential_eval(
    data: Dataset,
    truth: GroundTruth,
    method: str,
    config: FitConfig,
    normalize_errors: bool = True,
) -> RmseCurves:
    """Refit on each k-sample prefix and score RMSE on the truth points.

    Errors are computed in raw units and, by default, divided by the
    per-task population std of the truth values so curves are comparable
    across tasks and across methods regardless of measurement scale.
    """
    if method not in EVAL_METHODS:
        raise ValueError(f"method must be one of {EVAL_METHODS}, got {method!r}")
    if truth.n_tasks != data.n_tasks:
        raise ValueError("truth task count does not match dataset")
    n_samples = data.n_samples
    if n_samples < 1:
        raise ValueError("need at least one sample")
    scales = _truth_scales(truth) if normalize_errors else np.ones(data.n_tasks)

    ks = tuple(range(1, n_samples + 1))
    values = np.empty((n_samples, data.n_tasks))
    for idx, k in enumerate(ks):
        sub = prefix(data, k)
        models = fit(sub, config) if method == "mtgp" else fit_stgp(sub, config)
        pred = _predict_all_tasks(models, data.n_tasks, truth.xy)
        for i in range(data.n_tasks):
            values[idx, i] = rmse(pred[i] / scales[i], truth.values[i] / scales[i])
    return RmseCurves(method, ks, values)


def correlation_trajectory(data: Dataset, config: FitConfig) -> CorrelationTrajectory:
    """Off-diagonal task correlations refit on each k-sample prefix."""
    n_samples = data.n_samples
    if n_samples < 2:
        raise ValueError("need at least two samples for a trajectory")
    pairs = tuple(
        (i, j) for i in range(data.n_tasks) for j in range(i + 1, data.n_tasks)
    )
    ks = tuple(range(1, n_samples + 1))
    values = np.empty((n_samples, len(pairs)))
    for idx, k in enumerate(ks):
        model = fit(prefix(data, k), config)
        corr = task_correlations(model)
        values[idx] = [corr[i, j] for i, j in pairs]
    return CorrelationTrajectory(ks, pairs, values)
