"""Grid prediction, RMSE, sequential-ingest evaluation and correlation
trajectories.

The evaluation loop replays a campaign sample by sample: for each prefix
of k samples it refits from scratch (no warm starts, so curve points are
independent). ``_replay`` is the one prefix loop; the RMSE curves
(``sequential_eval``) and the correlation trajectory
(``correlation_trajectory``) are reductions over it, so
``eval-sequential --method mtgp`` and ``correlations --obs`` replay the
same prefix fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, Rect, _check_positive, prefix
from .gp import FitConfig, FittedModel, fit, fit_stgp, predict_tasks, task_correlations

__all__ = [
    "MAX_GRID_CELLS",
    "GridSpec",
    "GroundTruth",
    "RmseCurves",
    "CorrelationTrajectory",
    "predict_map",
    "rmse",
    "sequential_eval",
    "correlation_trajectory",
]

EVAL_METHODS = ("mtgp", "stgp")

# Largest grid a GridSpec describes: ten times the largest maps in use
# (10⁶ cells); its cell centers alone take 160 MB.
MAX_GRID_CELLS = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Regular cell grid over a rectangle; centers lie strictly inside.

    Cells are ordered row-major from the (min x, min y) corner: index =
    iy * nx + ix, with centers at min + (i + ½) · resolution.
    """

    bounds: Rect
    resolution: float

    def __post_init__(self):
        b = self.bounds
        if not np.all(np.isfinite([b.xmin, b.ymin, b.xmax, b.ymax])):
            raise ValueError(f"grid bounds {b} must be finite")
        _check_positive(self.resolution, "resolution")
        if not np.isfinite([b.width / self.resolution, b.height / self.resolution]).all():
            raise ValueError(f"cell count at resolution {self.resolution} is not finite")
        if self.n_cells > MAX_GRID_CELLS:
            raise ValueError(
                f"{self.nx} x {self.ny} grid at resolution {self.resolution} exceeds "
                f"{MAX_GRID_CELLS} cells"
            )
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


@dataclass(frozen=True)
class CorrelationTrajectory:
    """Estimated inter-task correlations after each ingested sample."""

    ks: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # ordered (i, j), i < j
    values: np.ndarray  # (len(ks), len(pairs))


def predict_map(
    model: FittedModel,
    grid: GridSpec,
    denormalize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of every task at every cell center, as two
    n_tasks × n_cells arrays (row i: ``model.dataset``'s label i; cells in the
    grid's row-major order), in normalized units unless ``denormalize``."""
    return predict_tasks(model, range(model.n_tasks), grid.cell_centers,
                         denormalize=denormalize)


def rmse(predicted, truth) -> float:
    """√(mean squared difference); symmetric and absolutely homogeneous."""
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("rmse of empty vectors")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def _replay(data: Dataset, method: str, config: FitConfig):
    """Yield ``(k, models)`` for k = 1…n, refit from scratch on the k-sample
    prefix: MTGP one model of every task, STGP one single-task model per
    task. The library's only prefix loop."""
    if method not in EVAL_METHODS:
        raise ValueError(f"method must be one of {EVAL_METHODS}, got {method!r}")
    for k in range(1, data.n_samples + 1):
        sub = prefix(data, k)
        yield k, [fit(sub, config)] if method == "mtgp" else fit_stgp(sub, config)


def sequential_eval(
    data: Dataset,
    truth: GroundTruth,
    method: str,
    config: FitConfig,
    normalize_errors: bool = True,
) -> RmseCurves:
    """Refit on each k-sample prefix and score RMSE on the truth points.

    Errors are computed in raw units and, by default, divided by the
    per-task population std of the truth values (1 where it is 0) so
    curves are comparable across tasks and across methods regardless of
    measurement scale.
    """
    if truth.n_tasks != data.n_tasks:
        raise ValueError("truth task count does not match dataset")
    if data.n_samples < 1:
        raise ValueError("need at least one sample")
    scales = truth.values.std(axis=1) if normalize_errors else np.ones(data.n_tasks)
    scales = np.where(scales > 0, scales, 1.0)
    values = np.empty((data.n_samples, data.n_tasks))
    for k, models in _replay(data, method, config):
        pred = np.vstack([predict_tasks(m, range(m.n_tasks), truth.xy, denormalize=True)[0]
                          for m in models])
        values[k - 1] = [rmse(p / s, t / s) for p, t, s in zip(pred, truth.values, scales)]
    return RmseCurves(method, tuple(range(1, data.n_samples + 1)), values)


def correlation_trajectory(data: Dataset, config: FitConfig) -> CorrelationTrajectory:
    """Off-diagonal task correlations refit on each k-sample prefix: the
    fits of ``sequential_eval``'s MTGP replay."""
    if data.n_samples < 2:
        raise ValueError("need at least two samples for a trajectory")
    rows, cols = np.triu_indices(data.n_tasks, 1)
    values = np.empty((data.n_samples, len(rows)))
    for k, (model,) in _replay(data, "mtgp", config):
        values[k - 1] = task_correlations(model)[rows, cols]
    return CorrelationTrajectory(tuple(range(1, data.n_samples + 1)),
                                 tuple(zip(rows.tolist(), cols.tolist())), values)
