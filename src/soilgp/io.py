"""File formats: observation/plan/truth CSVs, run configuration, model
files and map exports.

Everything is plain text for diff-ability. Numeric values are written
with ``repr`` (shortest exact round-trip), so parse→serialize→parse is
lossless and repeated runs produce byte-identical files. Writes go
through a temp file plus rename, so readers never see partial output.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, Location, Observation, make_dataset
from .gp import FitConfig, FittedModel, HyperParams, condition
from .kernels import NOISE_FLOOR, KernelMode
from .mapping import GroundTruth, GridSpec, PropertyMap, RmseCurves, CorrelationTrajectory
from .mission import FieldBoundary, SamplePlan

__all__ = [
    "OBS_HEADER",
    "RunConfig",
    "parse_observations",
    "serialize_observations",
    "write_observations",
    "dataset_digest",
    "parse_run_config",
    "write_model",
    "read_model",
    "ModelRecord",
    "model_from_record",
    "write_map_csv",
    "write_asc",
    "write_predictions",
    "parse_queries",
    "parse_truth",
    "write_truth",
    "write_plan",
    "parse_plan",
    "parse_boundary",
    "write_rmse_curves",
    "write_trajectory",
    "write_correlation_matrix",
]

OBS_HEADER = "sample_id,x_m,y_m,task,value"
MODEL_FORMAT_TAG = "soilgp-model v1"
MAX_TASK_LABELS = 16
NODATA = -9999.0

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


def _atomic_write(path, text: str):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v) -> str:
    """Shortest exact decimal for a float (numpy scalars included)."""
    return repr(float(v))


def _parse_float(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"row {row}: column {column}: not a number: {raw!r}")


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


def parse_observations(path) -> Dataset:
    """Read an observation CSV into a Dataset.

    Task indices follow first appearance of labels; file order is
    insertion order. Rows for one sample_id must be contiguous.
    """
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty dataset")
        if [h.strip() for h in header] != OBS_HEADER.split(","):
            raise ValueError(
                f"row 1: malformed header {','.join(header)!r} "
                f"(expected {OBS_HEADER!r})"
            )
        labels: list[str] = []
        observations = []
        seen_ids: set[str] = set()
        current_id = None
        for row_num, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ValueError(f"row {row_num}: expected 5 fields, got {len(row)}")
            sid, xs, ys, label, vs = (c.strip() for c in row)
            if not sid:
                raise ValueError(f"row {row_num}: empty sample_id")
            if sid != current_id:
                if sid in seen_ids:
                    raise ValueError(
                        f"row {row_num}: rows for sample {sid!r} are not contiguous"
                    )
                seen_ids.add(sid)
                current_id = sid
            x = _parse_float(xs, row_num, "x_m")
            y = _parse_float(ys, row_num, "y_m")
            value = _parse_float(vs, row_num, "value")
            if not _LABEL_RE.match(label):
                raise ValueError(f"row {row_num}: invalid task label {label!r}")
            if label not in labels:
                if len(labels) >= MAX_TASK_LABELS:
                    raise ValueError(
                        f"row {row_num}: more than {MAX_TASK_LABELS} task labels"
                    )
                labels.append(label)
            try:
                observations.append(
                    Observation(sid, Location(x, y), labels.index(label), value)
                )
            except ValueError as e:
                raise ValueError(f"row {row_num}: {e}")
    if not observations:
        raise ValueError("empty dataset")
    return make_dataset(observations, len(labels), labels)


def serialize_observations(dataset: Dataset) -> str:
    lines = [OBS_HEADER]
    for o in dataset.observations:
        lines.append(
            f"{o.sample_id},{_fmt(o.location.x)},{_fmt(o.location.y)},"
            f"{dataset.labels[o.task]},{_fmt(o.value)}"
        )
    return "\n".join(lines) + "\n"


def write_observations(path, dataset: Dataset):
    _atomic_write(path, serialize_observations(dataset))


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 over the canonical observation serialization."""
    return hashlib.sha256(serialize_observations(dataset).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Flat key=value settings shared by the CLI commands."""

    mode: KernelMode = KernelMode.CONVOLVED
    restarts: int = 8
    seed: int = 0
    max_iters: int = 200
    tol: float = 1e-6
    resolution: float = 5.0
    denormalize: bool = False
    noise_floor: float = NOISE_FLOOR

    def fit_config(self) -> FitConfig:
        return FitConfig(
            restarts=self.restarts,
            max_iters=self.max_iters,
            tol=self.tol,
            seed=self.seed,
            mode=self.mode,
            noise_floor=self.noise_floor,
        )


_RUN_CONFIG_PARSERS = {
    "mode": KernelMode.parse,
    "restarts": int,
    "seed": int,
    "max_iters": int,
    "tol": float,
    "resolution": float,
    "denormalize": lambda s: {"true": True, "false": False}[s.lower()],
    "noise_floor": float,
}


def parse_run_config(path) -> RunConfig:
    cfg = RunConfig()
    with open(path, encoding="utf-8") as f:
        for line_num, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {line_num}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _RUN_CONFIG_PARSERS:
                raise ValueError(f"line {line_num}: unknown key {key!r}")
            try:
                value = _RUN_CONFIG_PARSERS[key](raw)
            except (ValueError, KeyError):
                raise ValueError(f"line {line_num}: bad value for {key}: {raw!r}")
            cfg = replace(cfg, **{key: value})
    return cfg


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelRecord:
    """Everything a model file stores; training data travels separately
    and is checked against the digest."""

    mode: KernelMode
    n_tasks: int
    labels: tuple[str, ...]
    theta: np.ndarray
    norm_means: np.ndarray
    norm_stds: np.ndarray
    noise_floor: float
    data_digest: str
    lml: float


def write_model(path, model: FittedModel, digest: str):
    lines = [
        MODEL_FORMAT_TAG,
        f"mode {model.mode.value}",
        f"n_tasks {model.n_tasks}",
        "labels " + ",".join(model.dataset.labels),
        "theta " + " ".join(_fmt(v) for v in model.theta.values),
        "norm_means " + " ".join(_fmt(v) for v in model.stats.means),
        "norm_stds " + " ".join(_fmt(v) for v in model.stats.stds),
        f"noise_floor {_fmt(model.noise_floor)}",
        f"data_digest {digest}",
        f"lml {_fmt(model.lml)}",
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_model(path) -> ModelRecord:
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != MODEL_FORMAT_TAG:
        raise ValueError(f"not a model file (expected {MODEL_FORMAT_TAG!r} tag)")
    fields = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        key, _, raw = ln.partition(" ")
        fields[key] = raw
    try:
        n_tasks = int(fields["n_tasks"])
        record = ModelRecord(
            mode=KernelMode.parse(fields["mode"]),
            n_tasks=n_tasks,
            labels=tuple(fields["labels"].split(",")),
            theta=np.array([float(v) for v in fields["theta"].split()]),
            norm_means=np.array([float(v) for v in fields["norm_means"].split()]),
            norm_stds=np.array([float(v) for v in fields["norm_stds"].split()]),
            noise_floor=float(fields["noise_floor"]),
            data_digest=fields["data_digest"],
            lml=float(fields["lml"]),
        )
    except KeyError as e:
        raise ValueError(f"model file missing field {e.args[0]!r}")
    if len(record.labels) != n_tasks:
        raise ValueError("model file label count does not match n_tasks")
    return record


def model_from_record(record: ModelRecord, dataset: Dataset) -> FittedModel:
    """Rebuild a usable model from a record plus its training data.

    Refuses to proceed when the dataset digest does not match the one
    stored at fit time.
    """
    digest = dataset_digest(dataset)
    if digest != record.data_digest:
        raise ValueError(
            "training data digest mismatch: model was fitted on different data"
        )
    if dataset.labels != record.labels:
        raise ValueError("task labels differ between model file and observations")
    theta = HyperParams(record.theta, record.n_tasks, record.mode)
    return condition(dataset, theta, record.noise_floor)


# ---------------------------------------------------------------------------
# Maps, predictions, truth grids
# ---------------------------------------------------------------------------


def write_map_csv(path, maps: list[PropertyMap]):
    lines = ["task,x_m,y_m,mean,variance"]
    for pm in maps:
        centers = pm.grid.cell_centers
        for c in range(pm.grid.n_cells):
            lines.append(
                f"{pm.task.label},{_fmt(centers[c, 0])},{_fmt(centers[c, 1])},"
                f"{_fmt(pm.mean[c])},{_fmt(pm.variance[c])}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_asc(path, grid: GridSpec, values: np.ndarray):
    """ESRI ASCII grid: 6-line header, then rows north to south."""
    if values.shape != (grid.n_cells,):
        raise ValueError("value count does not match grid")
    rows = values.reshape(grid.ny, grid.nx)
    lines = [
        f"ncols {grid.nx}",
        f"nrows {grid.ny}",
        f"xllcorner {_fmt(grid.bounds.xmin)}",
        f"yllcorner {_fmt(grid.bounds.ymin)}",
        f"cellsize {_fmt(grid.resolution)}",
        f"NODATA_value {_fmt(NODATA)}",
    ]
    for iy in range(grid.ny - 1, -1, -1):  # internal rows run south→north
        lines.append(" ".join(_fmt(v) for v in rows[iy]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_predictions(path, labels, result):
    lines = ["task,x_m,y_m,mean,variance"]
    for t, (x, y), m, v in zip(result.tasks, result.xy, result.mean, result.variance):
        lines.append(f"{labels[t]},{_fmt(x)},{_fmt(y)},{_fmt(m)},{_fmt(v)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_queries(path, labels) -> tuple[np.ndarray, np.ndarray]:
    """Query CSV (``task,x_m,y_m``) → (task indices, xy array)."""
    label_to_idx = {lab: i for i, lab in enumerate(labels)}
    tasks, xy = [], []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["task", "x_m", "y_m"]:
            raise ValueError("row 1: malformed header (expected task,x_m,y_m)")
        for row_num, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"row {row_num}: expected 3 fields")
            label, xs, ys = (c.strip() for c in row)
            if label not in label_to_idx:
                raise ValueError(f"row {row_num}: unknown task label {label!r}")
            tasks.append(label_to_idx[label])
            xy.append((_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m")))
    if not tasks:
        raise ValueError("no queries in file")
    return np.array(tasks, dtype=np.intp), np.array(xy)


def write_truth(path, labels, truth: GroundTruth):
    lines = ["task,x_m,y_m,value"]
    for i, lab in enumerate(labels):
        for (x, y), v in zip(truth.xy, truth.values[i]):
            lines.append(f"{lab},{_fmt(x)},{_fmt(y)},{_fmt(v)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_truth(path, labels) -> GroundTruth:
    """Truth CSV (``task,x_m,y_m,value``); every task must cover the
    same points in the same order."""
    label_to_idx = {lab: i for i, lab in enumerate(labels)}
    per_task_xy: dict[int, list] = {i: [] for i in range(len(labels))}
    per_task_v: dict[int, list] = {i: [] for i in range(len(labels))}
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["task", "x_m", "y_m", "value"]:
            raise ValueError("row 1: malformed header (expected task,x_m,y_m,value)")
        for row_num, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ValueError(f"row {row_num}: expected 4 fields")
            label, xs, ys, vs = (c.strip() for c in row)
            if label not in label_to_idx:
                raise ValueError(f"row {row_num}: unknown task label {label!r}")
            i = label_to_idx[label]
            per_task_xy[i].append(
                (_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m"))
            )
            v = _parse_float(vs, row_num, "value")
            if not np.isfinite(v):
                raise ValueError(f"row {row_num}: non-finite value {vs!r}")
            per_task_v[i].append(v)
    counts = {i: len(v) for i, v in per_task_v.items()}
    if min(counts.values()) == 0:
        missing = [labels[i] for i, c in counts.items() if c == 0]
        raise ValueError(f"truth grid missing tasks: {missing}")
    xy0 = np.array(per_task_xy[0])
    for i in range(1, len(labels)):
        if counts[i] != counts[0] or not np.array_equal(np.array(per_task_xy[i]), xy0):
            raise ValueError("truth tasks do not share one point set")
    values = np.array([per_task_v[i] for i in range(len(labels))])
    return GroundTruth(xy0, values)


# ---------------------------------------------------------------------------
# Plans and boundaries
# ---------------------------------------------------------------------------


def write_plan(path, plan: SamplePlan):
    width = max(2, len(str(len(plan.points))))
    lines = ["sample_id,x_m,y_m"]
    for j, p in enumerate(plan.points):
        lines.append(f"S{j + 1:0{width}d},{_fmt(p.x)},{_fmt(p.y)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_plan(path) -> list[Location]:
    points = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["sample_id", "x_m", "y_m"]:
            raise ValueError("row 1: malformed header (expected sample_id,x_m,y_m)")
        for row_num, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"row {row_num}: expected 3 fields")
            _, xs, ys = (c.strip() for c in row)
            points.append(
                Location(_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m"))
            )
    if not points:
        raise ValueError("empty plan")
    return points


def parse_boundary(path) -> FieldBoundary:
    """Boundary CSV (``ring,x_m,y_m``): ring 0 is the field outline,
    rings 1.. are exclusion zones; vertices in file order."""
    rings: dict[int, list] = {}
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["ring", "x_m", "y_m"]:
            raise ValueError("row 1: malformed header (expected ring,x_m,y_m)")
        for row_num, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"row {row_num}: expected 3 fields")
            rs, xs, ys = (c.strip() for c in row)
            try:
                ring = int(rs)
            except ValueError:
                raise ValueError(f"row {row_num}: column ring: not an integer: {rs!r}")
            rings.setdefault(ring, []).append(
                (_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m"))
            )
    if 0 not in rings:
        raise ValueError("boundary file has no ring 0 (field outline)")
    exclusions = tuple(
        tuple(rings[k]) for k in sorted(rings) if k != 0
    )
    return FieldBoundary(tuple(rings[0]), exclusions)


# ---------------------------------------------------------------------------
# Evaluation outputs
# ---------------------------------------------------------------------------


def write_rmse_curves(path, labels, curves: list[RmseCurves]):
    lines = ["method,task,k,rmse"]
    for cur in curves:
        for i, lab in enumerate(labels):
            for k, v in cur.curve(i):
                lines.append(f"{cur.method},{lab},{k},{_fmt(v)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_trajectory(path, labels, traj: CorrelationTrajectory):
    lines = ["task_i,task_j,k,r"]
    for col, (i, j) in enumerate(traj.pairs):
        for k, v in zip(traj.ks, traj.values[:, col]):
            lines.append(f"{labels[i]},{labels[j]},{k},{_fmt(v)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_correlation_matrix(path, labels, corr: np.ndarray):
    lines = ["task_i,task_j,r"]
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"{labels[i]},{labels[j]},{_fmt(corr[i, j])}")
    _atomic_write(path, "\n".join(lines) + "\n")
