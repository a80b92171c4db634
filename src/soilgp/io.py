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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import Dataset, Location, Observation, make_dataset
from .gp import FitConfig, FittedModel, HyperParams, condition
from .kernels import KernelMode
from .mapping import GroundTruth, GridSpec, PropertyMap, RmseCurves, CorrelationTrajectory
from .mission import FieldBoundary

__all__ = [
    "OBS_HEADER",
    "RunConfig",
    "SETTING_PARSERS",
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


def _write_lines(path, header: str, lines):
    """Stream ``header`` and then each of ``lines`` (newline added) into a
    temp file beside ``path``, then rename it over ``path``. On any
    failure the temp file is removed and ``path`` is left as it was."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(header + "\n")
            f.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _read_rows(path, header: str):
    """Yield ``(row number, stripped fields)`` for each non-blank row of a
    CSV whose first row must be ``header``. An empty file yields nothing."""
    names = header.split(",")
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None:
            return
        if [h.strip() for h in first] != names:
            raise ValueError(
                f"row 1: malformed header {','.join(first)!r} (expected {header!r})"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"row {row_num}: expected {len(names)} fields, got {len(row)}"
                )
            yield row_num, [c.strip() for c in row]


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
    labels: list[str] = []
    observations = []
    seen_ids: set[str] = set()
    current_id = None
    for row_num, (sid, xs, ys, label, vs) in _read_rows(path, OBS_HEADER):
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


def _observation_lines(dataset: Dataset):
    for o in dataset.observations:
        yield (
            f"{o.sample_id},{_fmt(o.location.x)},{_fmt(o.location.y)},"
            f"{dataset.labels[o.task]},{_fmt(o.value)}"
        )


def serialize_observations(dataset: Dataset) -> str:
    return "\n".join([OBS_HEADER, *_observation_lines(dataset)]) + "\n"


def write_observations(path, dataset: Dataset):
    _write_lines(path, OBS_HEADER, _observation_lines(dataset))


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 over the canonical observation serialization."""
    return hashlib.sha256(serialize_observations(dataset).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run: the fit's, plus the map's cell size and units."""

    fit: FitConfig = FitConfig()
    resolution: float = 5.0
    denormalize: bool = False

    @classmethod
    def from_settings(cls, settings: dict) -> "RunConfig":
        """Build from ``key -> value`` pairs; unset keys keep their defaults."""
        fit_keys = {f.name for f in fields(FitConfig)}
        fit = FitConfig(**{k: v for k, v in settings.items() if k in fit_keys})
        return cls(fit, **{k: v for k, v in settings.items() if k not in fit_keys})


_PARSERS = {int: int, float: float, KernelMode: KernelMode.parse,
            bool: lambda s: {"true": True, "false": False}[s.lower()]}

# Each run-config key's value parser, by field type: FitConfig's, then RunConfig's.
SETTING_PARSERS = {name: _PARSERS[t] for cls in (FitConfig, RunConfig)
                   for name, t in get_type_hints(cls).items() if name != "fit"}


def parse_run_config(path) -> dict:
    """The ``key -> value`` settings of a run-config file: ``key = value``
    lines with ``#`` comments, a later line overriding an earlier one."""
    settings = {}
    with open(path, encoding="utf-8") as f:
        for line_num, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {line_num}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in SETTING_PARSERS:
                raise ValueError(f"line {line_num}: unknown key {key!r}")
            try:
                settings[key] = SETTING_PARSERS[key](raw)
            except (ValueError, KeyError):
                raise ValueError(f"line {line_num}: bad value for {key}: {raw!r}")
    return settings


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelRecord:
    """Everything a model file stores; training data travels separately
    and is checked against the digest."""

    labels: tuple[str, ...]
    theta: HyperParams
    norm_means: np.ndarray
    norm_stds: np.ndarray
    noise_floor: float
    data_digest: str
    lml: float


def write_model(path, model: FittedModel, digest: str):
    lines = [
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
    _write_lines(path, MODEL_FORMAT_TAG, lines)


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

    def field(key, parse=str):
        """The field's text through ``parse``; errors name the field."""
        if key not in fields:
            raise ValueError(f"model file missing field {key!r}")
        try:
            return parse(fields[key])
        except ValueError as e:
            raise ValueError(f"model file field {key}: {e}") from None

    def floats(raw):
        return np.array([float(v) for v in raw.split()])

    n_tasks = field("n_tasks", int)
    mode = field("mode", KernelMode.parse)
    record = ModelRecord(
        labels=tuple(field("labels").split(",")),
        theta=field("theta", lambda raw: HyperParams(floats(raw), n_tasks, mode)),
        norm_means=field("norm_means", floats),
        norm_stds=field("norm_stds", floats),
        noise_floor=field("noise_floor", float),
        data_digest=field("data_digest"),
        lml=field("lml", float),
    )
    if len(record.labels) != n_tasks:
        raise ValueError("model file label count does not match n_tasks")
    return record


# Relative bound on the difference between a model file's stored LML and
# the LML of the model rebuilt from it. The rebuild repeats the fit's
# final factorization on the same data, so the two agree to rounding.
_LML_RTOL = 1e-9


def model_from_record(record: ModelRecord, dataset: Dataset) -> FittedModel:
    """Rebuild a usable model from a record plus its training data.

    Refuses to proceed when the dataset digest does not match the one
    stored at fit time, when the stored normalization statistics differ
    from the data's (they are written exactly), or when the stored LML
    differs from the rebuilt model's by more than ``_LML_RTOL`` relative.
    """
    digest = dataset_digest(dataset)
    if digest != record.data_digest:
        raise ValueError(
            "training data digest mismatch: model was fitted on different data"
        )
    if dataset.labels != record.labels:
        raise ValueError("task labels differ between model file and observations")
    model = condition(dataset, record.theta, record.noise_floor)
    for key, agrees in (
        ("norm_means", np.array_equal(record.norm_means, model.stats.means)),
        ("norm_stds", np.array_equal(record.norm_stds, model.stats.stds)),
        ("lml", abs(record.lml - model.lml) <= _LML_RTOL * abs(model.lml)),
    ):
        if not agrees:
            raise ValueError(
                f"model file field {key}: the stored value differs from the model "
                "rebuilt from the observations"
            )
    return model


# ---------------------------------------------------------------------------
# Maps, predictions, truth grids
# ---------------------------------------------------------------------------

MAP_HEADER = "task,x_m,y_m,mean,variance"


def _map_lines(maps):
    grid = None
    for pm in maps:
        if pm.grid != grid:  # format each grid's cell centers once
            grid = pm.grid
            centers = [f"{x!r},{y!r}" for x, y in grid.cell_centers.tolist()]
        for xy, m, v in zip(centers, pm.mean.tolist(), pm.variance.tolist()):
            yield f"{pm.label},{xy},{m!r},{v!r}"


def write_map_csv(path, maps: list[PropertyMap]):
    _write_lines(path, MAP_HEADER, _map_lines(maps))


def write_asc(path, grid: GridSpec, values: np.ndarray):
    """ESRI ASCII grid: 6-line header, then rows north to south."""
    if values.shape != (grid.n_cells,):
        raise ValueError("value count does not match grid")
    rows = np.asarray(values, dtype=float).reshape(grid.ny, grid.nx)
    header = "\n".join([
        f"ncols {grid.nx}",
        f"nrows {grid.ny}",
        f"xllcorner {_fmt(grid.bounds.xmin)}",
        f"yllcorner {_fmt(grid.bounds.ymin)}",
        f"cellsize {_fmt(grid.resolution)}",
        f"NODATA_value {_fmt(NODATA)}",
    ])
    north_first = rows[::-1]  # internal rows run south→north
    _write_lines(path, header, (" ".join(map(repr, r.tolist())) for r in north_first))


def write_predictions(path, labels, result):
    rows = zip(result.tasks.tolist(), result.xy.tolist(), result.mean.tolist(),
               result.variance.tolist())
    _write_lines(path, MAP_HEADER, (
        f"{labels[t]},{x!r},{y!r},{m!r},{v!r}" for t, (x, y), m, v in rows
    ))


def parse_queries(path, labels) -> tuple[np.ndarray, np.ndarray]:
    """Query CSV (``task,x_m,y_m``) → (task indices, xy array)."""
    label_to_idx = {lab: i for i, lab in enumerate(labels)}
    tasks, xy = [], []
    for row_num, (label, xs, ys) in _read_rows(path, "task,x_m,y_m"):
        if label not in label_to_idx:
            raise ValueError(f"row {row_num}: unknown task label {label!r}")
        tasks.append(label_to_idx[label])
        xy.append((_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m")))
    if not tasks:
        raise ValueError("no queries in file")
    return np.array(tasks, dtype=np.intp), np.array(xy)


TRUTH_HEADER = "task,x_m,y_m,value"


def write_truth(path, labels, truth: GroundTruth):
    points = [f"{x!r},{y!r}" for x, y in truth.xy.tolist()]  # formatted once
    _write_lines(path, TRUTH_HEADER, (
        f"{lab},{xy},{v!r}"
        for lab, values in zip(labels, truth.values.tolist())
        for xy, v in zip(points, values)
    ))


def parse_truth(path, labels) -> GroundTruth:
    """Truth CSV (``task,x_m,y_m,value``); every task must cover the
    same points in the same order."""
    label_to_idx = {lab: i for i, lab in enumerate(labels)}
    per_task: list[list] = [[] for _ in labels]  # (x, y, value) rows
    for row_num, (label, xs, ys, vs) in _read_rows(path, TRUTH_HEADER):
        if label not in label_to_idx:
            raise ValueError(f"row {row_num}: unknown task label {label!r}")
        x, y = _parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m")
        v = _parse_float(vs, row_num, "value")
        if not np.isfinite(v):
            raise ValueError(f"row {row_num}: non-finite value {vs!r}")
        per_task[label_to_idx[label]].append((x, y, v))
    missing = [lab for lab, rows in zip(labels, per_task) if not rows]
    if missing:
        raise ValueError(f"truth grid missing tasks: {missing}")
    tables = [np.array(rows) for rows in per_task]
    xy0 = tables[0][:, :2].copy()
    if not all(np.array_equal(t[:, :2], xy0) for t in tables[1:]):
        raise ValueError("truth tasks do not share one point set")
    return GroundTruth(xy0, np.array([t[:, 2] for t in tables]))


# ---------------------------------------------------------------------------
# Plans and boundaries
# ---------------------------------------------------------------------------

PLAN_HEADER = "sample_id,x_m,y_m"


def write_plan(path, points):
    width = max(2, len(str(len(points))))
    _write_lines(path, PLAN_HEADER, (
        f"S{j + 1:0{width}d},{_fmt(p.x)},{_fmt(p.y)}" for j, p in enumerate(points)
    ))


def parse_plan(path) -> list[Location]:
    points = [
        Location(_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m"))
        for row_num, (_, xs, ys) in _read_rows(path, PLAN_HEADER)
    ]
    if not points:
        raise ValueError("empty plan")
    return points


def parse_boundary(path) -> FieldBoundary:
    """Boundary CSV (``ring,x_m,y_m``): ring 0 is the field outline,
    rings 1.. are exclusion zones; vertices in file order."""
    rings: dict[int, list] = {}
    for row_num, (rs, xs, ys) in _read_rows(path, "ring,x_m,y_m"):
        try:
            ring = int(rs)
        except ValueError:
            raise ValueError(f"row {row_num}: column ring: not an integer: {rs!r}")
        rings.setdefault(ring, []).append(
            (_parse_float(xs, row_num, "x_m"), _parse_float(ys, row_num, "y_m"))
        )
    if 0 not in rings:
        raise ValueError("boundary file has no ring 0 (field outline)")
    exclusions = tuple(tuple(rings[k]) for k in sorted(rings) if k != 0)
    return FieldBoundary(tuple(rings[0]), exclusions)


# ---------------------------------------------------------------------------
# Evaluation outputs
# ---------------------------------------------------------------------------


def write_rmse_curves(path, labels, curves: list[RmseCurves]):
    _write_lines(path, "method,task,k,rmse", (
        f"{cur.method},{lab},{k},{_fmt(v)}"
        for cur in curves
        for i, lab in enumerate(labels)
        for k, v in cur.curve(i)
    ))


def write_trajectory(path, labels, traj: CorrelationTrajectory):
    _write_lines(path, "task_i,task_j,k,r", (
        f"{labels[i]},{labels[j]},{k},{_fmt(v)}"
        for col, (i, j) in enumerate(traj.pairs)
        for k, v in zip(traj.ks, traj.values[:, col])
    ))


def write_correlation_matrix(path, labels, corr: np.ndarray):
    n = len(labels)
    _write_lines(path, "task_i,task_j,r", (
        f"{labels[i]},{labels[j]},{_fmt(corr[i, j])}"
        for i in range(n)
        for j in range(i + 1, n)
    ))
