"""Typed containers for multi-task spatial observations.

A measurement campaign produces sparse point samples: each physical soil
sample (one ``sample_id``) carries values for one or more measured
quantities ("tasks", e.g. pH, N, P, K) at a planar location. Layouts may
be heterotopic: a location does not need to carry every task.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Location",
    "Observation",
    "Rect",
    "Dataset",
    "NormStats",
    "check_labels",
    "make_dataset",
    "normalize",
    "prefix",
]


@dataclass(frozen=True)
class Location:
    """Planar position in local field coordinates (meters)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class Observation:
    """A single (location, task, value) measurement row."""

    sample_id: str
    location: Location
    task: int
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(
                f"non-finite value {self.value!r} for sample {self.sample_id!r}"
            )


def _sample_ids(count: int) -> list[str]:
    """S01, S02, ...: ``count`` sample ids, zero-padded to max(2, digits of count)."""
    return [f"S{j:0{max(2, len(str(count)))}d}" for j in range(1, count + 1)]


# Two input rules, each written once here, where no scipy is imported: the
# task-label rule, which check_labels applies for make_dataset and for
# io.parse_observations as it reads, and _check_positive, the rule of every
# quantity that must be positive and finite.
MAX_TASK_LABELS = 16
_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


def check_labels(labels):
    """``labels``, or ValueError unless every label matches the label rule,
    there are at most ``MAX_TASK_LABELS`` of them and no two are equal."""
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid task label {label!r}")
    if len(labels) > MAX_TASK_LABELS:
        raise ValueError(f"more than {MAX_TASK_LABELS} task labels")
    if len(set(labels)) != len(labels):
        raise ValueError("task labels must be unique")
    return labels


def _check_positive(v, name: str) -> np.ndarray:
    """``v`` as a float array, or ValueError naming ``name`` and ``v``
    unless every entry is positive and finite."""
    a = np.asarray(v, dtype=float)
    if not ((a > 0) & np.isfinite(a)).all():  # also false for NaN
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return a


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (meters)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Validated, immutable collection of observations.

    Insertion order is significant: it defines the sequential-replay
    order used by :func:`prefix`. Construct through :func:`make_dataset`.
    """

    labels: tuple[str, ...]  # task label by task index
    observations: tuple[Observation, ...]
    field_bounds: Rect

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def n_tasks(self) -> int:
        return len(self.labels)

    @cached_property
    def xy(self) -> np.ndarray:
        """(M, 2) array of observation coordinates."""
        return _frozen(
            np.array([(o.location.x, o.location.y) for o in self.observations])
        )

    @cached_property
    def task_index(self) -> np.ndarray:
        """(M,) integer task index per observation."""
        return _frozen(np.array([o.task for o in self.observations], dtype=np.intp))

    @cached_property
    def values(self) -> np.ndarray:
        """(M,) measured values in insertion order."""
        return _frozen(np.array([o.value for o in self.observations]))

    @cached_property
    def sample_order(self) -> tuple[str, ...]:
        """Distinct sample ids in first-appearance order."""
        seen: dict[str, None] = {}
        for o in self.observations:
            seen.setdefault(o.sample_id, None)
        return tuple(seen)

    @property
    def n_samples(self) -> int:
        return len(self.sample_order)

    def counts_per_task(self) -> np.ndarray:
        return np.bincount(self.task_index, minlength=self.n_tasks)

    def replace_values(self, values: Sequence[float]) -> "Dataset":
        """Same layout with new measurement values (used by normalization)."""
        if len(values) != len(self.observations):
            raise ValueError("value count does not match observation count")
        obs = tuple(
            Observation(o.sample_id, o.location, o.task, float(v))
            for o, v in zip(self.observations, values)
        )
        return Dataset(self.labels, obs, self.field_bounds)


def make_dataset(
    observations: Sequence[Observation],
    n_tasks: int,
    labels: Sequence[str] | None = None,
) -> Dataset:
    """Validate observations and freeze them into a :class:`Dataset`.

    Raises ValueError on an empty list, labels that break the observation
    file's label rule (:func:`check_labels`), a task index outside
    ``[0, n_tasks)``, or non-finite values (caught at Observation
    construction).
    """
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if not observations:
        raise ValueError("empty dataset")
    if labels is None:
        labels = tuple(f"t{i}" for i in range(n_tasks))
    labels = tuple(labels)
    if len(labels) != n_tasks:
        raise ValueError(f"expected {n_tasks} labels, got {len(labels)}")
    check_labels(labels)  # the rule the observation file is read by
    for o in observations:
        if not 0 <= o.task < n_tasks:
            raise ValueError(
                f"task out of range: {o.task} with n_tasks={n_tasks} "
                f"(sample {o.sample_id!r})"
            )
    xs = [o.location.x for o in observations]
    ys = [o.location.y for o in observations]
    bounds = Rect(min(xs), min(ys), max(xs), max(ys))
    return Dataset(labels, tuple(observations), bounds)


@dataclass(frozen=True)
class NormStats:
    """Per-task z-scoring statistics (population std convention).

    A task with fewer than two observations, or with zero spread, keeps
    std = 1 so the transform stays invertible.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        if np.any(self.stds <= 0):
            raise ValueError("stds must be positive")
        _frozen(self.means)
        _frozen(self.stds)


def normalize(dataset: Dataset) -> tuple[Dataset, NormStats]:
    """Z-score values per task using the population standard deviation."""
    means = np.zeros(dataset.n_tasks)
    stds = np.ones(dataset.n_tasks)
    t = dataset.task_index
    v = dataset.values
    for i in range(dataset.n_tasks):
        vi = v[t == i]
        if vi.size == 0:
            continue
        means[i] = vi.mean()
        if vi.size >= 2:
            s = vi.std()  # population: divide by count
            if s > 0:
                stds[i] = s
    stats = NormStats(means, stds)
    normed = (v - means[t]) / stds[t]
    return dataset.replace_values(normed), stats


def prefix(dataset: Dataset, k: int) -> Dataset:
    """Observations belonging to the first ``k`` distinct sample ids.

    The replay unit is the physical sample: all task values sharing a
    sample_id enter together.
    """
    order = dataset.sample_order
    if not 1 <= k <= len(order):
        raise ValueError(f"k={k} out of range [1, {len(order)}]")
    keep = set(order[:k])
    obs = tuple(o for o in dataset.observations if o.sample_id in keep)
    return make_dataset(obs, dataset.n_tasks, dataset.labels)
