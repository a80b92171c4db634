"""Sampling-mission geometry: auger sizing and grid sample plans.

The drill extracts a cylindrical core, so target mass fixes the auger
diameter once bulk density and depth are known:

    m = ρ · π · L · (d/2)²   [g, with ρ in g/mm³ and L, d in mm]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import Location, _check_positive

__all__ = [
    "MAX_DRILL_DEPTH_MM",
    "MAX_PLAN_NODES",
    "DrillSpec",
    "FieldBoundary",
    "sample_mass",
    "auger_diameter",
    "grid_plan",
]

# Hardware travel limit of the drill actuator.
MAX_DRILL_DEPTH_MM = 243.0
# Largest bounding-box lattice grid_plan walks; it tests each node in Python.
MAX_PLAN_NODES = 10**6


@dataclass(frozen=True)
class DrillSpec:
    """Core-extraction geometry: bulk density (g/mm³), depth and auger
    diameter (mm)."""

    bulk_density: float
    depth: float
    diameter: float

    def __post_init__(self):
        _check_positive(self.bulk_density, "bulk density")
        if not (0 <= self.depth <= MAX_DRILL_DEPTH_MM):
            raise ValueError(
                f"depth must be in [0, {MAX_DRILL_DEPTH_MM}] mm, got {self.depth}"
            )
        _check_positive(self.diameter, "auger diameter")


def sample_mass(spec: DrillSpec) -> float:
    """Extracted soil mass in grams for one full-depth core; ValueError if it overflows."""
    try:
        mass = spec.bulk_density * math.pi * spec.depth * (spec.diameter / 2.0) ** 2
    except OverflowError:  # the diameter's square
        mass = math.inf
    if not math.isfinite(mass):
        raise ValueError(f"sample mass of {spec} is not finite")
    return mass


def auger_diameter(target_mass: float, bulk_density: float, depth: float) -> float:
    """Auger diameter (mm) that extracts ``target_mass`` grams.

    Exact inverse of :func:`sample_mass`: d = 2·√(m / (ρ·π·L)), if finite.
    """
    if not all(map(math.isfinite, (target_mass, bulk_density, depth))):
        raise ValueError("target mass, bulk density and depth must be finite")
    if target_mass < 0:
        raise ValueError("target mass must be non-negative")
    if bulk_density <= 0 or depth <= 0:
        raise ValueError("bulk density and depth must be positive")
    denominator = bulk_density * math.pi * depth  # 0 if the product underflows
    diameter = 2.0 * math.sqrt(target_mass / denominator) if denominator else math.inf
    if not math.isfinite(diameter):
        raise ValueError(f"auger diameter for {target_mass} g is not finite")
    return diameter


def _polygon_area2(poly) -> float:
    """Twice the signed shoelace area."""
    n = len(poly)
    s = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def _segments_properly_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _validate_simple_polygon(poly, what: str):
    if len(poly) < 3:
        raise ValueError(f"{what} needs at least 3 vertices")
    if not all(math.isfinite(c) for p in poly for c in p):
        raise ValueError(f"{what} has a non-finite vertex")
    for axis in zip(*poly):
        if not math.isfinite(max(axis) - min(axis)):
            raise ValueError(f"{what} has a non-finite coordinate extent")
    if abs(_polygon_area2(poly)) < 1e-12:
        raise ValueError(f"{what} is degenerate (zero area)")
    n = len(poly)
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):  # the edges that share no vertex with edge i
            a, b = poly[i], poly[(i + 1) % n]
            c, d = poly[j], poly[(j + 1) % n]
            if _segments_properly_intersect(a, b, c, d):
                raise ValueError(f"{what} is self-intersecting")


def _point_in_polygon(poly, x: float, y: float) -> bool:
    """Even-odd rule; a point on an edge counts as inside, decided
    explicitly so boundary and exclusion semantics stay exact."""
    tol = 1e-9  # meters from an edge that still count as on it
    inside = False
    for i in range(len(poly)):
        (x1, y1), (x2, y2) = poly[i - 1], poly[i]
        dx, dy = x2 - x1, y2 - y1
        seg2 = dx * dx + dy * dy
        if seg2 == 0:
            continue  # a repeated vertex: no edge, and no crossing
        t = ((x - x1) * dx + (y - y1) * dy) / seg2
        if -tol <= t <= 1 + tol and math.hypot(x - (x1 + t * dx), y - (y1 + t * dy)) <= tol:
            return True
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * dx / dy:
            inside = not inside
    return inside


@dataclass(frozen=True)
class FieldBoundary:
    """Field outline with optional keep-out polygons (meters).

    Points on the boundary edge count as inside the field; points on an
    exclusion edge count as excluded.
    """

    polygon: tuple[tuple[float, float], ...]
    exclusions: tuple[tuple[tuple[float, float], ...], ...] = ()

    def __post_init__(self):
        _validate_simple_polygon(self.polygon, "boundary polygon")
        for k, ex in enumerate(self.exclusions):
            _validate_simple_polygon(ex, f"exclusion polygon {k}")

    def contains(self, x: float, y: float) -> bool:
        if not _point_in_polygon(self.polygon, x, y):
            return False
        return not any(_point_in_polygon(ex, x, y) for ex in self.exclusions)

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.polygon]
        ys = [p[1] for p in self.polygon]
        return min(xs), min(ys), max(xs), max(ys)


def grid_plan(boundary: FieldBoundary, spacing: float) -> tuple[Location, ...]:
    """Ordered sample visits on a square lattice anchored at the
    bounding-box minimum corner.

    Keeps lattice nodes inside the boundary and outside every exclusion;
    rows are ordered south to north and traversed serpentine to shorten
    travel between consecutive samples.
    """
    _check_positive(spacing, "spacing")
    xmin, ymin, xmax, ymax = boundary.bounding_box()
    steps = ((xmax - xmin) / spacing, (ymax - ymin) / spacing)
    if not all(map(math.isfinite, steps)):
        raise ValueError(f"lattice node count at {spacing} m spacing is not finite")
    nx, ny = (math.floor(s + 1e-9) + 1 for s in steps)
    if nx * ny > MAX_PLAN_NODES:
        raise ValueError(f"{nx} x {ny} lattice exceeds {MAX_PLAN_NODES} nodes")

    points = []
    for iy in range(ny):
        y = ymin + iy * spacing
        xs = range(nx) if iy % 2 == 0 else range(nx - 1, -1, -1)
        for ix in xs:
            x = xmin + ix * spacing
            if boundary.contains(x, y):
                points.append(Location(x, y))
    return tuple(points)
