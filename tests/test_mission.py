import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilgp import mission
from soilgp.mission import (
    MAX_DRILL_DEPTH_MM,
    DrillSpec,
    FieldBoundary,
    auger_diameter,
    grid_plan,
    sample_mass,
)

SQUARE = ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0))


class TestSampleMass:
    def test_zero_depth(self):
        assert sample_mass(DrillSpec(1.3e-3, 0.0, 19.0)) == 0.0

    def test_trial_geometry(self):
        # rho 1.3e-3 g/mm^3, 200 mm core, 19 mm auger
        assert sample_mass(DrillSpec(1.3e-3, 200.0, 19.0)) == pytest.approx(
            73.7, abs=0.1
        )

    def test_quadratic_in_diameter(self):
        base = sample_mass(DrillSpec(1.0e-3, 100.0, 10.0))
        assert sample_mass(DrillSpec(1.0e-3, 100.0, 20.0)) == pytest.approx(4 * base)

    def test_linear_in_density_and_depth(self):
        base = sample_mass(DrillSpec(1.0e-3, 100.0, 10.0))
        assert sample_mass(DrillSpec(2.0e-3, 100.0, 10.0)) == pytest.approx(2 * base)
        assert sample_mass(DrillSpec(1.0e-3, 200.0, 10.0)) == pytest.approx(2 * base)

    def test_depth_cap_enforced(self):
        DrillSpec(1.3e-3, MAX_DRILL_DEPTH_MM, 19.0)
        with pytest.raises(ValueError, match="depth"):
            DrillSpec(1.3e-3, MAX_DRILL_DEPTH_MM + 1.0, 19.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DrillSpec(0.0, 100.0, 19.0)
        with pytest.raises(ValueError):
            DrillSpec(1e-3, 100.0, -5.0)

    @pytest.mark.parametrize("rho, d", [(1e-3, 1e200), (1e308, 100.0)],
                             ids=["square_overflows", "product_overflows"])
    def test_mass_beyond_float_range_refused(self, rho, d):
        with pytest.raises(ValueError, match="not finite"):
            sample_mass(DrillSpec(rho, 200.0, d))


class TestAugerDiameter:
    def test_trial_average_mass(self):
        # 45.2 g target at rho 1.3e-3 and 200 mm depth
        assert auger_diameter(45.2, 1.3e-3, 200.0) == pytest.approx(14.88, abs=0.05)

    def test_zero_mass_limit(self):
        assert auger_diameter(0.0, 1.3e-3, 200.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            auger_diameter(10.0, 0.0, 200.0)
        with pytest.raises(ValueError):
            auger_diameter(-1.0, 1e-3, 200.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("arg", range(3))
    def test_rejects_non_finite(self, arg, bad):
        args = [45.2, 1.3e-3, 200.0]
        args[arg] = bad
        with pytest.raises(ValueError, match="must be finite"):
            auger_diameter(*args)

    @pytest.mark.parametrize("args", [
        (1.0, 1e-200, 1e-200),  # ρ·π·L underflows to 0
        (1e308, 1e-10, 1.0),  # the quotient overflows
    ], ids=["underflow", "overflow"])
    def test_diameter_beyond_float_range_refused(self, args):
        with pytest.raises(ValueError, match="auger diameter .* is not finite"):
            auger_diameter(*args)

    @given(
        rho=st.floats(1e-4, 5e-3),
        depth=st.floats(1.0, MAX_DRILL_DEPTH_MM),
        d=st.floats(0.5, 60.0),
    )
    @settings(deadline=None, max_examples=200)
    def test_mutual_inverse(self, rho, depth, d):
        spec = DrillSpec(rho, depth, d)
        m = sample_mass(spec)
        assert auger_diameter(m, rho, depth) == pytest.approx(d, rel=1e-9)
        assert sample_mass(DrillSpec(rho, depth, auger_diameter(m, rho, depth))) == (
            pytest.approx(m, rel=1e-9)
        )


class TestFieldBoundary:
    def test_edge_points_count_as_inside(self):
        b = FieldBoundary(SQUARE)
        assert b.contains(0.0, 50.0)
        assert b.contains(0.0, 0.0)
        assert b.contains(50.0, 100.0)
        assert not b.contains(-0.001, 50.0)

    def test_exclusion_edge_counts_as_excluded(self):
        b = FieldBoundary(SQUARE, (((40.0, 40.0), (60.0, 40.0), (60.0, 60.0), (40.0, 60.0)),))
        assert not b.contains(50.0, 50.0)
        assert not b.contains(40.0, 50.0)  # on exclusion edge
        assert b.contains(39.999, 50.0)

    def test_degenerate_polygons_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            FieldBoundary(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="zero area"):
            FieldBoundary(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        with pytest.raises(ValueError, match="self-intersecting"):
            FieldBoundary(((0.0, 0.0), (10.0, 0.0), (0.0, 8.0), (6.0, 12.0)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(ValueError, match="boundary polygon has a non-finite"):
            FieldBoundary(((0.0, 0.0), (bad, 0.0), (100.0, 100.0), (0.0, 100.0)))
        with pytest.raises(ValueError, match="exclusion polygon 0 has a non-finite"):
            FieldBoundary(SQUARE, (((40.0, 40.0), (60.0, bad), (50.0, 60.0)),))

    def test_overflowing_extent_named_not_self_intersection(self):
        # finite vertices whose x extent 2.7e308 overflows to inf
        wide = ((-1e308, 0.0), (1.7e308, 0.0), (1.7e308, 1.0), (-1e308, 1.0))
        with pytest.raises(ValueError, match="boundary polygon has a non-finite coordinate"):
            FieldBoundary(wide)
        tall = tuple((y, x) for x, y in wide)
        with pytest.raises(ValueError, match="exclusion polygon 0 has a non-finite coordinate"):
            FieldBoundary(SQUARE, (tall,))

    def test_concave_polygon(self):
        # L-shape: the notch is outside
        L = ((0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (4.0, 4.0), (4.0, 10.0), (0.0, 10.0))
        b = FieldBoundary(L)
        assert b.contains(2.0, 8.0)
        assert b.contains(8.0, 2.0)
        assert not b.contains(8.0, 8.0)


class TestGridPlan:
    def test_square_at_45m_gives_nine_points(self):
        plan = grid_plan(FieldBoundary(SQUARE), 45.0)
        assert len(plan) == 9
        xs = sorted({p.x for p in plan})
        ys = sorted({p.y for p in plan})
        assert xs == [0.0, 45.0, 90.0] and ys == [0.0, 45.0, 90.0]

    def test_full_exclusion_empties_plan(self):
        big = ((-1.0, -1.0), (101.0, -1.0), (101.0, 101.0), (-1.0, 101.0))
        plan = grid_plan(FieldBoundary(SQUARE, (big,)), 45.0)
        assert plan == ()

    def test_fifty_thousand_sqm_field(self):
        rect = ((0.0, 0.0), (300.0, 0.0), (300.0, 167.0), (0.0, 167.0))
        plan = grid_plan(FieldBoundary(rect), 45.0)
        assert len(plan) == 28  # 7 x 4 lattice, near the trial's 30

    def test_all_points_pass_membership(self):
        tri = ((0.0, 0.0), (120.0, 0.0), (0.0, 90.0))
        hole = ((10.0, 10.0), (30.0, 10.0), (30.0, 30.0), (10.0, 30.0))
        b = FieldBoundary(tri, (hole,))
        plan = grid_plan(b, 17.0)
        assert plan
        for p in plan:
            assert b.contains(p.x, p.y)

    def test_serpentine_ordering(self):
        plan = grid_plan(FieldBoundary(SQUARE), 45.0)
        ys = [p.y for p in plan]
        assert ys == sorted(ys)  # rows south to north
        row0 = [p.x for p in plan if p.y == 0.0]
        row1 = [p.x for p in plan if p.y == 45.0]
        assert row0 == sorted(row0)
        assert row1 == sorted(row1, reverse=True)

    def test_spacing_invariant(self):
        spacing = 45.0
        plan = grid_plan(FieldBoundary(SQUARE), spacing)
        pts = np.array([(p.x, p.y) for p in plan])
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = math.hypot(*(pts[i] - pts[j]))
                assert d >= spacing - 1e-6

    @pytest.mark.parametrize("spacing", [1e-310, 5e-324])
    def test_non_finite_node_count_rejected(self, spacing):
        with pytest.raises(ValueError, match="node count .* is not finite"):
            grid_plan(FieldBoundary(SQUARE), spacing)

    def test_lattice_above_node_cap_refused_before_walking(self, monkeypatch):
        def never(self, x, y):
            raise AssertionError("lattice walked")

        field = FieldBoundary(((0.0, 0.0), (300.0, 0.0), (300.0, 170.0), (0.0, 170.0)))
        monkeypatch.setattr(FieldBoundary, "contains", never)
        # 0.01 m: 30001 x 17001 nodes; 0.001 m: 5.1e10
        for spacing in (0.01, 0.001):
            with pytest.raises(ValueError, match="lattice exceeds 1000000 nodes"):
                grid_plan(field, spacing)

    def test_node_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(mission, "MAX_PLAN_NODES", 9)  # 3 x 3 lattice at 45 m
        assert len(grid_plan(FieldBoundary(SQUARE), 45.0)) == 9
        monkeypatch.setattr(mission, "MAX_PLAN_NODES", 8)
        with pytest.raises(ValueError, match="3 x 3 lattice exceeds 8 nodes"):
            grid_plan(FieldBoundary(SQUARE), 45.0)

    def test_invalid_spacing(self):
        for spacing in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="spacing must be positive and finite"):
                grid_plan(FieldBoundary(SQUARE), spacing)

    @given(
        dx=st.floats(-500, 500, allow_nan=False),
        dy=st.floats(-500, 500, allow_nan=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_translation_equivariance(self, dx, dy):
        tri = ((0.0, 0.0), (120.0, 0.0), (0.0, 90.0))
        hole = ((10.0, 10.0), (30.0, 10.0), (30.0, 30.0), (10.0, 30.0))
        base = grid_plan(FieldBoundary(tri, (hole,)), 25.0)
        moved = grid_plan(
            FieldBoundary(
                tuple((x + dx, y + dy) for x, y in tri),
                (tuple((x + dx, y + dy) for x, y in hole),),
            ),
            25.0,
        )
        assert len(base) == len(moved)
        for p, q in zip(base, moved):
            assert q.x == pytest.approx(p.x + dx, abs=1e-6)
            assert q.y == pytest.approx(p.y + dy, abs=1e-6)
