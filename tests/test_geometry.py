import math
from dataclasses import replace

import numpy as np
import pytest

from mfsampling import (
    Ball,
    Cube,
    GeometryError,
    LShape,
    MeasurementSet,
    PRESETS,
    Peanut,
    RoundedCylinder,
    Union,
    phase_range,
    quadrature,
)


def contains(support, point) -> bool:
    """Strict-interior membership of one point."""
    return bool(support.contains_points([point])[0])


def notched_lshape():
    return LShape(box1=((-0.5, -0.5, -0.25), (0.0, 1.5, 0.25)),
                  box2=((0.0, -0.5, -0.25), (1.5, 0.0, 0.25)))


def two_balls():
    return Union(parts=(Ball(center=(-1.0, 0.0, 0.0), radius=0.5),
                        Ball(center=(1.0, 0.0, 0.0), radius=0.5)))


ALL_SHAPES = [
    Ball(center=(0.0, 0.0, 0.0), radius=1.0),
    Cube(center=(0.0, 0.0, 0.0), half_widths=(1.0, 1.0, 1.0)),
    RoundedCylinder(radius=1.0, half_height=1.0),
    Peanut(centers=((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)), radius=1.0),
    notched_lshape(),
    two_balls(),
]


# each shape with every numeric field set to a valid value
VALID_FIELDS = [
    (Ball, dict(center=(0.5, 0.0, 0.0), radius=1.0, amplitude=1.0)),
    (Cube, dict(center=(0.0, 0.0, 0.0), half_widths=(1.0, 1.0, 1.0), amplitude=1.0)),
    (RoundedCylinder, dict(radius=1.0, half_height=1.0, amplitude=1.0)),
    (Peanut, dict(centers=((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)), radius=1.0, amplitude=1.0)),
    (LShape, dict(box1=((-0.5, -0.5, -0.25), (0.0, 1.5, 0.25)),
                  box2=((0.0, -0.5, -0.25), (1.5, 0.0, 0.25)), amplitude=1.0)),
]


def _with_first_number(value, number):
    """value with its first number, in reading order, replaced by number."""
    if isinstance(value, tuple):
        return (_with_first_number(value[0], number),) + value[1:]
    return number


class TestContains:
    def test_ball_center_inside(self):
        assert contains(Ball(center=(0, 0, 0), radius=1.0), (0, 0, 0))

    def test_ball_outside(self):
        assert not contains(Ball(center=(0, 0, 0), radius=1.0), (2, 0, 0))

    def test_ball_boundary_excluded(self):
        assert not contains(Ball(center=(0, 0, 0), radius=1.0), (1.0, 0, 0))

    def test_lshape_interior_point(self):
        assert contains(notched_lshape(), (-0.25, 1.0, 0.0))

    def test_lshape_notch_excluded(self):
        # the concave corner region belongs to neither box
        assert not contains(notched_lshape(), (0.5, 0.5, 0.0))
        assert contains(notched_lshape(), (0.5, -0.25, 0.0))

    def test_cube_strict(self):
        cube = Cube(center=(0, 0, 0), half_widths=(1, 1, 1))
        assert contains(cube, (0.999, 0.999, 0.999))
        assert not contains(cube, (1.0, 0.0, 0.0))

    def test_rounded_cylinder_parts(self):
        rc = RoundedCylinder(radius=1.0, half_height=1.0)
        assert contains(rc, (0.99, 0.0, 0.0))       # barrel
        assert contains(rc, (0.0, 0.0, 1.5))        # upper cap
        assert contains(rc, (0.0, 0.0, -1.99))      # lower cap tip
        assert not contains(rc, (0.0, 0.0, 2.0))
        assert not contains(rc, (1.2, 0.0, 0.0))
        assert not contains(rc, (0.9, 0.0, 1.9))    # outside the cap sphere

    def test_peanut(self):
        p = Peanut(centers=((-0.5, 0, 0), (0.5, 0, 0)), radius=1.0)
        assert contains(p, (0.0, 0.0, 0.0))
        assert contains(p, (1.4, 0.0, 0.0))
        assert not contains(p, (0.0, 0.0, 1.2))

    def test_union_of_balls(self):
        u = two_balls()
        assert contains(u, (1.0, 0.0, 0.0))
        assert contains(u, (-1.2, 0.0, 0.0))
        assert not contains(u, (0.0, 0.0, 0.0))

    def test_vectorized_matches_scalar(self):
        rc = RoundedCylinder(radius=1.0, half_height=1.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.5, 2.5, size=(200, 3))
        flags = rc.contains_points(pts)
        for p, flag in zip(pts, flags):
            assert contains(rc, p) == flag


class TestInvariants:
    def test_positive_measure_required(self):
        with pytest.raises(ValueError):
            Ball(center=(0, 0, 0), radius=0.0)
        with pytest.raises(ValueError):
            Cube(center=(0, 0, 0), half_widths=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            RoundedCylinder(radius=1.0, half_height=0.0)

    def test_amplitude_nonzero(self):
        with pytest.raises(ValueError, match="nonzero"):
            Ball(center=(0, 0, 0), radius=1.0, amplitude=0.0)

    def test_amplitude_sign_consistency(self):
        with pytest.raises(ValueError, match="same sign"):
            Union(parts=(Ball(center=(0, 0, 0), radius=1.0, amplitude=1.0),
                         Ball(center=(2, 0, 0), radius=0.5, amplitude=-1.0)))

    def test_amplitude_bounds(self):
        u = Union(parts=(Ball(center=(0, 0, 0), radius=1.0, amplitude=-2.0),
                         Ball(center=(3, 0, 0), radius=0.5, amplitude=-0.5)))
        assert u.amplitude_bounds() == (0.5, 2.0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_amplitude_at_is_real(self, name):
        # a real source is what lets the negative frequencies be the conjugates
        support = PRESETS[name].support
        assert support.amplitude_at(quadrature(support, 0.2).nodes).dtype == np.float64

    def test_complex_amplitude_refused(self):
        with pytest.raises(TypeError):
            Ball(center=(0, 0, 0), radius=1.0, amplitude=1j)

    def test_amplitude_at(self):
        u = Union(parts=(Ball(center=(0, 0, 0), radius=1.0, amplitude=2.0),
                         Ball(center=(3, 0, 0), radius=1.0, amplitude=3.0)))
        f = u.amplitude_at(np.array([[0, 0, 0], [3, 0, 0], [10, 0, 0]]))
        assert f.tolist() == [2.0, 3.0, 0.0]

    @pytest.mark.parametrize("shape, kwargs, bad", [
        pytest.param(shape, {**kwargs, name: _with_first_number(kwargs[name], bad)}, bad,
                     id=f"{shape.__name__}-{name}-{bad}")
        for shape, kwargs in VALID_FIELDS
        for name in kwargs for bad in (math.nan, math.inf, -math.inf)
    ])
    def test_non_finite_number_refused(self, shape, kwargs, bad):
        with pytest.raises(ValueError, match=f"expected a finite number, got {bad!r}"):
            shape(**kwargs)


class TestParts:
    @pytest.mark.parametrize("kind", ["near", "far"])
    @pytest.mark.parametrize("name", ["peanut_pt14", "cylinder_pt14"])
    def test_built_once(self, monkeypatch, name, kind):
        scenario = PRESETS[name]
        if kind == "far":
            scenario = replace(scenario, measurement=MeasurementSet("far", [(1 / 3, 2 / 3, 2 / 3)]))
        support = scenario.support
        builds = []
        post_init = Ball.__post_init__
        monkeypatch.setattr(Ball, "__post_init__", lambda ball: (builds.append(ball),
                                                                 post_init(ball)))
        support.bounding_box()
        support.contains_points(quadrature(support, scenario.h).nodes)
        support.support_function((1 / 3, 2 / 3, 2 / 3))
        for x in scenario.measurement.points:
            phase_range(kind, x, support)
        replace(scenario, seed=2)
        assert builds == []


class TestQuadrature:
    def test_cube_exact(self):
        cube = Cube(center=(0, 0, 0), half_widths=(1, 1, 1))
        rule = quadrature(cube, 0.5)
        assert len(rule) == 64
        assert rule.total_weight == 8.0

    def test_ball_volume(self):
        rule = quadrature(Ball(center=(0, 0, 0), radius=1.0), 0.05)
        exact = 4 * np.pi / 3
        assert abs(rule.total_weight - exact) / exact < 0.01

    def test_too_coarse_errors(self):
        with pytest.raises(GeometryError, match="too coarse"):
            quadrature(Ball(center=(0, 0, 0), radius=1.0), 10.0)

    def test_nonpositive_spacing(self):
        # a non-finite spacing is refused as such, not as a coarse or unconvertible one
        for h, message in ((0.0, "positive"), (math.nan, "finite"), (math.inf, "finite"),
                           (-math.inf, "finite")):
            with pytest.raises(ValueError, match=message):
                quadrature(Ball(center=(0, 0, 0), radius=1.0), h)

    @pytest.mark.parametrize("support", ALL_SHAPES + [
        pytest.param(Union(parts=(Ball(center=(-0.4, 0.0, 0.0), radius=1.0, amplitude=2.0),
                                  Ball(center=(0.4, 0.0, 0.0), radius=1.0, amplitude=3.0))),
                     id="overlapping_Union")], ids=lambda s: type(s).__name__)
    def test_all_nodes_inside(self, support):
        # the pass that picks the nodes samples f there, with the bits of `amplitude_at`;
        # where components overlap, the first one's amplitude wins
        rule = quadrature(support, 0.15)
        assert np.all(support.contains_points(rule.nodes))
        assert np.all(rule.weights == 0.15**3)
        assert rule.amplitude.tobytes() == support.amplitude_at(rule.nodes).tobytes()
        first = next(support.components())
        assert np.all(rule.amplitude[first.contains_points(rule.nodes)] == first.amplitude)

    def test_volume_convergence_ball(self):
        ball = Ball(center=(0, 0, 0), radius=1.0)
        exact = 4 * np.pi / 3
        err = {h: abs(quadrature(ball, h).total_weight - exact) for h in (0.2, 0.05)}
        # quartering h must reduce the volume error at least linearly
        assert err[0.05] < err[0.2] / 2

    def test_volume_convergence_cube_unaligned(self):
        # spacings that do not divide the side: the voxel cover overshoots by O(h)
        cube = Cube(center=(0, 0, 0), half_widths=(1, 1, 1))
        err = {h: abs(quadrature(cube, h).total_weight - 8.0) for h in (0.3, 0.075)}
        assert err[0.075] < err[0.3] / 2

    def test_deterministic_node_order(self):
        ball = Ball(center=(0, 0, 0), radius=1.0)
        a, b = quadrature(ball, 0.21), quadrature(ball, 0.21)
        assert np.array_equal(a.nodes, b.nodes)

    @pytest.mark.parametrize("name, volume", [("cube_pt14", 8.0), ("lshape_pt14", 0.875)])
    def test_aligned_box_presets_fill_their_volume(self, name, volume):
        # every box face lies on a voxel face at the preset's spacing, so the rule fills
        # the boxes and no more: no overfill (measured 4.4e-16 and 5.1e-16 relative)
        s = PRESETS[name]
        rule = quadrature(s.support, s.h)
        assert len(rule) == round(volume / s.h**3)
        assert abs(rule.total_weight - volume) <= 1e-12 * volume


class TestSupportFunction:
    def test_closed_forms(self):
        xi = np.array([0.6, -0.8, 2.0])
        ball = Ball(center=(1.0, -0.5, 0.25), radius=0.5)
        assert ball.support_function(xi) == pytest.approx(0.6 + 0.4 + 0.5 + 0.5 * np.sqrt(5))
        cube = Cube(center=(0.5, 0.0, -1.0), half_widths=(1.0, 0.5, 0.25))
        assert cube.support_function(xi) == pytest.approx(0.9 + 0.4 - 1.5)
        rc = RoundedCylinder(radius=1.0, half_height=0.5)
        assert rc.support_function(xi) == pytest.approx(0.5 * 2.0 + np.sqrt(5))  # the upper cap

    @pytest.mark.parametrize("support, lo, hi", [
        (Ball(center=(1.0, -0.5, 0.25), radius=0.5), (0.5, -1.0, -0.25), (1.5, 0.0, 0.75)),
        (RoundedCylinder(radius=1.0, half_height=0.5), (-1, -1, -1.5), (1, 1, 1.5)),
        (notched_lshape(), (-0.5, -0.5, -0.25), (1.5, 1.5, 0.25)),
        (two_balls(), (-1.5, -0.5, -0.5), (1.5, 0.5, 0.5)),
    ], ids=["ball", "rounded_cylinder", "lshape", "two_balls"])
    def test_bounding_box_is_the_support_function_at_the_axes(self, support, lo, hi):
        box = support.bounding_box()
        assert box[0].tolist() == list(lo) and box[1].tolist() == list(hi)


class TestAnnulusRadii:
    def test_ball(self):
        r1, r2 = phase_range("near", (3, 0, 0), Ball(center=(0, 0, 0), radius=1.0))
        assert (r1, r2) == (2.0, 4.0)

    def test_two_balls(self):
        r1, r2 = phase_range("near", (3, 0, 0), two_balls())
        assert (r1, r2) == (1.5, 4.5)

    def test_inside_errors(self):
        with pytest.raises(GeometryError):
            phase_range("near", (0.5, 0, 0), Ball(center=(0, 0, 0), radius=1.0))

    def test_boundary_errors(self):
        with pytest.raises(GeometryError):
            phase_range("near", (1.0, 0, 0), Ball(center=(0, 0, 0), radius=1.0))

    @pytest.mark.parametrize("support", ALL_SHAPES, ids=lambda s: type(s).__name__)
    def test_brute_force_bracket(self, support):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.uniform(-4, 4, size=3)
            lo, _ = support.signed_distance_bounds(x)
            if lo <= 0.3:  # keep clear of the boundary for a stable test
                continue
            r1, r2 = phase_range("near", x, support)
            for h in (0.1, 0.05):
                rule = quadrature(support, h)
                d = np.linalg.norm(rule.nodes - x, axis=1)
                assert d.min() >= r1 - 1e-12
                assert d.max() <= r2 + 1e-12
                assert d.min() - r1 <= 2 * h
                assert r2 - d.max() <= 2 * h

    def test_cube_vs_brute_force(self):
        cube = Cube(center=(0.2, -0.1, 0.3), half_widths=(0.8, 1.1, 0.6))
        rule = quadrature(cube, 0.02)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-4, 4, size=3)
            if cube.signed_distance_bounds(x)[0] <= 0.2:
                continue
            r1, r2 = phase_range("near", x, cube)
            d = np.linalg.norm(rule.nodes - x, axis=1)
            assert r1 - 1e-12 <= d.min() <= r1 + 0.05
            assert r2 - 0.05 <= d.max() <= r2 + 1e-12
