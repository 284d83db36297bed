import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from dataclasses import replace
from scipy import integrate

import mfsampling as mf
from mfsampling import (
    Ball,
    DatasetFormatError,
    FrequencyGrid,
    GeometryError,
    band_error_bound,
    MeasurementSet,
    QuadratureRule,
    add_noise,
    generate_dataset,
    quadrature,
    radiated_field,
    read_dataset,
    write_dataset,
)


def ball_field_oracle(s, k, R=1.0):
    """1D radial-shell quadrature for the exterior field of a uniform unit-density ball."""
    if k == 0:
        return (R**3 / 3) / s

    def shell(rho):
        return (rho / (2 * s)) * (np.exp(1j * k * (s + rho)) - np.exp(1j * k * (s - rho))) / (1j * k)

    re, _ = integrate.quad(lambda r: shell(r).real, 0, R, limit=200)
    im, _ = integrate.quad(lambda r: shell(r).imag, 0, R, limit=200)
    return re + 1j * im


def ball_pattern_oracle(k, R=1.0):
    """1D radial quadrature for the far pattern of a uniform unit-density ball."""
    if k == 0:
        return 4 * np.pi * R**3 / 3
    val, _ = integrate.quad(lambda rho: 4 * np.pi * rho * np.sin(k * rho) / k, 0, R, limit=200)
    return val


def point_source(k, x, y):
    """The outgoing point-source kernel e^{ik|x-y|} / (4 pi |x-y|), as the near field of a
    one-node rule at y with unit weight inside a small unit-amplitude ball."""
    y = tuple(float(c) for c in y)
    rule = QuadratureRule(nodes=np.array([y]), weights=np.ones(1), amplitude=np.ones(1))
    return radiated_field("near", Ball(center=y, radius=1e-3), rule, x, k)


class TestFundamentalSolution:
    def test_zero_frequency(self):
        val = point_source(0.0, (2, 0, 0), (0, 0, 0))
        assert val == pytest.approx(1 / (8 * math.pi), rel=1e-15)
        assert val.imag == 0.0

    def test_half_period_phase(self):
        val = point_source(math.pi, (1, 0, 0), (0, 0, 0))
        assert val.real == pytest.approx(-1 / (4 * math.pi), rel=1e-14)
        assert abs(val.imag) < 1e-16

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.uniform(-10, 10)
            x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            assert point_source(-k, x, y) == np.conj(point_source(k, x, y))

    def test_singular(self):
        # a node is inside its support, so the kernel's pole is refused as an
        # evaluation point inside the support (see TestNearField.test_inside_point_errors)
        with pytest.raises(GeometryError, match="inside the source support"):
            point_source(1.0, (1, 2, 3), (1, 2, 3))


class TestNearField:
    def test_newtonian_ball(self, unit_ball):
        # exterior potential of a uniform unit ball at |x| = 3 is (R^3/3)/|x| = 1/9
        rule = quadrature(unit_ball, 0.05)
        val = radiated_field("near", unit_ball, rule, (3, 0, 0), 0.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(1 / 9, rel=5e-3)
        assert ball_field_oracle(3.0, 0.0) == pytest.approx(1 / 9, rel=1e-12)

    def test_radial_oracle_k2(self, unit_ball):
        rule = quadrature(unit_ball, 0.05)
        val = radiated_field("near", unit_ball, rule, (3, 0, 0), 2.0)
        exact = ball_field_oracle(3.0, 2.0)
        assert abs(val - exact) / abs(exact) < 0.01

    def test_point_source_limit(self):
        small = Ball(center=(0.0, 0.0, 0.0), radius=0.05)
        rule = quadrature(small, 0.0025)
        val = radiated_field("near", small, rule, (3, 0, 0), 2.0)
        vol = 4 * math.pi * 0.05**3 / 3
        point = vol * point_source(2.0, (3, 0, 0), (0, 0, 0))
        assert abs(val - point) / abs(point) < 0.01

    def test_conjugate_symmetry(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        for k in (0.3, 1.0, 7.7):
            a = radiated_field("near", unit_ball, rule, (3, 0, 0), -k)
            b = radiated_field("near", unit_ball, rule, (3, 0, 0), k)
            assert a == np.conj(b)

    def test_inside_point_errors(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        with pytest.raises(GeometryError):
            radiated_field("near", unit_ball, rule, (0.5, 0, 0), 1.0)

    def test_convergence_in_h(self, unit_ball):
        exact = ball_field_oracle(3.0, 2.0)
        errs = []
        for h in (0.2, 0.1, 0.05):
            rule = quadrature(unit_ball, h)
            errs.append(abs(radiated_field("near", unit_ball, rule, (3, 0, 0), 2.0) - exact))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]


class TestFarField:
    def test_zero_frequency_is_volume(self, unit_ball):
        rule = quadrature(unit_ball, 0.1)
        val = radiated_field("far", unit_ball, rule, (0, 0, 1), 0.0)
        assert val == rule.total_weight

    def test_direction_negation_symmetry(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        d = np.array([1.0, 2.0, -0.5])
        d /= np.linalg.norm(d)
        for k in (0.7, 3.0):
            assert (radiated_field("far", unit_ball, rule, d, -k)
                    == radiated_field("far", unit_ball, rule, -d, k))

    def test_analytic_ball_k2(self, unit_ball):
        rule = quadrature(unit_ball, 0.05)
        val = radiated_field("far", unit_ball, rule, (0, 1, 0), 2.0)
        exact = 4 * math.pi * (math.sin(2) - 2 * math.cos(2)) / 8
        assert ball_pattern_oracle(2.0) == pytest.approx(exact, rel=1e-12)
        assert abs(val - exact) / abs(exact) < 0.01

    def test_band_scale_accuracy(self, unit_ball):
        # relative to the band's peak magnitude; per-k relative error is
        # unbounded near zeros of the pattern
        rule = quadrature(unit_ball, 0.05)
        ks = np.arange(0, 12.0)
        num = np.array([radiated_field("far", unit_ball, rule, (1, 0, 0), k) for k in ks])
        exact = np.array([ball_pattern_oracle(k) for k in ks])
        assert np.abs(num - exact).max() <= 0.01 * np.abs(exact).max()

    def test_phase_is_fixed_order_projection(self):
        # the far phase is -(y0 x0 + y1 x1 + y2 x2) added in axis order, on every
        # node of an off-centre peanut, whichever matrix-vector kernel the machine has
        s = offcentre_scenario("far")
        y0, y1, y2 = quadrature(s.support, s.h).nodes.T
        for x0, x1, x2 in s.measurement.array:
            t = mf.phase("far", (x0, x1, x2), (y0, y1, y2))
            assert mf.forward._spreading("far", t) == 1.0
            assert t.tobytes() == (-(y0 * x0 + y1 * x1 + y2 * x2)).tobytes()

    def test_non_unit_direction_errors(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        with pytest.raises(ValueError, match="unit"):
            radiated_field("far", unit_ball, rule, (1, 1, 0), 1.0)


def _ball_factor(k, R):
    """4 pi (sin kR - kR cos kR) / k^3: the integral of e^{i k |x - y|} / |x - y| over a ball of
    radius R about c, divided by e^{i k |x - c|} / |x - c|, for x outside the ball (the
    Helmholtz mean-value property); also the far field of the ball about the origin."""
    return 4 * np.pi * (np.sin(k * R) - k * R * np.cos(k * R)) / k**3


_OFF_AXIS = np.array([0.48, -0.6, 0.64])  # a unit direction with no zero component


class TestPhysicsOracles:
    """`radiated_field` against closed forms of the physics, not against the code: the
    voxel rule's data error is a measured regression bound for balls, and a rigorous one
    for boxes whose widths are multiples of h.  Off-centre supports and an off-axis
    direction, so a reflected phase or a lost spreading cannot cancel."""

    K = np.arange(1.0, 12.0)

    @pytest.mark.parametrize("center, radius, amplitude, h", [
        ((1.2, 0.4, 0.0), 0.5, 1.0, 0.05),  # `far_offcentre`'s ball: 8.5e-3 near, 8.8e-3 far
        ((0.4, -0.3, 0.2), 0.6, 1.7, 0.1),  # 7.9e-3 near, 7.6e-3 far
    ], ids=["far_offcentre_ball", "ball_r0.6_h0.1"])
    def test_offcentre_ball_mean_value(self, center, radius, amplitude, h):
        ball = Ball(center=center, radius=radius, amplitude=amplitude)
        rule, k, x = quadrature(ball, h), self.K, (2.1, 1.7, -1.4)
        d = math.dist(x, center)
        exact = {"near": np.exp(1j * k * d) / (4 * np.pi * d),
                 "far": np.exp(-1j * k * (_OFF_AXIS @ np.array(center)))}
        for kind, point in (("near", x), ("far", _OFF_AXIS)):
            oracle = amplitude * exact[kind] * _ball_factor(k, radius)
            u = radiated_field(kind, ball, rule, point, k)
            assert np.linalg.norm(u - oracle) <= 1e-2 * np.linalg.norm(oracle), kind

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_aligned_box_far_field_within_midpoint_bound(self, h):
        # prod_a 2 sin(k xhat_a w_a) / (k xhat_a), shifted by e^{-ik xhat.c}; the midpoint rule
        # on cells that tile the box errs by at most vol k^2 h^2 / 24 sum_a xhat_a^2 per unit
        # amplitude (the Taylor remainder, whose cross terms integrate to zero on a cell);
        # measured 0.97 of it at k = 1
        center, w, amplitude = np.array([0.35, -0.25, 0.15]), np.array([0.5, 0.3, 0.4]), 1.3
        box = mf.Cube(center=center, half_widths=w, amplitude=amplitude)
        rule, k, vol = quadrature(box, h), self.K, 8 * np.prod(w)
        assert rule.total_weight == pytest.approx(vol, rel=1e-12)
        kx = np.multiply.outer(k, _OFF_AXIS)
        exact = (amplitude * np.exp(-1j * kx @ center)
                 * np.prod(2 * np.sin(kx * w) / kx, axis=1))
        bound = amplitude * vol * k**2 * h**2 / 24 * np.sum(_OFF_AXIS**2)
        u = radiated_field("far", box, rule, _OFF_AXIS, k)
        assert np.all(np.abs(u - exact) <= bound + 1e-13)

    def test_far_field_is_the_near_limit(self):
        # |4 pi r e^{-ikr} Phi_k(r xhat, y) - e^{-ik xhat.y}| <= k rho^2 / (2(r - rho))
        # + rho / (r - rho) per node y with |y| <= rho < r, as |r xhat - y| - (r - xhat.y)
        # lies in [0, rho^2 / (2(r - rho))]; summed against w |f|, plus k r 1e-15 for the
        # rounding of the near phase.  Measured 0.28 of it at every r; against a reflected
        # far map e^{+ik xhat.y} the worst k reads 23 times it at r = 1e2, 2320 at 1e4.
        ball = Ball(center=(1.2, 0.4, 0.0), radius=0.5, amplitude=1.5)
        rule, k = quadrature(ball, 0.05), self.K
        rho = np.linalg.norm(rule.nodes, axis=1).max()
        mass = np.sum(rule.weights * np.abs(ball.amplitude_at(rule.nodes)))
        far = radiated_field("far", ball, rule, _OFF_AXIS, k)
        reflected = radiated_field("far", ball, rule, -_OFF_AXIS, k)
        for r in (1e2, 1e3, 1e4):
            near = 4 * np.pi * r * np.exp(-1j * k * r) * radiated_field(
                "near", ball, rule, r * _OFF_AXIS, k)
            bound = mass * (k * rho**2 / (2 * (r - rho)) + rho / (r - rho) + 1e-15 * k * r)
            assert np.all(np.abs(near - far) <= bound), r
            assert np.max(np.abs(near - reflected) / bound) > 20, r


def _range_scenarios():
    """Every preset and every benchmark workload config, by name."""
    from artifact_ledger import _workloads
    from mfsampling.scenario import parse_config_text

    cases = dict(mf.PRESETS)
    for name, (module, w) in _workloads().items():
        cases[name] = parse_config_text(module.config_text(w, 1))
    return cases


_RANGE_SCENARIOS = _range_scenarios()


class TestPhaseRange:
    @pytest.mark.parametrize("name", sorted(_RANGE_SCENARIOS))
    def test_brackets_and_attains_phase_at_nodes(self, name):
        # the exact range holds the phase at every node, and the nodes come within 2h of
        # both ends, for the scenario's own sensors and for random off-axis far directions
        s = _RANGE_SCENARIOS[name]
        nodes = quadrature(s.support, s.h).nodes.T
        rng = np.random.default_rng(19)
        directions = rng.standard_normal((5, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        sensors = [(s.kind, x) for x in s.measurement.array]
        for kind, x in sensors + [("far", d) for d in directions]:
            t_min, t_max = mf.phase_range(kind, x, s.support)
            t = mf.phase(kind, x, nodes)
            assert t_min - 1e-12 <= t.min() <= t_min + 2 * s.h
            assert t_max - 2 * s.h <= t.max() <= t_max + 1e-12

    def test_far_range_is_the_support_function_strip(self):
        # an off-centre ball: -xhat.y runs over -xhat.c -+ R, not over its reflection
        ball = Ball(center=(1.0, -0.5, 0.25), radius=0.5)
        xhat = np.array([2.0, 1.0, -2.0]) / 3.0
        c = -xhat @ np.array(ball.center)
        assert mf.phase_range("far", xhat, ball) == pytest.approx((c - 0.5, c + 0.5), abs=1e-15)

    @pytest.mark.parametrize("support, x", [
        (Ball(center=(0.5, -0.25, 0.0), radius=1.0), (0.5, -0.25, 0.0)),  # centre
        (Ball(center=(0.5, -0.25, 0.0), radius=1.0), (1.5, -0.25, 0.0)),  # sphere
        (mf.Cube(center=(0.5, 0.0, 0.0), half_widths=(1.0, 0.5, 0.5)), (1.5, 0.25, 0.0)),  # face
        (mf.Cube(center=(0.5, 0.0, 0.0), half_widths=(1.0, 0.5, 0.5)), (1.5, 0.5, 0.5)),  # corner
        (mf.LShape(box1=((-0.5, -0.5, -0.25), (0.0, 1.5, 0.25)),
                   box2=((0.0, -0.5, -0.25), (1.5, 0.0, 0.25))), (0.0, 0.0, 0.0)),  # notch
    ], ids=["ball_centre", "ball_sphere", "cube_face", "cube_corner", "lshape_notch"])
    def test_refuses_near_point_in_closed_support(self, support, x):
        rule = quadrature(support, 0.25)
        with pytest.raises(GeometryError, match="inside the source support"):
            mf.phase_range("near", x, support)
        with pytest.raises(GeometryError, match="inside the source support"):
            radiated_field("near", support, rule, x, 1.0)


class TestFrequencyGrid:
    def test_nodes(self):
        g = FrequencyGrid(k_max=11.0, count=11)
        assert g.spacing == 1.0
        assert g.nodes.tolist() == list(range(1, 12))

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(k_max=0.0, count=5)
        with pytest.raises(ValueError):
            FrequencyGrid(k_max=1.0, count=1)

    @pytest.mark.parametrize("k_max", [math.nan, math.inf])
    def test_non_finite_k_max_rejected(self, k_max):
        # nan <= 0 is False, so a sign test alone lets NaN through
        with pytest.raises(ValueError, match="k_max must be positive and finite"):
            FrequencyGrid(k_max=k_max, count=5)


class TestMeasurementSet:
    def test_far_unit_norm_required(self):
        with pytest.raises(ValueError, match="unit"):
            MeasurementSet(kind="far", points=((1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)))

    def test_one_far_direction_needs_no_antipode(self):
        # the negative columns are the conjugates of the direction's own positive ones
        xhat = (0.6, -0.48, 0.64)
        s = mf.Scenario(support=Ball(center=(0.6, -0.3, 0.2), radius=0.5), h=0.1,
                        measurement=MeasurementSet(kind="far", points=(xhat,)),
                        frequencies=FrequencyGrid(k_max=30.0, count=40), noise_level=0.0,
                        sampling=mf.SamplingGrid.cube(2.0, 8))
        data = generate_dataset(s)
        J = data.grid.count
        assert data.values.shape == (1, 2 * J + 1)
        assert data.values[:, J - 1::-1].tobytes() == np.conj(data.values[:, J + 1:]).tobytes()
        closed = generate_dataset(replace(s, measurement=MeasurementSet(
            "far", (xhat, (-0.6, 0.48, -0.64)))))
        assert data.values[0].tobytes() == closed.values[0].tobytes()
        field = mf.compute_indicator(data, s.sampling)
        assert np.all(np.isfinite(field.values)) and field.values.max() > 0
        reports, ok = mf.verify.run(s)
        assert len(reports) == 4 and ok

    @pytest.mark.parametrize("kind, points", [
        ("near", ((4.0, 0.5, -1.0), (math.nan, 0.0, 0.0))),
        ("near", ((math.inf, 0.0, 0.0),)),
        ("far", ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (math.nan, 0.0, 0.0))),
    ])
    def test_non_finite_point_rejected(self, kind, points):
        with pytest.raises(ValueError, match="measurement points must be finite"):
            MeasurementSet(kind=kind, points=points)

    @pytest.mark.parametrize("kind, points, shape", [
        ("near", ((4.0, 0.0),), "(1, 2)"),
        ("far", ((1.0, 0.0),), "(1, 2)"),
        ("near", ((4.0, 0.5, -1.0), (3.0, 1.0, 0.0, 2.0)), "(2, 3 or 4)"),
    ])
    def test_point_without_three_coordinates_rejected(self, kind, points, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape (L, 3), got {shape}")):
            MeasurementSet(kind=kind, points=points)


class TestGenerateDataset:
    def test_near_conjugate_columns(self, ball_dataset):
        J = ball_dataset.grid.count
        for m in range(1, J + 1):
            assert np.array_equal(ball_dataset.values[:, J - m],
                                  np.conj(ball_dataset.values[:, J + m]))

    def test_shape(self, ball_dataset):
        assert ball_dataset.values.shape == (1, 23)

    def test_far_negation_rows(self, far_ball_dataset):
        J = far_ball_dataset.grid.count
        arr = far_ball_dataset.sensors.array
        neg = [np.flatnonzero(np.linalg.norm(arr + d, axis=1) <= 1e-12)[0] for d in arr]
        for ell in range(len(far_ball_dataset.sensors)):
            for m in range(1, J + 1):
                assert (far_ball_dataset.values[ell, J - m]
                        == far_ball_dataset.values[neg[ell], J + m])

    def test_values_finite_nonzero_decay(self, ball_dataset):
        J = ball_dataset.grid.count
        vals = ball_dataset.values[0]
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) > 0)
        mags = np.abs(vals[J:])  # m = 0..J
        # beyond the first lobe the magnitude trend follows the analytic decay
        assert mags[2] > mags[5] > mags[9] > mags[11]

    def test_zero_mode_extend_is_newtonian(self, ball_scenario, ball_dataset):
        J = ball_dataset.grid.count
        col = ball_dataset.values[:, J]
        assert np.all(col.imag == 0.0)
        assert np.all(col.real > 0.0)

    def test_zero_mode_drop(self, ball_scenario):
        data = generate_dataset(replace(ball_scenario, zero_mode="drop"))
        J = data.grid.count
        assert np.all(data.values[:, J] == 0.0)
        assert np.all(data.values[:, J + 1] != 0.0)


def offcentre_scenario(kind):
    """An asymmetric peanut away from the origin, two near sensors or a far direction pair."""
    support = mf.Peanut(centers=((0.9, 0.4, -0.5), (1.7, -0.1, 0.2)), radius=0.6, amplitude=2.5)
    if kind == "near":
        measurement = MeasurementSet("near", [(4.5, -2.5, 1.5), (-3.0, 3.5, -2.0)])
    else:
        measurement = MeasurementSet("far", [(0.6, -0.48, 0.64), (-0.6, 0.48, -0.64)])
    return mf.Scenario(support=support, h=0.1, measurement=measurement,
                       frequencies=FrequencyGrid(k_max=30.0, count=40), noise_level=0.0, seed=1,
                       sampling=mf.SamplingGrid.cube(3.0, 8))


def spiral(n):
    """n unit vectors spread over the sphere on a golden-angle spiral."""
    t = (np.arange(n) + 0.5) / n
    polar, azimuth = np.arccos(1 - 2 * t), np.pi * (3 - math.sqrt(5)) * np.arange(n) + 0.3
    v = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                  np.cos(polar)], axis=1)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def wide_band_scenario(kind):
    """An off-centre ball on a fine rule (Q = 7208), 64 sensors, J = 48."""
    support = Ball(center=(0.2, -0.1, 0.3), radius=0.6)
    points = spiral(64) * 3.0 + support.center if kind == "near" else spiral(64)
    return replace(offcentre_scenario(kind), support=support, h=0.05,
                   measurement=MeasurementSet(kind, points),
                   frequencies=FrequencyGrid(k_max=30.0, count=48))


def three_sensor_scenario(kind):
    """The off-centre peanut seen by three sensors: points around it, or three directions."""
    if kind == "near":
        points = ((4.5, -2.5, 1.5), (-3.0, 3.5, -2.0), (0.5, -3.5, 3.0))
    else:
        points = ((0.6, -0.48, 0.64), (0.0, 0.6, -0.8), (-0.36, 0.48, 0.8))
    return replace(offcentre_scenario(kind), measurement=MeasurementSet(kind, points))


class TestBand:
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_rows_match_radiated_field(self, kind):
        # each band column against exact per-wavenumber exponentials
        s = offcentre_scenario(kind)
        data = generate_dataset(s)
        rule = quadrature(s.support, s.h)
        J, dk = data.grid.count, data.grid.spacing
        for ell, x in enumerate(s.measurement.array):
            exact = np.array([radiated_field(kind, s.support, rule, x, m * dk)
                              for m in range(J + 1)])
            bound = band_error_bound(kind, x, rule, dk, J)
            assert np.all(np.abs(data.values[ell, J:] - exact) <= bound)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_factor_kernel_is_data_band(self, kind):
        # the data's columns m = 1..J are P(T 1): the factorization's synthesis of its
        # multiplier, bit for bit
        s = offcentre_scenario(kind)
        data = generate_dataset(s)
        rule = quadrature(s.support, s.h)
        J = data.grid.count
        for ell, x in enumerate(s.measurement.array):
            fac = mf.Factorization(kind, x, rule, data.grid)
            cols = fac.synthesis(fac.multiplier)
            assert cols.tobytes() == data.values[ell, J + 1:].tobytes()

    def test_data_and_factors_skip_exact_kernel(self, monkeypatch):
        # the band takes one ratio z per sensor and node from the kernel, whatever J:
        # L Q elements for the data and Q for a factorization, never one per wavenumber
        expi, sizes = mf.forward._expi, []

        def counted(theta, out):
            sizes.append(theta.size)
            return expi(theta, out)

        def refuse(*args):
            raise AssertionError("exact per-wavenumber field called")

        monkeypatch.setattr(mf.forward, "_expi", counted)
        monkeypatch.setattr(mf.forward, "radiated_field", refuse)
        for kind in ("near", "far"):
            for J in (11, 48):
                s = replace(three_sensor_scenario(kind),
                            frequencies=FrequencyGrid(k_max=30.0, count=J))
                rule = quadrature(s.support, s.h)
                sizes.clear()
                generate_dataset(s)
                assert sum(sizes) == len(s.measurement) * len(rule)
                sizes.clear()
                mf.Factorization(kind, s.measurement.points[0], rule, s.frequencies)
                assert sum(sizes) == len(rule)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_rows_independent_of_blocks(self, monkeypatch, kind):
        # a row's bits depend on its own sensor alone: blocks of one row, of the cache
        # budget (at least 3 blocks, the last one short) and of all rows agree, and so
        # does verify's one-sensor row, written from its factors by its own call; under
        # either zero mode
        if kind == "near":  # the off-centre peanut, sensors around its middle
            support, h, points = offcentre_scenario(kind).support, 0.07, 4.0 * spiral(8)
            points += (1.3, 0.15, -0.15)
        else:
            support, h, points = Ball(center=(0.6, -0.3, 0.2), radius=0.5), 0.05, spiral(8)
        s = replace(offcentre_scenario(kind), support=support, h=h,
                    measurement=MeasurementSet(kind, points))
        step = mf.forward._SLAB_VOXELS // len(quadrature(s.support, s.h))
        assert 1 < step < len(points) / 2 and len(points) % step  # 3 blocks, the last short
        for s in (s, replace(s, zero_mode="drop")):
            data = generate_dataset(s)
            for budget in (1, 10**9):
                monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", budget)
                assert generate_dataset(s).values.tobytes() == data.values.tobytes()
            monkeypatch.undo()
            for ell in range(len(points)):
                row = mf.verify._sensor_problem(s, ell).row
                assert row.tobytes() == data.values[ell].tobytes()

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_generate_peak_below_one_band(self, kind):
        # the data keep running products over cache-sized blocks, never a (J+1) x Q band
        s = wide_band_scenario(kind)
        Q, J = len(quadrature(s.support, s.h)), s.frequencies.count
        assert Q == 7208
        tracemalloc.start()
        try:
            generate_dataset(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (J + 1) * Q * 16

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_radiated_field_peak_near_its_output(self, kind):
        # `radiated_field` takes the J x Q kernel a block of whole rows at a time, and
        # `_expi` works in cache-sized blocks, so no J x Q temporary is built.  The peak is
        # 1.09-1.19 times the output here; forming the whole phase array and its
        # exponential at once reaches 1.53.
        s = wide_band_scenario(kind)
        rule = quadrature(s.support, s.h)
        J, x = s.frequencies.count, s.measurement.points[0]
        tracemalloc.start()
        try:
            radiated_field(kind, s.support, rule, x, s.frequencies.nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * J * len(rule) * 16

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_radiated_field_peak_flat_in_J(self, kind):
        # one block of whole rows of at most `_SLAB_VOXELS` elements at a time, so the
        # peak is the block, Q-sized vectors and `_expi`'s scratch, whatever J: 0.66-0.73
        # MiB with the scratch already made, about 1.3 MiB when the call makes it, against
        # a J x Q band of 5.3 MiB at J = 48 and 21 MiB at J = 192 (numpy 2.4.6)
        s = wide_band_scenario(kind)
        rule = quadrature(s.support, s.h)
        for J in (48, 192):
            nodes = FrequencyGrid(k_max=30.0, count=J).nodes
            tracemalloc.start()
            try:
                radiated_field(kind, s.support, rule, s.measurement.points[0], nodes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_radiated_field_blocks_leave_no_trace(self, monkeypatch, kind):
        # blocks of one row, of the cache budget (2 blocks, the last short) and of all rows
        # give the bits of the whole J x Q kernel times the data's coefficients
        # w (f / spreading), folded once, and summed per row; a 2-D k keeps its shape (its
        # blocks cut its rows) and a scalar k gives a complex
        s = replace(offcentre_scenario(kind), h=0.15,
                    frequencies=FrequencyGrid(k_max=30.0, count=48))
        if kind == "near":
            s = replace(s, measurement=MeasurementSet("near", [(2.9, 1.3, -1.1)]))
        rule, x = quadrature(s.support, s.h), s.measurement.points[0]
        step = mf.forward._SLAB_VOXELS // len(rule)
        assert 1 < step < 48 and 48 % step
        ph = mf.phase(kind, x, rule.nodes.T)
        k = -s.frequencies.nodes
        E = mf.forward._cis(k, ph)
        E *= rule.weights * (s.support.amplitude_at(rule.nodes) / mf.forward._spreading(kind, ph))
        expected = np.sum(E, axis=-1)
        for budget in (1, mf.forward._SLAB_VOXELS, 10**9):
            monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", budget)
            u = radiated_field(kind, s.support, rule, x, k)
            assert u.shape == (48,) and u.tobytes() == expected.tobytes()
            u = radiated_field(kind, s.support, rule, x, k[5])
            assert type(u) is complex and u == expected[5]
        monkeypatch.undo()
        u = radiated_field(kind, s.support, rule, x, k.reshape(6, 8))
        assert u.shape == (6, 8) and u.tobytes() == expected.tobytes()

    def test_power_sums_match_per_column_sums(self):
        # the in-place reductions give np.sum's bits, column by column: a 1-D row, a
        # short last block of rows, and a single node
        def reference(z, c, J):
            p, cols = np.array(c, dtype=complex), []
            for m in range(J + 1):
                if m:
                    p *= z
                cols.append(np.sum(p, axis=-1))
            return np.stack(cols, axis=-1)

        s = offcentre_scenario("near")
        rule = quadrature(s.support, s.h)
        z = np.stack([mf.forward._band("near", x, rule, 0.7)[0]
                      for x in s.measurement.points + ((0.5, -3.5, 3.0),)])
        c = np.random.default_rng(5).standard_normal(z.shape)
        for zz, cc in ((z[0], c[0]), (z, c), (z[1, :1], c[1, :1])):
            sums = mf.forward._power_sums(zz, cc, 40)
            assert sums.shape == zz.shape[:-1] + (41,)
            assert sums.tobytes() == reference(zz, cc, 40).tobytes()

    def test_real_c_unchanged_and_complex_c_overwritten(self):
        # a real c, which every `_laurent_rows` caller passes, is cast into a new array;
        # a complex c (the synthesis factor's fresh product) is the running product itself
        s = offcentre_scenario("near")
        rule = quadrature(s.support, s.h)
        z, multiplier = mf.forward._band("near", s.measurement.points[0], rule, 0.7)
        c = rule.weights * multiplier
        before = c.copy()
        mf.forward._laurent_rows(z, c, 11, "extend")
        assert c.tobytes() == before.tobytes()
        cc, last = c.astype(complex), c.astype(complex)
        for _ in range(11):
            last *= z
        mf.forward._power_sums(z, cc, 11)
        assert cc.tobytes() == last.tobytes()


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _decimal_roots(N):
    """cos and sin of 2 pi j / N, j = 0..N-1 (N a multiple of 4), as Decimals of 60
    digits: Taylor series on the first quarter, exact quarter turns beyond it."""
    parts = []
    with localcontext() as ctx:
        ctx.prec = 60
        for j in range(N):
            q, r = divmod(j, N // 4)
            x, c, s, term, k = 2 * _PI * r / N, Decimal(0), Decimal(0), Decimal(1), 0
            while term > Decimal("1e-62"):  # term = x^k / k!
                if k % 2:
                    s += term if k % 4 == 1 else -term
                else:
                    c += term if k % 4 == 0 else -term
                k += 1
                term = term * x / k
            parts.append([(c, s), (-s, c), (-c, -s), (s, -c)][q])
    return parts


def _dd(d):
    """The double-double (hi, lo) nearest a Decimal."""
    hi = float(d)
    return hi, float(d - Decimal(hi))


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    p = a * b
    a1, b1 = a * 134217729.0, b * 134217729.0
    a1, b1 = a1 - (a1 - a), b1 - (b1 - b)
    return p, ((a1 * b1 - p) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)


def _reference_cis(theta, N=1000):
    """e^{i theta} as double-doubles (re_hi, re_lo, im_hi, im_lo), within 1e-23, from
    a Decimal table of e^{2 pi i m / N} (a table the kernel does not use) times the
    Taylor series of e^{i psi}, |psi| <= pi / N, in double-double arithmetic."""
    table = np.array([_dd(c) + _dd(s) for c, s in _decimal_roots(N)]).T
    with localcontext() as ctx:
        ctx.prec = 60
        step_hi, step_lo = _dd(2 * _PI / N)
    m = np.rint(theta / step_hi)
    ph, pl = _two_prod(m, step_hi)
    psi, err = _two_sum(theta, -ph)
    psi, err = _two_sum(psi, err - pl - m * step_lo)  # psi + err = theta - 2 pi m / N
    qh, ql = _two_prod(psi, psi)
    ql += 2 * psi * err
    q = qh + ql
    ch, cl = _two_sum(1.0, -qh / 2)  # cos psi = 1 - q/2 + q^2/24 - q^3/720 + q^4/40320
    cl += -ql / 2 + q * q * (1 / 24 - q * (1 / 720 - q / 40320))
    sl = err - psi * q * (1 / 6 - q * (1 / 120 - q / 5040))  # sin psi = psi + sl
    rr, rl, ir, il = table[:, np.mod(m, N).astype(int)]

    def dd_mul(ah, al, bh, bl):
        p, e = _two_prod(ah, bh)
        return p, e + ah * bl + al * bh

    (a, ae), (b, be) = dd_mul(rr, rl, ch, cl), dd_mul(ir, il, psi, sl)
    re_hi, re_lo = _two_sum(a, -b)
    (a, ae2), (b, be2) = dd_mul(rr, rl, psi, sl), dd_mul(ir, il, ch, cl)
    im_hi, im_lo = _two_sum(a, b)
    return re_hi, re_lo + (ae - be), im_hi, im_lo + (ae2 + be2)


class TestExpi:
    """`forward._expi`, the one complex exponential: within its derived bound,
    eps/4 + 7.5e-19 per part, of an independent double-double reference."""

    BOUND = np.finfo(float).eps / 4 + 7.5e-19

    def test_parts_within_derived_bound(self):
        N = mf.forward._CIS_N
        seeded = np.random.default_rng(20231).uniform(-1e4, 1e4, 100_000)
        nodes = np.arange(-3 * N, 3 * N) * (2 * math.pi / N)  # the table's nodes ...
        halves = nodes + math.pi / N  # ... and the half-steps, where n changes
        far_nodes = 2 * math.pi / N * np.arange(1_500_000, 1_500_000 + N)  # |theta| ~ 4600
        theta = np.concatenate([seeded, nodes, halves, far_nodes, -far_nodes])
        got = mf.forward._expi(theta, np.empty(theta.shape, dtype=complex))
        re_hi, re_lo, im_hi, im_lo = _reference_cis(theta)
        assert np.max(np.abs((got.real - re_hi) - re_lo)) <= self.BOUND
        assert np.max(np.abs((got.imag - im_hi) - im_lo)) <= self.BOUND

    def test_zero_is_exactly_one(self):
        got = mf.forward._expi(np.array([0.0, -0.0]), np.empty(2, dtype=complex))
        assert np.all(got == 1 + 0j)
        assert mf.forward._cis(0.0, np.zeros(3)).tobytes() == np.ones(3, dtype=complex).tobytes()

    def test_table_entries_round_once(self):
        # T_hi is within half an ulp per part of e^{2 pi i j / N}, and T_hi + T_lo
        # within 2^-96
        hi, lo = mf.forward._CIS_HI, mf.forward._CIS_LO
        with localcontext() as ctx:
            ctx.prec = 60
            for j, (c, s) in enumerate(_decimal_roots(len(hi))):
                for h, l, exact in ((hi[j].real, lo[j].real, c), (hi[j].imag, lo[j].imag, s)):
                    assert abs(Decimal(h) - exact) <= Decimal(math.ulp(float(exact))) / 2
                    assert abs(Decimal(h) + Decimal(l) - exact) <= Decimal(2) ** -96

    def test_blocks_and_shapes_leave_bits(self, monkeypatch):
        # the kernel is elementwise: its blocks, which may cut `_cis`'s rows, do not
        # change a bit
        k, ph = np.linspace(-9.0, 30.0, 37), np.random.default_rng(5).uniform(-4, 7, 50)
        whole = mf.forward._cis(k, ph)
        assert whole.shape == (37, 50)
        monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", 64)  # blocks cut the rows of 50
        assert mf.forward._cis(k, ph).tobytes() == whole.tobytes()
        theta = np.multiply.outer(k, ph)
        flat = mf.forward._expi(theta.ravel(), np.empty(theta.size, dtype=complex))
        assert flat.tobytes() == whole.tobytes()

    def test_scratch_kept_across_calls(self, monkeypatch):
        # two calls of at most one slab get the same scratch arrays back: fresh scratch
        # per call can cost more in page faults than the kernel itself
        scratch, got = mf.forward._scratch, []

        def recording(size):
            got.append(scratch(size))
            return got[-1]

        monkeypatch.setattr(mf.forward, "_scratch", recording)
        theta = np.linspace(-9.0, 30.0, mf.forward._SLAB_VOXELS)
        for size in (theta.size, 37):
            mf.forward._expi(theta[:size], np.empty(size, dtype=complex))
        assert len(got) == 2 and all(a is b for a, b in zip(*got))


class TestRowBlocks:
    """`forward._row_blocks`, the one slab rule: whole rows in order, each slice at least
    one row and at most the budget's elements, unless one row alone exceeds it."""

    @pytest.mark.parametrize("budget", [1, 110, mf.forward._SLAB_VOXELS, 10**9])
    def test_whole_rows_within_budget(self, budget, monkeypatch):
        monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", budget)
        # row sizes that divide the budget, that do not, and that exceed it
        for row_size in (1, 2, 3, 11, 55, 110, 111, 7208, budget, budget + 1):
            assert list(mf.forward._row_blocks(0, row_size)) == []
            for rows in (1, 2, 7, 37, 1000):
                blocks = list(mf.forward._row_blocks(rows, row_size))
                assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
                assert all(b.step is None and b.stop <= rows for b in blocks)
                for b in blocks:
                    n = b.stop - b.start
                    assert n >= 1 and (n == 1 or n * row_size <= budget)
                for b in blocks[:-1]:  # full: one more row would pass the budget
                    assert (b.stop - b.start + 1) * row_size > budget


class TestAddNoise:
    def test_zero_level_identity(self, ball_dataset):
        out = add_noise(ball_dataset, 0.0, 7)
        assert np.array_equal(out.values, ball_dataset.values)
        assert out.noise_level == 0.0

    def test_deterministic(self, ball_dataset):
        a = add_noise(ball_dataset, 0.05, 3)
        b = add_noise(ball_dataset, 0.05, 3)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_noise(self, ball_dataset):
        a = add_noise(ball_dataset, 0.05, 3)
        b = add_noise(ball_dataset, 0.05, 4)
        assert not np.array_equal(a.values, b.values)

    def test_input_untouched(self, ball_dataset):
        before = ball_dataset.values.copy()
        add_noise(ball_dataset, 0.3, 1)
        assert np.array_equal(ball_dataset.values, before)

    @pytest.mark.parametrize("level", [-0.1, math.nan, math.inf])
    def test_negative_level_errors(self, ball_dataset, level):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            add_noise(ball_dataset, level, 1)

    def test_negative_seed_errors(self, ball_dataset):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            add_noise(ball_dataset, 0.05, -1)

    def test_metadata_recorded(self, ball_dataset):
        out = add_noise(ball_dataset, 0.05, 9)
        assert out.noise_level == 0.05
        assert out.seed == 9

    def test_relative_perturbation_band(self):
        # 5% per-sensor RMS noise lands near 5% in the global Frobenius metric
        scenario = mf.PRESETS["ball_pt14"]
        data = generate_dataset(scenario)
        norm = np.linalg.norm(data.values)
        for seed in range(20):
            noisy = add_noise(data, 0.05, seed)
            rel = np.linalg.norm(noisy.values - data.values) / norm
            assert 0.03 <= rel <= 0.07

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_row_keyed_by_seed_and_sensor(self, kind):
        # row l gains level sigma_l (xi0 + i xi1) / sqrt 2, xi the (2J+1, 2) block of
        # one generator keyed by (seed, l)
        data = generate_dataset(three_sensor_scenario(kind))
        level, seed = 0.05, 11
        noisy = add_noise(data, level, seed)
        sigma = data.row_rms()
        for ell, row in enumerate(data.values):
            xi = np.random.default_rng([seed, ell]).standard_normal((len(row), 2))
            expected = row + level * sigma[ell] * (xi[:, 0] + 1j * xi[:, 1]) / math.sqrt(2)
            assert noisy.values[ell].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_dropping_last_sensor_keeps_other_rows(self, kind):
        s = three_sensor_scenario(kind)
        fewer = replace(s, measurement=MeasurementSet(kind, s.measurement.points[:-1]))
        full = add_noise(generate_dataset(s), 0.05, 4).values
        short = add_noise(generate_dataset(fewer), 0.05, 4).values
        assert short.tobytes() == full[:-1].tobytes()

    def test_one_generator_per_row(self, monkeypatch):
        data = generate_dataset(three_sensor_scenario("near"))
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        add_noise(data, 0.05, 2)
        assert len(built) == len(data.sensors)

    def test_overflowing_rms_refused(self, ball_scenario):
        # samples near 1e154 square past the largest double: the row's RMS would be
        # inf and its noisy samples NaN, which no reader accepts
        s = replace(ball_scenario, support=replace(ball_scenario.support, amplitude=1e160))
        with pytest.raises(ValueError, match=r"noise level 0\.05 overflows on these data"):
            add_noise(generate_dataset(s), 0.05, 1)


class TestDatasetIO:
    def test_round_trip(self, ball_dataset, tmp_path):
        path = tmp_path / "data.mfd"
        write_dataset(ball_dataset, path, "cafebabe")
        back, meta = read_dataset(path)
        assert np.array_equal(back.values, ball_dataset.values)
        assert back.grid == ball_dataset.grid
        assert back.sensors == ball_dataset.sensors
        assert back.kind == ball_dataset.kind
        assert back.noise_level == ball_dataset.noise_level
        assert back.seed == ball_dataset.seed
        assert meta["scenario_hash"] == "cafebabe"

    def test_byte_identical_writes(self, ball_dataset, tmp_path):
        p1, p2 = tmp_path / "a.mfd", tmp_path / "b.mfd"
        write_dataset(ball_dataset, p1, "x")
        write_dataset(ball_dataset, p2, "x")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.mfd"
        path.write_bytes(b"")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_truncated_payload_errors(self, ball_dataset, tmp_path):
        path = tmp_path / "trunc.mfd"
        write_dataset(ball_dataset, path, "x")
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DatasetFormatError, match="payload"):
            read_dataset(path)

    def test_non_finite_values_rejected(self, ball_dataset):
        values = ball_dataset.values.copy()
        values[0, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            replace(ball_dataset, values=values)

    @pytest.mark.parametrize("field", [{"noise_level": -0.5}, {"noise_level": math.nan},
                                       {"noise_level": math.inf}, {"seed": -4}])
    def test_negative_noise_metadata_rejected(self, ball_dataset, field):
        with pytest.raises(ValueError, match="nonnegative"):
            replace(ball_dataset, **field)

    @pytest.mark.parametrize("line", [b"noise_level: -0.5", b"seed: -4"])
    def test_negative_noise_metadata_is_format_error(self, ball_dataset, tmp_path, line):
        path = tmp_path / "data.mfd"
        write_dataset(add_noise(ball_dataset, 0.05, 3), path)
        key = line.split(b":")[0]
        blob = path.read_bytes()
        start = blob.index(b"\n" + key + b": ") + 1
        path.write_bytes(blob[:start] + line + blob[blob.index(b"\n", start):])
        with pytest.raises(DatasetFormatError, match="nonnegative"):
            read_dataset(path)

    def test_far_round_trip(self, far_ball_dataset, tmp_path):
        path = tmp_path / "far.mfd"
        write_dataset(far_ball_dataset, path)
        back, _ = read_dataset(path)
        assert np.array_equal(back.values, far_ball_dataset.values)
        assert back.sensors.kind == "far"
