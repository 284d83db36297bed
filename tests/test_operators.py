import math

import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf
from mfsampling import (
    Ball,
    FreqFunction,
    FrequencyGrid,
    MeasurementSet,
    MultiFreqDataset,
    QuadratureRule,
    SupportFunction,
    analysis,
    apply_multiplier,
    apply_operator,
    factorization_residual,
    freq_inner,
    probe,
    quadratic_form,
    quadrature,
    support_inner,
    support_norm,
    synthesis,
)


def random_freq(grid, rng):
    return FreqFunction(grid, (rng.standard_normal(grid.count)
                               + 1j * rng.standard_normal(grid.count)) / math.sqrt(2))


def random_support(rule, rng):
    n = len(rule)
    return SupportFunction(rule, (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                           / math.sqrt(2))


@pytest.fixture(scope="module")
def toy_near_dataset():
    """J = 2 near dataset with hand-set values (no physics)."""
    grid = FrequencyGrid(k_max=2.0, count=2)
    sensors = MeasurementSet.near_points([(9.0, 9.0, 9.0)])
    # columns m = -2..2
    values = np.array([[0.3 - 0.4j, -0.2 + 0.1j, 0.5 + 0.0j, 0.1 + 0.7j, -0.6 - 0.2j]])
    return MultiFreqDataset(kind="near", sensors=sensors, grid=grid, values=values)


class TestApplyNearOperator:
    def test_zero_input(self, ball_dataset):
        g = FreqFunction(ball_dataset.grid, np.zeros(11, dtype=complex))
        out = apply_operator(ball_dataset, 0, g)
        assert np.all(out.samples == 0)

    def test_hand_2x2(self, toy_near_dataset):
        vm1, v0, vp1 = -0.2 + 0.1j, 0.5 + 0.0j, 0.1 + 0.7j
        g1, g2 = 1.0 + 2.0j, -1.0j
        g = FreqFunction(toy_near_dataset.grid, np.array([g1, g2]))
        out = apply_operator(toy_near_dataset, 0, g)
        # dk = 1; row j collects values[j - l]
        expected = np.array([v0 * g1 + vm1 * g2, vp1 * g1 + v0 * g2])
        assert np.allclose(out.samples, expected, rtol=1e-15, atol=0)

    def test_linearity(self, ball_dataset):
        rng = np.random.default_rng(2)
        g1, g2 = random_freq(ball_dataset.grid, rng), random_freq(ball_dataset.grid, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        combo = FreqFunction(ball_dataset.grid, a * g1.samples + b * g2.samples)
        lhs = apply_operator(ball_dataset, 0, combo).samples
        rhs = (a * apply_operator(ball_dataset, 0, g1).samples
               + b * apply_operator(ball_dataset, 0, g2).samples)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_grid_mismatch(self, ball_dataset):
        g = FreqFunction(FrequencyGrid(k_max=11.0, count=7), np.zeros(7, dtype=complex))
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_operator(ball_dataset, 0, g)


class TestQuadraticForms:
    def test_zero(self, ball_dataset):
        g = FreqFunction(ball_dataset.grid, np.zeros(11, dtype=complex))
        assert quadratic_form(ball_dataset, 0, g) == 0

    def test_matches_inner_product(self, ball_dataset):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_freq(ball_dataset.grid, rng)
            qf = quadratic_form(ball_dataset, 0, g)
            ip = freq_inner(apply_operator(ball_dataset, 0, g), g)
            assert abs(qf - ip) <= 1e-14 * abs(qf)

    def test_positive_at_center_probe(self, ball_dataset):
        g = probe("near", (3.0, 0.0, 0.0), (0.0, 0.0, 0.0), ball_dataset.grid)
        assert abs(quadratic_form(ball_dataset, 0, g)) > 0

    def test_far_zero(self, far_ball_dataset):
        phi = FreqFunction(far_ball_dataset.grid, np.zeros(11, dtype=complex))
        assert quadratic_form(far_ball_dataset, 0, phi) == 0

    def test_homogeneity(self, ball_dataset):
        rng = np.random.default_rng(9)
        g = random_freq(ball_dataset.grid, rng)
        alpha = 2.7
        scaled = FreqFunction(ball_dataset.grid, alpha * g.samples)
        assert quadratic_form(ball_dataset, 0, scaled) == pytest.approx(
            alpha**2 * quadratic_form(ball_dataset, 0, g), rel=1e-12)


class TestAdjointness:
    @pytest.mark.parametrize("kind, x, seed", [("near", (3.0, 0.0, 0.0), 7),
                                               ("far", (0.0, 0.0, 1.0), 8)],
                             ids=["near", "far"])
    def test_synthesis_analysis_pair(self, unit_ball, ball_scenario, kind, x, seed):
        rule = quadrature(unit_ball, 0.2)
        grid = ball_scenario.frequencies
        rng = np.random.default_rng(seed)
        for _ in range(100):
            psi = random_support(rule, rng)
            phi = random_freq(grid, rng)
            lhs = freq_inner(synthesis(kind, x, rule, psi, grid), phi)
            rhs = support_inner(psi, analysis(kind, x, rule, phi))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-12

    def test_single_node_synthesis(self, ball_scenario):
        rule = QuadratureRule(nodes=np.array([[0.0, 0.0, 0.0]]),
                              weights=np.array([0.125]), spacing=0.5)
        psi = SupportFunction(rule, np.array([1.0 + 0j]))
        grid = ball_scenario.frequencies
        out = synthesis("near", (3.0, 0.0, 0.0), rule, psi, grid)
        assert np.allclose(out.samples, 0.125 * np.exp(1j * grid.nodes * 3.0), rtol=1e-15)


class TestMiddleOperator:
    def test_zero(self, unit_ball):
        rule = quadrature(unit_ball, 0.25)
        h = SupportFunction(rule, np.zeros(len(rule), dtype=complex))
        out = apply_multiplier("near", (3.0, 0.0, 0.0), unit_ball, rule, h)
        assert np.all(out.samples == 0)

    def test_single_node_multiplier(self):
        ball = Ball(center=(2.0, 0.0, 0.0), radius=0.1)
        rule = QuadratureRule(nodes=np.array([[2.0, 0.0, 0.0]]),
                              weights=np.array([1e-3]), spacing=0.1)
        h = SupportFunction(rule, np.array([1.0 + 0j]))
        out = apply_multiplier("near", (0.0, 0.0, 0.0), ball, rule, h)
        assert out.samples[0] == pytest.approx(1 / (8 * math.pi), rel=1e-14)

    def test_self_adjoint(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        rng = np.random.default_rng(13)
        x = (3.0, 0.0, 0.0)
        for _ in range(20):
            h1, h2 = random_support(rule, rng), random_support(rule, rng)
            lhs = support_inner(apply_multiplier("near", x, unit_ball, rule, h1), h2)
            rhs = support_inner(h1, apply_multiplier("near", x, unit_ball, rule, h2))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)

    def test_sign_definite_bounds(self, unit_ball):
        # quadratic-form ratio confined to [c_f/(4 pi r2), C_f/(4 pi r1)]
        rule = quadrature(unit_ball, 0.2)
        x = (3.0, 0.0, 0.0)
        r1, r2 = mf.annulus_radii(unit_ball, x)
        lo, hi = 1 / (4 * math.pi * r2), 1 / (4 * math.pi * r1)
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = random_support(rule, rng)
            val = support_inner(apply_multiplier("near", x, unit_ball, rule, h), h)
            assert abs(val.imag) <= 1e-14 * abs(val)
            ratio = abs(val) / support_norm(h) ** 2
            assert lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)


class TestFactorization:
    def test_near_identity(self, ball_scenario):
        assert factorization_residual(ball_scenario, sensor=0, trials=20) <= 1e-10

    def test_far_identity(self, far_ball_scenario):
        assert factorization_residual(far_ball_scenario, sensor=0, trials=20) <= 1e-10

    def test_single_node_two_frequencies(self):
        # one interior voxel, two frequencies: the identity is hand-checkable
        tiny = Ball(center=(0.0, 0.0, 0.0), radius=0.04)
        scenario = mf.Scenario(
            support=tiny, h=0.05,
            measurement=MeasurementSet.near_points([(3.0, 0.0, 0.0)]),
            frequencies=FrequencyGrid(k_max=2.0, count=2),
            noise_level=0.0, seed=1, sampling=mf.SamplingGrid.cube(1.0, 2),
        )
        assert len(quadrature(tiny, 0.05)) == 1
        assert factorization_residual(scenario, trials=5) <= 1e-13

    def test_noisy_scenario_rejected(self, ball_scenario):
        noisy = replace(ball_scenario, noise_level=0.05)
        with pytest.raises(ValueError, match="noiseless"):
            factorization_residual(noisy)

    def test_large_grid_rejected(self, ball_scenario):
        big = replace(ball_scenario, frequencies=FrequencyGrid(k_max=11.0, count=65))
        with pytest.raises(ValueError, match="limited"):
            factorization_residual(big)

    def test_zero_mode_drop_breaks_identity(self, ball_scenario):
        # without the zero-frequency column the diagonal is missing: large residual
        res_ext = factorization_residual(ball_scenario, trials=10)
        res_drop = factorization_residual(replace(ball_scenario, zero_mode="drop"), trials=10)
        assert res_drop > 1e3 * max(res_ext, 1e-16)
        assert 0.05 <= res_drop <= 5.0

    def test_residual_deterministic(self, ball_scenario):
        a = factorization_residual(ball_scenario, trials=5)
        b = factorization_residual(ball_scenario, trials=5)
        assert a == b


class TestSandwich:
    def test_near_sandwich_random(self, ball_scenario, ball_dataset, unit_ball):
        rule = quadrature(unit_ball, ball_scenario.h)
        x = (3.0, 0.0, 0.0)
        lo, hi = 1 / (16 * math.pi), 1 / (8 * math.pi)
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_freq(ball_dataset.grid, rng)
            denom = support_norm(analysis("near", x, rule, g)) ** 2
            ratio = abs(quadratic_form(ball_dataset, 0, g)) / denom
            assert lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)

    def test_far_sandwich_unit_amplitude(self, far_ball_scenario, far_ball_dataset, unit_ball):
        # with f = 1 the far ratio collapses to exactly 1
        rule = quadrature(unit_ball, far_ball_scenario.h)
        xhat = far_ball_scenario.measurement.array[0]
        rng = np.random.default_rng(29)
        for _ in range(50):
            phi = random_freq(far_ball_dataset.grid, rng)
            denom = support_norm(analysis("far", xhat, rule, phi)) ** 2
            ratio = abs(quadratic_form(far_ball_dataset, 0, phi)) / denom
            assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_far_sandwich_scaled_amplitude(self, far_ball_scenario):
        scaled = replace(far_ball_scenario,
                         support=Ball(center=(0.0, 0.0, 0.0), radius=1.0, amplitude=2.0))
        data = mf.generate_dataset(scaled)
        rule = quadrature(scaled.support, scaled.h)
        xhat = scaled.measurement.array[0]
        rng = np.random.default_rng(31)
        phi = random_freq(data.grid, rng)
        denom = support_norm(analysis("far", xhat, rule, phi)) ** 2
        ratio = abs(quadratic_form(data, 0, phi)) / denom
        assert ratio == pytest.approx(2.0, rel=1e-10)
