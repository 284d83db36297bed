import math

import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf
from mfsampling import (
    Ball,
    Factorization,
    FrequencyGrid,
    MeasurementSet,
    MultiFreqDataset,
    QuadratureRule,
    apply_operator,
    check_factorization,
    probe,
    quadratic_form,
    quadrature,
)
from mfsampling.cli import main
from mfsampling.forward import _horner, _power_sums, _toeplitz_apply, _toeplitz_forms
from mfsampling.verify import _sensor_problem
from conftest import freq_inner, support_inner, support_norm

_GRID = FrequencyGrid(k_max=11.0, count=11)


def random_freq(grid, rng):
    return (rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)) / math.sqrt(2)


def random_support(rule, rng):
    n = len(rule)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)


@pytest.fixture(scope="module")
def toy_near_dataset():
    """J = 2 near dataset with hand-set values (no physics)."""
    grid = FrequencyGrid(k_max=2.0, count=2)
    sensors = MeasurementSet("near", [(9.0, 9.0, 9.0)])
    # columns m = -2..2
    values = np.array([[0.3 - 0.4j, -0.2 + 0.1j, 0.5 + 0.0j, 0.1 + 0.7j, -0.6 - 0.2j]])
    return MultiFreqDataset(sensors=sensors, grid=grid, values=values)


class TestApplyNearOperator:
    def test_zero_input(self, ball_dataset):
        out = apply_operator(ball_dataset, 0, np.zeros(11, dtype=complex))
        assert np.all(out == 0)

    def test_hand_2x2(self, toy_near_dataset):
        vm1, v0, vp1 = -0.2 + 0.1j, 0.5 + 0.0j, 0.1 + 0.7j
        g1, g2 = 1.0 + 2.0j, -1.0j
        out = apply_operator(toy_near_dataset, 0, np.array([g1, g2]))
        # dk = 1; row j collects values[j - l]
        expected = np.array([v0 * g1 + vm1 * g2, vp1 * g1 + v0 * g2])
        assert np.allclose(out, expected, rtol=1e-15, atol=0)

    def test_linearity(self, ball_dataset):
        rng = np.random.default_rng(2)
        g1, g2 = random_freq(ball_dataset.grid, rng), random_freq(ball_dataset.grid, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = apply_operator(ball_dataset, 0, a * g1 + b * g2)
        rhs = a * apply_operator(ball_dataset, 0, g1) + b * apply_operator(ball_dataset, 0, g2)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_grid_mismatch(self, ball_dataset):
        g = np.zeros(7, dtype=complex)  # the samples of a 7-frequency grid
        with pytest.raises(ValueError, match="expected 11 band samples"):
            apply_operator(ball_dataset, 0, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_sample_refused(self, ball_dataset, far_ball_dataset, bad):
        # the one validation of `apply_operator` and `quadratic_form`, near and far
        g = np.ones(11, dtype=complex)
        g[4] = bad
        for data in (ball_dataset, far_ball_dataset):
            for op in (apply_operator, quadratic_form):
                with pytest.raises(ValueError, match="must be finite"):
                    op(data, 0, g)

    def test_wrong_shape_refused(self, ball_dataset):
        for g in (np.ones(1), np.ones(12), np.ones((1, 11)), np.ones((11, 1))):
            for op in (apply_operator, quadratic_form):
                with pytest.raises(ValueError, match="expected 11 band samples"):
                    op(ball_dataset, 0, g)


@pytest.mark.parametrize("kind", ["near", "far"])
def test_batch_apply_rows_match_apply_operator(kind):
    # `check_factorization` applies N to all its trials in one call; each row has the bits
    # of `apply_operator` on that trial alone, and of the one-row einsum it replaced.  The
    # forms (N g, g) of the batch, that apply's row-wise dot with conj(g), are each
    # trial's dk vdot(g, N g) within 1e-14 of the dot's scale dk sum_j |g_j (N g)_j|
    # (relative to the form itself, a cancelling one reads up to 1.6e-14)
    s = mf.Scenario(
        support=Ball(center=(1.2, 0.4, 0.0), radius=0.5), h=0.2,
        measurement=MeasurementSet(kind, [(3.0, -0.5, 0.5) if kind == "near"
                                          else (0.6, -0.48, 0.64)]),
        frequencies=FrequencyGrid(k_max=30.0, count=40), noise_level=0.0, seed=1)
    rng = np.random.default_rng(11)
    G = (rng.standard_normal((20, 40)) + 1j * rng.standard_normal((20, 40))) / math.sqrt(2)
    J = s.frequencies.count
    for zero_mode in ("extend", "drop"):
        data = mf.generate_dataset(replace(s, zero_mode=zero_mode))
        u, dk = data.values[0], data.grid.spacing
        block = u[np.subtract.outer(np.arange(J), np.arange(J)) + J]  # u[j - l]
        rows, forms = _toeplitz_apply(u, G, dk), _toeplitz_forms(u, G, dk)
        for g, row, form in zip(G, rows, forms):
            one = apply_operator(data, 0, g)
            assert row.tobytes() == one.tobytes()
            assert row.tobytes() == (dk * np.einsum("jl,l->j", block, g)).tobytes()
            scale = dk * np.sum(np.abs(g * one))
            assert abs(form - dk * np.vdot(g, one)) <= 1e-14 * scale


class TestQuadraticForms:
    def test_zero(self, ball_dataset):
        assert quadratic_form(ball_dataset, 0, np.zeros(11, dtype=complex)) == 0

    def test_matches_inner_product(self, ball_dataset):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_freq(ball_dataset.grid, rng)
            qf = quadratic_form(ball_dataset, 0, g)
            ip = freq_inner(apply_operator(ball_dataset, 0, g), g, ball_dataset.grid.spacing)
            assert abs(qf - ip) <= 1e-14 * abs(qf)

    def test_positive_at_center_probe(self, ball_dataset):
        g = probe("near", (3.0, 0.0, 0.0), (0.0, 0.0, 0.0), ball_dataset.grid)
        assert abs(quadratic_form(ball_dataset, 0, g)) > 0

    def test_far_zero(self, far_ball_dataset):
        assert quadratic_form(far_ball_dataset, 0, np.zeros(11, dtype=complex)) == 0

    def test_homogeneity(self, ball_dataset):
        rng = np.random.default_rng(9)
        g = random_freq(ball_dataset.grid, rng)
        alpha = 2.7
        assert quadratic_form(ball_dataset, 0, alpha * g) == pytest.approx(
            alpha**2 * quadratic_form(ball_dataset, 0, g), rel=1e-12)


class TestAdjointness:
    @pytest.mark.parametrize("kind, x, seed", [("near", (3.0, 0.0, 0.0), 7),
                                               ("far", (0.0, 0.0, 1.0), 8)],
                             ids=["near", "far"])
    def test_synthesis_analysis_pair(self, unit_ball, ball_scenario, kind, x, seed):
        rule = quadrature(unit_ball, 0.2)
        grid = ball_scenario.frequencies
        fac = Factorization(kind, x, rule, grid)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            psi = random_support(rule, rng)
            phi = random_freq(grid, rng)
            lhs = freq_inner(fac.synthesis(psi), phi, grid.spacing)
            rhs = support_inner(rule.weights, psi, fac.analysis(phi))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-12

    def test_single_node_synthesis(self, ball_scenario):
        rule = QuadratureRule(nodes=np.array([[0.0, 0.0, 0.0]]),
                              weights=np.array([0.125]), amplitude=np.ones(1))
        psi = np.array([1.0 + 0j])
        grid = ball_scenario.frequencies
        out = Factorization("near", (3.0, 0.0, 0.0), rule, grid).synthesis(psi)
        assert np.allclose(out, 0.125 * np.exp(1j * grid.nodes * 3.0), rtol=1e-15)


class TestMiddleOperator:
    def test_zero(self, unit_ball):
        rule = quadrature(unit_ball, 0.25)
        h = np.zeros(len(rule), dtype=complex)
        out = Factorization("near", (3.0, 0.0, 0.0), rule, _GRID).apply_multiplier(h)
        assert np.all(out == 0)

    def test_single_node_multiplier(self):
        rule = QuadratureRule(nodes=np.array([[2.0, 0.0, 0.0]]),
                              weights=np.array([1e-3]), amplitude=np.ones(1))
        h = np.array([1.0 + 0j])
        out = Factorization("near", (0.0, 0.0, 0.0), rule, _GRID).apply_multiplier(h)
        assert out[0] == pytest.approx(1 / (8 * math.pi), rel=1e-14)

    def test_self_adjoint(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        rng = np.random.default_rng(13)
        fac = Factorization("near", (3.0, 0.0, 0.0), rule, _GRID)
        for _ in range(20):
            h1, h2 = random_support(rule, rng), random_support(rule, rng)
            lhs = support_inner(rule.weights, fac.apply_multiplier(h1), h2)
            rhs = support_inner(rule.weights, h1, fac.apply_multiplier(h2))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)

    def test_sign_definite_bounds(self, unit_ball):
        # quadratic-form ratio confined to [c_f/(4 pi r2), C_f/(4 pi r1)]
        rule = quadrature(unit_ball, 0.2)
        x = (3.0, 0.0, 0.0)
        r1, r2 = mf.phase_range("near", x, unit_ball)
        lo, hi = 1 / (4 * math.pi * r2), 1 / (4 * math.pi * r1)
        fac = Factorization("near", x, rule, _GRID)
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = random_support(rule, rng)
            val = support_inner(rule.weights, fac.apply_multiplier(h), h)
            assert abs(val.imag) <= 1e-14 * abs(val)
            ratio = abs(val) / support_norm(rule.weights, h) ** 2
            assert lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)


class TestFactorization:
    def test_near_identity(self, ball_scenario):
        assert check_factorization(ball_scenario, sensor=0, trials=20).measured <= 1e-10

    def test_far_identity(self, far_ball_scenario):
        assert check_factorization(far_ball_scenario, sensor=0, trials=20).measured <= 1e-10

    def test_single_node_two_frequencies(self):
        # one interior voxel, two frequencies: the identity is hand-checkable
        tiny = Ball(center=(0.0, 0.0, 0.0), radius=0.04)
        scenario = mf.Scenario(
            support=tiny, h=0.05,
            measurement=MeasurementSet("near", [(3.0, 0.0, 0.0)]),
            frequencies=FrequencyGrid(k_max=2.0, count=2),
            noise_level=0.0, seed=1, sampling=mf.SamplingGrid.cube(1.0, 2),
        )
        assert len(quadrature(tiny, 0.05)) == 1
        assert check_factorization(scenario, trials=5).measured <= 1e-13

    def test_noisy_scenario_rejected(self, ball_scenario):
        noisy = replace(ball_scenario, noise_level=0.05)
        with pytest.raises(ValueError, match="noiseless"):
            check_factorization(noisy)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_unconjugated_analysis_caught(self, ball_scenario, far_ball_scenario, monkeypatch,
                                          kind):
        # the certificate runs the exported factors, so an analysis that runs Horner's
        # rule in the synthesis ratio z instead of its conjugate fails it
        s = (ball_scenario if kind == "near" else
             replace(far_ball_scenario, support=Ball(center=(0.6, -0.3, 0.2), radius=0.5)))
        assert check_factorization(s).measured <= 1e-10

        def analysis(self, phi):
            out = phi[-1] * self.z
            for p in phi[-2::-1]:
                out += p
                out *= self.z
            return self.grid.spacing * out

        monkeypatch.setattr(Factorization, "analysis", analysis)
        assert check_factorization(s).measured > 1e-3

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_nan_trial_fails(self, ball_scenario, far_ball_scenario, monkeypatch, tmp_path,
                             capsys, kind):
        # the residual is the maximum over every trial's ratio, NaN included: one trial whose
        # analysis returns a NaN sample reads `measured nan`, fails, and `verify` exits 1
        s = ball_scenario if kind == "near" else far_ball_scenario
        analysis, calls = Factorization.analysis, []

        def poisoned(self, phi):
            out = analysis(self, phi)
            calls.append(len(calls))
            if calls[-1] % 20 == 7:  # the eighth of each check's 20 trials
                out[3] = np.nan
            return out

        monkeypatch.setattr(Factorization, "analysis", poisoned)
        report = check_factorization(s)
        assert math.isnan(report.measured) and not report.passed
        cfg = tmp_path / "s.cfg"
        mf.write_config(s, cfg)
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg), "--only", "factorization"]) == 1
        assert "measured: nan" in capsys.readouterr().out
        assert len(calls) == 40

    def test_zero_mode_drop_breaks_identity(self, ball_scenario):
        # without the zero-frequency column the diagonal is missing: large residual
        res_ext = check_factorization(ball_scenario, trials=10).measured
        res_drop = check_factorization(replace(ball_scenario, zero_mode="drop"),
                                       trials=10).measured
        assert res_drop > 1e3 * max(res_ext, 1e-16)
        assert 0.05 <= res_drop <= 5.0

    def test_residual_deterministic(self, ball_scenario):
        a = check_factorization(ball_scenario, trials=5).measured
        b = check_factorization(ball_scenario, trials=5).measured
        assert a == b


def offcentre_factors(kind):
    """Sensor factors of an off-centre ball on a 40-frequency band."""
    rule = quadrature(Ball(center=(0.6, -0.3, 0.2), radius=0.5), 0.1)
    x = (3.0, -0.5, 0.5) if kind == "near" else (0.6, -0.48, 0.64)
    return Factorization(kind, x, rule, FrequencyGrid(k_max=30.0, count=40))


class TestArrayFactors:
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_bits_of_the_promoting_expressions(self, kind):
        # conj(z) and the complex copies of the multiplier and weights, taken once, give
        # each factor the bytes of the expression that conjugates and promotes per call
        fac = offcentre_factors(kind)
        rng = np.random.default_rng(43)
        phi, h = random_freq(fac.grid, rng), random_support(fac.rule, rng)
        zc, dk = np.conj(fac.z), fac.grid.spacing
        assert fac.analysis(phi).tobytes() == (dk * (_horner(phi, zc) * zc)).tobytes()
        assert fac.apply_multiplier(h).tobytes() == (h * fac.multiplier).tobytes()
        expected = _power_sums(fac.z, fac.rule.weights * h, fac.grid.count)[1:]
        assert fac.synthesis(h).tobytes() == expected.tobytes()

    def test_wrong_length_refused(self):
        # length 1 included: one sample would broadcast over every node or frequency
        fac = offcentre_factors("near")
        J, Q = fac.grid.count, len(fac.rule)
        for n in (1, J - 1, J + 1):
            with pytest.raises(ValueError, match=f"expected {J} band samples, got {n}$"):
                fac.analysis(np.zeros(n, dtype=complex))
        for apply in (fac.synthesis, fac.apply_multiplier):
            for n in (1, Q - 1, Q + 1):
                with pytest.raises(ValueError, match=f"expected {Q} support samples, got {n}$"):
                    apply(np.zeros(n, dtype=complex))


@pytest.mark.parametrize("kind", ["near", "far"])
def test_one_sensor_rows_match_full_dataset(kind):
    # the certificates regenerate one sensor's row instead of all L
    s = mf.Scenario(
        support=Ball(center=(1.2, 0.4, 0.0), radius=0.5), h=0.2,
        measurement=(MeasurementSet("near", [(3.0, 0.0, 0.0), (0.0, -3.0, 0.5),
                                             (-2.0, 1.0, 2.0)]) if kind == "near"
                     else MeasurementSet("far", [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8),
                                                 (-1.0, 0.0, 0.0), (0.0, -0.6, -0.8)])),
        frequencies=FrequencyGrid(k_max=11.0, count=11), noise_level=0.0, seed=1)
    full = mf.generate_dataset(s)
    for sensor in range(len(s.measurement)):
        assert np.array_equal(_sensor_problem(s, sensor).row, full.values[sensor])


class TestSandwich:
    def test_near_sandwich_random(self, ball_scenario, ball_dataset, unit_ball):
        rule = quadrature(unit_ball, ball_scenario.h)
        x = (3.0, 0.0, 0.0)
        lo, hi = 1 / (16 * math.pi), 1 / (8 * math.pi)
        fac = Factorization("near", x, rule, ball_dataset.grid)
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_freq(ball_dataset.grid, rng)
            denom = support_norm(rule.weights, fac.analysis(g)) ** 2
            ratio = abs(quadratic_form(ball_dataset, 0, g)) / denom
            assert lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)

    def test_far_sandwich_unit_amplitude(self, far_ball_scenario, far_ball_dataset, unit_ball):
        # with f = 1 the far ratio collapses to exactly 1
        rule = quadrature(unit_ball, far_ball_scenario.h)
        fac = Factorization("far", far_ball_scenario.measurement.array[0], rule,
                            far_ball_dataset.grid)
        rng = np.random.default_rng(29)
        for _ in range(50):
            phi = random_freq(far_ball_dataset.grid, rng)
            denom = support_norm(rule.weights, fac.analysis(phi)) ** 2
            ratio = abs(quadratic_form(far_ball_dataset, 0, phi)) / denom
            assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_far_sandwich_scaled_amplitude(self, far_ball_scenario):
        scaled = replace(far_ball_scenario,
                         support=Ball(center=(0.0, 0.0, 0.0), radius=1.0, amplitude=2.0))
        data = mf.generate_dataset(scaled)
        rule = quadrature(scaled.support, scaled.h)
        fac = Factorization("far", scaled.measurement.array[0], rule, data.grid)
        rng = np.random.default_rng(31)
        phi = random_freq(data.grid, rng)
        denom = support_norm(rule.weights, fac.analysis(phi)) ** 2
        ratio = abs(quadratic_form(data, 0, phi)) / denom
        assert ratio == pytest.approx(2.0, rel=1e-10)
