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
    QuadratureRule,
    add_noise,
    check_coercivity,
    check_factorization,
    check_psf,
    check_symmetries,
    generate_dataset,
    quadratic_form,
    quadrature,
    symmetry_violation,
)
from mfsampling.cli import main
from mfsampling.forward import _horner, _power_sums
from mfsampling.verify import _sensor_problem
from conftest import freq_inner, random_freq, support_inner, support_norm


def offcentre_scenario(kind):
    """An asymmetric peanut off the origin seen by three near sensors, or a ball off the
    origin seen by two far direction pairs: a reflection or a dropped conjugate shows."""
    if kind == "near":
        support = mf.Peanut(centers=((0.9, 0.4, -0.5), (1.7, -0.1, 0.2)), radius=0.6,
                            amplitude=2.5)
        measurement = MeasurementSet("near", [(4.5, -2.5, 1.5), (-3.0, 3.5, -2.0),
                                              (0.5, 1.0, 4.0)])
    else:
        support = Ball(center=(0.6, -0.3, 0.2), radius=0.5)
        measurement = MeasurementSet("far", [(0.6, -0.48, 0.64), (0.0, 1.0, 0.0),
                                             (-0.6, 0.48, -0.64), (0.0, -1.0, 0.0)])
    return mf.Scenario(support=support, h=0.1, measurement=measurement,
                       frequencies=FrequencyGrid(k_max=30.0, count=40), noise_level=0.0, seed=1)


def coercivity_denominators(scenario, trials):
    """The (trials, J) test functions G that check_coercivity draws for sensor 0, and
    the ||P* g||^2 it divides each row by: the forms over the Gram row P P*, the
    band convolution of sum_q w_q z_q^m, through `_toeplitz_forms`."""
    _, rule, fac = mf.verify._sensor_problem(scenario)
    gram = mf.forward._laurent_rows(fac.z, rule.weights, scenario.frequencies.count, "extend")
    G = mf.verify._draws(scenario, 0, mf.verify._COERCIVITY_SALT, trials)
    return G, mf.forward._toeplitz_forms(gram, G, scenario.frequencies.spacing).real


def analysis_norms(scenario, gs):
    """||P* g||^2 through the exported analysis factor of sensor 0."""
    rule = mf.quadrature(scenario.support, scenario.h)
    fac = mf.Factorization(scenario.kind, scenario.measurement.points[0], rule,
                           scenario.frequencies)
    return np.array([support_norm(rule.weights, fac.analysis(g)) ** 2 for g in gs])


_GRID = FrequencyGrid(k_max=11.0, count=11)


def random_support(rule, rng):
    n = len(rule)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)


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


class TestCheckFactorization:
    def test_passes_on_clean_scenario(self, ball_scenario):
        report = check_factorization(ball_scenario, trials=20)
        assert report.passed
        assert report.measured <= 1e-10
        assert report.check == "factorization"

    def test_negative_control_at_machine_floor(self, ball_scenario):
        report = check_factorization(ball_scenario, trials=10, tol=1e-16)
        assert not report.passed

    def test_noisy_scenario_errors(self, ball_scenario):
        with pytest.raises(ValueError, match="noiseless"):
            check_factorization(replace(ball_scenario, noise_level=0.05))

    def test_far_scenario(self, far_ball_scenario):
        report = check_factorization(far_ball_scenario, trials=20)
        assert report.passed
        assert report.measured <= 1e-10

    def test_no_trial_refused(self, ball_scenario, monkeypatch):
        # a maximum over no trial would read 0.0 and pass: the check refuses before it
        # builds the sensor's problem
        monkeypatch.setattr(mf.verify, "_sensor_problem", None)
        for trials in (0, -1):
            with pytest.raises(ValueError, match=f"at least one trial, got {trials}"):
                check_factorization(ball_scenario, trials=trials)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_overflowing_norm_fails(self, ball_scenario, far_ball_scenario, kind):
        # at amplitude 1e160, ||N g|| overflows to inf, and residual / inf would read 0:
        # a trial with no finite ratio fails the check with inf, and warns of nothing
        s = ball_scenario if kind == "near" else far_ball_scenario
        report = check_factorization(replace(s, support=replace(s.support, amplitude=1e160)),
                                     trials=5)
        assert not report.passed
        assert report.measured == math.inf


class TestFactorization:
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


class TestCheckCoercivity:
    def test_unit_ball_interval(self, ball_scenario):
        report = check_coercivity(ball_scenario, trials=100)
        assert report.passed
        assert report.details["lower_bound"] == pytest.approx(1 / (16 * math.pi), rel=1e-15)
        assert report.details["upper_bound"] == pytest.approx(1 / (8 * math.pi), rel=1e-15)
        assert report.details["ratio_min"] >= report.details["lower_bound"] * (1 - 1e-10)
        assert report.details["ratio_max"] <= report.details["upper_bound"] * (1 + 1e-10)

    def test_negative_amplitude_same_interval(self, ball_scenario):
        flipped = replace(ball_scenario,
                          support=Ball(center=(0.0, 0.0, 0.0), radius=1.0, amplitude=-1.0))
        report = check_coercivity(flipped, trials=50)
        assert report.passed
        assert report.details["lower_bound"] == pytest.approx(1 / (16 * math.pi), rel=1e-15)
        assert report.details["upper_bound"] == pytest.approx(1 / (8 * math.pi), rel=1e-15)

    def test_amplitude_scaling(self, ball_scenario):
        doubled = replace(ball_scenario,
                          support=Ball(center=(0.0, 0.0, 0.0), radius=1.0, amplitude=2.0))
        report = check_coercivity(doubled, trials=50)
        assert report.passed
        assert report.details["lower_bound"] == pytest.approx(2 / (16 * math.pi), rel=1e-15)
        assert report.details["upper_bound"] == pytest.approx(2 / (8 * math.pi), rel=1e-15)

    def test_noisy_scenario_errors(self, ball_scenario):
        with pytest.raises(ValueError, match="noiseless"):
            check_coercivity(replace(ball_scenario, noise_level=0.01))

    def test_no_trial_refused(self, ball_scenario, monkeypatch):
        # as for the factorization check: no evidence, no certificate, and no work done
        monkeypatch.setattr(mf.verify, "_sensor_problem", None)
        for trials in (0, -1):
            with pytest.raises(ValueError, match=f"at least one trial, got {trials}"):
                check_coercivity(ball_scenario, trials=trials)

    def test_kernel_calls_independent_of_trials(self, ball_scenario, monkeypatch):
        # the factors' ratio z comes from `_band` once per check, not once per trial
        band, calls = mf.forward._band, []

        def counted(*args):
            calls.append(args)
            return band(*args)

        monkeypatch.setattr(mf.forward, "_band", counted)
        monkeypatch.setattr(mf.verify, "_band", counted)
        counts = []
        for trials in (5, 100):
            calls.clear()
            check_coercivity(ball_scenario, trials=trials)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("zero_mode", ["extend", "drop"])
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_gram_form_is_analysis_norm(self, kind, zero_mode):
        # the O(J^2) denominator (P P* g, g) is ||P* g||^2 of the exported factor; with
        # zero_mode = drop its zero column is still sum w_q, not the data's 0
        s = replace(offcentre_scenario(kind), zero_mode=zero_mode)
        G, gram = coercivity_denominators(s, trials=50)
        assert len(G) == 50
        exact = analysis_norms(s, G)
        assert np.all(np.abs(gram - exact) <= 1e-13 * exact)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_no_analysis_per_trial(self, monkeypatch, kind):
        def refused(self, phi):
            raise AssertionError("check_coercivity applied the O(J Q) analysis factor")

        monkeypatch.setattr(mf.Factorization, "analysis", refused)
        assert check_coercivity(offcentre_scenario(kind)).passed

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_wrong_multiplier_fails(self, monkeypatch, kind):
        # data of the multiplier 3 T, against the bounds of the true support: every
        # ratio is 3 times the true one and leaves the interval
        s = offcentre_scenario(kind)
        assert check_coercivity(s).passed
        problem = mf.verify._sensor_problem

        def tripled(*args, **kwargs):
            p = problem(*args, **kwargs)
            return p._replace(row=3 * p.row)

        monkeypatch.setattr(mf.verify, "_sensor_problem", tripled)
        report = check_coercivity(s)
        assert not report.passed
        assert report.details["ratio_min"] > report.details["upper_bound"]

    def test_deterministic(self, ball_scenario):
        a = check_coercivity(ball_scenario, trials=20)
        b = check_coercivity(ball_scenario, trials=20)
        assert a.measured == b.measured
        assert a.details == b.details


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


class TestCheckPsf:
    def test_passes(self):
        report = check_psf(FrequencyGrid(k_max=11.0, count=11))
        assert report.passed
        assert report.details["peak_error"] == 0.0
        assert report.details["envelope_violation"] <= 1e-12
        assert report.details["first_zero_error"] <= 1e-12

    def test_first_zero_location(self):
        report = check_psf(FrequencyGrid(k_max=11.0, count=11))
        assert report.details["first_zero_location"] == pytest.approx(2 * math.pi / 11,
                                                                      abs=1e-12)

    def test_zero_scales_inversely_with_band(self):
        # the samples are in units of 1 / k_max, so the check passes at every band
        locs = {}
        for k_max in (1e-6, 1e-5, 3.0, 5.0, 10.0, 24.0, 2000.0, 1e4, 1e8):
            report = check_psf(FrequencyGrid(k_max=k_max, count=11))
            assert report.passed, (k_max, report.details)
            locs[k_max] = report.details["first_zero_location"]
        assert locs[3.0] > locs[5.0] > locs[10.0]
        for k_max, loc in locs.items():
            assert loc * k_max == pytest.approx(2 * math.pi, rel=1e-12)

    def test_shifted_profile_misses_first_zero(self, monkeypatch):
        # a profile evaluated at t (1 + 1e-9) has its first zero 1e-9 * 2 pi / k_max early
        closed = mf.verify.psf_closed_form
        monkeypatch.setattr(mf.verify, "psf_closed_form",
                            lambda t, k_max: closed(np.asarray(t) * (1 + 1e-9), k_max))
        report = check_psf(FrequencyGrid(k_max=11.0, count=11))
        assert report.details["first_zero_error"] > 1e-12
        assert not report.passed


    @pytest.mark.parametrize("k_max", [1e-6, 11.0, 1e8])
    def test_envelope_breach_caught_at_every_band(self, monkeypatch, k_max):
        # a profile 1.5 times too large where k_max |t| > 4, past the envelope's corner at
        # k_max |t| = 2: samples in units of 1 / k_max reach that region at every band
        closed = mf.verify.psf_closed_form
        monkeypatch.setattr(mf.verify, "psf_closed_form", lambda t, k: closed(t, k) * np.where(
            k * np.abs(t) > 4, 1.5, 1.0))
        report = check_psf(FrequencyGrid(k_max=k_max, count=11))
        assert report.details["envelope_violation"] > 0.4
        assert not report.passed

    @pytest.mark.parametrize("offset", [0.0, 0.5], ids=["left_endpoint", "midpoint"])
    def test_other_node_conventions_fail(self, monkeypatch, offset):
        # nodes (j - 1 + offset)*dk leave an O(dk) remainder after the
        # right-endpoint rule's endpoint term
        monkeypatch.setattr(FrequencyGrid, "nodes", property(
            lambda self: (np.arange(self.count) + offset) * self.spacing))
        report = check_psf(FrequencyGrid(k_max=11.0, count=11))
        assert not report.passed
        assert report.details["convergence_remainder_ratio"] > 1.1


class TestCheckSymmetries:
    def test_clean_near_passes(self, ball_scenario):
        report = check_symmetries(ball_scenario)
        assert report.passed
        assert report.tolerance == 1.0
        assert 0.0 < report.measured <= 1.0

    def test_clean_far_passes(self, far_ball_scenario):
        report = check_symmetries(far_ball_scenario)
        assert report.passed

    def test_noisy_scenario_errors(self, ball_scenario):
        with pytest.raises(ValueError, match="noiseless"):
            check_symmetries(replace(ball_scenario, noise_level=0.05))

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_wrong_mirror_fails(self, monkeypatch, kind):
        # a mirror that copies the positive columns drops the conjugate; the data-side test
        # reads the same mirror and cannot see it
        s = offcentre_scenario(kind)
        reports, ok = mf.verify.run(s, only="symmetries")
        assert ok

        def copy(positive):
            return positive

        monkeypatch.setattr(mf.forward, "mirror", copy)
        monkeypatch.setattr(mf.verify, "mirror", copy)
        assert symmetry_violation(generate_dataset(s)) == 0.0
        reports, ok = mf.verify.run(s, only="symmetries")
        assert not ok
        assert reports[0].measured > 1e6

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_checks_generate_one_sensor(self, monkeypatch, kind):
        # every certificate writes sensor 0's rows alone (its data and its Gram row),
        # never all L rows
        laurent_rows, sizes = mf.forward._laurent_rows, []

        def counted(*args):
            rows = laurent_rows(*args)
            sizes.append(rows.size // rows.shape[-1])
            return rows

        for module in (mf.forward, mf.verify, mf.cli):
            if hasattr(module, "_laurent_rows"):
                monkeypatch.setattr(module, "_laurent_rows", counted)
        s = offcentre_scenario(kind)
        assert len(s.measurement) >= 3
        _, ok = mf.verify.run(s)
        assert ok
        assert sizes == [1, 1]

    def test_nan_sample_fails(self):
        data = mf.generate_dataset(replace(mf.PRESETS["ball_pt3"], noise_level=0.0, h=0.2))
        data.values[1, 3] = np.nan
        assert symmetry_violation(data) == math.inf

    def test_noisy_fails_at_noise_scale(self, ball_dataset):
        assert 0.005 <= symmetry_violation(add_noise(ball_dataset, 0.05, 1)) <= 0.5


class TestTrialStreams:
    @pytest.mark.parametrize("salt", [mf.verify._FACTORIZATION_SALT,
                                      mf.verify._COERCIVITY_SALT])
    def test_batch_is_sequential_stream(self, salt):
        # one (count, 2, J) draw is the stream of (N(J) + i N(J)) / sqrt 2 draws taken
        # one test function at a time
        s = offcentre_scenario("near")
        J = s.frequencies.count
        rng = np.random.default_rng([s.seed, 2, salt])
        sequential = [(rng.standard_normal(J) + 1j * rng.standard_normal(J)) / math.sqrt(2)
                      for _ in range(7)]
        assert np.array_equal(mf.verify._draws(s, 2, salt, 7), np.array(sequential))

    def test_degenerate_first_draw_fails(self, monkeypatch):
        # a first test function g = 0 has neither ratio, ||(N - PTP*)g|| / ||N g|| nor
        # |(N g, g)| / ||P* g||^2: each check draws exactly `trials` functions in one
        # batch, redraws none, and fails with measured inf (a RuntimeWarning would fail
        # this test)
        s = offcentre_scenario("near")
        draws, counts = mf.verify._draws, []

        def zero_first(scenario, sensor, salt, count):
            G = draws(scenario, sensor, salt, count)
            G[0] = 0.0
            counts.append(count)
            return G

        monkeypatch.setattr(mf.verify, "_draws", zero_first)
        report = check_coercivity(s, trials=20)
        assert counts == [20]
        assert not report.passed
        assert report.measured == math.inf
        assert math.isnan(report.details["ratio_min"])
        report = check_factorization(s, trials=5)
        assert counts == [20, 5]
        assert not report.passed
        assert report.measured == math.inf


def scaled_peanut(kind, s):
    """An off-centre asymmetric peanut seen by three near sensors or two far direction
    pairs, with every length times s and k_max over s: the same problem in another
    unit of length."""
    support = mf.Peanut(centers=((0.9 * s, 0.4 * s, -0.5 * s), (1.7 * s, -0.1 * s, 0.2 * s)),
                        radius=0.6 * s, amplitude=2.5)
    if kind == "near":
        points = [(4.5 * s, -2.5 * s, 1.5 * s), (-3.0 * s, 3.5 * s, -2.0 * s),
                  (0.5 * s, 1.0 * s, 4.0 * s)]
    else:
        points = [(0.6, -0.48, 0.64), (0.0, 1.0, 0.0), (-0.6, 0.48, -0.64), (0.0, -1.0, 0.0)]
    return mf.Scenario(support=support, h=0.12 * s, measurement=MeasurementSet(kind, points),
                       frequencies=FrequencyGrid(k_max=30.0 / s, count=40), noise_level=0.0,
                       seed=1)


class TestLengthUnit:
    @pytest.mark.parametrize("s", [1e-3, 1.0, 11 / 2000])
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_certificates_scale_free(self, kind, s):
        # no certificate may read an absolute length: each passes in every unit
        reports, ok = mf.verify.run(scaled_peanut(kind, s))
        assert [r.check for r in reports] == ["factorization", "coercivity", "psf",
                                              "symmetries"]
        assert ok, [(r.check, r.measured) for r in reports if not r.passed]

    def test_tiny_ball_returns_and_passes(self):
        # every ||P* g||^2 of a ball of radius 1e-11 lies far below 1e-30, and no draw
        # is degenerate
        s = mf.Scenario(support=Ball(center=(0.0, 0.0, 0.0), radius=1e-11), h=2e-12,
                        measurement=MeasurementSet("near", [(3.0, 0.0, 0.0)]),
                        frequencies=FrequencyGrid(k_max=11.0, count=11), noise_level=0.0)
        G, norms = coercivity_denominators(s, trials=100)
        assert len(G) == 100 and np.all((0 < norms) & (norms < 1e-30))
        reports, ok = mf.verify.run(s)
        assert ok, [(r.check, r.measured) for r in reports if not r.passed]


class TestRunVerify:
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_sensor_problem_built_once(self, monkeypatch, kind):
        # one run takes sensor 0's ratio z from `_band` once, for its factors, whose z
        # the data row is written from, and builds its rule once, shared by data,
        # factors and checks, sampling f once in it; the psf check alone does none
        counts = {"_band": 0, "quadrature": 0, "amplitude_at": 0}
        sample = mf.geometry.SourceSupport.amplitude_at
        for name, original in (("_band", mf.forward._band),
                               ("quadrature", mf.geometry.quadrature)):
            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in (mf.geometry, mf.forward, mf.imaging, mf.verify, mf.cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

        def counted_sample(support, points):
            counts["amplitude_at"] += 1
            return sample(support, points)

        monkeypatch.setattr(mf.geometry.SourceSupport, "amplitude_at", counted_sample)
        s = offcentre_scenario(kind)
        reports, ok = mf.verify.run(s)
        assert ok and len(reports) == 4
        assert counts == {"_band": 1, "quadrature": 1, "amplitude_at": 1}
        counts.update(_band=0, quadrature=0, amplitude_at=0)
        reports, ok = mf.verify.run(s, only="psf")
        assert ok and len(reports) == 1
        assert counts == {"_band": 0, "quadrature": 0, "amplitude_at": 0}

    def test_reports_in_check_order(self, ball_scenario):
        reports, ok = mf.verify.run(ball_scenario)
        assert ok
        assert tuple(r.check for r in reports) == mf.verify.CHECKS

    @pytest.mark.parametrize("name", mf.verify.CHECKS)
    def test_only_runs_the_named_check(self, ball_scenario, name):
        reports, ok = mf.verify.run(ball_scenario, only=name)
        assert ok
        assert [r.check for r in reports] == [name]

    def test_replaced_check_is_called(self, monkeypatch, ball_scenario):
        # `run` looks each check up when it runs it, so a replacement is what it calls;
        # the symmetry check gets sensor 0's problem with its factors released
        check, problems = mf.verify.check_symmetries, []

        def failing(scenario, problem=None):
            problems.append(problem)
            return replace(check(scenario, problem=problem), passed=False)

        monkeypatch.setattr(mf.verify, "check_symmetries", failing)
        reports, ok = mf.verify.run(ball_scenario)
        assert not ok and not reports[-1].passed
        assert len(problems) == 1 and problems[0].fac is None

    def test_shared_problem_same_reports(self):
        # the checks report the same numbers whether they share the run's problem or
        # each builds its own
        s = offcentre_scenario("far")
        shared, _ = mf.verify.run(s)
        alone = [check_factorization(s), check_coercivity(s),
                 check_psf(s.frequencies), check_symmetries(s)]
        for a, b in zip(shared, alone):
            assert (a.check, a.measured, a.details) == (b.check, b.measured, b.details)


class TestVerificationReport:
    def test_text_format(self, ball_scenario):
        text = check_symmetries(ball_scenario).to_text()
        lines = text.splitlines()
        assert lines[0] == "check: symmetries"
        assert any(line.startswith("measured: ") for line in lines)
        assert any(line.startswith("pass: ") for line in lines)
        assert any(line.startswith("runtime_s: ") for line in lines)
