import math

import numpy as np
import pytest
from dataclasses import replace

from mfsampling import (
    Ball,
    FrequencyGrid,
    VerificationReport,
    add_noise,
    check_coercivity,
    check_factorization,
    check_psf,
    check_symmetries,
)


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
        report = check_factorization(far_ball_scenario, trials=10)
        assert report.passed


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

    def test_deterministic(self, ball_scenario):
        a = check_coercivity(ball_scenario, trials=20)
        b = check_coercivity(ball_scenario, trials=20)
        assert a.measured == b.measured
        assert a.details == b.details


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
        locs = {}
        for k_max in (3.0, 5.0, 10.0):
            report = check_psf(FrequencyGrid(k_max=k_max, count=11))
            locs[k_max] = report.details["first_zero_location"]
        assert locs[3.0] > locs[5.0] > locs[10.0]
        for k_max, loc in locs.items():
            assert loc * k_max == pytest.approx(2 * math.pi, rel=1e-12)


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
    def test_clean_near_passes(self, ball_dataset):
        report = check_symmetries(ball_dataset)
        assert report.passed
        assert report.measured <= 1e-14

    def test_clean_far_passes(self, far_ball_dataset):
        report = check_symmetries(far_ball_dataset)
        assert report.passed

    def test_noisy_fails_at_noise_scale(self, ball_dataset):
        noisy = add_noise(ball_dataset, 0.05, 1)
        report = check_symmetries(noisy)
        assert not report.passed
        assert 0.005 <= report.measured <= 0.5


class TestVerificationReport:
    def test_serialization_round_trip(self, ball_scenario):
        report = check_coercivity(ball_scenario, trials=10)
        back = VerificationReport.from_text(report.to_text())
        assert back == report

    def test_text_format(self, ball_dataset):
        text = check_symmetries(ball_dataset).to_text()
        lines = text.splitlines()
        assert lines[0] == "check: symmetries"
        assert any(line.startswith("measured: ") for line in lines)
        assert any(line.startswith("pass: ") for line in lines)
        assert any(line.startswith("runtime_s: ") for line in lines)
