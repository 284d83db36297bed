import math

import numpy as np
import pytest
from dataclasses import replace
from scipy import integrate

import mfsampling as mf
from conftest import band_error_bound
from mfsampling import (
    Ball,
    DatasetFormatError,
    FrequencyGrid,
    GeometryError,
    MeasurementSet,
    add_noise,
    fundamental_solution,
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


class TestFundamentalSolution:
    def test_zero_frequency(self):
        val = fundamental_solution(0.0, (2, 0, 0), (0, 0, 0))
        assert val == pytest.approx(1 / (8 * math.pi), rel=1e-15)
        assert val.imag == 0.0

    def test_half_period_phase(self):
        val = fundamental_solution(math.pi, (1, 0, 0), (0, 0, 0))
        assert val.real == pytest.approx(-1 / (4 * math.pi), rel=1e-14)
        assert abs(val.imag) < 1e-16

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.uniform(-10, 10)
            x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            assert fundamental_solution(-k, x, y) == np.conj(fundamental_solution(k, x, y))

    def test_singular(self):
        with pytest.raises(ValueError, match="singular"):
            fundamental_solution(1.0, (1, 2, 3), (1, 2, 3))


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
        point = vol * fundamental_solution(2.0, (3, 0, 0), (0, 0, 0))
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

    def test_non_unit_direction_errors(self, unit_ball):
        rule = quadrature(unit_ball, 0.2)
        with pytest.raises(ValueError, match="unit"):
            radiated_field("far", unit_ball, rule, (1, 1, 0), 1.0)


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
    def test_far_closure(self):
        ms = MeasurementSet.far_directions([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
        assert len(ms) == 4
        neg = ms.negation_index()
        arr = ms.array
        for i, j in enumerate(neg):
            assert np.allclose(arr[i], -arr[j])

    def test_far_existing_pair_not_duplicated(self):
        ms = MeasurementSet.far_directions([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
        assert len(ms) == 2

    def test_far_unit_norm_required(self):
        with pytest.raises(ValueError, match="unit"):
            MeasurementSet(kind="far", points=((1.0, 1.0, 0.0), (-1.0, -1.0, 0.0)))

    def test_far_closure_required_on_direct_construction(self):
        with pytest.raises(ValueError, match="negation"):
            MeasurementSet(kind="far", points=((1.0, 0.0, 0.0),))

    @pytest.mark.parametrize("kind, points", [
        ("near", ((4.0, 0.5, -1.0), (math.nan, 0.0, 0.0))),
        ("near", ((math.inf, 0.0, 0.0),)),
        ("far", ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (math.nan, 0.0, 0.0))),
    ])
    def test_non_finite_point_rejected(self, kind, points):
        with pytest.raises(ValueError, match="measurement points must be finite"):
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
        neg = far_ball_dataset.sensors.negation_index()
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
        measurement = MeasurementSet.near_points([(4.5, -2.5, 1.5), (-3.0, 3.5, -2.0)])
    else:
        measurement = MeasurementSet.far_directions([(0.6, -0.48, 0.64)])
    return mf.Scenario(support=support, h=0.1, measurement=measurement,
                       frequencies=FrequencyGrid(k_max=30.0, count=40), noise_level=0.0, seed=1,
                       sampling=mf.SamplingGrid.cube(3.0, 8))


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
            bound = band_error_bound(kind, x, s.support, rule, dk, J)
            assert np.all(np.abs(data.values[ell, J:] - exact) <= bound)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_factor_kernel_is_data_band(self, kind):
        # the data's columns m = 1..J are P(T 1): the factorization's kernel rows summed
        # against the weights times its multiplier, bit for bit
        s = offcentre_scenario(kind)
        data = generate_dataset(s)
        rule = quadrature(s.support, s.h)
        J = data.grid.count
        for ell, x in enumerate(s.measurement.array):
            fac = mf.Factorization(kind, x, s.support, rule, data.grid)
            assert fac.kernel.shape == (J, len(rule))
            cols = np.sum(fac.kernel * (rule.weights * fac.multiplier), axis=-1)
            assert cols.tobytes() == data.values[ell, J + 1:].tobytes()

    def test_data_and_factors_skip_exact_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact per-wavenumber kernel called")

        monkeypatch.setattr(mf.forward, "_kernel", refuse)
        monkeypatch.setattr(mf.forward, "radiated_field", refuse)
        for kind in ("near", "far"):
            s = offcentre_scenario(kind)
            generate_dataset(s)
            mf.Factorization(kind, s.measurement.points[0], s.support,
                             quadrature(s.support, s.h), s.frequencies)


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
