import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf
from mfsampling import (
    Ball,
    ConfigError,
    PRESETS,
    polar_sensor,
    read_dataset,
    scenario_hash,
    write_config,
)
from mfsampling.cli import main, run_image, run_simulate, run_verify
from mfsampling.scenario import parse_config_text, write_config_text


class TestPresets:
    def test_all_presets_present(self):
        expected = {"ball_pt1", "ball_pt3", "ball_pt14", "cube_pt14", "cylinder_pt14",
                    "peanut_pt14", "lshape_pt14", "two_balls_pt14"}
        assert expected == set(PRESETS)

    def test_ball_pt1(self):
        s = PRESETS["ball_pt1"]
        assert s.measurement.points == ((3.0, 0.0, 0.0),)
        assert s.frequencies.nodes.tolist() == list(range(1, 12))
        assert s.noise_level == 0.05
        assert s.iso_values == (0.7,)

    def test_ball_pt3_sensor_table(self):
        s = PRESETS["ball_pt3"]
        assert len(s.measurement) == 3
        expected = [polar_sensor(phi, 45.0, 3.0) for phi in (-180.0, -90.0, 0.0)]
        assert np.allclose(s.measurement.array, np.array(expected))

    def test_ball_pt14_sensors_on_sphere(self):
        s = PRESETS["ball_pt14"]
        arr = s.measurement.array
        assert arr.shape == (14, 3)
        assert np.allclose(np.linalg.norm(arr, axis=1), 3.0, rtol=1e-12)
        # all 14 points distinct
        assert len({tuple(np.round(p, 9)) for p in arr}) == 14

    def test_sensors_outside_supports(self):
        for name, s in PRESETS.items():
            for p in s.measurement.points:
                r1, _ = s.support.signed_distance_bounds(p)
                assert r1 > 0, name


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_parse_write_identity(self, name):
        s = PRESETS[name]
        assert parse_config_text(write_config_text(s)) == s

    def test_hash_stable(self):
        s = PRESETS["ball_pt1"]
        assert scenario_hash(s) == scenario_hash(replace(s))
        assert scenario_hash(s) != scenario_hash(replace(s, seed=2))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        write_config(PRESETS["two_balls_pt14"], path)
        assert mf.parse_config(path) == PRESETS["two_balls_pt14"]


class TestParseConfig:
    def test_minimal_near(self):
        s = parse_config_text("shape = ball\nradius = 1.0\nsensors = 3 0 0\n")
        assert s.kind == "near"
        assert isinstance(s.support, Ball)
        assert s.frequencies.count == 11
        assert s.sampling.resolution == (48, 48, 48)

    def test_polar_sensors(self):
        s = parse_config_text(
            "shape = ball\nradius = 1.0\nsensors_polar = 0 90 3 ; 90 90 3\n")
        assert np.allclose(s.measurement.array[0], polar_sensor(0, 90, 3))

    def test_far_kind(self):
        s = parse_config_text(
            "kind = far\nshape = ball\nradius = 1.0\ndirections = 1 0 0\n")
        assert s.kind == "far"
        assert len(s.measurement) == 2  # closed under negation

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="key 'wavelength'"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\nwavelength = 2\n")

    def test_malformed_value_named(self):
        with pytest.raises(ConfigError, match="key 'radius'"):
            parse_config_text("shape = ball\nradius = huge\nsensors = 3 0 0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicated"):
            parse_config_text("shape = ball\nshape = cube\nradius = 1\nsensors = 3 0 0\n")

    def test_missing_shape(self):
        with pytest.raises(ConfigError, match="key 'shape'"):
            parse_config_text("sensors = 3 0 0\n")

    def test_missing_shape_parameter(self):
        with pytest.raises(ConfigError, match="key 'radius'"):
            parse_config_text("shape = ball\nsensors = 3 0 0\n")

    def test_sensor_inside_support_named(self):
        with pytest.raises(ConfigError, match="sensor 1"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0 ; 0.2 0 0\n")

    def test_nonunit_direction(self):
        with pytest.raises(ConfigError, match="key 'directions'"):
            parse_config_text("kind = far\nshape = ball\nradius = 1\ndirections = 2 0 0\n")

    def test_directions_on_near_kind(self):
        with pytest.raises(ConfigError, match="key 'directions'"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\ndirections = 1 0 0\n")

    def test_bad_noise(self):
        with pytest.raises(ConfigError, match="key 'noise'"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\nnoise = -0.5\n")

    def test_bad_iso(self):
        with pytest.raises(ConfigError, match="key 'iso'"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\niso = 1.5\n")

    def test_comments_ignored(self):
        s = parse_config_text("# experiment\nshape = ball  # unit\nradius = 1\nsensors = 3 0 0\n")
        assert isinstance(s.support, Ball)

    def test_two_balls_amplitudes(self):
        s = parse_config_text(
            "shape = two_balls\ncenters = -1 0 0 ; 1 0 0\nradius = 0.5\n"
            "amplitude = 2 3\nsensors = 3 0 0\n")
        amps = [p.amplitude for p in s.support.components()]
        assert amps == [2.0, 3.0]


@pytest.fixture(scope="module")
def fast_scenario():
    """Small, quick variant of the single-sensor ball preset."""
    return replace(PRESETS["ball_pt1"], h=0.2, sampling=mf.SamplingGrid.cube(3.0, 12))


class TestRunSimulate:
    def test_writes_dataset(self, fast_scenario, tmp_path, capsys):
        out = tmp_path / "ball.mfd"
        run_simulate(fast_scenario, out)
        data, meta = read_dataset(out)
        assert data.values.shape == (1, 23)
        assert data.noise_level == 0.05
        assert meta["scenario_hash"] == scenario_hash(fast_scenario)
        assert "L=1" in capsys.readouterr().out.replace("sensors", "L")  # summary printed

    def test_noiseless_runs_byte_identical(self, fast_scenario, tmp_path):
        s = replace(fast_scenario, noise_level=0.0)
        p1, p2 = tmp_path / "a.mfd", tmp_path / "b.mfd"
        run_simulate(s, p1)
        run_simulate(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seeds_recorded_and_payload_differs(self, fast_scenario, tmp_path):
        p1, p2 = tmp_path / "s1.mfd", tmp_path / "s2.mfd"
        run_simulate(replace(fast_scenario, seed=1), p1)
        run_simulate(replace(fast_scenario, seed=2), p2)
        d1, m1 = read_dataset(p1)
        d2, m2 = read_dataset(p2)
        assert (int(m1["seed"]), int(m2["seed"])) == (1, 2)
        assert not np.array_equal(d1.values, d2.values)


class TestRunImage:
    def test_outputs(self, fast_scenario, tmp_path):
        data_path = tmp_path / "ball.mfd"
        run_simulate(fast_scenario, data_path)
        outputs = run_image(data_path, fast_scenario, str(tmp_path / "recon"))
        field, meta = mf.imaging.read_field(outputs["field"])
        assert field.normalized
        assert field.values.max() == 1.0
        assert meta["scenario_hash"] == scenario_hash(fast_scenario)
        assert sorted(outputs) == ["field", "mask_0.7", "slice_x1x2", "slice_x1x3",
                                   "slice_x2x3"]

    def test_hash_mismatch_refused(self, fast_scenario, tmp_path):
        data_path = tmp_path / "ball.mfd"
        run_simulate(fast_scenario, data_path)
        other = replace(fast_scenario, seed=99)
        with pytest.raises(ConfigError, match="--force"):
            run_image(data_path, other, str(tmp_path / "recon"))
        run_image(data_path, other, str(tmp_path / "recon"), force=True)

    def test_kind_mismatch(self, fast_scenario, far_ball_scenario, tmp_path):
        data_path = tmp_path / "far.mfd"
        far = replace(far_ball_scenario, noise_level=0.0)
        run_simulate(far, data_path)
        with pytest.raises(ConfigError, match="kind"):
            run_image(data_path, fast_scenario, str(tmp_path / "recon"), force=True)

    def test_empty_dataset_file(self, fast_scenario, tmp_path):
        bad = tmp_path / "empty.mfd"
        bad.write_bytes(b"")
        with pytest.raises(mf.DatasetFormatError):
            run_image(bad, fast_scenario, str(tmp_path / "recon"))


class TestRunVerify:
    def test_all_checks_pass_clean(self, fast_scenario):
        reports, ok = run_verify(replace(fast_scenario, noise_level=0.0))
        assert ok
        assert [r.check for r in reports] == ["factorization", "coercivity", "psf",
                                              "symmetries"]

    def test_only_flag(self, fast_scenario):
        reports, ok = run_verify(replace(fast_scenario, noise_level=0.0), only="psf")
        assert ok
        assert [r.check for r in reports] == ["psf"]

    def test_unknown_check(self, fast_scenario):
        with pytest.raises(ConfigError, match="--only"):
            run_verify(fast_scenario, only="spectral")

    def test_noisy_scenario_surfaces_error(self, fast_scenario):
        with pytest.raises(ValueError, match="noiseless"):
            run_verify(fast_scenario)


class TestMainExitCodes:
    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "ball_pt1" in out and "two_balls_pt14" in out

    def test_write_config_and_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "ball.cfg"
        assert main(["write-config", "ball_pt1", "--out", str(cfg)]) == 0
        text = cfg.read_text()
        assert "shape = ball" in text
        out = tmp_path / "d.mfd"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "x.mfd")])
        assert rc == 2

    def test_verify_clean_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        s = replace(PRESETS["ball_pt1"], h=0.2, noise_level=0.0)
        write_config(s, cfg)
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_verify_noisy_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "noisy.cfg"
        write_config(replace(PRESETS["ball_pt1"], h=0.2), cfg)
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_verify_only_flag(self, capsys):
        assert main(["verify", "--config", "ball_pt1", "--noise", "0", "--only", "psf"]) == 0
        out = capsys.readouterr().out
        assert out.count("check:") == 1

    @pytest.mark.parametrize("key, value", [
        ("k_max", "nan"), ("noise", "nan"), ("radius", "nan"), ("h", "inf"),
        ("grid_bounds", "-3.0 3.0 -3.0 nan -3.0 3.0"),
    ])
    def test_non_finite_config_value_exit_two(self, tmp_path, capsys, key, value):
        lines = [line for line in write_config_text(PRESETS["ball_pt1"]).splitlines()
                 if not line.startswith(f"{key} =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d.mfd")])
        assert rc == 2
        assert f"key '{key}'" in capsys.readouterr().err

    def test_image_missing_data_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        write_config(replace(PRESETS["ball_pt1"], h=0.2), cfg)
        rc = main(["image", "--config", str(cfg), "--data", str(tmp_path / "none.mfd"),
                   "--out", str(tmp_path / "r")])
        assert rc == 3

    def test_overrides(self, tmp_path):
        out = tmp_path / "d.mfd"
        rc = main(["simulate", "--config", "ball_pt1", "--noise", "0", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        data, meta = read_dataset(out)
        assert data.noise_level == 0.0
