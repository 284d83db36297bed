import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf
from mfsampling import (
    Ball,
    ConfigError,
    Cube,
    DatasetFormatError,
    LShape,
    MeasurementSet,
    Peanut,
    PRESETS,
    RoundedCylinder,
    Union,
    polar_sensor,
    read_dataset,
    scenario_hash,
    write_config,
)
from mfsampling.cli import main, run_image, run_simulate
from mfsampling.scenario import parse_config_text, write_config_text
from conftest import assert_no_child, fail_in_workers


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

    def test_hash_leaves_out_image_keys(self):
        # grid_bounds, grid_n and iso are read by image alone: they stay in the config
        # text and out of the hash, and the label and every key of the data move it
        s = PRESETS["ball_pt14"]
        imaged = [replace(s, sampling=mf.SamplingGrid(bounds=((-2.0, 3.0), (-3.0, 1.0),
                                                              (0.0, 2.0)), resolution=(8, 9, 10))),
                  replace(s, sampling=mf.SamplingGrid.cube(3.0, 16)),
                  replace(s, iso_values=(0.5, 0.6))]
        for t in imaged:
            assert write_config_text(t) != write_config_text(s)
            assert scenario_hash(t) == scenario_hash(s)
        data = [replace(s, label="other"), replace(s, h=0.2), replace(s, seed=2),
                replace(s, noise_level=0.1), replace(s, zero_mode="drop"),
                replace(s, frequencies=mf.FrequencyGrid(k_max=9.0, count=11)),
                replace(s, measurement=MeasurementSet("near", s.measurement.points[:3])),
                replace(s, support=Ball(center=(0.2, -0.1, 0.0), radius=1.0))]
        hashes = {scenario_hash(t) for t in [s, *data]}
        assert len(hashes) == len(data) + 1

    def test_negative_zero_hash(self):
        # -0.0 == 0.0, so scenarios that differ only in the sign of a zero are equal
        # and must hash alike
        s = replace(PRESETS["ball_pt1"], noise_level=0.0,
                    measurement=MeasurementSet("far", ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))))
        for t in (replace(s, measurement=MeasurementSet("far", ((1.0, 0.0, 0.0),
                                                                (-1.0, -0.0, -0.0)))),
                  replace(s, noise_level=-0.0)):
            assert t == s
            assert write_config_text(t) == write_config_text(s)
            assert scenario_hash(t) == scenario_hash(s)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        write_config(PRESETS["two_balls_pt14"], path)
        assert mf.parse_config(path) == PRESETS["two_balls_pt14"]

    # every shape off the origin, with amplitudes other than the default
    SHAPES = {
        "ball": Ball(center=(0.3, -0.2, 0.1), radius=0.8, amplitude=2.5),
        "cube": Cube(center=(-0.4, 0.2, 0.1), half_widths=(0.5, 0.7, 0.3), amplitude=-1.5),
        "rounded_cylinder": RoundedCylinder(radius=0.6, half_height=0.9, amplitude=0.5),
        "peanut": Peanut(centers=((0.1, -0.4, 0.3), (0.7, 0.2, 0.1)), radius=0.6, amplitude=3.0),
        "lshape": LShape(box1=((-0.7, -0.3, -0.2), (0.1, 1.2, 0.3)),
                         box2=((0.1, -0.3, -0.2), (1.1, 0.4, 0.3)), amplitude=2.0),
        "two_balls": Union(parts=(Ball(center=(-1.1, 0.3, 0.0), radius=0.45, amplitude=2.0),
                                  Ball(center=(0.9, -0.2, 0.4), radius=0.45, amplitude=3.0))),
    }

    @pytest.mark.parametrize("kind", ["near", "far"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_round_trip(self, shape, kind):
        s = replace(PRESETS["ball_pt14"], support=self.SHAPES[shape], label=f"{shape}_{kind}")
        if kind == "far":
            s = replace(s, measurement=MeasurementSet("far", [(0.6, 0.0, 0.8), (0.0, 1.0, 0.0),
                                                              (-0.6, 0.0, -0.8), (0.0, -1.0, 0.0)]))
        text = write_config_text(s)
        assert f"shape = {shape}\n" in text
        back = parse_config_text(text)
        assert back == s
        assert write_config_text(back) == text

    @pytest.mark.parametrize("support", [
        Union(parts=(Ball(center=(-1.0, 0.0, 0.0), radius=0.5),
                     Ball(center=(1.0, 0.0, 0.0), radius=0.4))),
        Union(parts=tuple(Ball(center=(c, 0.0, 0.0), radius=0.3) for c in (-1.0, 0.0, 1.0))),
        Union(parts=(Cube(center=(-1.0, 0.0, 0.0), half_widths=(0.3, 0.3, 0.3)),
                     Cube(center=(1.0, 0.0, 0.0), half_widths=(0.3, 0.3, 0.3)))),
    ], ids=["unequal_radii", "three_balls", "two_cubes"])
    def test_unrepresentable_support(self, support):
        with pytest.raises(ConfigError, match="not representable"):
            write_config_text(replace(PRESETS["ball_pt14"], support=support))

    def test_one_far_direction_round_trip(self):
        # a far set is the directions listed: no antipode is added on the way back
        s = replace(PRESETS["ball_pt14"],
                    measurement=MeasurementSet(kind="far", points=((0.6, -0.48, 0.64),)))
        text = write_config_text(s)
        assert "directions = 0.6 -0.48 0.64\n" in text
        back = parse_config_text(text)
        assert back == s
        assert write_config_text(back) == text
        assert scenario_hash(back) == scenario_hash(s)


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
        assert s.measurement.points == ((1.0, 0.0, 0.0),)

    def test_far_antipodal_pair_kept(self):
        s = parse_config_text(
            "kind = far\nshape = ball\nradius = 1.0\ndirections = 1 0 0 ; -1 0 0\n")
        assert s.measurement.points == ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))

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

    @pytest.mark.parametrize("kind, sensor_lines, message", [
        ("near", "sensors = 3 0 0\ndirections = 1 0 0\n",
         "key 'directions': only valid for kind = far"),
        ("near", "sensors = 3 0 0\nsensors_polar = 0 90 3\n",
         "key 'sensors_polar': give either sensors or sensors_polar"),
        ("near", "", "key 'sensors': missing (required for kind = near)"),
        ("far", "directions = 1 0 0\nsensors = 3 0 0\n", "key 'sensors': only valid for kind = near"),
        ("far", "directions = 1 0 0\nsensors_polar = 0 90 3\n",
         "key 'sensors_polar': only valid for kind = near"),
        ("far", "", "key 'directions': missing (required for kind = far)"),
        ("far", "directions = 2 0 0\n",
         "key 'directions': far-field direction must be a unit vector"),
        ("mid", "sensors = 3 0 0\n", "key 'kind': must be 'near' or 'far', got 'mid'"),
    ], ids=["directions_on_near", "sensors_and_polar", "no_sensors", "sensors_on_far",
            "polar_on_far", "no_directions", "nonunit_direction", "unknown_kind"])
    def test_sensor_key_error_text(self, kind, sensor_lines, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"kind = {kind}\nshape = ball\nradius = 1\n{sensor_lines}")
        assert str(exc.value) == message

    def test_bad_noise(self):
        with pytest.raises(ConfigError, match="key 'noise'"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\nnoise = -0.5\n")

    @pytest.mark.parametrize("shape_lines, key", [
        ("shape = ball\nradius = 1\nhalf_widths = 1 1 1\n", "half_widths"),
        ("shape = cube\nhalf_widths = 1 1 1\nradius = 1\n", "radius"),
        ("shape = peanut\ncenters = -0.5 0 0 ; 0.5 0 0\nradius = 1\nboxes = 0 0 0 1 1 1 ; "
         "0 0 0 1 1 1\n", "boxes"),
    ], ids=["ball", "cube", "peanut"])
    def test_other_shape_key_named(self, shape_lines, key):
        shape = shape_lines.split("\n")[0].split(" = ")[1]
        with pytest.raises(ConfigError, match=f"key '{key}': not a key of shape '{shape}'"):
            parse_config_text(shape_lines + "sensors = 3 0 0\n")

    def test_bad_iso(self):
        with pytest.raises(ConfigError, match="key 'iso'"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\niso = 1.5\n")

    def test_empty_iso_refused(self):
        # no iso value means no mask, and config text that writes `iso = `
        with pytest.raises(ConfigError, match="key 'iso': expected at least one value"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\niso =\n")
        with pytest.raises(ConfigError, match="key 'iso': expected at least one value"):
            replace(PRESETS["ball_pt1"], iso_values=())

    def test_repeated_iso_refused(self):
        # a repeated value would print its mask line twice and write its mask once
        with pytest.raises(ConfigError, match="key 'iso': value 0.5 repeated"):
            parse_config_text("shape = ball\nradius = 1\nsensors = 3 0 0\niso = 0.5 0.5\n")
        with pytest.raises(ConfigError, match="key 'iso': value 0.7 repeated"):
            replace(PRESETS["ball_pt1"], iso_values=(0.7, 0.3, 0.7))

    def test_comments_ignored(self):
        s = parse_config_text("# experiment\nshape = ball  # unit\nradius = 1\nsensors = 3 0 0\n")
        assert isinstance(s.support, Ball)

    def test_non_ascii_comment_parses(self):
        s = parse_config_text("# caf\u00e9\nshape = ball  # r\u00e9f\u00e9rence\nradius = 1\n"
                              "sensors = 3 0 0\n")
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
        with pytest.raises(ConfigError, match="[0-9a-f]{16}: it holds another scenario's data"):
            run_image(data_path, other, str(tmp_path / "recon"))
        assert list(tmp_path.glob("recon*")) == []

    def test_kind_mismatch(self, fast_scenario, far_ball_scenario, tmp_path):
        # a dataset written with no hash, `-`, passes the hash check to meet the kind check
        data_path = tmp_path / "far.mfd"
        mf.forward.write_dataset(mf.generate_dataset(far_ball_scenario), data_path)
        assert read_dataset(data_path)[1]["scenario_hash"] == "-"
        with pytest.raises(ConfigError, match="kind"):
            run_image(data_path, fast_scenario, str(tmp_path / "recon"))

    def test_empty_dataset_file(self, fast_scenario, tmp_path):
        bad = tmp_path / "empty.mfd"
        bad.write_bytes(b"")
        with pytest.raises(mf.DatasetFormatError):
            run_image(bad, fast_scenario, str(tmp_path / "recon"))


class TestRunVerify:
    def test_all_checks_pass_clean(self, fast_scenario):
        reports, ok = mf.verify.run(replace(fast_scenario, noise_level=0.0))
        assert ok
        assert [r.check for r in reports] == ["factorization", "coercivity", "psf",
                                              "symmetries"]

    def test_only_flag(self, fast_scenario):
        reports, ok = mf.verify.run(replace(fast_scenario, noise_level=0.0), only="psf")
        assert ok
        assert [r.check for r in reports] == ["psf"]

    def test_unknown_check(self, fast_scenario):
        # refused before the noiseless precondition, naming the checks there are
        with pytest.raises(ValueError, match=re.escape(f"choose from {mf.verify.CHECKS}")):
            mf.verify.run(fast_scenario, only="spectral")

    def test_parser_refuses_unknown_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", "ball_pt1", "--noise", "0", "--only", "spectral"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--only: invalid choice: 'spectral'" in err
        assert all(repr(name) in err for name in mf.verify.CHECKS)

    def test_noisy_scenario_surfaces_error(self, fast_scenario):
        with pytest.raises(ValueError, match="noiseless"):
            mf.verify.run(fast_scenario)


class TestCommandCounts:
    # an off-centre near peanut and an off-centre far ball
    SCENARIOS = {
        "near_peanut": replace(PRESETS["peanut_pt14"], label="near_peanut",
                               support=Peanut(centers=((0.1, -0.4, 0.3), (0.7, 0.2, 0.1)),
                                              radius=0.6, amplitude=2.5),
                               sampling=mf.SamplingGrid.cube(3.0, 8)),
        "far_ball": replace(PRESETS["ball_pt1"], label="far_ball",
                            support=Ball(center=(0.6, -0.3, 0.2), radius=0.5),
                            measurement=MeasurementSet("far", [(0.6, -0.48, 0.64),
                                                               (0.0, -1.0, 0.0)]),
                            sampling=mf.SamplingGrid.cube(3.0, 8)),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_one_rule_and_no_rebuilt_scenario_per_command(self, monkeypatch, tmp_path, name):
        # simulate and verify each build one quadrature rule and image none; each
        # command validates its scenario once, its flags (verify's --noise) applied
        # before, and no command builds a Ball beyond those its config parse makes
        counts = dict.fromkeys(("quadrature", "validate", "Ball"), 0)

        def counting(key, original):
            def counted(*args):
                counts[key] += 1
                return original(*args)
            return counted

        monkeypatch.setattr(mf.Scenario, "validate", counting("validate", mf.Scenario.validate))
        monkeypatch.setattr(Ball, "__post_init__", counting("Ball", Ball.__post_init__))
        quadrature = mf.geometry.quadrature
        for module in (mf.geometry, mf.forward, mf.imaging, mf.verify, mf.cli):
            if getattr(module, "quadrature", None) is quadrature:
                monkeypatch.setattr(module, "quadrature", counting("quadrature", quadrature))
        cfg, data = tmp_path / "s.cfg", tmp_path / "s.mfd"
        write_config(self.SCENARIOS[name], cfg)
        counts["Ball"] = 0
        mf.parse_config(cfg)
        parsed = counts["Ball"]
        assert parsed == {"near_peanut": 2, "far_ball": 1}[name]
        seen = {}
        for argv in (["simulate", "--config", str(cfg), "--out", str(data)],
                     ["image", "--config", str(cfg), "--data", str(data),
                      "--out", str(tmp_path / "s")],
                     ["verify", "--config", str(cfg), "--noise", "0"]):
            counts.update(quadrature=0, validate=0, Ball=0)
            assert main(argv) == 0
            seen[argv[0]] = dict(counts)
        assert seen == {"simulate": {"quadrature": 1, "validate": 1, "Ball": parsed},
                        "image": {"quadrature": 0, "validate": 1, "Ball": parsed},
                        "verify": {"quadrature": 1, "validate": 1, "Ball": parsed}}


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_override_exit_two(self, tmp_path, capsys, value):
        out = tmp_path / "d.mfd"
        rc = main(["simulate", "--config", "ball_pt1", "--noise", value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: key 'noise'")
        assert not out.exists()

    def test_overflowing_noise_exit_two(self, tmp_path, capsys):
        # noise on samples near 1e154 overflows: simulate refuses before it writes
        cfg, out = tmp_path / "c.cfg", tmp_path / "d.mfd"
        cfg.write_text("shape = ball\nradius = 1\namplitude = 1e160\nsensors = 3 0 0\n"
                       "noise = 0.05\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: noise level 0.05 overflows")
        assert not out.exists()

    def test_noiseless_overflowing_square_prints_finite_rms(self, tmp_path, capsys):
        # samples near 1e154: a modulus squared overflows, their RMS does not, and the
        # printed range is the amplitude-1 rows' RMS scaled by 1e160 (a RuntimeWarning
        # fails the test)
        cfg, out = tmp_path / "c.cfg", tmp_path / "d.mfd"
        text = "shape = ball\nradius = 1\nsensors = 3 0 0\nnoise = 0\n"
        cfg.write_text(text + "amplitude = 1e160\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        lo, hi = (float(v) for v in re.fullmatch(r"row rms range: \[(.*), (.*)\]", line).groups())
        (rms,) = mf.generate_dataset(parse_config_text(text)).row_rms() * 1e160
        assert lo == hi == pytest.approx(rms, rel=1e-6)

    def test_flags_replace_config_values_before_validation(self, tmp_path, capsys):
        # the one validation sees the flags' values: a config key out of range alone is
        # refused, and a flag that replaces it is accepted; a flag's own error exits 2
        cfg, out = tmp_path / "c.cfg", tmp_path / "d.mfd"
        data_lines = "shape = ball\nradius = 1\nsensors = 3 0 0\n"
        cfg.write_text(data_lines + "iso = 1.5\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: key 'iso'")
        assert main(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: key 'seed'")
        assert not out.exists()
        # the same data lines without the iso key: the same scenario hash
        (tmp_path / "data.cfg").write_text(data_lines)
        assert main(["simulate", "--config", str(tmp_path / "data.cfg"), "--out", str(out)]) == 0
        argv = ["image", "--config", str(cfg), "--grid", "4", "--data", str(out),
                "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: key 'iso'")
        assert main(argv + ["--iso", "0.5"]) == 0

    def test_empty_iso_exit_two(self, tmp_path, capsys):
        cfg, data = tmp_path / "c.cfg", tmp_path / "d.mfd"
        cfg.write_text("shape = ball\nradius = 1\nsensors = 3 0 0\ngrid_n = 4\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        cfg.write_text(cfg.read_text() + "iso =\n")  # the same data, so the same hash
        capsys.readouterr()
        assert main(["image", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("config error: key 'iso': expected at least")
        assert list(tmp_path.glob("r*")) == []

    def test_repeated_iso_exit_two(self, tmp_path, capsys):
        data = tmp_path / "d.mfd"
        assert main(["simulate", "--config", "ball_pt1", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["image", "--config", "ball_pt1", "--grid", "4", "--data", str(data),
                     "--iso", "0.5,0.5", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("config error: key 'iso': value 0.5 repeated")
        assert list(tmp_path.glob("r*")) == []

    @pytest.mark.parametrize("command, flag", [
        ("verify", ("--grid", "8")), ("verify", ("--iso", "0.5")),
        ("simulate", ("--grid", "8")), ("simulate", ("--iso", "0.5")),
    ], ids=["grid", "iso", "simulate_grid", "simulate_iso"])
    def test_verify_refuses_sampling_flags(self, tmp_path, capsys, command, flag):
        # neither verify nor simulate reads the sampling grid or the iso values, and the
        # scenario hash leaves them out, so neither parser has either flag
        out = tmp_path / "d.mfd"
        argv = [command, "--config", "ball_pt1", "--noise", "0",
                *(["--out", str(out)] if command == "simulate" else []), *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_dataset_images_at_any_grid_and_iso(self, tmp_path, capsys):
        # the scenario hash leaves out the grid and the iso values, which image alone
        # reads: one dataset images at any of them, with no --force to pass; a dataset
        # of other data is refused with exit 2 and no artifact
        cfg, data = tmp_path / "c.cfg", tmp_path / "d.mfd"
        s = replace(PRESETS["ball_pt1"], h=0.2)
        write_config(s, cfg)
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        image = ["image", "--config", str(cfg), "--data", str(data)]
        for prefix, flags in (("g8", ["--grid", "8"]), ("g6", ["--grid", "6"]),
                              ("iso", ["--grid", "6", "--iso", "0.6"])):
            assert main([*image, *flags, "--out", str(tmp_path / prefix)]) == 0
        for prefix, n in (("g8", 8), ("g6", 6)):
            field, _ = mf.imaging.read_field(tmp_path / f"{prefix}.field")
            assert field.grid.resolution == (n, n, n)
        assert (tmp_path / "iso_mask_0.6.txt").is_file()
        assert (tmp_path / "iso.field").read_bytes() == (tmp_path / "g6.field").read_bytes()
        for change in ({"seed": 2}, {"h": 0.25}, {"zero_mode": "drop"}):
            write_config(replace(s, **change), cfg)
            capsys.readouterr()
            assert main([*image, "--grid", "6", "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err.startswith(f"config error: dataset {data} was "
                                                      "generated for scenario hash")
        assert list(tmp_path.glob("x*")) == []
        with pytest.raises(SystemExit) as exc:
            main([*image, "--force", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("h", math.nan), ("h", math.inf),
                                            ("noise_level", math.nan), ("noise_level", math.inf)])
    def test_non_finite_scenario_field_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key.removesuffix('_level')}'"):
            replace(PRESETS["ball_pt1"], **{key: value})

    @pytest.mark.parametrize("command", ["simulate", "write-config"])
    def test_non_ascii_config_value_exit_two(self, tmp_path, capsys, command):
        cfg, out = tmp_path / "c.cfg", tmp_path / "out"
        cfg.write_text("shape = ball\nradius = 1\nsensors = 3 0 0\nlabel = caf\u00e9\n",
                       encoding="utf-8")
        argv = (["simulate", "--config", str(cfg)] if command == "simulate"
                else ["write-config", str(cfg)])
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: line 4: non-ASCII character")
        assert not out.exists()

    def test_non_utf8_byte_in_comment_parses(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.cfg", tmp_path / "d.mfd"
        cfg.write_bytes(b"shape = ball\nradius = 1\nsensors = 3 0 0\n# caf\xe9\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_non_utf8_byte_in_value_exit_two(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.cfg", tmp_path / "d.mfd"
        cfg.write_bytes(b"shape = ball\nradius = 1\nsensors = 3 0 0\nlabel = caf\xe9\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: line 4: non-ASCII character")
        assert not out.exists()

    def test_non_ascii_label_refused(self):
        with pytest.raises(ConfigError, match="key 'label': non-ASCII"):
            replace(PRESETS["ball_pt1"], label="caf\u00e9")

    @pytest.mark.parametrize("label", ["run#2", " padded ", "x\nnoise = 0.5"],
                             ids=["comment", "padded", "line_break"])
    def test_label_config_text_cannot_carry_refused(self, label):
        # each would read back changed: as 'run', as 'padded', or as a duplicated key
        with pytest.raises(ConfigError, match="key 'label': "):
            replace(PRESETS["ball_pt1"], label=label)

    @pytest.mark.parametrize("label", ["run 2", "a=b", "tab\tinside"])
    def test_label_round_trips(self, label):
        s = replace(PRESETS["ball_pt1"], label=label)
        assert parse_config_text(write_config_text(s)) == s

    def test_write_config_unencodable_leaves_no_file(self, tmp_path):
        scenario = replace(PRESETS["ball_pt1"])
        object.__setattr__(scenario, "label", "caf\u00e9")  # past validation
        out = tmp_path / "c.cfg"
        with pytest.raises(UnicodeEncodeError):
            write_config(scenario, out)
        assert not out.exists()

    def test_other_shape_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(write_config_text(PRESETS["ball_pt1"]) + "half_widths = 1 1 1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d.mfd")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: key 'half_widths': not a key of shape 'ball'" in err

    def test_image_missing_data_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        write_config(replace(PRESETS["ball_pt1"], h=0.2), cfg)
        rc = main(["image", "--config", str(cfg), "--data", str(tmp_path / "none.mfd"),
                   "--out", str(tmp_path / "r")])
        assert rc == 3

    def test_image_slices_mid_plane_of_grid_off_origin(self, tmp_path, capsys):
        # axis 1 spans [0.5, 3]: its mid-plane is 1.75, and the origin lies outside the grid
        lines = [line for line in write_config_text(replace(PRESETS["ball_pt1"], h=0.2))
                 .splitlines() if not line.startswith(("grid_bounds =", "grid_n ="))]
        cfg = tmp_path / "shifted.cfg"
        cfg.write_text("\n".join(lines + ["grid_bounds = 0.5 3 -3 3 -3 3", "grid_n = 8"]) + "\n")
        data = tmp_path / "d.mfd"
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["image", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "r")]) == 0
        slices = sorted(p.name for p in tmp_path.glob("r_slice_*.csv"))
        assert slices == ["r_slice_x1x2.csv", "r_slice_x1x3.csv", "r_slice_x2x3.csv"]
        header = (tmp_path / "r_slice_x2x3.csv").read_text().splitlines()[0]
        coordinate = float(header.rpartition("coordinate=")[2])
        assert abs(coordinate - 1.75) <= 0.5 * 2.5 / 8

    def test_import_leaves_scipy_out(self):
        src = str(Path(mf.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c",
                              "import sys, mfsampling.cli; print('scipy' in sys.modules)"],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"

    def test_overrides(self, tmp_path):
        out = tmp_path / "d.mfd"
        rc = main(["simulate", "--config", "ball_pt1", "--noise", "0", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        data, meta = read_dataset(out)
        assert data.noise_level == 0.0


class TestImageWorkers:
    """`image` in worker processes writes the serial run's bytes, and a failed worker
    fails the command with no field written."""

    CONFIG = ["--config", "ball_pt3"]  # 3 sensors

    def _simulate(self, tmp_path):
        return main(["simulate", *self.CONFIG, "--out", str(tmp_path / "d.mfd")])

    def _image(self, tmp_path, prefix):  # 9 layers split 4 + 5
        return main(["image", *self.CONFIG, "--grid", "9", "--data", str(tmp_path / "d.mfd"),
                     "--out", str(tmp_path / prefix)])

    def test_split_writes_the_serial_bytes(self, tmp_path, split, capsys):
        assert self._simulate(tmp_path) == 0
        assert self._image(tmp_path, "serial") == 0
        forks = split(2)
        assert self._image(tmp_path, "split") == 0
        assert len(forks) == 1
        assert_no_child()
        serial = sorted(tmp_path.glob("serial*"))
        assert len(serial) == 6  # field, three slices, two masks
        for path in serial:
            twin = path.with_name(path.name.replace("serial", "split", 1))
            assert twin.read_bytes() == path.read_bytes(), path.name

    def test_failing_worker_fails_the_command(self, tmp_path, split, monkeypatch, capsys):
        assert self._simulate(tmp_path) == 0
        forks = split(2)
        fail_in_workers(monkeypatch)
        capsys.readouterr()
        assert self._image(tmp_path, "r") == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: indicator worker ")
        assert "(axis-0 layers 4..8) exited with status 1" in err
        assert len(forks) == 1
        assert_no_child()
        assert list(tmp_path.glob("r*")) == []


def _with_line(blob: bytes, prefix: bytes, line: bytes) -> bytes:
    """blob with its first line starting with prefix replaced by line."""
    start = blob.index(prefix)
    return blob[:start] + line + blob[blob.index(b"\n", start):]


class TestCorruptFiles:
    DATASETS = {
        "non_ascii_header": lambda b: b.replace(b"scenario_hash: ", b"scenario_hash: \xc3\xa9", 1),
        "bad_kind": lambda b: _with_line(b, b"kind: ", b"kind: middle"),
        "malformed_sensor": lambda b: _with_line(b, b"sensor: ", b"sensor: 3.0 zero 0.0"),
        "truncated_payload": lambda b: b[:-16],
        "nan_sample": lambda b: b[:-8] + struct.pack("<d", math.nan),
        "nan_dk": lambda b: _with_line(b, b"dk: ", b"dk: nan"),
        "inconsistent_dk": lambda b: _with_line(b, b"dk: ", b"dk: 7.5"),
        "negative_noise_level": lambda b: _with_line(b, b"noise_level: ", b"noise_level: -0.5"),
        "negative_seed": lambda b: _with_line(b, b"\nseed: ", b"\nseed: -4"),
    }
    FIELDS = {
        "missing_normalized": lambda b: b.replace(b"normalized: true\n", b"", 1),
        "truncated_payload": lambda b: b[:-8],
        "nan_sample": lambda b: b[:-8] + struct.pack("<d", math.nan),
        "inf_sample": lambda b: b[:-8] + struct.pack("<d", math.inf),
    }
    ARGS = ["--config", "ball_pt1", "--noise", "0"]
    IMAGE = ["image", *ARGS, "--grid", "8"]

    @pytest.mark.parametrize("corrupt", sorted(DATASETS))
    def test_dataset_exit_three(self, tmp_path, capsys, corrupt):
        path = tmp_path / "d.mfd"
        assert main(["simulate", *self.ARGS, "--out", str(path)]) == 0
        path.write_bytes(self.DATASETS[corrupt](path.read_bytes()))
        capsys.readouterr()
        rc = main([*self.IMAGE, "--data", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    @pytest.mark.parametrize("corrupt", sorted(FIELDS))
    def test_field_format_error(self, tmp_path, corrupt):
        path = tmp_path / "d.mfd"
        assert main(["simulate", *self.ARGS, "--out", str(path)]) == 0
        assert main([*self.IMAGE, "--data", str(path), "--out", str(tmp_path / "r")]) == 0
        field = tmp_path / "r.field"
        mf.imaging.read_field(field)
        field.write_bytes(self.FIELDS[corrupt](field.read_bytes()))
        with pytest.raises(DatasetFormatError):
            mf.imaging.read_field(field)
