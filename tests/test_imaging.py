import math

import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf
from mfsampling import (
    FrequencyGrid,
    IndicatorField,
    MeasurementSet,
    MultiFreqDataset,
    SamplingGrid,
    add_noise,
    compute_indicator,
    cross_section,
    generate_dataset,
    normalize,
    probe,
    psf_closed_form,
    psf_discrete,
    quadratic_form,
    threshold_mask,
)
from conftest import radial_profile_deviation


class TestSamplingGrid:
    @pytest.mark.parametrize("bounds", [
        ((math.nan, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
        ((-3.0, 3.0), (-3.0, math.nan), (-3.0, 3.0)),
        ((-3.0, 3.0), (-3.0, 3.0), (-math.inf, 3.0)),
    ])
    def test_non_finite_bound_rejected(self, bounds):
        # nan >= hi is False, so the ordering test alone lets NaN through
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            SamplingGrid(bounds=bounds, resolution=(4, 4, 4))


class TestTestFunctions:
    def test_near_probe_at_sensor(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        g = probe("near", (3.0, 0.0, 0.0), (3.0, 0.0, 0.0), grid)
        assert np.array_equal(g.samples, np.ones(11, dtype=complex))

    def test_near_probe_unimodular(self):
        grid = FrequencyGrid(k_max=7.0, count=9)
        g = probe("near", (3.0, 0.0, 0.0), (0.4, -1.2, 0.7), grid)
        assert np.allclose(np.abs(g.samples), 1.0, rtol=1e-15)

    def test_near_probe_phases(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        g = probe("near", (3.0, 0.0, 0.0), (0.0, 0.0, 0.0), grid)
        expected = np.exp(3j * np.arange(1, 12))
        assert np.allclose(g.samples, expected, rtol=1e-14)

    def test_far_probe_at_origin(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        phi = probe("far", (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), grid)
        assert np.array_equal(phi.samples, np.ones(11, dtype=complex))

    def test_far_probe_matches_near_probe_on_equal_argument(self):
        # the far phase -xhat.z = 1.5 for xhat = e1, z = (-1.5,0,0) equals the
        # near phase |x - z'| for x = (3,0,0), z' = (1.5,0,0)
        grid = FrequencyGrid(k_max=11.0, count=11)
        phi = probe("far", (1.0, 0.0, 0.0), (-1.5, 0.0, 0.0), grid)
        g = probe("near", (3.0, 0.0, 0.0), (1.5, 0.0, 0.0), grid)
        assert np.allclose(phi.samples, g.samples, rtol=1e-15)

    def test_far_probe_requires_unit_direction(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        with pytest.raises(ValueError, match="unit"):
            probe("far", (2.0, 0.0, 0.0), (0.0, 0.0, 0.0), grid)


class TestPsfClosedForm:
    def test_peak_value_exact(self):
        assert psf_closed_form(0.0, 11.0) == 11.0 + 0j

    def test_half_period_magnitude(self):
        k_max = 11.0
        val = abs(psf_closed_form(math.pi / k_max, k_max))
        assert val == pytest.approx(2 * k_max / math.pi, rel=1e-14)

    def test_envelope(self):
        k_max = 11.0
        for t in np.linspace(-40, 40, 2001):
            if t == 0:
                continue
            mag = abs(psf_closed_form(float(t), k_max))
            assert mag <= min(k_max, 2 / abs(t)) * (1 + 1e-13)
            assert mag < k_max  # equality only at t = 0

    def test_branch_consistency(self):
        k_max = 11.0
        val = psf_closed_form(1e-8, k_max)
        assert abs(val - k_max) / k_max < 1e-6

    def test_large_argument_decay(self):
        assert abs(psf_closed_form(1e6, 11.0)) <= 2e-6

    def test_array_matches_scalar_calls(self):
        t = np.concatenate([np.linspace(-40, 40, 2001), [1e-8, -1e6]])
        vals = psf_closed_form(t, 11.0)
        assert vals.shape == t.shape
        assert vals.tobytes() == np.array([psf_closed_form(float(s), 11.0) for s in t]).tobytes()


class TestPsfDiscrete:
    def test_zero_argument(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        assert psf_discrete(0.0, grid) == 11.0 + 0j

    def test_conjugate_symmetry(self):
        grid = FrequencyGrid(k_max=11.0, count=40)
        for t in (0.3, 1.7, 9.2):
            assert psf_discrete(-t, grid) == np.conj(psf_discrete(t, grid))

    def test_rectangle_rule_convergence(self):
        # right-endpoint rule: error ~ (dk/2) |e^{i k_max t} - 1|, so halving dk
        # halves the error; measured errors sit just under 1.1 * dk
        k_max = 11.0
        errs = {}
        for count in (400, 4000):
            grid = FrequencyGrid(k_max=k_max, count=count)
            errs[count] = max(abs(psf_discrete(t, grid) - psf_closed_form(t, k_max))
                              for t in (0.5, 1.0, 5.0))
        assert errs[400] <= 1.1 * k_max / 400
        assert errs[4000] <= 1.1 * k_max / 4000
        assert errs[4000] <= errs[400] / 8


# an asymmetric peanut off the origin, seen by three sensors over an asymmetric grid
_DIRECTIONS = ((0.6, 0.0, 0.8), (0.0, -1.0, 0.0), (-0.48, 0.6, 0.64))


def _offcentre_scenario(kind, zero_mode="extend", resolution=(5, 4, 6)):
    measurement = (MeasurementSet.near_points([tuple(3.0 * c for c in d) for d in _DIRECTIONS])
                   if kind == "near" else MeasurementSet.far_directions(_DIRECTIONS))
    return mf.Scenario(
        support=mf.Peanut(centers=((0.1, -0.4, 0.3), (0.7, 0.2, 0.1)), radius=0.6), h=0.2,
        measurement=measurement, frequencies=FrequencyGrid(k_max=11.0, count=11),
        noise_level=0.0, seed=3, zero_mode=zero_mode,
        sampling=SamplingGrid(bounds=((-2.5, 3.0), (-1.0, 2.0), (-3.0, 1.5)),
                              resolution=resolution))


class TestIndicatorNear:
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_matches_scalar_quadratic_forms(self, kind):
        scenario = _offcentre_scenario(kind)
        data = add_noise(generate_dataset(scenario), 0.05, 3)
        field = compute_indicator(data, scenario.sampling)
        for v, z in enumerate(scenario.sampling.centers()):
            ref = sum(abs(quadratic_form(data, ell, probe(kind, x, z, data.grid)))
                      for ell, x in enumerate(data.sensors.array))
            assert abs(field.values[v] - ref) <= 1e-12 * max(ref, 1e-30)

    def test_nonnegative(self, ball_dataset):
        field = compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 8))
        assert np.all(field.values >= 0)

    def test_homogeneity(self, ball_dataset):
        grid = SamplingGrid.cube(3.0, 6)
        base = compute_indicator(ball_dataset, grid)
        scaled_data = replace(ball_dataset, values=2.5 * ball_dataset.values)
        scaled = compute_indicator(scaled_data, grid)
        assert np.allclose(scaled.values, 2.5 * base.values, rtol=1e-12)
        assert np.allclose(normalize(scaled).values, normalize(base).values, rtol=1e-12)

    def test_annulus_concentration(self, ball_dataset):
        # single sensor: the bright region is the annulus seen from the sensor
        grid = SamplingGrid.cube(3.0, 24)
        field = normalize(compute_indicator(ball_dataset, grid))
        d = np.linalg.norm(grid.centers() - np.array([3.0, 0.0, 0.0]), axis=1)
        shell = field.values[(d >= 2.0) & (d <= 4.0)].mean()
        outside = field.values[(d >= 5.0) & (d <= 5.5)].mean()
        assert shell >= 2.0 * outside

    def test_spherical_invariance(self, ball_dataset):
        grid = SamplingGrid.cube(3.0, 24)
        field = normalize(compute_indicator(ball_dataset, grid))
        half_vox = 0.5 * grid.voxel_size[0]
        dev = radial_profile_deviation(field, (3.0, 0.0, 0.0), half_vox)
        assert dev <= 0.02

    def test_sandwich_at_probe_lattice(self, ball_scenario, ball_dataset, unit_ball):
        from mfsampling import Factorization, quadrature, support_norm
        x = (3.0, 0.0, 0.0)
        fac = Factorization("near", x, unit_ball, quadrature(unit_ball, ball_scenario.h),
                            ball_dataset.grid)
        lo, hi = 1 / (16 * math.pi), 1 / (8 * math.pi)
        for z in [(0, 0, 0), (0.5, 0.5, 0), (-1, 0.2, 0.8), (2, 2, 2), (-2.5, 0, 1)]:
            g = probe("near", x, z, ball_dataset.grid)
            denom = support_norm(fac.analysis(g)) ** 2
            ratio = abs(quadratic_form(ball_dataset, 0, g)) / denom
            assert lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)

    def test_noise_robustness(self):
        scenario = mf.PRESETS["ball_pt14"]
        data = generate_dataset(scenario)
        grid = SamplingGrid.cube(3.0, 32)
        base = normalize(compute_indicator(data, grid))
        for seed in range(1, 6):
            noisy = normalize(compute_indicator(add_noise(data, 0.05, seed), grid))
            assert np.abs(noisy.values - base.values).max() <= 0.10


class TestIndicatorFar:
    def test_hand_value_at_origin(self):
        grid = FrequencyGrid(k_max=2.0, count=2)
        sensors = MeasurementSet.far_directions([(1.0, 0.0, 0.0)])
        vm2, vm1, v0, vp1, vp2 = 0.2 - 0.1j, 0.4 + 0.3j, -0.5 + 0.2j, 0.1 - 0.6j, 0.7 + 0j
        values = np.array([[vm2, vm1, v0, vp1, vp2],
                           [vp2, vp1, v0, vm1, vm2]])
        data = MultiFreqDataset(kind="far", sensors=sensors, grid=grid, values=values)
        sampling = SamplingGrid(bounds=((-1, 1), (-1, 1), (-1, 1)), resolution=(1, 1, 1))
        field = compute_indicator(data, sampling)
        expected = abs(2 * v0 + vm1 + vp1) + abs(2 * v0 + vp1 + vm1)
        assert field.values[0] == pytest.approx(expected, rel=1e-14)

    def test_nonnegative(self, far_ball_dataset):
        field = compute_indicator(far_ball_dataset, SamplingGrid.cube(3.0, 8))
        assert np.all(field.values >= 0)

    def test_offcentre_ball_reconstruction(self):
        # an origin-centred ball is its own point reflection; this one is not
        center = np.array([1.2, 0.4, 0.0])
        directions = mf.PRESETS["ball_pt14"].measurement.array / 3.0
        scenario = mf.Scenario(
            support=mf.Ball(center=tuple(center), radius=0.5), h=0.1,
            measurement=MeasurementSet.far_directions(directions),
            frequencies=FrequencyGrid(k_max=11.0, count=11), noise_level=0.0, seed=1,
            sampling=SamplingGrid.cube(3.0, 32),
        )
        assert len(scenario.measurement) == 14
        field = normalize(compute_indicator(generate_dataset(scenario), scenario.sampling))
        mask = threshold_mask(field, 0.7)
        assert mask.count > 0
        assert np.linalg.norm(np.array(mask.centroid) - center) <= 0.25

    def test_slab_geometry(self, far_ball_dataset):
        # +-e1 directions: the indicator depends on z only through z1
        grid = SamplingGrid.cube(3.0, 16)
        field = normalize(compute_indicator(far_ball_dataset, grid))
        cube = field.reshaped()
        ax1 = grid.axis_centers(0)
        for i in np.nonzero(np.abs(ax1) < 1.0)[0]:
            layer = cube[i]
            assert layer.std() / layer.mean() < 0.05


class TestIndicatorPsfIdentity:
    """On noiseless data the form is a sum over the rule of the Fejer kernel |P(r_q - t)|^2.

    I(z) = sum_l | sum_q c_q (|psf_discrete(r_q - t)|^2 - [drop] dk^2 J) |, with
    c_q = w_q f(y_q) / spreading(y_q), r_q = phase_l(y_q) and t = phase_l(z).
    """

    @pytest.mark.parametrize("zero_mode", ["extend", "drop"])
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_psf_weighted_sum(self, kind, zero_mode):
        s = _offcentre_scenario(kind, zero_mode, resolution=(3, 3, 4))
        field = compute_indicator(generate_dataset(s), s.sampling)
        rule = mf.quadrature(s.support, s.h)
        dk, J = s.frequencies.spacing, s.frequencies.count
        drop = dk * dk * J if zero_mode == "drop" else 0.0
        expected = np.zeros(s.sampling.size)
        for x in s.measurement.array:
            r, spreading = mf.phase(kind, x, rule.nodes)
            c = rule.weights * s.support.amplitude_at(rule.nodes) / spreading
            t, _ = mf.phase(kind, x, s.sampling.centers())
            for v, tv in enumerate(t):
                fejer = np.array([abs(psf_discrete(rq - tv, s.frequencies)) ** 2 for rq in r])
                expected[v] += abs(np.sum(c * (fejer - drop)))
        assert np.all(np.abs(field.values - expected) <= 1e-12 * expected)


class TestNormalize:
    def _field(self, values):
        n = len(values)
        grid = SamplingGrid(bounds=((0, 1), (0, 1), (0, float(n))), resolution=(1, 1, n))
        return IndicatorField(grid=grid, values=np.asarray(values, dtype=float))

    def test_scales_to_unit_max(self):
        out = normalize(self._field([1.0, 4.0, 2.0]))
        assert out.values.tolist() == [0.25, 1.0, 0.5]
        assert out.normalized

    def test_idempotent(self):
        once = normalize(self._field([1.0, 4.0, 2.0]))
        twice = normalize(once)
        assert np.array_equal(once.values, twice.values)

    def test_argmax_preserved(self, ball_dataset):
        field = compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 8))
        assert normalize(field).values.argmax() == field.values.argmax()

    def test_zero_field_errors(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize(self._field([0.0, 0.0]))

    def test_non_finite_field_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            normalize(self._field([1.0, math.nan, 2.0]))


@pytest.fixture(scope="module")
def ball_field(ball_dataset):
    return normalize(compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 16)))


class TestCrossSection:
    def test_dimensions(self, ball_field):
        cs = cross_section(ball_field, 3, 0.0)
        assert cs.values.shape == (16, 16)
        cs2 = cross_section(ball_field, 1, 0.0)
        assert cs2.values.shape == (16, 16)

    def test_symmetry(self, ball_field):
        # sensor on the x1 axis: the scenario is symmetric under x2 -> -x2
        cs = cross_section(ball_field, 3, 0.0)
        assert np.allclose(cs.values, cs.values[:, ::-1], rtol=1e-10)

    def test_normalized_values_bounded(self, ball_field):
        cs = cross_section(ball_field, 2, 0.0)
        assert cs.values.max() <= 1.0

    def test_out_of_bounds(self, ball_field):
        with pytest.raises(ValueError, match="outside"):
            cross_section(ball_field, 1, 5.0)

    def test_bad_axis(self, ball_field):
        with pytest.raises(ValueError, match="axis"):
            cross_section(ball_field, 0, 0.0)


class TestThresholdMask:
    def test_nesting(self, ball_field):
        low = threshold_mask(ball_field, 0.5)
        high = threshold_mask(ball_field, 0.8)
        assert np.all(high.mask <= low.mask)
        assert high.count <= low.count

    def test_high_iso_shrinks_to_argmax(self, ball_field):
        tight = threshold_mask(ball_field, 0.999)
        assert tight.count >= 1
        assert tight.mask[ball_field.values.argmax()]

    def test_requires_normalized(self, ball_dataset):
        field = compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 8))
        with pytest.raises(ValueError, match="normalized"):
            threshold_mask(field, 0.7)

    def test_iso_range(self, ball_field):
        for iso in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError, match="iso"):
                threshold_mask(ball_field, iso)

    def test_centroid_and_bbox(self):
        grid = SamplingGrid(bounds=((0, 2), (0, 1), (0, 1)), resolution=(2, 1, 1))
        field = IndicatorField(grid=grid, values=np.array([1.0, 0.5]), normalized=True)
        m = threshold_mask(field, 0.9)
        assert m.count == 1
        assert m.centroid == (0.5, 0.5, 0.5)
        assert m.bbox == ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))

    def test_empty_mask(self):
        grid = SamplingGrid(bounds=((0, 1), (0, 1), (0, 1)), resolution=(1, 1, 1))
        field = IndicatorField(grid=grid, values=np.array([0.5]), normalized=True)
        m = threshold_mask(field, 0.9)
        assert m.count == 0 and m.centroid is None and m.bbox is None


class TestFieldIO:
    def test_round_trip(self, ball_dataset, tmp_path):
        field = normalize(compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 8)))
        path = tmp_path / "field.mff"
        mf.imaging.write_field(field, path, "deadbeef")
        back, meta = mf.imaging.read_field(path)
        assert np.array_equal(back.values, field.values)
        assert back.grid == field.grid
        assert back.normalized
        assert meta["scenario_hash"] == "deadbeef"

    def test_mask_rle_reconstructs(self, ball_dataset, tmp_path):
        field = normalize(compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 8)))
        mask = threshold_mask(field, 0.6)
        path = tmp_path / "mask.txt"
        mf.imaging.write_mask(mask, path, "-")
        runs = []
        for line in path.read_text().splitlines():
            if line.startswith("run: "):
                start, length = (int(v) for v in line[5:].split())
                runs.append((start, length))
        rebuilt = np.zeros(field.grid.size, dtype=bool)
        for start, length in runs:
            rebuilt[start:start + length] = True
        assert np.array_equal(rebuilt, mask.mask)

    def test_cross_section_csv(self, ball_dataset, tmp_path):
        field = normalize(compute_indicator(ball_dataset, SamplingGrid.cube(3.0, 8)))
        cs = cross_section(field, 3, 0.0)
        path = tmp_path / "slice.csv"
        mf.imaging.write_cross_section(cs, path, "feed")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# mfsampling-slice v1 scenario_hash=feed")
        assert lines[1] == "x1,x2,value"
        assert len(lines) == 2 + 8 * 8
        u, v, val = lines[2].split(",")
        assert float(val) == cs.values[0, 0]
