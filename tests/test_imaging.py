import math
import os
import threading
import time

import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf
from mfsampling import (
    Ball,
    FrequencyGrid,
    IndicatorField,
    MeasurementSet,
    MultiFreqDataset,
    SamplingGrid,
    add_noise,
    apply_operator,
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
from mfsampling.forward import _toeplitz_apply, _toeplitz_forms
from conftest import (assert_no_child, fail_in_workers, freq_inner, radial_profile_deviation,
                      random_freq, support_norm)


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
        assert np.array_equal(g, np.ones(11, dtype=complex))

    def test_near_probe_unimodular(self):
        grid = FrequencyGrid(k_max=7.0, count=9)
        g = probe("near", (3.0, 0.0, 0.0), (0.4, -1.2, 0.7), grid)
        assert np.allclose(np.abs(g), 1.0, rtol=1e-15)

    def test_near_probe_phases(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        g = probe("near", (3.0, 0.0, 0.0), (0.0, 0.0, 0.0), grid)
        expected = np.exp(3j * np.arange(1, 12))
        assert np.allclose(g, expected, rtol=1e-14)

    def test_far_probe_at_origin(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        phi = probe("far", (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), grid)
        assert np.array_equal(phi, np.ones(11, dtype=complex))

    def test_far_probe_matches_near_probe_on_equal_argument(self):
        # the far phase -xhat.z = 1.5 for xhat = e1, z = (-1.5,0,0) equals the
        # near phase |x - z'| for x = (3,0,0), z' = (1.5,0,0)
        grid = FrequencyGrid(k_max=11.0, count=11)
        phi = probe("far", (1.0, 0.0, 0.0), (-1.5, 0.0, 0.0), grid)
        g = probe("near", (3.0, 0.0, 0.0), (1.5, 0.0, 0.0), grid)
        assert np.allclose(phi, g, rtol=1e-15)

    def test_far_probe_requires_unit_direction(self):
        grid = FrequencyGrid(k_max=11.0, count=11)
        with pytest.raises(ValueError, match="unit"):
            probe("far", (2.0, 0.0, 0.0), (0.0, 0.0, 0.0), grid)


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
_ANTIPODES = ((-0.6, 0.0, -0.8), (0.0, 1.0, 0.0), (0.48, -0.6, -0.64))


def _offcentre_scenario(kind, zero_mode="extend", resolution=(5, 4, 6)):
    measurement = (MeasurementSet("near", [tuple(3.0 * c for c in d) for d in _DIRECTIONS])
                   if kind == "near" else MeasurementSet("far", _DIRECTIONS + _ANTIPODES))
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

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_benchmark_oracle_call_shape(self, kind):
        # the benchmark's oracle sums the per-kind aliases over the sensors, one probe
        # each, at a seeded sample of voxels plus the argmax
        scenario = _offcentre_scenario(kind, resolution=(12, 10, 9))
        data = add_noise(generate_dataset(scenario), 0.05, 3)
        field = compute_indicator(data, scenario.sampling)
        if kind == "near":
            form, test_function = mf.near_quadratic_form, mf.near_test_function
        else:
            form, test_function = mf.far_quadratic_form, mf.far_test_function
        sample = np.random.default_rng(5).choice(field.grid.size, size=32, replace=False)
        index = np.append(sample, np.argmax(field.values))
        sensors = data.sensors.array
        for v, z in zip(index, field.grid.centers()[index]):
            ref = sum(abs(form(data, ell, test_function(sensors[ell], z, data.grid)))
                      for ell in range(len(sensors)))
            assert abs(field.values[v] - ref) <= 1e-12 * ref

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
        from mfsampling import Factorization, quadrature
        x = (3.0, 0.0, 0.0)
        fac = Factorization("near", x, quadrature(unit_ball, ball_scenario.h), ball_dataset.grid)
        lo, hi = 1 / (16 * math.pi), 1 / (8 * math.pi)
        for z in [(0, 0, 0), (0.5, 0.5, 0), (-1, 0.2, 0.8), (2, 2, 2), (-2.5, 0, 1)]:
            g = probe("near", x, z, ball_dataset.grid)
            denom = support_norm(fac.rule.weights, fac.analysis(g)) ** 2
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
        sensors = MeasurementSet("far", [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
        vm2, vm1, v0, vp1, vp2 = 0.2 - 0.1j, 0.4 + 0.3j, -0.5 + 0.2j, 0.1 - 0.6j, 0.7 + 0j
        values = np.array([[vm2, vm1, v0, vp1, vp2],
                           [vp2, vp1, v0, vm1, vm2]])
        data = MultiFreqDataset(sensors=sensors, grid=grid, values=values)
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
            measurement=MeasurementSet("far", directions),
            frequencies=FrequencyGrid(k_max=11.0, count=11), noise_level=0.0, seed=1,
            sampling=SamplingGrid.cube(3.0, 32),
        )
        assert len(scenario.measurement) == 14
        field = normalize(compute_indicator(generate_dataset(scenario), scenario.sampling))
        mask = threshold_mask(field, 0.7)
        assert mask.count > 0
        assert np.linalg.norm(np.array(mask.centroid) - center) <= 0.25

    def test_antipodes_carry_no_information(self):
        # the source is real, so u(-xhat, k) = conj u(xhat, k): an antipode images its
        # partner's profile, and the closed set's indicator is twice the listed set's
        closed = _offcentre_scenario("far")
        listed = replace(closed, measurement=MeasurementSet("far", _DIRECTIONS))
        six = compute_indicator(generate_dataset(closed), closed.sampling)
        three = compute_indicator(generate_dataset(listed), listed.sampling)
        assert np.all(np.abs(six.values - 2 * three.values) <= 1e-13 * six.values.max())
        masks = [threshold_mask(normalize(field), 0.7) for field in (six, three)]
        assert masks[0].count > 0
        assert np.array_equal(masks[0].mask, masks[1].mask)

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
            r = mf.phase(kind, x, rule.nodes.T)
            c = rule.weights * s.support.amplitude_at(rule.nodes) / mf.forward._spreading(kind, r)
            t = mf.phase(kind, x, s.sampling.centers().T)
            for v, tv in enumerate(t):
                fejer = np.array([abs(psf_discrete(rq - tv, s.frequencies)) ** 2 for rq in r])
                expected[v] += abs(np.sum(c * (fejer - drop)))
        assert np.all(np.abs(field.values - expected) <= 1e-12 * expected)


class TestGridPhases:
    """`phase` on the grid's axes is `phase` on the grid's centers, bit for bit."""

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_bit_equal_to_phase_on_centers(self, kind):
        s = _offcentre_scenario(kind, resolution=(7, 11, 5))
        grid = s.sampling
        axes = np.ix_(*(grid.axis_centers(a) for a in range(3)))
        for x in s.measurement.array:
            t = mf.phase(kind, x, axes)
            expected = mf.phase(kind, x, grid.centers().T)
            assert t.shape == (7, 11, 5)
            assert t.ravel().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_slab_is_rows_of_full_grid(self, kind):
        s = _offcentre_scenario(kind, resolution=(7, 11, 5))
        grid = s.sampling
        a0, a1, a2 = (grid.axis_centers(a) for a in range(3))
        for x in s.measurement.array:
            t = mf.phase(kind, x, np.ix_(a0[2:5], a1, a2))
            expected = mf.phase(kind, x, grid.centers().T)
            assert t.ravel().tobytes() == expected[2 * 55:5 * 55].tobytes()


class TestGridCis:
    """The indicator's w from `_grid_walk`: `_cis` of `phase` near, per-axis products
    far, into one slab buffer kept for the walk."""

    def test_far_product_within_rounding_of_cis(self):
        # Four exponentials (three factors and the reference), each within 0.254 eps
        # per part (the bound `forward._expi` derives), 0.36 eps in modulus, and two
        # complex products, each within sqrt(5)/2 eps: about 3.7 eps.  The rounded
        # arguments add eps dk |n_a y_a| per factor and eps dk sum_a |n_a y_a| +
        # eps/2 dk |t| to the reference.  So w is within 6 eps (1 + dk sum_a |n_a y_a|
        # + dk |t|); here it reaches about 0.08 of that.
        s = _offcentre_scenario("far", resolution=(7, 11, 5))
        grid, dk = s.sampling, s.frequencies.spacing
        axes = [grid.axis_centers(a) for a in range(3)]
        centers = grid.centers()
        eps = np.finfo(float).eps
        for x in s.measurement.array:
            t = mf.phase("far", x, centers.T)
            w = np.concatenate([w.copy() for _, _, w in
                                mf.forward._grid_walk("far", [x], axes, -dk)])
            err = np.abs(w - mf.forward._cis(-dk, t))
            spread = dk * np.abs(centers * x).sum(axis=1)
            assert np.all(err <= 6 * eps * (1 + spread + dk * np.abs(t)))

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_indicator_exponential_count(self, kind, monkeypatch):
        # near: one exponential per voxel and sensor; far: one per axis point and
        # sensor, taken once for all slabs
        monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", 110)  # 4 slabs of the 7 layers
        s = _offcentre_scenario(kind, resolution=(7, 11, 5))
        data = generate_dataset(s)
        cis, count = mf.forward._cis, [0]

        def counting(k, ph):
            out = cis(k, ph)
            count[0] += out.size
            return out

        monkeypatch.setattr(mf.forward, "_cis", counting)
        compute_indicator(data, s.sampling)
        L = len(data.sensors)
        if kind == "near":
            assert count[0] == L * s.sampling.size
        else:
            assert count[0] == L * (7 + 11 + 5)

    def test_far_walk_keeps_one_slab_buffer(self, monkeypatch):
        # every far w of a walk is a view of one buffer, overwritten at each step: a fresh
        # block per slab can cost more in page faults than the two products that fill it
        monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", 110)  # 4 slabs of the 7 layers
        s = _offcentre_scenario("far", resolution=(7, 11, 5))
        axes = [s.sampling.axis_centers(a) for a in range(3)]
        steps = list(mf.forward._grid_walk("far", s.measurement.array, axes,
                                           -s.frequencies.spacing))
        assert len({voxels.start for voxels, _, _ in steps}) >= 3
        assert all(np.shares_memory(w, steps[0][2]) for _, _, w in steps)


def _indicator_unslabbed(data, grid):
    """The indicator over all voxels at once: w from `phase` on the grid's centers
    near, and from `_grid_walk`'s slabs, copied and joined, far."""
    J, dk = data.grid.count, data.grid.spacing
    weights = dk * dk * (J - np.abs(np.arange(1 - J, J)))
    axes = [grid.axis_centers(a) for a in range(3)]
    total = np.zeros(grid.size)
    for x, row in zip(data.sensors.array, data.values):
        if data.kind == "near":
            w = mf.forward._cis(-dk, mf.phase(data.kind, x, grid.centers().T))
        else:
            w = np.concatenate([w.copy() for _, _, w in
                                mf.forward._grid_walk(data.kind, [x], axes, -dk)])
        total += np.abs(mf.forward._horner(weights * row[1:-1], w))
    return total


class TestIndicatorSlabs:
    """Slabs of axis-0 layers leave every voxel's value unchanged to the bit."""

    @pytest.mark.parametrize("kind", ["near", "far"])
    @pytest.mark.parametrize("resolution, slab_voxels", [
        ((7, 11, 5), None),  # the whole grid is below one slab
        ((37, 23, 21), None),  # 33 + 4 layers: V is not a multiple of a slab
        ((7, 11, 5), 110),  # slabs of 2, 2, 2 and 1 layers
        ((7, 11, 5), 10),  # a layer larger than a slab is taken whole
    ])
    def test_same_bytes_as_unslabbed(self, kind, resolution, slab_voxels, monkeypatch):
        if slab_voxels is not None:
            monkeypatch.setattr(mf.forward, "_SLAB_VOXELS", slab_voxels)
        s = _offcentre_scenario(kind, resolution=resolution)
        data = add_noise(generate_dataset(s), 0.05, 3)
        field = compute_indicator(data, s.sampling)
        assert field.values.tobytes() == _indicator_unslabbed(data, s.sampling).tobytes()


class TestIndicatorWorkers:
    """Ranges of axis-0 layers in worker processes give the serial field to the bit, and
    every worker is reaped before `compute_indicator` returns or raises."""

    @pytest.mark.parametrize("kind", ["near", "far"])
    @pytest.mark.parametrize("resolution, cpus, workers", [
        ((7, 11, 5), 2, 2),  # layers 0..2 and 3..6
        ((7, 11, 5), 3, 3),  # layers 0..1, 2..3 and 4..6
        ((2, 11, 5), 3, 2),  # fewer layers than CPUs: one layer each
        ((9, 11, 5), 8, 8),  # eight workers, likely more than the cores: all add at once
    ])
    def test_same_bytes_as_serial(self, kind, resolution, cpus, workers, split):
        s = _offcentre_scenario(kind, resolution=resolution)
        data = add_noise(generate_dataset(s), 0.05, 3)
        serial = compute_indicator(data, s.sampling)
        forks = split(cpus)
        field = compute_indicator(data, s.sampling)
        assert len(forks) == workers - 1
        assert_no_child()
        assert field.values.tobytes() == serial.values.tobytes()

    def test_failing_worker_raises_and_leaves_no_child(self, split, monkeypatch):
        s = _offcentre_scenario("near", resolution=(7, 11, 5))
        data = generate_dataset(s)
        forks = split(3)
        fail_in_workers(monkeypatch)
        with pytest.raises(ChildProcessError, match=r"layers 2\.\.3\) exited with status 1; "
                                                    r".*layers 4\.\.6\) exited with status 1$"):
            compute_indicator(data, s.sampling)
        assert len(forks) == 2
        assert_no_child()

    def test_failing_own_range_kills_the_workers(self, split, monkeypatch):
        # the caller's own exception propagates, and its workers, which would take 30 s
        # each, are killed and reaped at once
        s = _offcentre_scenario("far", resolution=(7, 11, 5))
        data = generate_dataset(s)
        forks = split(3)
        parent = os.getpid()

        def failing(coeffs, w):
            if os.getpid() == parent:
                raise FloatingPointError("injected fault in the caller's range")
            time.sleep(30)

        monkeypatch.setattr(mf.imaging, "_horner", failing)
        start = time.monotonic()
        with pytest.raises(FloatingPointError, match="caller's range"):
            compute_indicator(data, s.sampling)
        assert time.monotonic() - start < 10
        assert len(forks) == 2
        assert_no_child()

    def test_live_thread_keeps_the_serial_path(self, split):
        s = _offcentre_scenario("near", resolution=(7, 11, 5))
        data = add_noise(generate_dataset(s), 0.05, 3)
        serial = compute_indicator(data, s.sampling)
        forks = split(3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            field = compute_indicator(data, s.sampling)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert field.values.tobytes() == serial.values.tobytes()

    @pytest.mark.parametrize("layers, steps, workers", [
        (48, 48**3 * 14 * 21, 2),  # image_dense: V L (2J - 1) = 32.5M steps
        (16, 16**3 * 24 * 95, 1),  # wideband: 9.3M
        (32, 32**3 * 7 * 21, 1),  # far_offcentre: 4.8M
        (1, 48**3 * 14 * 21, 1),  # one layer
    ], ids=["image_dense", "wideband", "far_offcentre", "one_layer"])
    def test_worker_count(self, monkeypatch, layers, steps, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert mf.imaging._workers(layers, steps) == workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # `taskset -c 0`
        assert mf.imaging._workers(layers, steps) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert mf.imaging._workers(layers, steps) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert mf.imaging._workers(layers, steps) == 1


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

    def test_centroid_and_bbox_match_centers(self):
        s = _offcentre_scenario("near", resolution=(7, 11, 5))
        field = normalize(compute_indicator(generate_dataset(s), s.sampling))
        m = threshold_mask(field, 0.5)
        pts = s.sampling.centers()[m.mask]
        assert m.count == len(pts) > 1
        assert m.centroid == tuple(pts.mean(axis=0))
        assert m.bbox == (tuple(pts.min(axis=0)), tuple(pts.max(axis=0)))

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
