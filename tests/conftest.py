import math
import os

import numpy as np
import pytest
from dataclasses import replace

import mfsampling as mf

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    pass
else:
    # Derandomized, so tier-1 runs the same examples every time; no example database.
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                              max_examples=60)
    settings.load_profile("tier1")


@pytest.fixture(scope="session")
def unit_ball():
    return mf.Ball(center=(0.0, 0.0, 0.0), radius=1.0)


@pytest.fixture(scope="session")
def ball_scenario(unit_ball):
    """Clean single-sensor unit-ball scenario on a coarse rule (fast)."""
    return mf.Scenario(
        support=unit_ball,
        h=0.2,
        measurement=mf.MeasurementSet("near", [(3.0, 0.0, 0.0)]),
        frequencies=mf.FrequencyGrid(k_max=11.0, count=11),
        noise_level=0.0,
        seed=1,
        sampling=mf.SamplingGrid.cube(3.0, 16),
        label="ball_test",
    )


@pytest.fixture(scope="session")
def ball_dataset(ball_scenario):
    return mf.generate_dataset(ball_scenario)


@pytest.fixture(scope="session")
def far_ball_scenario(unit_ball):
    """Clean far-field scenario: unit ball, one direction pair."""
    return mf.Scenario(
        support=unit_ball,
        h=0.2,
        measurement=mf.MeasurementSet("far", [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]),
        frequencies=mf.FrequencyGrid(k_max=11.0, count=11),
        noise_level=0.0,
        seed=1,
        sampling=mf.SamplingGrid.cube(3.0, 16),
        label="far_ball_test",
    )


@pytest.fixture(scope="session")
def far_ball_dataset(far_ball_scenario):
    return mf.generate_dataset(far_ball_scenario)


def random_freq(grid, rng):
    """A (J,) band sample array on `grid`: (N(0,1) + i N(0,1)) / sqrt 2 per frequency."""
    return (rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)) / math.sqrt(2)


def freq_inner(a, b, dk) -> complex:
    """Discrete band inner product dk * sum a conj(b) of two (J,) band sample arrays."""
    return complex(dk * np.sum(a * np.conj(b)))


def support_inner(weights, u, v) -> complex:
    """Discrete support inner product sum w * u conj(v) of two complex samples on the nodes
    of a quadrature rule with these weights."""
    return complex(np.sum(weights * u * np.conj(v)))


def support_norm(weights, u) -> float:
    return math.sqrt(abs(support_inner(weights, u, u)))


def clean(scenario):
    return replace(scenario, noise_level=0.0)


def radial_profile_deviation(field, x, bin_width):
    """Worst deviation of a field from its own interpolated radial profile about x.

    The profile is the per-bin mean of the field over distance bins of the
    given width; a field that depends on position only through |x - z| has
    deviation bounded by the interpolation error alone.
    """
    centers = field.grid.centers()
    d = np.linalg.norm(centers - np.asarray(x, dtype=float), axis=1)
    bins = np.floor((d - d.min()) / bin_width).astype(int)
    nb = int(bins.max()) + 1
    sums = np.bincount(bins, weights=field.values, minlength=nb)
    cnts = np.bincount(bins, minlength=nb)
    centers_d = d.min() + (np.arange(nb) + 0.5) * bin_width
    valid = cnts > 0
    profile = np.interp(d, centers_d[valid], sums[valid] / cnts[valid])
    return float(np.abs(field.values - profile).max())


@pytest.fixture
def split(monkeypatch):
    """`split(cpus)` makes `compute_indicator` take min(cpus, layers) processes on any
    grid, as if this process ran on `cpus` CPUs and every grid paid for a fork, and
    returns the list that each fork in this process appends its worker's pid to."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def force(cpus):
        monkeypatch.setattr(mf.imaging, "_WORKER_STEPS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted)
        return forks

    return force


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_workers(monkeypatch):
    """Make the indicator's `_horner` raise in every process but this one."""
    parent, horner = os.getpid(), mf.imaging._horner

    def failing(coeffs, w):
        if os.getpid() != parent:
            raise FloatingPointError("injected worker fault")
        return horner(coeffs, w)

    monkeypatch.setattr(mf.imaging, "_horner", failing)
