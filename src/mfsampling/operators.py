"""Discrete multi-frequency operators and their factorization.

The data-driven operator convolves a sensor's multi-frequency samples
against a frequency function over the band; it factors exactly (on
matched quadrature) into an outer synthesis/analysis pair and a middle
multiplication operator.  All reductions run in a fixed order so results
are reproducible across platforms and thread counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .forward import FrequencyGrid, MeasurementSet, MultiFreqDataset, _band, generate_dataset
from .geometry import QuadratureRule, SourceSupport, quadrature

if TYPE_CHECKING:
    from .scenario import Scenario

_FACTORIZATION_SALT = 0x8F1E


@dataclass(frozen=True)
class FreqFunction:
    """Samples of a band function on the positive frequency nodes."""

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (self.grid.count,):
            raise ValueError(f"expected {self.grid.count} samples, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("frequency samples must be finite")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class SupportFunction:
    """Samples of a support-domain function on quadrature nodes."""

    rule: QuadratureRule
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (len(self.rule),):
            raise ValueError(f"expected {len(self.rule)} samples, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("support samples must be finite")
        object.__setattr__(self, "samples", s)


def freq_inner(a: FreqFunction, b: FreqFunction) -> complex:
    """Discrete band inner product dk * sum a conj(b)."""
    if a.grid != b.grid:
        raise ValueError("frequency grid mismatch")
    return complex(a.grid.spacing * np.sum(a.samples * np.conj(b.samples)))

def support_inner(u: SupportFunction, v: SupportFunction) -> complex:
    """Discrete support inner product sum w * u conj(v)."""
    if u.rule is not v.rule and len(u.rule) != len(v.rule):
        raise ValueError("quadrature rule mismatch")
    return complex(np.sum(u.rule.weights * u.samples * np.conj(v.samples)))

def support_norm(u: SupportFunction) -> float:
    return math.sqrt(abs(support_inner(u, u)))


def _toeplitz_block(data: MultiFreqDataset, sensor: int) -> np.ndarray:
    """J x J block B[j, l] = values[sensor, j - l] over the difference columns."""
    J = data.grid.count
    idx = (np.arange(J)[:, None] - np.arange(J)[None, :]) + J
    return data.values[sensor][idx]


def _check_grid(data: MultiFreqDataset, g: FreqFunction) -> None:
    if g.grid != data.grid:
        raise ValueError("frequency grid mismatch between dataset and test function")


def apply_operator(data: MultiFreqDataset, sensor: int, g: FreqFunction) -> FreqFunction:
    """Band convolution (N g)(k_j) = dk * sum_l values[sensor, j-l] g(k_l)."""
    _check_grid(data, g)
    block = _toeplitz_block(data, sensor)
    out = data.grid.spacing * np.einsum("jl,l->j", block, g.samples)
    return FreqFunction(grid=data.grid, samples=out)


def quadratic_form(data: MultiFreqDataset, sensor: int, g: FreqFunction) -> complex:
    """(N g, g) under the discrete band inner product."""
    _check_grid(data, g)
    block = _toeplitz_block(data, sensor)
    dk = data.grid.spacing
    return complex(dk * dk * np.einsum("jl,l,j->", block, g.samples, np.conj(g.samples)))


# Former per-kind names, still called by the benchmark's oracle.
near_quadratic_form = far_quadratic_form = quadratic_form


class Factorization:
    """One sensor's factors of its data operator, N = P T P* on matched quadrature.

    P (`synthesis`) maps support to band with kernel e^{i k phase(y)}, T
    (`apply_multiplier`) multiplies by f(y) / spreading(y), and P* (`analysis`)
    is P's adjoint, with the conjugate kernel.  The J x Q kernel is rows 1..J
    of the sensor's `_band`, and the sensor's data columns m = 1..J are
    P(T 1) with this kernel and multiplier, so data and factors agree bit for
    bit; both are built once, when the factorization is.
    """

    def __init__(self, kind: str, x, support: SourceSupport, rule: QuadratureRule,
                 grid: FrequencyGrid):
        self.rule, self.grid = rule, grid
        band, spreading = _band(kind, x, rule.nodes, grid.spacing, grid.count)
        self.kernel = band[1:]
        self.multiplier = support.amplitude_at(rule.nodes) / spreading

    def synthesis(self, psi: SupportFunction) -> FreqFunction:
        out = np.einsum("jq,q->j", self.kernel, self.rule.weights * psi.samples)
        return FreqFunction(grid=self.grid, samples=out)

    def apply_multiplier(self, h: SupportFunction) -> SupportFunction:
        return SupportFunction(rule=self.rule, samples=h.samples * self.multiplier)

    def analysis(self, phi: FreqFunction) -> SupportFunction:
        # conj(K)^T phi as conj(K^T conj(phi)): the same bits, without a conjugate J x Q copy
        out = phi.grid.spacing * np.conj(np.einsum("jq,j->q", self.kernel, np.conj(phi.samples)))
        return SupportFunction(rule=self.rule, samples=out)


def _sensor_trials(scenario: "Scenario", sensor: int, salt: int):
    """(data, factorization, test functions) of sensor `sensor` measuring alone.

    Row 0 of the noiseless data equals row `sensor` of the full dataset bit
    for bit (a far direction keeps its antipode).  The test functions are
    an endless seeded draw of (N(0,1) + i N(0,1)) / sqrt 2 per frequency.
    The operator certificates, which use them, hold for noiseless data only.
    """
    if scenario.noise_level != 0:
        raise ValueError("operator certificates require a noiseless scenario")
    x = scenario.measurement.points[sensor]
    alone = replace(scenario, measurement=MeasurementSet.near_points([x]) if scenario.kind == "near"
                    else MeasurementSet.far_directions([x]))
    grid = scenario.frequencies
    fac = Factorization(scenario.kind, x, scenario.support, quadrature(scenario.support, scenario.h),
                        grid)
    rng = np.random.default_rng([scenario.seed, sensor, salt])

    def draws():
        while True:
            yield FreqFunction(grid, (rng.standard_normal(grid.count)
                                      + 1j * rng.standard_normal(grid.count)) / math.sqrt(2))

    return generate_dataset(alone), fac, draws()


def factorization_residual(scenario: "Scenario", sensor: int = 0, trials: int = 20) -> float:
    """Max over random test functions of ||(N - PTP*) g|| / ||N g|| on matched quadrature."""
    data, fac, draws = _sensor_trials(scenario, sensor, _FACTORIZATION_SALT)
    worst = 0.0
    for g in itertools.islice(draws, trials):
        Ng = apply_operator(data, 0, g).samples
        den = np.linalg.norm(Ng)
        if den == 0.0:
            raise ValueError("degenerate scenario: data operator annihilates a random test function")
        num = np.linalg.norm(Ng - fac.synthesis(fac.apply_multiplier(fac.analysis(g))).samples)
        worst = max(worst, float(num / den))
    return worst
