"""Discrete multi-frequency operators and their factorization.

The data-driven operator convolves a sensor's multi-frequency samples
against a frequency function over the band; it factors exactly (on
matched quadrature) into an outer synthesis/analysis pair and a middle
multiplication operator.  All reductions run in a fixed order so results
are reproducible across platforms and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .forward import (FrequencyGrid, MeasurementSet, MultiFreqDataset, _kernel, generate_dataset,
                      phase)
from .geometry import QuadratureRule, SourceSupport, quadrature

if TYPE_CHECKING:
    from .scenario import Scenario

_DENSE_FREQ_LIMIT = 64
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


def synthesis(kind: str, x, rule: QuadratureRule, psi: SupportFunction,
              grid: FrequencyGrid) -> FreqFunction:
    """Support -> band map with kernel e^{i t phase(y)} (outer factor of the data operator)."""
    E, _ = _kernel(kind, x, rule.nodes, grid.nodes)
    out = np.einsum("jq,q->j", E, rule.weights * psi.samples)
    return FreqFunction(grid=grid, samples=out)


def analysis(kind: str, x, rule: QuadratureRule, phi: FreqFunction) -> SupportFunction:
    """Band -> support adjoint with kernel e^{-i s phase(y)}."""
    E, _ = _kernel(kind, x, rule.nodes, -phi.grid.nodes)
    out = phi.grid.spacing * np.einsum("jq,j->q", E, phi.samples)
    return SupportFunction(rule=rule, samples=out)


def apply_multiplier(kind: str, x, support: SourceSupport, rule: QuadratureRule,
                     h: SupportFunction) -> SupportFunction:
    """Middle operator of the factorization: multiply by f(y) / spreading(y)."""
    _, spreading = phase(kind, x, rule.nodes)
    f = support.amplitude_at(rule.nodes)
    return SupportFunction(rule=rule, samples=h.samples * f / spreading)


def _one_sensor(scenario: "Scenario", sensor: int) -> "Scenario":
    """The scenario measured by sensor `sensor` alone (a far direction keeps its antipode).

    Its dataset's row 0 equals row `sensor` of the full dataset bit for bit.
    The operator certificates, which use it, hold for noiseless data only.
    """
    if scenario.noise_level != 0:
        raise ValueError("operator certificates require a noiseless scenario")
    x = [scenario.measurement.points[sensor]]
    return replace(scenario, measurement=MeasurementSet.near_points(x) if scenario.kind == "near"
                   else MeasurementSet.far_directions(x))


def _dense_operator_pair(scenario: "Scenario", sensor: int):
    """Dense (data operator, factored product) matrices on matched quadrature."""
    grid = scenario.frequencies
    if grid.count > _DENSE_FREQ_LIMIT:
        raise ValueError(f"dense factorization check limited to {_DENSE_FREQ_LIMIT} frequencies")
    data = generate_dataset(_one_sensor(scenario, sensor))
    rule = quadrature(scenario.support, scenario.h)
    dk = grid.spacing
    N = dk * _toeplitz_block(data, 0)
    f = scenario.support.amplitude_at(rule.nodes)
    E, spreading = _kernel(scenario.kind, scenario.measurement.array[sensor], rule.nodes,
                           grid.nodes)
    mid = rule.weights * f / spreading
    M = dk * np.einsum("jq,q,lq->jl", E, mid, np.conj(E))
    return N, M


def factorization_residual(scenario: "Scenario", sensor: int = 0, trials: int = 20) -> float:
    """Max over random test functions of ||(N - PTP*) g|| / ||N g|| on matched quadrature."""
    N, M = _dense_operator_pair(scenario, sensor)
    J = scenario.frequencies.count
    rng = np.random.default_rng([scenario.seed, sensor, _FACTORIZATION_SALT])
    worst = 0.0
    for _ in range(trials):
        g = (rng.standard_normal(J) + 1j * rng.standard_normal(J)) / math.sqrt(2)
        num = np.linalg.norm(np.einsum("jl,l->j", N - M, g))
        den = np.linalg.norm(np.einsum("jl,l->j", N, g))
        if den == 0.0:
            raise ValueError("degenerate scenario: data operator annihilates a random test function")
        worst = max(worst, float(num / den))
    return worst
