"""Discrete multi-frequency operators and their factorization.

The data-driven operator convolves a sensor's multi-frequency samples
against a frequency function over the band; it factors exactly (on
matched quadrature) into an outer synthesis/analysis pair and a middle
multiplication operator; `verify` certifies that.  Band functions are (J,)
complex arrays on the positive frequency nodes, support functions (Q,) arrays on
a rule's nodes.  All reductions run in a fixed order so results are
reproducible across platforms and thread counts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .forward import FrequencyGrid, MultiFreqDataset, _band, _horner, _power_sums
from .geometry import QuadratureRule


@lru_cache(maxsize=16)
def _toeplitz_index(J: int) -> np.ndarray:
    """Read-only J x J index j - l + J into a row over the difference columns m = -J..J."""
    idx = (np.arange(J)[:, None] - np.arange(J)[None, :]) + J
    idx.flags.writeable = False
    return idx


def _toeplitz_forms(row: np.ndarray, G: np.ndarray, dk: float) -> np.ndarray:
    """(N g, g) = dk sum_j (N g)_j conj g_j at each row g of a (T, J) array G, with N
    the band convolution of a row over the difference columns m = -J..J: one
    `_toeplitz_apply` of every row, then a row-wise dot, each in O(J^2)."""
    return dk * np.einsum("tj,tj->t", _toeplitz_apply(row, G, dk), np.conj(G))


def _toeplitz_apply(row: np.ndarray, G: np.ndarray, dk: float) -> np.ndarray:
    """dk sum_l row[j - l] G[t, l] at each row t of a (T, J) array G: the band
    convolution N of a row over the difference columns m = -J..J, applied to every
    row of G at once through the row's J x J block."""
    return dk * np.einsum("jl,tl->tj", row[_toeplitz_index(len(row) // 2)], G)


def _check_length(a: np.ndarray, n: int, what: str) -> None:
    if len(a) != n:
        raise ValueError(f"expected {n} {what}, got {len(a)}")


def _band_function(data: MultiFreqDataset, g) -> np.ndarray:
    """g as complex samples on the data's J nodes, refusing a wrong shape or a non-finite
    sample.  An array carries no k_max: only its count can meet the grid."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (data.grid.count,):
        raise ValueError(f"expected {data.grid.count} band samples, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("band samples must be finite")
    return g


def apply_operator(data: MultiFreqDataset, sensor: int, g: np.ndarray) -> np.ndarray:
    """Band convolution (N g)(k_j) = dk * sum_l values[sensor, j-l] g(k_l), (J,) to (J,)."""
    return _toeplitz_apply(data.values[sensor], _band_function(data, g)[None],
                           data.grid.spacing)[0]


def quadratic_form(data: MultiFreqDataset, sensor: int, g: np.ndarray) -> complex:
    """(N g, g) under the discrete band inner product, at (J,) band samples g."""
    return complex(_toeplitz_forms(data.values[sensor], _band_function(data, g)[None],
                                   data.grid.spacing)[0])


# Former per-kind names, still called by the benchmark's oracle.
near_quadratic_form = far_quadratic_form = quadratic_form


class Factorization:
    """One sensor's factors of its data operator, N = P T P* on matched quadrature.

    The factors act on arrays: P (`synthesis`) maps (Q,) support samples to (J,)
    band samples with kernel e^{i k phase(y)}, T (`apply_multiplier`) multiplies
    (Q,) samples by f(y) / spreading(y), with f the rule's `amplitude`, and P*
    (`analysis`), P's adjoint with the conjugate kernel, maps (J,) to (Q,); each
    refuses another length.
    `_band` gives the multiplier and the sensor's ratio z; the kernel at
    k_j = j dk is z^j, so P sums running products (`_power_sums`) and P* runs
    Horner's rule in conj(z) (`_horner`); neither builds a J x Q kernel.  conj(z)
    and complex copies of the multiplier and weights are taken once, here: a
    complex times a real array's complex copy has the bits of numpy's own
    promotion.  The sensor's data row is P(T 1): `_laurent_rows` of z against
    the weights times `multiplier`, which `verify` writes from these factors alone.
    """

    def __init__(self, kind: str, x, rule: QuadratureRule, grid: FrequencyGrid):
        self.rule, self.grid = rule, grid
        self.z, self.multiplier = _band(kind, x, rule, grid.spacing)
        self._zc = np.conj(self.z)
        self._multiplier_c = self.multiplier.astype(complex)
        self._weights_c = rule.weights.astype(complex)

    def synthesis(self, psi: np.ndarray) -> np.ndarray:
        _check_length(psi, len(self.rule), "support samples")
        return _power_sums(self.z, self._weights_c * psi, self.grid.count)[1:]

    def apply_multiplier(self, h: np.ndarray) -> np.ndarray:
        _check_length(h, len(self.rule), "support samples")
        return h * self._multiplier_c

    def analysis(self, phi: np.ndarray) -> np.ndarray:
        # dk sum_j conj(z)^(j+1) phi_j: Horner's rule in conj(z), from j = J-1 down
        _check_length(phi, self.grid.count, "band samples")
        out = _horner(phi, self._zc)
        out *= self._zc
        out *= self.grid.spacing
        return out
