"""Synthetic multi-frequency field data.

Scattered fields are evaluated by quadrature of the exact integral
representations (outgoing point-source kernel for near-field sensors, a
plane-wave kernel for far-field directions), both written through one phase
map, extended to negative frequencies by conjugation (the source is real, so
u(x, -k) = conj u(x, k) at a sensor point and in a direction alike, and a
direction's data already hold its antipode's), and optionally perturbed by
Gaussian noise seeded per sensor row.  A run builds one quadrature rule,
and its data and factors share it.

The band k = m dk, m = 0..J, is equally spaced, so a dataset's column m is the
power sum sum_q c_q z_q^m of one ratio z = e^{i dk phase} per quadrature node
(`_band`), one running product c z^m per node (`_power_sums`), never a
(J+1) x Q band; `_laurent_rows` writes them over m = -J..J, as the data P(T 1)
and `verify`'s Gram row, `_toeplitz_apply` convolves such a row with a batch of band
functions, (J,) arrays on the positive nodes, and `_horner` sums the analysis factor's
and the indicator's polynomials.  Arbitrary wavenumbers (`radiated_field`, the probe,
and the near indicator) take `_cis` of the phase; `radiated_field` takes its wavenumbers
in blocks of whole rows, never a J x Q array.  `_grid_walk` walks the indicator's grid;
the far phase is linear, so there it evaluates the kernel on the three axes alone.
Every e^{i theta} comes from one vectorised kernel, `_expi`: a table of the N-th roots
of unity times short polynomials, within 0.254 eps per part.  Every cache-sized loop
takes its blocks of whole rows from `_row_blocks`.  Only `MeasurementSet.__post_init__`
(a far set's points must be unit vectors), `phase`, `_spreading`, `_grid_walk` and
`phase_range` (the phase's exact range over the closed support, which refuses a sensor
point in it) branch on the kind.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .geometry import GeometryError, QuadratureRule, SourceSupport, quadrature, _point

if TYPE_CHECKING:
    from .scenario import Scenario

DATASET_MAGIC = "mfsampling-dataset v1"
_UNIT_TOL = 1e-12
# Elements per cache-sized slab (`_row_blocks`): small enough that a slab's working
# arrays stay in cache, large enough to amortize each call.
_SLAB_VOXELS = 16384


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of the band (0, k_max] into `count` nodes j*dk."""

    k_max: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "k_max", float(self.k_max))
        object.__setattr__(self, "count", int(self.count))
        if not 0 < self.k_max < math.inf:
            raise ValueError(f"k_max must be positive and finite, got {self.k_max!r}")
        if self.count < 2:
            raise ValueError("frequency count must be at least 2")

    @property
    def spacing(self) -> float:
        return self.k_max / self.count

    @property
    def nodes(self) -> np.ndarray:
        """Positive nodes k_j = j*dk, j = 1..count."""
        return np.arange(1, self.count + 1) * self.spacing


@dataclass(frozen=True)
class MeasurementSet:
    """Sensor collection: near-field points, or far-field unit directions.

    Each point is one sensor, one row of data, in the order given; a far set is
    the directions listed and nothing more.
    """

    kind: str
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if self.kind not in ("near", "far"):
            raise ValueError(f"measurement kind must be 'near' or 'far', got {self.kind!r}")
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("measurement set must contain at least one sensor")
        if any(len(p) != 3 for p in pts):
            n = " or ".join(str(c) for c in sorted({len(p) for p in pts}))
            raise ValueError(f"measurement points must have shape (L, 3), got ({len(pts)}, {n})")
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ValueError(f"measurement points must be finite, got {pts!r}")
        for p in pts if self.kind == "far" else ():
            _direction(p)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def __len__(self) -> int:
        return len(self.points)


def _direction(x) -> np.ndarray:
    xp = _point(x)
    if abs(math.hypot(*xp) - 1.0) > _UNIT_TOL:
        raise ValueError("far-field direction must be a unit vector")
    return xp


def phase(kind: str, x, coords) -> np.ndarray:
    """Phase map of one sensor at points y given by their three coordinate arrays,
    which broadcast together (`nodes.T`, `np.ix_` of three grid axes, or one point).

    Near sensor point x: |x - y|, with the squares added in axis order.  Far
    direction xhat: -xhat.y, summed in axis order.  The data kernel
    e^{i k phase} / spreading, the probe, the outer and middle factors and the
    indicator are all built from this map, so their signs agree by construction;
    beside it only `MeasurementSet.__post_init__`, `_spreading`, `_grid_walk` and
    `phase_range` branch on the kind.
    """
    y0, y1, y2 = coords
    if kind == "near":
        xp = _point(x)
        return np.sqrt((xp[0] - y0) ** 2 + (xp[1] - y1) ** 2 + (xp[2] - y2) ** 2)
    n0, n1, n2 = -_direction(x)  # the bits of -(xhat.y), zeros' signs aside, no negating pass
    return n0 * y0 + n1 * y1 + n2 * y2


def phase_range(kind: str, x, support: SourceSupport) -> tuple[float, float]:
    """Exact (inf, sup) of `phase(kind, x, y)` over y in the closed support: near, the
    distance bounds, for x outside the closed support (else GeometryError); far,
    (-h(xhat), h(-xhat)) for the support function h, as -xhat.y is linear in y."""
    if kind == "near":
        r1, r2 = support.signed_distance_bounds(x)
        if r1 <= 0:
            raise GeometryError("near-field sensor point lies inside the source support or on "
                                "its boundary")
        return r1, r2
    xhat = _direction(x)
    return -support.support_function(xhat), support.support_function(-xhat)


def _spreading(kind: str, ph: np.ndarray) -> np.ndarray | float:
    """The kernel's spreading at phase ph: 4 pi |x - y| near, 1.0 far."""
    return 4 * math.pi * ph if kind == "near" else 1.0


def _row_blocks(rows: int, row_size: int):
    """Slices of whole rows over 0..rows, in order: each of at least one row and at most
    `_SLAB_VOXELS` elements, unless one row alone exceeds them."""
    step = max(1, _SLAB_VOXELS // row_size)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


# e^{i theta} = T[n] e^{i phi} with theta = n 2 pi / N + phi, |phi| <= pi / N (`_expi`).
# 2 pi / N is C1 + C2 + C3, C1 and C2 of 30 bits each, so n C1 and n C2 are exact for
# |n| < 2^23.
_CIS_N = 2048
_CIS_INV = 325.94932345220167  # N / (2 pi)
_CIS_C1, _CIS_C2, _CIS_C3 = 0.0030679615738335997, 1.937682771803754e-12, 1.0098013636316612e-21
_DD_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


def _dd_mul(ah, al, bh, bl):
    """Double-double product (ah + al)(bh + bl) as (hi, lo), exact to about 2^-104."""
    p = ah * bh
    t = _DD_SPLIT * ah
    a1 = t - (t - ah)
    t = _DD_SPLIT * bh
    b1 = t - (t - bh)
    a2, b2 = ah - a1, bh - b1
    e = (((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2) + (ah * bl + al * bh)
    s = p + e
    return s, e - (s - p)


def _dd_add(ah, al, bh, bl):
    """Double-double sum (ah + al) + (bh + bl) as (hi, lo)."""
    s = ah + bh
    v = s - ah
    e = ((ah - (s - v)) + (bh - v)) + (al + bl)
    t = s + e
    return t, e - (t - s)


def _dd_cmul(a, b):
    """Double-double complex product of (re_hi, re_lo, im_hi, im_lo) tuples."""
    (arh, arl, aih, ail), (brh, brl, bih, bil) = a, b
    re = _dd_add(*_dd_mul(arh, arl, brh, brl), *_dd_mul(aih, ail, -bih, -bil))
    return re + _dd_add(*_dd_mul(arh, arl, bih, bil), *_dd_mul(aih, ail, brh, brl))


def _cis_table() -> tuple[np.ndarray, np.ndarray]:
    """T = e^{2 pi i j / N}, j = 0..N-1, as the nearest doubles per part and the rest.

    The quarter circle is built in double-double from w = e^{2 pi i / N} alone, in
    three rounds that multiply the table so far by w^0..w^7 (the powers by Python
    floats), so e^{2 pi i j / N} = w^j is within about 2^-100 before its parts round
    once; the other quarters are exact rotations by i.  Only IEEE sums and
    products are used, so every platform builds the same table.
    """
    w = (0.9999952938095762, -1.966806428532219e-17, 0.003067956762965976, 1.2690279085455925e-19)
    table = (np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1))
    for _ in range(3):
        powers = [(1.0, 0.0, 0.0, 0.0), w]
        for _ in range(6):
            powers.append(_dd_cmul(powers[-1], w))
        w = _dd_cmul(powers[-1], w)  # w^8, the next round's ratio
        table = tuple(part.ravel() for part in
                      _dd_cmul([np.array(v)[:, None] for v in zip(*powers)], table))
    hi, lo = (table[0] + 1j * table[2]), (table[1] + 1j * table[3])
    return tuple(np.concatenate([q, 1j * q, -q, -1j * q]) for q in (hi, lo))


_CIS_HI, _CIS_LO = _cis_table()
_SCRATCH = threading.local()


def _scratch(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's `_expi` scratch, e and lo (complex) and j (index), of at least
    `size` each, kept across calls: a fresh block of this size can cost more in page
    faults than the kernel itself, whenever the allocator hands it back to the system."""
    ws = getattr(_SCRATCH, "ws", None)
    if ws is None or len(ws[0]) < size:
        ws = _SCRATCH.ws = (np.empty(size, dtype=complex), np.empty(size, dtype=complex),
                            np.empty(size, dtype=np.intp))
    return ws


def _expi(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i theta} into `out` (C-contiguous complex, theta's size), one `_row_blocks`
    slab of elements at a time.

    n = rint(theta N / 2 pi) picks T = e^{2 pi i n / N} (`_cis_table`, as T_hi + T_lo),
    phi = (theta - n C1) - (n C2 + n C3), and E = (cos phi - 1) + i sin phi by
    phi^2 (phi^2 / 24 - 1/2) and phi + phi^3 (phi^2 / 120 - 1/6); the result is
    T_hi + (T_lo + T_hi E).  The bound per part holds for |theta| <= 25700, where
    |n| < 2^23 (beyond it n C1 rounds, and the error grows like eps |theta|, as
    theta's own rounding does); with |phi| <= Phi = 1.534e-3 < 2^-9 and eps = 2^-52:

    - phi: theta - n C1 is exact (Sterbenz), n C2 + n C3 rounds by 2e-21, the
      difference by half an ulp below 2^-9, 2^-63 = 1.1e-19, and C1 + C2 + C3
      misses 2 pi / N by 8.5e-38;
    - E: the cosine misses Phi^6 / 720 = 1.8e-20 and rounds by 1e-21; the sine
      misses Phi^7 / 5040 and rounds by 2^-63 in its last sum, plus phi's error:
      2.4e-19 per part of T E, as |T| = 1;
    - T_hi E: per part one product below 2^-9 and the sum round by 2^-63 each
      (the other product is below 1.2e-6), 2.2e-19; T_lo E, left out, is at most
      2^-53 Phi = 1.7e-19; T_hi + T_lo is within 2^-100 of e^{2 pi i n / N};
    - T_lo + T_hi E rounds by 2^-63, and the last sum by half an ulp of a part
      of modulus at most 1, eps / 4.

    So each part is within eps / 4 + 7.5e-19 < 0.254 eps of e^{i theta}, and
    theta = +-0 gives exactly 1 + 0j.
    """
    flat, dest = theta.reshape(-1), out.reshape(-1)
    e, lo, j = _scratch(min(flat.size, _SLAB_VOXELS))
    for block in _row_blocks(flat.size, 1):
        t, o = flat[block], dest[block]
        b = t.size
        eb, lb, jb = e[:b], lo[:b], j[:b]
        # scratch reals: n and phi, then the sine, in the output block; p and the cosine in lo's
        nb, fb = o.view(float)[:b], o.view(float)[b:]
        pb, cb = lb.view(float)[:b], lb.view(float)[b:]
        np.multiply(t, _CIS_INV, out=nb)
        np.rint(nb, out=nb)
        np.copyto(jb, nb, casting="unsafe")
        jb &= _CIS_N - 1
        np.multiply(nb, _CIS_C1, out=fb)
        np.subtract(t, fb, out=fb)
        np.multiply(nb, _CIS_C2, out=pb)
        np.multiply(nb, _CIS_C3, out=nb)
        pb += nb
        fb -= pb
        np.multiply(fb, fb, out=pb)
        np.multiply(pb, 0.041666666666666664, out=cb)
        cb -= 0.5
        cb *= pb
        np.multiply(pb, 0.008333333333333333, out=nb)
        nb -= 0.16666666666666666
        nb *= pb
        nb *= fb
        nb += fb
        eb.real, eb.imag = cb, nb
        np.take(_CIS_HI, jb, out=o, mode="clip")
        np.take(_CIS_LO, jb, out=lb, mode="clip")
        eb *= o
        eb += lb
        o += eb
    return out


def _cis(k: float | np.ndarray, ph: np.ndarray) -> np.ndarray:
    """e^{i k ph}, rows k by columns ph, from one `_expi` of their outer product: every
    caller passes a single row or at most one slab of elements (`radiated_field`)."""
    k, ph = np.asarray(k, dtype=float), np.asarray(ph, dtype=float)
    return _expi(np.multiply.outer(k, ph), np.empty(k.shape + ph.shape, dtype=complex))


def _grid_walk(kind: str, points, axes, k: float):
    """e^{i k phase} of each sensor on the tensor grid of three axis vectors: yields
    (voxels, l, w), sensor l's w on the slab `voxels` of the row-major grid, sensor by
    sensor within each slab of whole axis-0 layers (`_row_blocks`), slab after slab.

    Near: `_cis` of the phase at every voxel of the slab.  Far: the phase is linear, so
    w is the product (e0 e1) e2 of the axis factors e_a = e^{i k phase} on axis a with
    the other two coordinates zero, two complex products per voxel, into one slab
    buffer kept for the walk, which each step overwrites; every sensor's axis factors
    come from one `_cis` of their concatenated phases, taken before the first slab.
    """
    a0, a1, a2 = axes
    layer = a1.size * a2.size
    if kind == "far":
        lines = ((a0, 0.0, 0.0), (0.0, a1, 0.0), (0.0, 0.0, a2))
        ph = np.concatenate([phase(kind, x, line) for x in points for line in lines])
        e0, e1, e2 = np.split(_cis(k, ph).reshape(len(points), -1),
                              (a0.size, a0.size + a1.size), axis=1)
        buf = np.empty((0, a1.size, a2.size), dtype=complex)
    for rows in _row_blocks(a0.size, layer):
        voxels = slice(rows.start * layer, rows.stop * layer)
        for ell, x in enumerate(points):
            if kind == "near":
                w = _cis(k, phase(kind, x, np.ix_(a0[rows], a1, a2)).ravel())
            else:
                f0 = e0[ell, rows]
                if len(buf) < f0.size:  # the first slab is the largest
                    buf = np.empty((f0.size, a1.size, a2.size), dtype=complex)
                w = np.multiply.outer(np.multiply.outer(f0, e1[ell]), e2[ell],
                                      out=buf[:f0.size]).ravel()
            yield voxels, ell, w


def _band(kind: str, x, rule: QuadratureRule, dk: float) -> tuple[np.ndarray, np.ndarray]:
    """The band's ratio z = e^{i dk phase(y)} per node, and the middle factor's multiplier
    f / spreading: the kernel at k = m dk is z^m (`_power_sums`), and T multiplies by f
    over the phase map's spreading."""
    ph = phase(kind, x, rule.nodes.T)
    return _cis(dk, ph), rule.amplitude / _spreading(kind, ph)


def _power_sums(z: np.ndarray, c: np.ndarray, J: int) -> np.ndarray:
    """Columns m = 0..J of sum_q c_q z_q^m over the last axis, for any leading shape: one
    running product per node, from c cast to complex, times z in place and in order, and
    reduced per row into column m (`np.sum`'s reduction, without its wrapper), so a row's
    bits depend on its own z and c alone.  A complex c is that running product, so it is
    overwritten; a real c is cast into a new array and left as it was."""
    p = np.asarray(c, dtype=complex)
    sums = np.empty(p.shape[:-1] + (J + 1,), dtype=complex)
    np.add.reduce(p, axis=-1, out=sums[..., 0])
    for m in range(1, J + 1):
        p *= z
        np.add.reduce(p, axis=-1, out=sums[..., m])
    return sums


def _laurent_rows(z: np.ndarray, c: np.ndarray, J: int, zero_mode: str) -> np.ndarray:
    """Rows over m = -J..J of sum_q c_q z_q^m for real c and unimodular z: the power sums
    at m = 0..J, their `mirror` at m < 0, and column m = 0 zeroed if zero_mode is 'drop'
    (else the continuous zero-frequency extension).  With c = weights * f / spreading these
    are a sensor's data P(T 1); with c = weights, the Gram row of P P*."""
    sums = _power_sums(z, c, J)
    rows = np.concatenate([mirror(sums[..., :0:-1]), sums], axis=-1)
    if zero_mode == "drop":
        rows[..., J] = 0.0
    return rows


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] w^n by Horner's rule in w, into one fresh accumulator and in a
    fixed order of operations, for at least two coefficients."""
    acc = coeffs[-1] * w  # the scalar on the left: the bits of a filled array times w
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= w
        acc += c
    return acc


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


def band_error_bound(kind: str, x, rule: QuadratureRule, dk: float, J: int) -> np.ndarray:
    """Per-column bound on a power sum's rounding against exact exponentials, m = 0..J.

    Column m of `_power_sums` sums c z^m, reached by m products from c with
    z = e^{i dk phase}; each product adds a few ulps, and the phase error of z
    grows m-fold.  So column m may drift by 1e-15 (m+1)(1 + m dk max|phase|)
    sum|c_q|, with c_q = w_q f_q / spreading_q the column's quadrature coefficients.
    """
    ph = phase(kind, x, rule.nodes.T)
    c = np.sum(np.abs(rule.weights * rule.amplitude / _spreading(kind, ph)))
    m = np.arange(J + 1)
    return 1e-15 * (m + 1) * (1 + m * dk * np.abs(ph).max()) * c


@dataclass
class MultiFreqDataset:
    """Complex field samples over (sensor, difference frequency m = -J..J)."""

    sensors: MeasurementSet
    grid: FrequencyGrid
    values: np.ndarray  # complex, shape (L, 2J + 1)
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.noise_level < math.inf:
            raise ValueError(
                f"noise level must be nonnegative and finite, got {self.noise_level!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        expected = (len(self.sensors), 2 * self.grid.count + 1)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("dataset values must be finite")

    @property
    def kind(self) -> str:
        return self.sensors.kind

    def row_rms(self) -> np.ndarray:
        return np.sqrt((np.abs(self.values) ** 2).mean(axis=1))


def radiated_field(kind: str, support: SourceSupport, rule: QuadratureRule, x,
                   k: float | np.ndarray) -> complex | np.ndarray:
    """Field at sensor x (near) or pattern in direction x (far) at wavenumber k.

    Quadrature of w * f * e^{i k phase} / spreading over the support; the near kernel is
    the outgoing point source, for x outside the closed support (`phase_range`), the far
    kernel e^{-i k xhat.y}.  A scalar k gives a complex, an array of k an array of samples
    of its shape.  The nodes' coefficients c = w (f / spreading), the data's P(T 1)
    weights, are folded once into a complex vector; the wavenumbers go in `_row_blocks`
    of Q-sized rows, each `_cis` times c in place and summed per row, the bits of the
    whole J x Q kernel without it.
    """
    phase_range(kind, x, support)
    ph = phase(kind, x, rule.nodes.T)
    c = (rule.weights * (rule.amplitude / _spreading(kind, ph))).astype(complex)
    k = np.asarray(k, dtype=float)
    u = np.empty(k.shape, dtype=complex)
    ks, us = k.reshape(-1), u.reshape(-1)
    for rows in _row_blocks(ks.size, ph.size):
        E = _cis(ks[rows], ph)
        E *= c
        np.add.reduce(E, axis=-1, out=us[rows])
    return complex(u) if u.ndim == 0 else u


def mirror(positive: np.ndarray) -> np.ndarray:
    """Columns m = -1..-J that the columns m = 1..J of noiseless data imply.

    The source is real, so u(x, -k) is the conjugate of u(x, k), for a sensor
    point and a far direction alike.
    """
    return np.conj(positive)


def generate_dataset(scenario: "Scenario") -> MultiFreqDataset:
    """Noiseless multi-frequency dataset for a scenario, on the one quadrature rule built
    here: each row is P(T 1), the `_laurent_rows` of its sensor's z against the weights
    times T 1 = f / spreading (both from `_band`, f from the rule), in `_row_blocks` of
    Q-node rows.  A row depends on its own z and c alone, so `verify` writes sensor 0's
    alike."""
    rule = quadrature(scenario.support, scenario.h)
    sensors, grid, J = scenario.measurement, scenario.frequencies, scenario.frequencies.count
    points, values = sensors.array, np.empty((len(sensors), 2 * J + 1), dtype=complex)
    for rows in _row_blocks(len(sensors), len(rule)):
        block = points[rows]
        z = np.empty((len(block), len(rule)), dtype=complex)
        c = np.empty(z.shape)
        for i, x in enumerate(block):
            z[i], c[i] = _band(sensors.kind, x, rule, grid.spacing)
        c *= rule.weights
        values[rows] = _laurent_rows(z, c, J, scenario.zero_mode)
    return MultiFreqDataset(sensors=sensors, grid=grid, values=values, noise_level=0.0,
                            seed=scenario.seed)


def add_noise(data: MultiFreqDataset, level: float, seed: int) -> MultiFreqDataset:
    """Copy of the dataset with complex Gaussian noise on every sample.

    Sample m of sensor l's row receives level * sigma_l * (xi[m, 0] + i xi[m, 1])
    / sqrt(2), where sigma_l is the RMS magnitude of the row's input and xi is
    the row's (2J+1, 2) standard normal block from one generator keyed by
    (seed, l).  A row's noise depends on nothing else, so it is independent of
    evaluation order and of the other sensors.  The dataset refuses a negative
    or non-finite level and a negative seed; a ValueError refuses data whose RMS
    or noisy samples overflow, rather than return a non-finite sample.
    """
    level = float(level)
    noisy = replace(data, values=data.values.copy(), noise_level=level, seed=int(seed))
    values = noisy.values
    if level > 0:
        try:
            with np.errstate(over="raise", invalid="raise"):
                sigma = data.row_rms()
                for ell, row in enumerate(values):
                    xi = np.random.default_rng([seed, ell]).standard_normal((len(row), 2))
                    row += level * sigma[ell] * (xi[:, 0] + 1j * xi[:, 1]) / math.sqrt(2)
        except FloatingPointError as exc:
            raise ValueError(f"noise level {level!r} overflows on these data ({exc})") from exc
    return noisy


class DatasetFormatError(ValueError):
    """Raised when a dataset or field file is empty, truncated, or malformed."""


# ---------------------------------------------------------------------------
# header codec of the dataset, field and mask files: a magic line, `key: value`
# lines and, with a payload, `end_header` and little-endian float64 samples

def _format_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in vals)


def _header_lines(fields) -> list[str]:
    return [f"{key}: {value}" for key, value in fields]


def _parse_header_lines(lines, repeated=()) -> dict:
    """Stripped values of `key: value` lines; each key in `repeated` collects a list."""
    meta: dict = {key: [] for key in repeated}
    for line in lines:
        key, sep, val = (part.strip() for part in line.partition(":"))
        if not sep or (key in meta and key not in repeated):
            raise DatasetFormatError(f"header line {line!r} is malformed or repeats its key")
        if key in repeated:
            meta[key].append(val)
        else:
            meta[key] = val
    return meta


def _write_container(path, magic: str, fields, payload: np.ndarray | None = None) -> None:
    lines = [magic, *_header_lines(fields)] + (["end_header"] if payload is not None else [])
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        if payload is not None:
            fh.write(np.asarray(payload, dtype="<f8").tobytes())


@contextmanager
def _reading(path, magic: str, repeated=()):
    """Yield (header dict, payload bytes) of a file `_write_container` wrote with a payload.

    A wrong magic line, a non-ASCII header, and any KeyError or ValueError the
    block raises while it converts the header (a missing key, a bad value, a
    payload of the wrong size) become a DatasetFormatError naming the file.
    """
    with open(path, "rb") as fh:
        head, sep, payload = fh.read().partition(b"\nend_header\n")
    try:
        lines = head.decode("ascii").splitlines()
        if not sep or lines[:1] != [magic]:
            raise ValueError(f"not a {magic.split()[0]} file")
        yield _parse_header_lines(lines[1:], repeated), payload
    except KeyError as exc:
        raise DatasetFormatError(f"{path}: header lacks {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _samples(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """A container's payload as finite samples of `shape`."""
    if min(shape) < 0 or len(payload) != 8 * math.prod(shape):
        raise ValueError(f"payload size mismatch: {len(payload)} bytes for shape {shape}")
    samples = np.frombuffer(payload, dtype="<f8").reshape(shape)
    if not np.all(np.isfinite(samples)):
        raise ValueError("payload holds a non-finite sample")
    return samples


def _numbers(text: str, count: int | None, number=float) -> tuple:
    """The space-separated numbers of text, all finite; `count` of them unless count is None."""
    values = tuple(number(v) for v in text.split())
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected finite numbers, got {text!r}")
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} numbers, got {text!r}")
    return values


def write_dataset(data: MultiFreqDataset, path, scenario_hash: str = "-") -> None:
    """Write the text-header + binary dataset container (see README for the layout)."""
    g = data.grid
    fields = [("scenario_hash", scenario_hash), ("kind", data.kind), ("sensors", len(data.sensors)),
              ("frequencies", g.count), ("dk", repr(g.spacing)), ("k_max", repr(g.k_max)),
              ("noise_level", repr(data.noise_level)), ("seed", data.seed)]
    fields += [("sensor", _format_floats(p)) for p in data.sensors.points]
    _write_container(path, DATASET_MAGIC, fields,
                     np.stack([data.values.real, data.values.imag], axis=-1))


def read_dataset(path) -> tuple[MultiFreqDataset, dict]:
    """Read a dataset container; returns (dataset, header metadata)."""
    with _reading(path, DATASET_MAGIC, repeated=("sensor",)) as (meta, payload):
        L, J = int(meta["sensors"]), int(meta["frequencies"])
        meta["sensor_list"] = [_numbers(p, 3) for p in meta.pop("sensor")]
        if len(meta["sensor_list"]) != L:
            raise ValueError(f"expected {L} sensor lines")
        raw = _samples(payload, (L, 2 * J + 1, 2))
        grid = FrequencyGrid(k_max=_numbers(meta["k_max"], 1)[0], count=J)
        if _numbers(meta["dk"], 1)[0] != grid.spacing:
            raise ValueError(f"dk {meta['dk']} is not k_max / frequencies = {grid.spacing!r}")
        data = MultiFreqDataset(
            sensors=MeasurementSet(meta["kind"], tuple(meta["sensor_list"])), grid=grid,
            values=raw[..., 0] + 1j * raw[..., 1], noise_level=_numbers(meta["noise_level"], 1)[0],
            seed=int(meta["seed"]))
    return data, meta
