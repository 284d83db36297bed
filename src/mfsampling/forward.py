"""Synthetic multi-frequency field data.

Scattered fields are evaluated by quadrature of the exact integral
representations (outgoing point-source kernel for near-field sensors, a
plane-wave kernel for far-field directions), both written through one phase
map, extended to negative frequencies by conjugation (the source is real, so
u(x, -k) = conj u(x, k) at a sensor point and in a direction alike, and a
direction's data already hold its antipode's), and optionally perturbed by
Gaussian noise seeded per sensor row.  A run builds one quadrature rule,
and its data and factors share it (`_dataset_rows`).

The band k = m dk, m = 0..J, is equally spaced, so a dataset's column m is the
power sum sum_q c_q z_q^m of one exponential z = e^{i dk phase} per quadrature
node (`_band`), one running product c z^m per node (`_power_sums`), never a
(J+1) x Q band.  Arbitrary wavenumbers (`radiated_field`, the probe, and the
near indicator) take one exponential per sample, `_cis` of the phase.  On a
tensor grid the far phase is linear, so there `_grid_cis` takes one exponential
per axis point, and a voxel's is the product of its three axis points'.  Only
`phase`, `_spreading`, `_grid_cis` and `phase_range` (the phase's exact range
over the closed support, which refuses a sensor point in it) branch on the kind.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .geometry import GeometryError, QuadratureRule, SourceSupport, quadrature, _point

if TYPE_CHECKING:
    from .scenario import Scenario

DATASET_MAGIC = "mfsampling-dataset v1"
_UNIT_TOL = 1e-12
# Elements per cache-sized slab, sensor rows x nodes here and voxels in `imaging`: small
# enough that a slab's working arrays stay in cache, large enough to amortize each call.
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
    beside it only `_spreading`, `_grid_cis` and `phase_range` branch on the kind.
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


def _cis(k: float | np.ndarray, ph: np.ndarray) -> np.ndarray:
    """e^{i k ph}, rows k by columns ph."""
    E = 1j * np.multiply.outer(k, ph)
    return np.exp(E, out=E)


def _grid_cis(kind: str, x, axes, k: float) -> np.ndarray:
    """e^{i k phase} on the tensor grid of three axis vectors, flattened row-major.

    Near: one exponential per grid point, `_cis` of the phase.  Far: the phase
    is linear, so the grid's exponentials are the products (e0 e1) e2 of one
    exponential per axis point, e_a = e^{i k phase} on axis a with the other two
    coordinates zero: two complex products per grid point.
    """
    a0, a1, a2 = axes
    if kind == "near":
        return _cis(k, phase(kind, x, np.ix_(a0, a1, a2)).ravel())
    e0 = _cis(k, phase(kind, x, (a0, 0.0, 0.0)))
    e1 = _cis(k, phase(kind, x, (0.0, a1, 0.0)))
    e2 = _cis(k, phase(kind, x, (0.0, 0.0, a2)))
    return np.multiply.outer(np.multiply.outer(e0, e1), e2).ravel()


def _band(kind: str, x, points, dk: float) -> tuple[np.ndarray, np.ndarray | float]:
    """The band's ratio z = e^{i dk phase(y)}, one exponential per point, with the phase
    map's spreading: the kernel at k = m dk is z^m / spreading (`_power_sums`)."""
    ph = phase(kind, x, points.T)
    return np.exp(1j * (dk * ph)), _spreading(kind, ph)


def _power_sums(z: np.ndarray, c: np.ndarray, J: int) -> np.ndarray:
    """Columns m = 0..J of sum_q c_q z_q^m over the last axis, for any leading shape: one
    running product per node, from c cast to complex, times z in place and in order, and
    summed per row, so a row's bits depend on its own z and c alone."""
    p = np.array(c, dtype=complex)
    sums = np.empty(p.shape[:-1] + (J + 1,), dtype=complex)
    sums[..., 0] = np.sum(p, axis=-1)
    for m in range(1, J + 1):
        p *= z
        sums[..., m] = np.sum(p, axis=-1)
    return sums


def band_error_bound(kind: str, x, support: SourceSupport, rule: QuadratureRule, dk: float,
                     J: int) -> np.ndarray:
    """Per-column bound on a power sum's rounding against exact exponentials, m = 0..J.

    Column m of `_power_sums` sums c z^m, reached by m products from c with
    z = e^{i dk phase}; each product adds a few ulps, and the phase error of z
    grows m-fold.  So column m may drift by 1e-15 (m+1)(1 + m dk max|phase|)
    sum|c_q|, with c_q = w_q f_q / spreading_q the column's quadrature coefficients.
    """
    ph = phase(kind, x, rule.nodes.T)
    c = np.sum(np.abs(rule.weights * support.amplitude_at(rule.nodes) / _spreading(kind, ph)))
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
    kernel e^{-i k xhat.y}.  A scalar k gives a complex, an array of k an array of samples.
    """
    phase_range(kind, x, support)
    ph = phase(kind, x, rule.nodes.T)
    E = _cis(k, ph)
    E *= rule.weights * support.amplitude_at(rule.nodes)  # in place: no J x Q temporaries
    E /= _spreading(kind, ph)
    u = np.sum(E, axis=-1)
    return complex(u) if np.ndim(k) == 0 else u


def mirror(positive: np.ndarray) -> np.ndarray:
    """Columns m = -1..-J that the columns m = 1..J of noiseless data imply.

    The source is real, so u(x, -k) is the conjugate of u(x, k), for a sensor
    point and a far direction alike.
    """
    return np.conj(positive)


def generate_dataset(scenario: "Scenario") -> MultiFreqDataset:
    """Noiseless multi-frequency dataset for a scenario, on the one quadrature rule built
    here; `verify` gives `_dataset_rows` the rule its factors use, so the two share nodes."""
    rule = quadrature(scenario.support, scenario.h)
    return _dataset_rows(scenario.measurement, scenario.support, rule, scenario.frequencies,
                         scenario.zero_mode, scenario.seed)


def _dataset_rows(sensors: MeasurementSet, support: SourceSupport, rule: QuadratureRule,
                  grid: FrequencyGrid, zero_mode: str, seed: int) -> MultiFreqDataset:
    """Noiseless multi-frequency dataset of the sensors on a given quadrature rule.

    Columns m = 0..J are P(T 1): the power sums of each sensor's z (see `_band`) against
    one real vector, the quadrature weights times T 1 = f / spreading, taken over blocks
    of whole sensor rows of at most `_SLAB_VOXELS` nodes.  Negative columns are filled by
    the mirror rule.  zero_mode='drop' zeroes the m = 0 column instead of using the
    continuous zero-frequency extension.  A run's data and factors share one rule:
    `verify._sensor_problem` passes the rule its factors use.
    """
    J = grid.count
    amplitude = support.amplitude_at(rule.nodes)
    values = np.zeros((len(sensors), 2 * J + 1), dtype=complex)
    step = max(1, _SLAB_VOXELS // len(rule))
    for lo in range(0, len(sensors), step):
        block = sensors.array[lo:lo + step]
        z = np.empty((len(block), len(rule)), dtype=complex)
        c = np.empty(z.shape)
        for i, x in enumerate(block):
            z[i], spreading = _band(sensors.kind, x, rule.nodes, grid.spacing)
            c[i] = rule.weights * (amplitude / spreading)
        values[lo:lo + step, J:] = _power_sums(z, c, J)
    values[:, J - 1::-1] = mirror(values[:, J + 1:])
    if zero_mode == "drop":
        values[:, J] = 0.0
    return MultiFreqDataset(sensors=sensors, grid=grid, values=values, noise_level=0.0,
                            seed=seed)


def add_noise(data: MultiFreqDataset, level: float, seed: int) -> MultiFreqDataset:
    """Copy of the dataset with complex Gaussian noise on every sample.

    Sample m of sensor l's row receives level * sigma_l * (xi[m, 0] + i xi[m, 1])
    / sqrt(2), where sigma_l is the RMS magnitude of the row's input and xi is
    the row's (2J+1, 2) standard normal block from one generator keyed by
    (seed, l).  A row's noise depends on nothing else, so it is independent of
    evaluation order and of the other sensors.  The dataset refuses a negative
    or non-finite level and a negative seed.
    """
    level = float(level)
    noisy = replace(data, values=data.values.copy(), noise_level=level, seed=int(seed))
    values = noisy.values
    if level > 0:
        sigma = data.row_rms()
        for ell, row in enumerate(values):
            xi = np.random.default_rng([seed, ell]).standard_normal((len(row), 2))
            row += level * sigma[ell] * (xi[:, 0] + 1j * xi[:, 1]) / math.sqrt(2)
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
    if min(shape) < 0 or len(payload) != 8 * math.prod(shape):
        raise ValueError(f"payload size mismatch: {len(payload)} bytes for shape {shape}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape)


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
