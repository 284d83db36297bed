"""Synthetic multi-frequency field data.

Scattered fields are evaluated by quadrature of the exact integral
representations (outgoing point-source kernel for near-field sensors, a
plane-wave kernel for far-field directions), both written through one phase
map, extended to negative frequencies by conjugation (near) or direction
negation (far), and optionally perturbed by seeded per-sample Gaussian noise.

The band k = m dk, m = 0..J, is equally spaced, so a dataset's kernel rows
are the powers z^m of one exponential z = e^{i dk phase} per quadrature node
(`_band`).  Arbitrary wavenumbers take one exponential per sample
(`_kernel`, used by `radiated_field`, the probe and the indicator).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .geometry import GeometryError, QuadratureRule, SourceSupport, contains, quadrature, _point

if TYPE_CHECKING:
    from .scenario import Scenario

DATASET_MAGIC = "mfsampling-dataset v1"
_UNIT_TOL = 1e-12


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
    """Sensor collection: near-field points, or far-field unit directions closed under negation."""

    kind: str
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if self.kind not in ("near", "far"):
            raise ValueError(f"measurement kind must be 'near' or 'far', got {self.kind!r}")
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("measurement set must contain at least one sensor")
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ValueError(f"measurement points must be finite, got {pts!r}")
        if self.kind == "far":
            arr = self.array
            norms = np.linalg.norm(arr, axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise ValueError("far-field directions must be unit vectors")
            self.negation_index()  # raises if not closed under negation

    @classmethod
    def near_points(cls, points) -> "MeasurementSet":
        return cls("near", tuple(tuple(float(c) for c in p) for p in points))

    @classmethod
    def far_directions(cls, directions) -> "MeasurementSet":
        """Build a far-field set, appending missing antipodal directions."""
        dirs = [np.asarray(d, dtype=float) for d in directions]
        closed: list[np.ndarray] = list(dirs)
        for d in dirs:
            if not any(np.linalg.norm(d + e) <= _UNIT_TOL for e in closed):
                closed.append(-d)
        return cls("far", tuple(tuple(float(c) for c in d) for d in closed))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def __len__(self) -> int:
        return len(self.points)

    def negation_index(self) -> np.ndarray:
        """For far sets: index map l -> position of -x_l."""
        if self.kind != "far":
            raise ValueError("negation index is defined for far-field sets only")
        arr = self.array
        idx = np.empty(len(arr), dtype=int)
        for i, d in enumerate(arr):
            match = np.nonzero(np.linalg.norm(arr + d, axis=1) <= _UNIT_TOL)[0]
            if len(match) == 0:
                raise ValueError(f"far-field set is not closed under negation (direction {i})")
            idx[i] = match[0]
        return idx


def phase(kind: str, x, points) -> tuple[np.ndarray, np.ndarray | float]:
    """Phase map of one sensor over points (n, 3), with its spreading factor.

    Near sensor point x: phase |x - y|, spreading 4 pi |x - y|.  Far
    direction xhat: phase -xhat.y, spreading 1.0.  The data kernel
    e^{i k phase} / spreading, the probe, the outer and middle factors and
    the indicator are all built from this map, so no kernel branches on the
    kind and their signs agree by construction.
    """
    xp = _point(x)
    if kind == "near":
        r = np.linalg.norm(xp - points, axis=1)
        return r, 4 * math.pi * r
    if abs(np.linalg.norm(xp) - 1.0) > _UNIT_TOL:
        raise ValueError("far-field direction must be a unit vector")
    return -(points @ xp), 1.0


def _kernel(kind: str, x, points, k: float | np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Kernel e^{i k phase(y)} at arbitrary wavenumbers, rows k by columns points,
    with the phase map's spreading."""
    ph, spreading = phase(kind, x, points)
    E = 1j * np.multiply.outer(k, ph)
    return np.exp(E, out=E), spreading


def _band(kind: str, x, points, dk: float, J: int) -> tuple[np.ndarray, np.ndarray | float]:
    """Band rows m = 0..J of e^{i m dk phase(y)}, with the phase map's spreading.

    Row m is z^m for z = e^{i dk phase}: one exponential per point, then each
    row is the one before it times row 1, elementwise and in row order.
    """
    ph, spreading = phase(kind, x, points)
    E = np.empty((J + 1, len(ph)), dtype=complex)
    E[0] = 1.0
    np.exp(1j * (dk * ph), out=E[1])
    for m in range(2, J + 1):
        np.multiply(E[m - 1], E[1], out=E[m])
    return E, spreading


@dataclass
class MultiFreqDataset:
    """Complex field samples over (sensor, difference frequency m = -J..J)."""

    kind: str
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
        if self.kind != self.sensors.kind:
            raise ValueError("dataset kind does not match its measurement set")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("dataset values must be finite")

    def row_rms(self) -> np.ndarray:
        return np.sqrt((np.abs(self.values) ** 2).mean(axis=1))


def fundamental_solution(k: float, x, y) -> complex:
    """Outgoing point-source kernel e^{ik|x-y|} / (4 pi |x-y|)."""
    r = float(np.linalg.norm(_point(x) - _point(y)))
    if r == 0.0:
        raise ValueError("singular kernel: x == y")
    return complex(np.exp(1j * k * r) / (4 * math.pi * r))


def radiated_field(kind: str, support: SourceSupport, rule: QuadratureRule, x,
                   k: float | np.ndarray) -> complex | np.ndarray:
    """Field at sensor x (near) or pattern in direction x (far) at wavenumber k.

    Quadrature of w * f * e^{i k phase} / spreading over the support; the
    near kernel is the outgoing point source, the far kernel e^{-i k xhat.y}.
    A scalar k gives a complex, an array of wavenumbers an array of samples.
    """
    if kind == "near" and contains(support, _point(x)):
        raise GeometryError("near-field evaluation point lies inside the source support")
    E, spreading = _kernel(kind, x, rule.nodes, k)
    E *= rule.weights * support.amplitude_at(rule.nodes)  # in place: no J x Q temporaries
    E /= spreading
    u = np.sum(E, axis=-1)
    return complex(u) if np.ndim(k) == 0 else u


def mirror(sensors: MeasurementSet, positive: np.ndarray) -> np.ndarray:
    """Columns m = -1..-J that the columns m = 1..J of noiseless data imply.

    u(x, -k) is the conjugate of the sensor's own u(x, k) for near sensors,
    and the antipodal direction's u(-xhat, k) for far directions.
    """
    if sensors.kind == "near":
        return np.conj(positive)
    return positive[sensors.negation_index()]


def generate_dataset(scenario: "Scenario") -> MultiFreqDataset:
    """Noiseless multi-frequency dataset for a scenario.

    Columns m = 0..J are P(T 1): the sensor's band rows at k = m*dk (see
    `_band`) summed against one real vector, the quadrature weights times
    T 1 = f / spreading.  Negative columns are filled by the mirror rule.
    zero_mode='drop' zeroes the m = 0 column instead of using the
    continuous zero-frequency extension.
    """
    support, grid, sensors = scenario.support, scenario.frequencies, scenario.measurement
    rule = quadrature(support, scenario.h)
    J = grid.count
    amplitude = support.amplitude_at(rule.nodes)
    values = np.zeros((len(sensors), 2 * J + 1), dtype=complex)
    for ell, x in enumerate(sensors.array):
        E, spreading = _band(sensors.kind, x, rule.nodes, grid.spacing, J)
        E *= rule.weights * (amplitude / spreading)  # in place: no J x Q temporaries
        values[ell, J:] = np.sum(E, axis=-1)
    values[:, J - 1::-1] = mirror(sensors, values[:, J + 1:])
    if scenario.zero_mode == "drop":
        values[:, J] = 0.0
    return MultiFreqDataset(
        kind=sensors.kind, sensors=sensors, grid=grid, values=values,
        noise_level=0.0, seed=scenario.seed,
    )


def add_noise(data: MultiFreqDataset, level: float, seed: int) -> MultiFreqDataset:
    """Copy of the dataset with per-sample complex Gaussian noise.

    Each entry receives level * sigma_l * (xi1 + i xi2) / sqrt(2), where
    sigma_l is the RMS magnitude of sensor l's input row and the xi are
    standard normal draws from a counter-based generator keyed by
    (seed, sensor, column) — independent of evaluation schedule.  The
    dataset refuses a negative or non-finite level and a negative seed.
    """
    level = float(level)
    noisy = replace(data, values=data.values.copy(), noise_level=level, seed=int(seed))
    values = noisy.values
    if level > 0:
        sigma = data.row_rms()
        for ell in range(values.shape[0]):
            for col in range(values.shape[1]):
                xi = np.random.default_rng([seed, ell, col]).standard_normal(2)
                values[ell, col] += level * sigma[ell] * (xi[0] + 1j * xi[1]) / math.sqrt(2)
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
            kind=meta["kind"], sensors=MeasurementSet(meta["kind"], tuple(meta["sensor_list"])),
            grid=grid,
            values=raw[..., 0] + 1j * raw[..., 1], noise_level=_numbers(meta["noise_level"], 1)[0],
            seed=int(meta["seed"]))
    return data, meta
