"""Synthetic multi-frequency field data.

Scattered fields are evaluated by quadrature of the exact integral
representations (outgoing point-source kernel for near-field sensors, a
plane-wave kernel for far-field directions), both written through one phase
map, extended to negative frequencies by conjugation (near) or direction
negation (far), and optionally perturbed by seeded per-sample Gaussian noise.
"""

from __future__ import annotations

import math
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
        if self.k_max <= 0:
            raise ValueError("k_max must be positive")
        if self.count < 2:
            raise ValueError("frequency count must be at least 2")

    @property
    def spacing(self) -> float:
        return self.k_max / self.count

    @property
    def nodes(self) -> np.ndarray:
        """Positive nodes k_j = j*dk, j = 1..count."""
        return np.arange(1, self.count + 1) * self.spacing

    @property
    def difference_nodes(self) -> np.ndarray:
        """Difference grid m*dk, m = -count..count."""
        return np.arange(-self.count, self.count + 1) * self.spacing

    def difference_index(self, m: int) -> int:
        if not -self.count <= m <= self.count:
            raise ValueError(f"difference index {m} outside [-{self.count}, {self.count}]")
        return m + self.count


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
        expected = (len(self.sensors), 2 * self.grid.count + 1)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if self.kind != self.sensors.kind:
            raise ValueError("dataset kind does not match its measurement set")

    def value(self, sensor: int, m: int) -> complex:
        return complex(self.values[sensor, self.grid.difference_index(m)])

    def row_rms(self) -> np.ndarray:
        return np.sqrt((np.abs(self.values) ** 2).mean(axis=1))


def fundamental_solution(k: float, x, y) -> complex:
    """Outgoing point-source kernel e^{ik|x-y|} / (4 pi |x-y|)."""
    r = float(np.linalg.norm(_point(x) - _point(y)))
    if r == 0.0:
        raise ValueError("singular kernel: x == y")
    return complex(np.exp(1j * k * r) / (4 * math.pi * r))


def radiated_field(kind: str, support: SourceSupport, rule: QuadratureRule, x,
                   k: float) -> complex:
    """Field at sensor x (near) or pattern in direction x (far) at wavenumber k.

    Quadrature of w * f * e^{i k phase} / spreading over the support; the
    near kernel is the outgoing point source, the far kernel e^{-i k xhat.y}.
    """
    if kind == "near" and contains(support, _point(x)):
        raise GeometryError("near-field evaluation point lies inside the source support")
    ph, spreading = phase(kind, x, rule.nodes)
    f = support.amplitude_at(rule.nodes)
    return complex(np.sum(rule.weights * f * np.exp(1j * k * ph) / spreading))


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

    Columns m = 0..J are evaluated directly at k = m*dk; negative columns
    are filled by the mirror rule.  zero_mode='drop' zeroes the m = 0
    column instead of using the continuous zero-frequency extension.
    """
    support, grid, sensors = scenario.support, scenario.frequencies, scenario.measurement
    rule = quadrature(support, scenario.h)
    J = grid.count
    dk = grid.spacing
    values = np.zeros((len(sensors), 2 * J + 1), dtype=complex)
    for ell, x in enumerate(sensors.array):
        for m in range(0, J + 1):
            values[ell, J + m] = radiated_field(sensors.kind, support, rule, x, m * dk)
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
    (seed, sensor, column) — independent of evaluation schedule.
    """
    level = float(level)
    if level < 0:
        raise ValueError("noise level must be nonnegative")
    if seed < 0:
        raise ValueError("noise seed must be nonnegative")
    values = data.values.copy()
    if level > 0:
        sigma = data.row_rms()
        for ell in range(values.shape[0]):
            for col in range(values.shape[1]):
                xi = np.random.default_rng([seed, ell, col]).standard_normal(2)
                values[ell, col] += level * sigma[ell] * (xi[0] + 1j * xi[1]) / math.sqrt(2)
    return replace(data, values=values, noise_level=level, seed=int(seed))


def write_dataset(data: MultiFreqDataset, path, scenario_hash: str = "-") -> None:
    """Write the text-header + binary dataset container (see README for the layout)."""
    lines = [
        DATASET_MAGIC,
        f"scenario_hash: {scenario_hash}",
        f"kind: {data.kind}",
        f"sensors: {len(data.sensors)}",
        f"frequencies: {data.grid.count}",
        f"dk: {data.grid.spacing!r}",
        f"k_max: {data.grid.k_max!r}",
        f"noise_level: {data.noise_level!r}",
        f"seed: {data.seed}",
    ]
    for p in data.sensors.points:
        lines.append(f"sensor: {p[0]!r} {p[1]!r} {p[2]!r}")
    lines.append("end_header")
    payload = np.empty(data.values.shape + (2,))
    payload[..., 0] = data.values.real
    payload[..., 1] = data.values.imag
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(payload.astype("<f8").tobytes())


class DatasetFormatError(ValueError):
    """Raised when a dataset file is empty, truncated, or malformed."""


def read_dataset(path) -> tuple[MultiFreqDataset, dict]:
    """Read a dataset container; returns (dataset, header metadata)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"end_header\n"
    pos = blob.find(marker)
    if not blob.startswith(DATASET_MAGIC.encode("ascii")) or pos < 0:
        raise DatasetFormatError(f"{path}: not a dataset file")
    header_lines = blob[:pos].decode("ascii").splitlines()[1:]
    meta: dict = {"sensor_list": []}
    for line in header_lines:
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key == "sensor":
            meta["sensor_list"].append(tuple(float(c) for c in val.split()))
        else:
            meta[key] = val
    try:
        kind = meta["kind"]
        L = int(meta["sensors"])
        J = int(meta["frequencies"])
        k_max = float(meta["k_max"])
        noise_level = float(meta["noise_level"])
        seed = int(meta["seed"])
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: malformed header ({exc})") from exc
    if len(meta["sensor_list"]) != L:
        raise DatasetFormatError(f"{path}: expected {L} sensor lines")
    raw = np.frombuffer(blob[pos + len(marker):], dtype="<f8")
    if raw.size != L * (2 * J + 1) * 2:
        raise DatasetFormatError(f"{path}: payload size mismatch")
    raw = raw.reshape(L, 2 * J + 1, 2)
    values = raw[..., 0] + 1j * raw[..., 1]
    grid = FrequencyGrid(k_max=k_max, count=J)
    sensors = MeasurementSet(kind=kind, points=tuple(meta["sensor_list"]))
    data = MultiFreqDataset(kind=kind, sensors=sensors, grid=grid, values=values,
                            noise_level=noise_level, seed=seed)
    return data, meta
