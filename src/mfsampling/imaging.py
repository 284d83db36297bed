"""Indicator-field imaging over a voxel sampling grid.

For every sampling point the dataset's quadratic form is evaluated at a
unimodular probe built from the sensor's phase map (distance for near-field
sensors, negated projection for far-field directions) and the moduli are
summed over sensors.  Includes the band-limited point spread profile, field
normalization, plane slicing, iso-thresholding, and file export.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .forward import FrequencyGrid, MultiFreqDataset, phase
from .operators import FreqFunction
from .geometry import _points

FIELD_MAGIC = "mfsampling-field v1"
MASK_MAGIC = "mfsampling-mask v1"


@dataclass(frozen=True)
class SamplingGrid:
    """Axis-aligned voxel grid of sampling points (voxel centers, row-major order)."""

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    resolution: tuple[int, int, int]

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        n = tuple(int(v) for v in self.resolution)
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "resolution", n)
        if any(lo >= hi for lo, hi in b):
            raise ValueError("grid bounds must satisfy min < max per axis")
        if any(v < 1 for v in n):
            raise ValueError("grid resolution must be at least 1 per axis")

    @classmethod
    def cube(cls, half_extent: float = 3.0, n: int = 48) -> "SamplingGrid":
        b = (-float(half_extent), float(half_extent))
        return cls(bounds=(b, b, b), resolution=(n, n, n))

    @property
    def voxel_size(self) -> tuple[float, float, float]:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.bounds, self.resolution))

    def axis_centers(self, axis: int) -> np.ndarray:
        """Voxel-center coordinates along axis (0-based)."""
        (lo, _), n = self.bounds[axis], self.resolution[axis]
        step = self.voxel_size[axis]
        return lo + (np.arange(n) + 0.5) * step

    def centers(self) -> np.ndarray:
        """All voxel centers as an (n1*n2*n3, 3) array in row-major order."""
        ax = [self.axis_centers(a) for a in range(3)]
        X, Y, Z = np.meshgrid(*ax, indexing="ij")
        return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    @property
    def size(self) -> int:
        n1, n2, n3 = self.resolution
        return n1 * n2 * n3


@dataclass(frozen=True)
class IndicatorField:
    grid: SamplingGrid
    values: np.ndarray  # real, (grid.size,)
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} values, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.resolution)


@dataclass(frozen=True)
class CrossSection:
    axis: int  # 1-based axis the slice is orthogonal to
    coordinate: float  # actual coordinate of the extracted voxel layer
    u_coords: np.ndarray
    v_coords: np.ndarray
    values: np.ndarray  # (len(u), len(v))


@dataclass(frozen=True)
class ThresholdMask:
    grid: SamplingGrid
    iso: float
    mask: np.ndarray  # bool, (grid.size,)
    count: int
    centroid: tuple[float, float, float] | None
    bbox: tuple[tuple[float, float, float], tuple[float, float, float]] | None


def probe(kind: str, x, z, grid: FrequencyGrid) -> FreqFunction:
    """Unimodular probe e^{i k_j phase(z)} of sensor x at sampling point z."""
    ph, _ = phase(kind, x, _points(z))
    return FreqFunction(grid=grid, samples=np.exp(1j * grid.nodes * float(ph[0])))


# Former per-kind names, still called by the benchmark's oracle.
near_test_function = partial(probe, "near")
far_test_function = partial(probe, "far")


def psf_closed_form(t: float, k_max: float) -> complex:
    """Band-limited point spread profile: integral of e^{i s t} over s in (0, k_max]."""
    if t == 0.0:
        return complex(k_max)
    return complex((np.exp(1j * t * k_max) - 1.0) / (1j * t))


def psf_discrete(t: float, grid: FrequencyGrid) -> complex:
    """Grid analogue: dk * sum_j e^{i k_j t}; converges to the closed form as count grows."""
    return complex(grid.spacing * np.sum(np.exp(1j * grid.nodes * t)))


def _quadratic_form_map(values_row: np.ndarray, grid: FrequencyGrid,
                        phase_arg: np.ndarray) -> np.ndarray:
    """|quadratic form| at every sampling point for one sensor.

    phase_arg holds the sensor's phase map per voxel; the probe at voxel v
    is e^{i k_j phase_arg[v]}.
    """
    J = grid.count
    dk = grid.spacing
    idx = (np.arange(J)[:, None] - np.arange(J)[None, :]) + J
    block = dk * dk * values_row[idx]
    E = np.exp(1j * np.outer(phase_arg, grid.nodes))
    tmp = np.einsum("vl,jl->vj", E, block)
    q = np.einsum("vj,vj->v", tmp, np.conj(E))
    return np.abs(q)


def compute_indicator(data: MultiFreqDataset, grid: SamplingGrid) -> IndicatorField:
    """Sum over sensors of |(N g, g)| with the phase-map probe, per voxel."""
    if grid.size == 0:
        raise ValueError("empty sampling grid")
    centers = grid.centers()
    total = np.zeros(grid.size)
    for x, row in zip(data.sensors.array, data.values):
        ph, _ = phase(data.kind, x, centers)
        total += _quadratic_form_map(row, data.grid, ph)
    return IndicatorField(grid=grid, values=total, normalized=False)


def normalize(field: IndicatorField) -> IndicatorField:
    """Scale so the maximum value is exactly 1."""
    peak = float(field.values.max()) if field.grid.size else 0.0
    if peak <= 0.0:
        raise ValueError("cannot normalize an all-zero indicator field")
    return replace(field, values=field.values / peak, normalized=True)


def cross_section(field: IndicatorField, axis: int, coordinate: float) -> CrossSection:
    """Voxel layer nearest to `coordinate` along the given axis (1-based)."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2, or 3")
    a = axis - 1
    lo, hi = field.grid.bounds[a]
    if not lo <= coordinate <= hi:
        raise ValueError(f"coordinate {coordinate} outside axis-{axis} bounds [{lo}, {hi}]")
    centers = field.grid.axis_centers(a)
    layer = int(np.argmin(np.abs(centers - coordinate)))
    cube = field.reshaped()
    others = [d for d in range(3) if d != a]
    values = np.take(cube, layer, axis=a)
    return CrossSection(
        axis=axis,
        coordinate=float(centers[layer]),
        u_coords=field.grid.axis_centers(others[0]),
        v_coords=field.grid.axis_centers(others[1]),
        values=values,
    )


def threshold_mask(field: IndicatorField, iso: float) -> ThresholdMask:
    """Superlevel-set voxels of a normalized field, with centroid and bounding box."""
    if not field.normalized:
        raise ValueError("threshold requires a normalized field")
    if not 0.0 < iso < 1.0:
        raise ValueError("iso value must lie strictly between 0 and 1")
    mask = field.values >= iso
    count = int(mask.sum())
    if count == 0:
        return ThresholdMask(field.grid, float(iso), mask, 0, None, None)
    pts = field.grid.centers()[mask]
    centroid = tuple(float(c) for c in pts.mean(axis=0))
    bbox = (tuple(float(c) for c in pts.min(axis=0)),
            tuple(float(c) for c in pts.max(axis=0)))
    return ThresholdMask(field.grid, float(iso), mask, count, centroid, bbox)


# ---------------------------------------------------------------------------
# file export

def _format_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in vals)


def write_field(field: IndicatorField, path, scenario_hash: str = "-") -> None:
    lo = [b[0] for b in field.grid.bounds]
    hi = [b[1] for b in field.grid.bounds]
    lines = [
        FIELD_MAGIC,
        f"scenario_hash: {scenario_hash}",
        f"bounds: {_format_floats([lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]])}",
        f"resolution: {field.grid.resolution[0]} {field.grid.resolution[1]} {field.grid.resolution[2]}",
        f"normalized: {'true' if field.normalized else 'false'}",
        "end_header",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(field.values.astype("<f8").tobytes())


def read_field(path) -> tuple[IndicatorField, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"end_header\n"
    pos = blob.find(marker)
    if not blob.startswith(FIELD_MAGIC.encode("ascii")) or pos < 0:
        raise ValueError(f"{path}: not a field file")
    meta: dict = {}
    for line in blob[:pos].decode("ascii").splitlines()[1:]:
        key, _, val = line.partition(":")
        meta[key.strip()] = val.strip()
    b = [float(v) for v in meta["bounds"].split()]
    n = [int(v) for v in meta["resolution"].split()]
    grid = SamplingGrid(bounds=((b[0], b[1]), (b[2], b[3]), (b[4], b[5])),
                        resolution=(n[0], n[1], n[2]))
    values = np.frombuffer(blob[pos + len(marker):], dtype="<f8").copy()
    field = IndicatorField(grid=grid, values=values, normalized=meta["normalized"] == "true")
    return field, meta


_AXIS_NAMES = {1: ("x2", "x3"), 2: ("x1", "x3"), 3: ("x1", "x2")}


def write_cross_section(cs: CrossSection, path, scenario_hash: str = "-") -> None:
    """CSV slice: one (u, v, value) row per voxel of the layer."""
    u_name, v_name = _AXIS_NAMES[cs.axis]
    lines = [
        f"# mfsampling-slice v1 scenario_hash={scenario_hash} "
        f"axis={cs.axis} coordinate={cs.coordinate!r}",
        f"{u_name},{v_name},value",
    ]
    for i, u in enumerate(cs.u_coords):
        for j, v in enumerate(cs.v_coords):
            lines.append(f"{float(u)!r},{float(v)!r},{float(cs.values[i, j])!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mask(mask: ThresholdMask, path, scenario_hash: str = "-") -> None:
    """Run-length encoded mask (runs of set voxels in row-major order) with summary lines."""
    lines = [
        MASK_MAGIC,
        f"scenario_hash: {scenario_hash}",
        f"iso: {mask.iso!r}",
        f"resolution: {mask.grid.resolution[0]} {mask.grid.resolution[1]} {mask.grid.resolution[2]}",
        f"count: {mask.count}",
        f"centroid: {_format_floats(mask.centroid) if mask.centroid else '-'}",
        f"bbox_min: {_format_floats(mask.bbox[0]) if mask.bbox else '-'}",
        f"bbox_max: {_format_floats(mask.bbox[1]) if mask.bbox else '-'}",
    ]
    padded = np.concatenate([[False], mask.mask, [False]]).astype(int)
    edges = np.diff(padded)
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    for s, e in zip(starts, ends):
        lines.append(f"run: {s} {e - s}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
