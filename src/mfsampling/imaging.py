"""Indicator-field imaging over a voxel sampling grid.

For every sampling point the dataset's quadratic form is evaluated at a
unimodular probe built from the sensor's phase map t (distance for near-field
sensors, negated projection for far-field directions) and the moduli are
summed over sensors.  At that probe the form is w^{1-J} times the polynomial
dk^2 sum_{|m|<J} (J - |m|) u_m w^{m+J-1} in w = e^{-i dk t}; as |w| = 1, one
Horner pass gives its modulus from one exponential per voxel.  Includes the
band-limited point spread profile, field normalization, plane slicing,
iso-thresholding, and file export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .forward import (
    FrequencyGrid,
    MultiFreqDataset,
    _format_floats,
    _kernel,
    _numbers,
    _reading,
    _samples,
    _write_container,
)
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
        if not all(-math.inf < lo < hi < math.inf for lo, hi in b):
            raise ValueError(f"grid bounds must be finite with min < max per axis, got {b!r}")
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
    E, _ = _kernel(kind, x, _points(z), grid.nodes)
    return FreqFunction(grid=grid, samples=E[:, 0])


# Former per-kind names, still called by the benchmark's oracle.
near_test_function = partial(probe, "near")
far_test_function = partial(probe, "far")


def psf_closed_form(t, k_max: float) -> complex | np.ndarray:
    """Band-limited point spread profile: integral of e^{i s t} over s in (0, k_max], per t."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t == 0.0, 1.0, t)
    val = np.where(t == 0.0, k_max, (np.exp(1j * safe * k_max) - 1.0) / (1j * safe))
    return complex(val) if val.ndim == 0 else val


def psf_discrete(t: float, grid: FrequencyGrid) -> complex:
    """Grid analogue: dk * sum_j e^{i k_j t}; converges to the closed form as count grows."""
    return complex(grid.spacing * np.sum(np.exp(1j * grid.nodes * t)))


def _fejer(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|sum_n coeffs[n] w^n| by Horner's rule in w, in place and in a fixed order of
    operations.  For unimodular w and coeffs[m + J - 1] the Laurent coefficient of
    w^m, |m| < J, this is the modulus of the Laurent sum, since |w^{J-1}| = 1."""
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= w
        acc += c
    return np.abs(acc)


def compute_indicator(data: MultiFreqDataset, grid: SamplingGrid) -> IndicatorField:
    """Sum over sensors of |(N g, g)| with the phase-map probe, per voxel: the modulus of
    the Fejer polynomial in w = e^{-i dk phase(z)} with coefficients dk^2 (J - |m|) u_m."""
    J, dk = data.grid.count, data.grid.spacing
    weights = dk * dk * (J - np.abs(np.arange(1 - J, J)))
    centers = grid.centers()
    total = np.zeros(grid.size)
    for x, row in zip(data.sensors.array, data.values):
        w, _ = _kernel(data.kind, x, centers, -dk)
        total += _fejer(weights * row[1:-1], w)
    return IndicatorField(grid=grid, values=total, normalized=False)


def normalize(field: IndicatorField) -> IndicatorField:
    """Scale so the maximum value is exactly 1."""
    if not np.all(np.isfinite(field.values)):
        raise ValueError("cannot normalize a non-finite indicator field")
    peak = float(field.values.max())
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

def write_field(field: IndicatorField, path, scenario_hash: str = "-") -> None:
    fields = [
        ("scenario_hash", scenario_hash),
        ("bounds", _format_floats(v for b in field.grid.bounds for v in b)),
        ("resolution", " ".join(str(n) for n in field.grid.resolution)),
        ("normalized", "true" if field.normalized else "false"),
    ]
    _write_container(path, FIELD_MAGIC, fields, field.values)


def read_field(path) -> tuple[IndicatorField, dict]:
    with _reading(path, FIELD_MAGIC) as (meta, payload):
        b, n = _numbers(meta["bounds"], 6), _numbers(meta["resolution"], 3, int)
        if meta["normalized"] not in ("true", "false"):
            raise ValueError(f"normalized must be 'true' or 'false', got {meta['normalized']!r}")
        field = IndicatorField(grid=SamplingGrid(bounds=(b[0:2], b[2:4], b[4:6]), resolution=n),
                               values=_samples(payload, (math.prod(n),)).copy(),
                               normalized=meta["normalized"] == "true")
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
    padded = np.concatenate([[False], mask.mask, [False]]).astype(int)
    edges = np.diff(padded)
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    fields = [
        ("scenario_hash", scenario_hash),
        ("iso", repr(mask.iso)),
        ("resolution", " ".join(str(n) for n in mask.grid.resolution)),
        ("count", mask.count),
        ("centroid", _format_floats(mask.centroid) if mask.centroid else "-"),
        ("bbox_min", _format_floats(mask.bbox[0]) if mask.bbox else "-"),
        ("bbox_max", _format_floats(mask.bbox[1]) if mask.bbox else "-"),
    ]
    fields += [("run", f"{s} {e - s}") for s, e in zip(starts, ends)]
    _write_container(path, MASK_MAGIC, fields)
