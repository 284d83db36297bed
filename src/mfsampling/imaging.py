"""Indicator-field imaging over a voxel sampling grid.

For every sampling point the dataset's quadratic form is evaluated at a
unimodular probe built from the sensor's phase map t (distance for near-field
sensors, negated projection for far-field directions) and the moduli are
summed over sensors.  At that probe the form is w^{1-J} times the polynomial
dk^2 sum_{|m|<J} (J - |m|) u_m w^{m+J-1} in w = e^{-i dk t}; as |w| = 1, one
Horner pass gives its modulus.  `quadratic_form` is that form at any band function, a
(J,) array, through `apply_operator`, the band convolution N of one sensor's row; both
are references, which the indicator is checked against.  `forward._grid_walk` gives w
slab by slab: a near sensor's is the vectorised complex exponential at every voxel; a
far phase is linear, so there w is a product of per-axis factors, at two complex
products per voxel.
Voxels are independent, so a grid large enough to pay for a fork is split into
contiguous ranges of axis-0 layers, one per worker process (`_workers`), and each
voxel is still summed in one process, in sensor order, to the same bits.
Includes field normalization, plane slicing, iso-thresholding, and file export.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .forward import (
    FrequencyGrid,
    MultiFreqDataset,
    _cis,
    _format_floats,
    _grid_walk,
    _horner,
    _numbers,
    _reading,
    _samples,
    _toeplitz_apply,
    _toeplitz_forms,
    _write_container,
    phase,
)
from .geometry import _grid_points, _point

FIELD_MAGIC = "mfsampling-field v1"
MASK_MAGIC = "mfsampling-mask v1"

# Horner steps (voxels x sensors x coefficients) per worker process, at least: about
# 17 ms of serial work on a 2-vCPU Xeon, against about 3 ms to fork and reap a worker.
_WORKER_STEPS = 1 << 23


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
        return _grid_points([self.axis_centers(a) for a in range(3)])

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


def probe(kind: str, x, z, grid: FrequencyGrid) -> np.ndarray:
    """Unimodular probe e^{i k_j phase(z)} of sensor x at sampling point z, a (J,) array."""
    return _cis(grid.nodes, phase(kind, x, _point(z)))


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
near_test_function = partial(probe, "near")
far_test_function = partial(probe, "far")
near_quadratic_form = far_quadratic_form = quadratic_form


def _workers(layers: int, steps: int) -> int:
    """Processes that image a grid of `layers` axis-0 layers and `steps` Horner steps: one
    per CPU this process may run on, at most one per layer and one per `_WORKER_STEPS`
    steps.  One without `os.fork` or `os.sched_getaffinity`, or while another Python
    thread is alive: a fork copies only its caller, and a lock that thread holds would
    stay held in the worker."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), layers, steps // _WORKER_STEPS))


def _reap(children: dict, kill: bool) -> None:
    """Wait for every worker, `{pid: (lo, hi)}`, each after a SIGKILL if `kill`; unless
    killed, a worker that did not exit 0 raises `ChildProcessError` once all are reaped."""
    if kill:  # imported on a failure path, as `traceback` is: about 1.7 ms each to
        from signal import SIGKILL  # import on a 2-vCPU Xeon, which every command would pay
    failed = []
    for pid, (lo, hi) in children.items():
        if kill:
            os.kill(pid, SIGKILL)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            failed.append(f"indicator worker {pid} (axis-0 layers {lo}..{hi - 1}) "
                          f"exited with status {status}")
    if failed and not kill:
        raise ChildProcessError("; ".join(failed))


def compute_indicator(data: MultiFreqDataset, grid: SamplingGrid) -> IndicatorField:
    """Sum over sensors of |(N g, g)| with the phase-map probe, per voxel: the modulus of
    the Fejer polynomial in w = e^{-i dk phase(z)} with coefficients dk^2 (J - |m|) u_m,
    summed by `_horner` as a polynomial: the form's factor w^{1-J} has modulus 1.

    Each sensor's w comes slab by slab from `_grid_walk` (the kernel at every voxel
    near, products of per-axis factors taken once far), and each slab of the total adds
    it in place; each voxel sums its sensors in sensor order.

    With `_workers` above one, the axis-0 layers are cut into that many contiguous
    ranges: the caller forks a worker for every range but the first, which it walks
    itself, and every process adds into one shared anonymous mapping.  A worker leaves
    only through `os._exit`, with 0 once its range is done; the caller reaps every
    worker before it returns or raises (`_reap`), killing them first if its own range
    raised.  Every voxel is walked by one process, so the field has the serial bits."""
    J, dk = data.grid.count, data.grid.spacing
    weights = dk * dk * (J - np.abs(np.arange(1 - J, J)))
    coeffs = [weights * row[1:-1] for row in data.values]
    a0, a1, a2 = (grid.axis_centers(a) for a in range(3))
    layer = a1.size * a2.size
    workers = _workers(a0.size, grid.size * len(coeffs) * (2 * J - 1))
    bounds = [a0.size * p // workers for p in range(workers + 1)]
    total = (np.zeros(grid.size) if workers == 1
             else np.frombuffer(mmap.mmap(-1, 8 * grid.size)))  # zero-filled, shared
    children, share, done = {}, 0, False
    try:
        for p in range(1, workers):
            pid = os.fork()
            if pid == 0:
                children, share = None, p
                break
            children[pid] = (bounds[p], bounds[p + 1])
        lo, hi = bounds[share], bounds[share + 1]
        part = total[lo * layer:hi * layer]
        for voxels, ell, w in _grid_walk(data.kind, data.sensors.array, (a0[lo:hi], a1, a2),
                                         -dk):
            slab = part[voxels]  # a view: `part[voxels] +=` would copy it back
            slab += np.abs(_horner(coeffs[ell], w))
        done = True
    except BaseException:
        if children is None:  # a worker names its failure on the standard error
            import traceback
            os.write(2, traceback.format_exc().encode())
        raise
    finally:
        if children is None:
            os._exit(0 if done else 1)
        _reap(children, kill=not done)
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
    # (n, 3) like the centers, so the mean adds in their order; a 1-D mean adds pairwise
    index = np.nonzero(mask.reshape(field.grid.resolution))
    pts = np.stack([field.grid.axis_centers(a)[i] for a, i in enumerate(index)], axis=1)
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
    # one %-template per layer: its u is formatted once, its values in one call
    tails = [f",{v!r},%r" for v in cs.v_coords.tolist()]
    for u, row in zip(cs.u_coords.tolist(), cs.values.tolist()):
        u_text = repr(u)
        lines.append((u_text + ("\n" + u_text).join(tails)) % tuple(row))
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
