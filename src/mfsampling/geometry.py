"""Parametric source supports: membership, support functions, quadrature, distance bounds.

Supports are open regions in R^3 built from a small family of primitives
(ball, axis-aligned box, rounded cylinder, peanut, L-shape) and finite
unions of those.  Each leaf component carries a constant amplitude, the
value the source density takes on that component.  Every number given must
be finite, and a composite support builds its parts once, at construction.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


class GeometryError(ValueError):
    """Raised for geometric precondition violations (point inside support, empty rule)."""


def _point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3D point, got shape {a.shape}")
    return a


def _points(p) -> np.ndarray:
    a = np.atleast_2d(np.asarray(p, dtype=float))
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of points, got shape {np.shape(p)}")
    return a


def _grid_points(axes) -> np.ndarray:
    """Points of the tensor grid axes[0] x axes[1] x axes[2] as (n, 3), in row-major order."""
    points = np.empty(tuple(len(a) for a in axes) + (3,))
    points[..., 0] = axes[0][:, None, None]
    points[..., 1] = axes[1][:, None]
    points[..., 2] = axes[2]
    return points.reshape(-1, 3)


def _finite(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x!r}")
    return x


def _triple(v) -> tuple[float, float, float]:
    x, y, z = (_finite(c) for c in v)
    return (x, y, z)


class SourceSupport(ABC):
    """Bounded open region carrying a constant source amplitude per component."""

    @abstractmethod
    def contains_points(self, points) -> np.ndarray:
        """Strict-interior membership for an (N, 3) array; returns (N,) bool."""

    @abstractmethod
    def support_function(self, xi) -> float:
        """h(xi) = sup of xi.y over the closed support, for a 3-vector xi."""

    @abstractmethod
    def signed_distance_bounds(self, x) -> tuple[float, float]:
        """(inf, sup) of |x - y| over the closed support; inf is signed (< 0 inside)."""

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lo, hi) corners of the support: lo_a = -h(-e_a), hi_a = h(e_a)."""
        h = self.support_function
        return tuple(np.array([s * h(s * e) for e in np.eye(3)]) for s in (-1.0, 1.0))

    def components(self) -> Iterator["SourceSupport"]:
        yield self

    @property
    def amplitude(self) -> float:
        raise NotImplementedError

    def amplitude_at(self, points) -> np.ndarray:
        """Source density sampled at points: amplitude of the first containing component."""
        pts = _points(points)
        out = np.zeros(len(pts))
        unset = np.ones(len(pts), dtype=bool)
        for part in self.components():
            hit = unset & part.contains_points(pts)
            out[hit] = part.amplitude
            unset &= ~hit
        return out

    def amplitude_bounds(self) -> tuple[float, float]:
        """(min |amplitude|, max |amplitude|) over components."""
        amps = [abs(part.amplitude) for part in self.components()]
        return (min(amps), max(amps))

    def _check_amplitudes(self) -> None:
        amps = [part.amplitude for part in self.components()]
        if any(a == 0 for a in amps):
            raise ValueError("component amplitude must be nonzero")
        if not (all(a > 0 for a in amps) or all(a < 0 for a in amps)):
            raise ValueError("all component amplitudes must share the same sign")


class _Parts(SourceSupport):
    """A support whose region is the union of its parts: membership, h and bounds follow.

    The constructor builds `parts` once; outside Union it is not a dataclass field, so
    equality, hashing, repr and replace see only the fields the support is given."""

    parts: tuple

    def contains_points(self, points):
        pts = _points(points)
        return np.logical_or.reduce([part.contains_points(pts) for part in self.parts])

    def support_function(self, xi):
        return max(part.support_function(xi) for part in self.parts)

    def signed_distance_bounds(self, x):
        bounds = [part.signed_distance_bounds(x) for part in self.parts]
        return min(b[0] for b in bounds), max(b[1] for b in bounds)


class _Box(NamedTuple):
    """Open axis-aligned box between the corners lo and hi: a part of Cube and LShape."""

    lo: np.ndarray
    hi: np.ndarray

    def contains_points(self, points):
        pts = _points(points)
        return np.all((pts > self.lo) & (pts < self.hi), axis=1)

    def support_function(self, xi):
        return float(np.maximum(xi * self.lo, xi * self.hi).sum())

    def signed_distance_bounds(self, x):
        """Signed inf and sup of |x - y| over the closed box."""
        x = _point(x)
        gap = np.maximum(self.lo - x, x - self.hi)
        if np.all(gap < 0):
            r1 = float(gap.max())  # negative: inside
        else:
            r1 = float(np.sqrt((np.maximum(gap, 0.0) ** 2).sum()))
        far = np.maximum(np.abs(x - self.lo), np.abs(x - self.hi))
        r2 = float(np.sqrt((far**2).sum()))
        return r1, r2


class _Cylinder(NamedTuple):
    """Open vertical cylinder rho < radius, |x3| < half_height: the body of RoundedCylinder."""

    radius: float
    half_height: float

    def contains_points(self, points):
        pts = _points(points)
        rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return (rho2 < self.radius**2) & (np.abs(pts[:, 2]) < self.half_height)

    def support_function(self, xi):
        return float(self.radius * math.hypot(xi[0], xi[1]) + self.half_height * abs(xi[2]))

    def signed_distance_bounds(self, x):
        p = _point(x)
        rho = float(np.hypot(p[0], p[1]))
        dr, dz = rho - self.radius, abs(p[2]) - self.half_height
        if dr <= 0 and dz <= 0:
            r1 = max(dr, dz)
        else:
            r1 = float(np.hypot(max(dr, 0.0), max(dz, 0.0)))
        return r1, float(np.hypot(rho + self.radius, abs(p[2]) + self.half_height))


@dataclass(frozen=True)
class Ball(SourceSupport):
    center: tuple[float, float, float]
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", _triple(self.center))
        object.__setattr__(self, "radius", _finite(self.radius))
        object.__setattr__(self, "amplitude", _finite(self.amplitude))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        self._check_amplitudes()

    def contains_points(self, points):
        pts = _points(points)
        d2 = ((pts - np.asarray(self.center)) ** 2).sum(axis=1)
        return d2 < self.radius**2

    def support_function(self, xi):
        return float(sum(c * v for c, v in zip(self.center, xi)) + self.radius * math.hypot(*xi))

    def signed_distance_bounds(self, x):
        d = float(np.linalg.norm(_point(x) - np.asarray(self.center)))
        return d - self.radius, d + self.radius


@dataclass(frozen=True)
class Cube(_Parts):
    """Axis-aligned box given by center and per-axis half-widths."""

    center: tuple[float, float, float]
    half_widths: tuple[float, float, float]
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", _triple(self.center))
        object.__setattr__(self, "half_widths", _triple(self.half_widths))
        object.__setattr__(self, "amplitude", _finite(self.amplitude))
        if any(w <= 0 for w in self.half_widths):
            raise ValueError("cube half-widths must be positive")
        self._check_amplitudes()
        c, w = np.asarray(self.center), np.asarray(self.half_widths)
        object.__setattr__(self, "parts", (_Box(c - w, c + w),))


@dataclass(frozen=True)
class RoundedCylinder(_Parts):
    """Vertical cylinder |x3| < half_height of the given radius, capped by hemispheres."""

    radius: float
    half_height: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "radius", _finite(self.radius))
        object.__setattr__(self, "half_height", _finite(self.half_height))
        object.__setattr__(self, "amplitude", _finite(self.amplitude))
        if self.radius <= 0 or self.half_height <= 0:
            raise ValueError("rounded cylinder radius and half-height must be positive")
        self._check_amplitudes()
        r, h, a = self.radius, self.half_height, self.amplitude
        object.__setattr__(self, "parts", (_Cylinder(r, h), Ball((0.0, 0.0, h), r, a),
                                           Ball((0.0, 0.0, -h), r, a)))


@dataclass(frozen=True)
class Peanut(_Parts):
    """Union of two overlapping balls of a common radius, treated as one component."""

    centers: tuple[tuple[float, float, float], tuple[float, float, float]]
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        a, b = self.centers
        object.__setattr__(self, "centers", (_triple(a), _triple(b)))
        object.__setattr__(self, "radius", _finite(self.radius))
        object.__setattr__(self, "amplitude", _finite(self.amplitude))
        if self.radius <= 0:
            raise ValueError("peanut radius must be positive")
        self._check_amplitudes()
        object.__setattr__(self, "parts", tuple(Ball(c, self.radius, self.amplitude)
                                                for c in self.centers))


@dataclass(frozen=True)
class LShape(_Parts):
    """Union of two axis-aligned boxes, each given as (min corner, max corner)."""

    box1: tuple[tuple[float, float, float], tuple[float, float, float]]
    box2: tuple[tuple[float, float, float], tuple[float, float, float]]
    amplitude: float = 1.0

    def __post_init__(self):
        for name in ("box1", "box2"):
            lo, hi = getattr(self, name)
            lo, hi = _triple(lo), _triple(hi)
            if any(a >= b for a, b in zip(lo, hi)):
                raise ValueError(f"{name} must satisfy min < max per axis")
            object.__setattr__(self, name, (lo, hi))
        object.__setattr__(self, "amplitude", _finite(self.amplitude))
        self._check_amplitudes()
        object.__setattr__(self, "parts", tuple(_Box(np.asarray(lo), np.asarray(hi))
                                                for lo, hi in (self.box1, self.box2)))


@dataclass(frozen=True)
class Union(_Parts):
    parts: tuple[SourceSupport, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("union must have at least one part")
        self._check_amplitudes()

    def components(self):
        for part in self.parts:
            yield from part.components()


@dataclass(frozen=True)
class QuadratureRule:
    """The discrete source: interior voxel centers y_q, equal weights h^3, and the
    source density f(y_q) sampled there, once, by the pass that picks the nodes."""

    nodes: np.ndarray  # (Q, 3)
    weights: np.ndarray  # (Q,)
    amplitude: np.ndarray  # (Q,) f at the nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def quadrature(support: SourceSupport, h: float) -> QuadratureRule:
    """Voxelize the support's bounding box at spacing h, keeping interior midpoints.

    One `amplitude_at` pass over the box's voxel centers samples f and picks the
    nodes: every component's amplitude is nonzero, so f != 0 is membership.  Nodes
    are emitted in lexicographic voxel-index order; every weight is h^3.  Raises
    ValueError for a non-finite or nonpositive h, and GeometryError when no voxel
    midpoint lies inside the support.
    """
    h = _finite(h)
    if h <= 0:
        raise ValueError("quadrature spacing h must be positive")
    lo, hi = support.bounding_box()
    counts = [max(1, int(np.ceil((hi[a] - lo[a]) / h - 1e-12))) for a in range(3)]
    pts = _grid_points([lo[a] + (np.arange(counts[a]) + 0.5) * h for a in range(3)])
    f = support.amplitude_at(pts)
    inside = f != 0
    nodes = pts[inside]
    if len(nodes) == 0:
        raise GeometryError(f"spacing h={h} too coarse: no voxel midpoint inside the support")
    return QuadratureRule(nodes=nodes, weights=np.full(len(nodes), h**3), amplitude=f[inside])
