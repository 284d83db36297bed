"""Benchmark workloads: the scenario each one images, as mfsampling config text.

Every support is off-centre, and the peanut is asymmetric, because an
origin-centred support is its own point reflection and hides sign and
reflection errors.  Near-field sensors are Fibonacci points on the sphere
r = 3; far-field directions are Fibonacci points on the unit sphere, which
the config loader closes under negation.  The workload seed only sets the
noise seed, so every seed images the same geometry.

This module uses only the standard library: the benchmark imports it before
it times the import of mfsampling (and with it numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "near" or "far"
    shape_lines: tuple[str, ...]
    h: float
    sensors: int  # near: sensor points; far: directions before closing under negation
    k_max: float
    num_freq: int
    grid_n: int
    noise: float = 0.05
    iso: float = 0.7


def fibonacci_sphere(n: int, radius: float) -> list[tuple[float, float, float]]:
    """n nearly uniform points on the sphere of the given radius."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        rho = math.sqrt(1.0 - z * z)
        phi = golden * i
        points.append((radius * rho * math.cos(phi), radius * rho * math.sin(phi), radius * z))
    return points


def config_text(w: Workload, seed: int) -> str:
    """The scenario config the program receives; `seed` is the noise seed."""
    pts = fibonacci_sphere(w.sensors, 3.0 if w.kind == "near" else 1.0)
    groups = " ; ".join(" ".join(repr(c) for c in p) for p in pts)
    lines = [
        f"label = {w.name}",
        f"kind = {w.kind}",
        *w.shape_lines,
        f"h = {w.h!r}",
        f"{'sensors' if w.kind == 'near' else 'directions'} = {groups}",
        f"k_max = {w.k_max!r}",
        f"num_freq = {w.num_freq}",
        f"noise = {w.noise!r}",
        f"seed = {int(seed)}",
        "grid_bounds = -3.0 3.0 -3.0 3.0 -3.0 3.0",
        f"grid_n = {w.grid_n}",
        "zero_mode = extend",
        f"iso = {w.iso!r}",
    ]
    return "\n".join(lines) + "\n"


_PEANUT = ("shape = peanut", "centers = 0.1 -0.4 0.3 ; 0.7 0.2 0.1", "radius = 0.6")
_WIDE_BALL = ("shape = ball", "center = -0.9 0.5 0.3", "radius = 0.6")
_FAR_BALL = ("shape = ball", "center = 1.2 0.4 0.0", "radius = 0.5")

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("image_dense",
                 "indicator over a 48^3 grid is ~80% of the op and forward data is idle",
                 "near", _PEANUT, h=0.1, sensors=14, k_max=11.0, num_freq=11, grid_n=48),
        Workload("wideband",
                 "24 sensors x 48 frequencies on a finer rule: forward data and verify are ~75% of the op",
                 "near", _WIDE_BALL, h=0.07, sensors=24, k_max=24.0, num_freq=48, grid_n=16),
        Workload("far_offcentre",
                 "the only far-field path; its off-centre ball exposes the reflection in loc_err",
                 "far", _FAR_BALL, h=0.05, sensors=7, k_max=11.0, num_freq=11, grid_n=32),
    )
}

# Seconds-long variants for the benchmark's self-test: an 8^3 grid, J = 4, and
# a coarser rule, with the same supports and sensor layouts.
TINY: dict[str, Workload] = {
    f"{name}.tiny": replace(w, name=f"{name}.tiny", h=max(w.h, 0.1), num_freq=4, grid_n=8)
    for name, w in WORKLOADS.items()
}


def lookup(name: str) -> Workload:
    if name in WORKLOADS:
        return WORKLOADS[name]
    if name in TINY:
        return TINY[name]
    raise KeyError(name)
