"""Experiment descriptions: scenario dataclass, plain-text config format, presets.

A scenario bundles everything one run needs: source support, quadrature
spacing, sensor set, frequency band, noise level and seed, sampling grid,
zero-frequency handling, and iso-values for thresholding.  The config
format is flat `key = value` text with `#` comments; unknown keys are
rejected.  Presets cover the standard experiment library (ball with 1, 3,
and 14 sensors, cube, rounded cylinder, peanut, L-shape, two balls).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .geometry import Ball, Cube, LShape, Peanut, RoundedCylinder, SourceSupport, Union
from .forward import FrequencyGrid, MeasurementSet
from .imaging import SamplingGrid


class ConfigError(ValueError):
    """Raised for malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    support: SourceSupport
    h: float
    measurement: MeasurementSet
    frequencies: FrequencyGrid
    noise_level: float = 0.0
    seed: int = 1
    sampling: SamplingGrid = field(default_factory=SamplingGrid.cube)
    zero_mode: str = "extend"
    iso_values: tuple[float, ...] = (0.7,)
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "noise_level", float(self.noise_level))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "iso_values", tuple(float(v) for v in self.iso_values))
        self.validate()

    def validate(self) -> None:
        if self.h <= 0:
            raise ConfigError("key 'h': quadrature spacing must be positive")
        if self.noise_level < 0:
            raise ConfigError("key 'noise': noise level must be nonnegative")
        if self.seed < 0:
            raise ConfigError("key 'seed': seed must be a nonnegative integer")
        if self.zero_mode not in ("extend", "drop"):
            raise ConfigError("key 'zero_mode': must be 'extend' or 'drop'")
        for v in self.iso_values:
            if not 0.0 < v < 1.0:
                raise ConfigError(f"key 'iso': value {v} must lie strictly between 0 and 1")
        if self.measurement.kind == "near":
            for i, p in enumerate(self.measurement.points):
                r1, _ = self.support.signed_distance_bounds(p)
                if r1 <= 0:
                    raise ConfigError(
                        f"key 'sensors': sensor {i} at {p} lies inside the source support")

    @property
    def kind(self) -> str:
        return self.measurement.kind

    def summary(self) -> str:
        return (f"{self.label or type(self.support).__name__.lower()} kind={self.kind} "
                f"L={len(self.measurement)} J={self.frequencies.count} "
                f"noise={self.noise_level!r} seed={self.seed}")


def polar_sensor(phi_deg: float, theta_deg: float, r: float) -> tuple[float, float, float]:
    """Spherical polar sensor (angles in degrees) to cartesian coordinates."""
    phi, theta = math.radians(phi_deg), math.radians(theta_deg)
    return (r * math.sin(theta) * math.cos(phi),
            r * math.sin(theta) * math.sin(phi),
            r * math.cos(theta))


# ---------------------------------------------------------------------------
# config text format

_KNOWN_KEYS = {
    "label", "kind", "shape", "center", "radius", "half_widths", "half_height",
    "centers", "boxes", "amplitude", "h", "sensors", "sensors_polar", "directions",
    "k_max", "num_freq", "noise", "seed", "grid_bounds", "grid_n", "zero_mode", "iso",
}

_SHAPES = ("ball", "cube", "rounded_cylinder", "peanut", "lshape", "two_balls")


def _floats(key: str, raw: str, n: int | None = None) -> list[float]:
    try:
        vals = [float(v) for v in raw.split()]
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected numbers, got {raw!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"key '{key}': values must be finite, got {raw!r}")
    if n is not None and len(vals) != n:
        raise ConfigError(f"key '{key}': expected {n} numbers, got {len(vals)}")
    return vals


def _groups(key: str, raw: str, size: int) -> list[list[float]]:
    out = []
    for part in raw.split(";"):
        out.append(_floats(key, part.strip(), size))
    return out


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from exc


def _build_support(kv: dict[str, str]) -> SourceSupport:
    shape = kv.get("shape")
    if shape is None:
        raise ConfigError("key 'shape': missing (required)")
    if shape not in _SHAPES:
        raise ConfigError(f"key 'shape': unknown shape {shape!r}; choose from {_SHAPES}")
    amps = _floats("amplitude", kv.get("amplitude", "1.0"))

    def amp(i: int, n_parts: int) -> float:
        if len(amps) == 1:
            return amps[0]
        if len(amps) != n_parts:
            raise ConfigError(f"key 'amplitude': expected 1 or {n_parts} values")
        return amps[i]

    try:
        if shape == "ball":
            center = _floats("center", kv.get("center", "0 0 0"), 3)
            return Ball(center=tuple(center), radius=_floats("radius", kv["radius"], 1)[0],
                        amplitude=amp(0, 1))
        if shape == "cube":
            center = _floats("center", kv.get("center", "0 0 0"), 3)
            hw = _floats("half_widths", kv["half_widths"], 3)
            return Cube(center=tuple(center), half_widths=tuple(hw), amplitude=amp(0, 1))
        if shape == "rounded_cylinder":
            return RoundedCylinder(radius=_floats("radius", kv["radius"], 1)[0],
                                   half_height=_floats("half_height", kv["half_height"], 1)[0],
                                   amplitude=amp(0, 1))
        if shape == "peanut":
            cs = _groups("centers", kv["centers"], 3)
            if len(cs) != 2:
                raise ConfigError("key 'centers': peanut needs exactly two centers")
            return Peanut(centers=(tuple(cs[0]), tuple(cs[1])),
                          radius=_floats("radius", kv["radius"], 1)[0], amplitude=amp(0, 1))
        if shape == "lshape":
            boxes = _groups("boxes", kv["boxes"], 6)
            if len(boxes) != 2:
                raise ConfigError("key 'boxes': lshape needs exactly two boxes")
            b1, b2 = boxes
            return LShape(box1=(tuple(b1[:3]), tuple(b1[3:])),
                          box2=(tuple(b2[:3]), tuple(b2[3:])), amplitude=amp(0, 1))
        # two_balls
        cs = _groups("centers", kv["centers"], 3)
        if len(cs) != 2:
            raise ConfigError("key 'centers': two_balls needs exactly two centers")
        radius = _floats("radius", kv["radius"], 1)[0]
        return Union(parts=(
            Ball(center=tuple(cs[0]), radius=radius, amplitude=amp(0, 2)),
            Ball(center=tuple(cs[1]), radius=radius, amplitude=amp(1, 2)),
        ))
    except KeyError as exc:
        raise ConfigError(f"key {exc.args[0]!r}: missing (required for shape '{shape}')") from exc
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"key 'shape': invalid geometry ({exc})") from exc


def parse_config_text(text: str) -> Scenario:
    kv: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"key '{key}': unknown configuration key")
        if key in kv:
            raise ConfigError(f"key '{key}': duplicated")
        kv[key] = val

    kind = kv.get("kind", "near")
    if kind not in ("near", "far"):
        raise ConfigError(f"key 'kind': must be 'near' or 'far', got {kind!r}")
    support = _build_support(kv)

    if kind == "near":
        if "directions" in kv:
            raise ConfigError("key 'directions': only valid for kind = far")
        if "sensors" in kv and "sensors_polar" in kv:
            raise ConfigError("key 'sensors_polar': give either sensors or sensors_polar")
        if "sensors" in kv:
            pts = [tuple(g) for g in _groups("sensors", kv["sensors"], 3)]
        elif "sensors_polar" in kv:
            pts = [polar_sensor(*g) for g in _groups("sensors_polar", kv["sensors_polar"], 3)]
        else:
            raise ConfigError("key 'sensors': missing (required for kind = near)")
        measurement = MeasurementSet.near_points(pts)
    else:
        for bad in ("sensors", "sensors_polar"):
            if bad in kv:
                raise ConfigError(f"key '{bad}': only valid for kind = near")
        if "directions" not in kv:
            raise ConfigError("key 'directions': missing (required for kind = far)")
        try:
            measurement = MeasurementSet.far_directions(_groups("directions", kv["directions"], 3))
        except ValueError as exc:
            raise ConfigError(f"key 'directions': {exc}") from exc

    k_max = _floats("k_max", kv.get("k_max", "11"), 1)[0]
    count = _int("num_freq", kv.get("num_freq", "11"))
    try:
        frequencies = FrequencyGrid(k_max=k_max, count=count)
    except ValueError as exc:
        raise ConfigError(f"key 'k_max'/'num_freq': {exc}") from exc

    gb = _floats("grid_bounds", kv.get("grid_bounds", "-3 3 -3 3 -3 3"), 6)
    gn = kv.get("grid_n", "48 48 48").split()
    if len(gn) == 1:
        gn = gn * 3
    if len(gn) != 3:
        raise ConfigError("key 'grid_n': expected 1 or 3 integers")
    try:
        sampling = SamplingGrid(bounds=((gb[0], gb[1]), (gb[2], gb[3]), (gb[4], gb[5])),
                                resolution=tuple(_int("grid_n", v) for v in gn))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"key 'grid_bounds'/'grid_n': {exc}") from exc

    return Scenario(
        support=support,
        h=_floats("h", kv.get("h", "0.1"), 1)[0],
        measurement=measurement,
        frequencies=frequencies,
        noise_level=_floats("noise", kv.get("noise", "0"), 1)[0],
        seed=_int("seed", kv.get("seed", "1")),
        sampling=sampling,
        zero_mode=kv.get("zero_mode", "extend"),
        iso_values=tuple(_floats("iso", kv.get("iso", "0.7"))),
        label=kv.get("label", ""),
    )


def parse_config(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _support_lines(support: SourceSupport) -> list[str]:
    def fmt(vals) -> str:
        return " ".join(repr(float(v)) for v in vals)

    if isinstance(support, Ball):
        return ["shape = ball", f"center = {fmt(support.center)}",
                f"radius = {support.radius!r}", f"amplitude = {support.amplitude!r}"]
    if isinstance(support, Cube):
        return ["shape = cube", f"center = {fmt(support.center)}",
                f"half_widths = {fmt(support.half_widths)}",
                f"amplitude = {support.amplitude!r}"]
    if isinstance(support, RoundedCylinder):
        return ["shape = rounded_cylinder", f"radius = {support.radius!r}",
                f"half_height = {support.half_height!r}",
                f"amplitude = {support.amplitude!r}"]
    if isinstance(support, Peanut):
        return ["shape = peanut",
                f"centers = {fmt(support.centers[0])} ; {fmt(support.centers[1])}",
                f"radius = {support.radius!r}", f"amplitude = {support.amplitude!r}"]
    if isinstance(support, LShape):
        b1 = fmt(support.box1[0]) + " " + fmt(support.box1[1])
        b2 = fmt(support.box2[0]) + " " + fmt(support.box2[1])
        return ["shape = lshape", f"boxes = {b1} ; {b2}",
                f"amplitude = {support.amplitude!r}"]
    if isinstance(support, Union):
        parts = tuple(support.components())
        if (len(parts) == 2 and all(isinstance(p, Ball) for p in parts)
                and parts[0].radius == parts[1].radius):
            return ["shape = two_balls",
                    f"centers = {fmt(parts[0].center)} ; {fmt(parts[1].center)}",
                    f"radius = {parts[0].radius!r}",
                    f"amplitude = {parts[0].amplitude!r} {parts[1].amplitude!r}"]
    raise ConfigError(f"support {type(support).__name__} is not representable in config text")


def write_config_text(s: Scenario) -> str:
    lines = []
    if s.label:
        lines.append(f"label = {s.label}")
    lines.append(f"kind = {s.kind}")
    lines.extend(_support_lines(s.support))
    lines.append(f"h = {s.h!r}")
    fmt_groups = " ; ".join(" ".join(repr(c) for c in p) for p in s.measurement.points)
    if s.kind == "near":
        lines.append(f"sensors = {fmt_groups}")
    else:
        lines.append(f"directions = {fmt_groups}")
    lines.append(f"k_max = {s.frequencies.k_max!r}")
    lines.append(f"num_freq = {s.frequencies.count}")
    lines.append(f"noise = {s.noise_level!r}")
    lines.append(f"seed = {s.seed}")
    gb = s.sampling.bounds
    lines.append(f"grid_bounds = {gb[0][0]!r} {gb[0][1]!r} {gb[1][0]!r} {gb[1][1]!r} "
                 f"{gb[2][0]!r} {gb[2][1]!r}")
    lines.append(f"grid_n = {s.sampling.resolution[0]} {s.sampling.resolution[1]} "
                 f"{s.sampling.resolution[2]}")
    lines.append(f"zero_mode = {s.zero_mode}")
    lines.append(f"iso = {' '.join(repr(v) for v in s.iso_values)}")
    return "\n".join(lines) + "\n"


def write_config(s: Scenario, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(write_config_text(s))


def scenario_hash(s: Scenario) -> str:
    """Stable content hash of the canonical config text."""
    return hashlib.sha256(write_config_text(s).encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# preset experiment library

_SPHERE_R = 3.0

_TABLE_3PT = [(-180.0, 45.0), (-90.0, 45.0), (0.0, 45.0)]

_DIAG_THETA = math.degrees(math.atan(math.sqrt(2.0)))  # 54.7356... (cube diagonal)
_TABLE_14PT = [
    (0.0, 90.0), (180.0, 90.0), (90.0, 90.0), (-90.0, 90.0),
    (90.0, 0.0), (90.0, 180.0),
    (45.0, _DIAG_THETA), (45.0, 180.0 - _DIAG_THETA),
    (-45.0, _DIAG_THETA), (-45.0, 180.0 - _DIAG_THETA),
    (135.0, _DIAG_THETA), (135.0, 180.0 - _DIAG_THETA),
    (-135.0, _DIAG_THETA), (-135.0, 180.0 - _DIAG_THETA),
]


def _sensors(table) -> MeasurementSet:
    return MeasurementSet.near_points([polar_sensor(phi, theta, _SPHERE_R)
                                       for phi, theta in table])


def _preset(label, support, sensors, iso, h=0.1) -> Scenario:
    return Scenario(
        support=support, h=h, measurement=sensors,
        frequencies=FrequencyGrid(k_max=11.0, count=11),
        noise_level=0.05, seed=1, sampling=SamplingGrid.cube(3.0, 48),
        zero_mode="extend", iso_values=iso, label=label,
    )


def _build_presets() -> dict[str, Scenario]:
    unit_ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    sensors14 = _sensors(_TABLE_14PT)
    lshape = LShape(box1=((-0.5, -0.5, -0.25), (0.0, 1.5, 0.25)),
                    box2=((0.0, -0.5, -0.25), (1.5, 0.0, 0.25)))
    two_balls = Union(parts=(Ball(center=(-1.0, 0.0, 0.0), radius=0.5),
                             Ball(center=(1.0, 0.0, 0.0), radius=0.5)))
    return {
        "ball_pt1": _preset("ball_pt1", unit_ball,
                            MeasurementSet.near_points([(3.0, 0.0, 0.0)]), (0.7,)),
        "ball_pt3": _preset("ball_pt3", unit_ball, _sensors(_TABLE_3PT), (0.85, 0.8)),
        "ball_pt14": _preset("ball_pt14", unit_ball, sensors14, (0.7, 0.75)),
        "cube_pt14": _preset("cube_pt14", Cube(center=(0.0, 0.0, 0.0),
                                               half_widths=(1.0, 1.0, 1.0)),
                             sensors14, (0.7, 0.8)),
        "cylinder_pt14": _preset("cylinder_pt14", RoundedCylinder(radius=1.0, half_height=1.0),
                                 sensors14, (0.75, 0.8)),
        "peanut_pt14": _preset("peanut_pt14", Peanut(centers=((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)),
                                                     radius=1.0),
                               sensors14, (0.75, 0.8)),
        "lshape_pt14": _preset("lshape_pt14", lshape, sensors14, (0.87,)),
        "two_balls_pt14": _preset("two_balls_pt14", two_balls, sensors14, (0.85,), h=0.05),
    }


PRESETS: dict[str, Scenario] = _build_presets()


def load_scenario(name_or_path) -> Scenario:
    """Resolve a preset name or read a config file."""
    key = str(name_or_path)
    if key in PRESETS:
        return PRESETS[key]
    return parse_config(name_or_path)
