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
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .geometry import Ball, Cube, LShape, Peanut, RoundedCylinder, SourceSupport, Union
from .forward import FrequencyGrid, GeometryError, MeasurementSet, _numbers, phase_range
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
        if not 0 < self.h < math.inf:
            raise ConfigError("key 'h': quadrature spacing must be positive and finite")
        if not 0 <= self.noise_level < math.inf:
            raise ConfigError("key 'noise': noise level must be nonnegative and finite")
        if self.seed < 0:
            raise ConfigError("key 'seed': seed must be a nonnegative integer")
        # the label is written into config text and its hash, so it must read back unchanged
        if not self.label.isascii():
            raise ConfigError(f"key 'label': non-ASCII character in {self.label!r}")
        if self.label and ("#" in self.label or self.label.strip().splitlines() != [self.label]):
            raise ConfigError(f"key 'label': {self.label!r} holds a '#', a line break, or "
                              "leading or trailing space, which config text cannot carry")
        if self.zero_mode not in ("extend", "drop"):
            raise ConfigError("key 'zero_mode': must be 'extend' or 'drop'")
        if not self.iso_values:
            raise ConfigError("key 'iso': expected at least one value")
        for i, v in enumerate(self.iso_values):
            if not 0.0 < v < 1.0:
                raise ConfigError(f"key 'iso': value {v} must lie strictly between 0 and 1")
            if v in self.iso_values[:i]:
                raise ConfigError(f"key 'iso': value {v} repeated")
        for i, p in enumerate(self.measurement.points):
            try:
                phase_range(self.kind, p, self.support)
            except GeometryError:
                raise ConfigError(
                    f"key 'sensors': sensor {i} at {p} lies inside the source support") from None

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

class _Key(NamedTuple):
    """A shape's config key: `count` groups of `size` numbers, separated by `;`.

    Its value is a number (size 1), a tuple (one group) or a tuple of groups.
    """

    name: str
    size: int
    count: int = 1
    default: str | None = None  # None when required
    broadcast: bool = False  # one number may stand for the whole group


class _Shape(NamedTuple):
    type: type  # the support type the shape writes, and builds unless `build` is given
    keys: tuple[_Key, ...]  # in writing order
    build: Callable | None = None  # the support, from the keys' values in key order
    fields: Callable | None = None  # a support's key values, or None; default: same-named fields


def _two_balls_fields(union: Union):
    """A union's two_balls key values, or None unless it holds two Balls of one radius."""
    balls = union.parts
    if [type(b) for b in balls] != [Ball, Ball] or balls[0].radius != balls[1].radius:
        return None
    return tuple(b.center for b in balls), balls[0].radius, tuple(b.amplitude for b in balls)


_CENTER = _Key("center", 3, default="0 0 0")
_RADIUS = _Key("radius", 1)
_AMPLITUDE = _Key("amplitude", 1, default="1.0", broadcast=True)

_SHAPES = {
    "ball": _Shape(Ball, (_CENTER, _RADIUS, _AMPLITUDE)),
    "cube": _Shape(Cube, (_CENTER, _Key("half_widths", 3), _AMPLITUDE)),
    "rounded_cylinder": _Shape(RoundedCylinder, (_RADIUS, _Key("half_height", 1), _AMPLITUDE)),
    "peanut": _Shape(Peanut, (_Key("centers", 3, 2), _RADIUS, _AMPLITUDE)),
    "lshape": _Shape(
        LShape, (_Key("boxes", 6, 2), _AMPLITUDE),
        build=lambda boxes, amplitude: LShape(*((b[:3], b[3:]) for b in boxes), amplitude),
        fields=lambda s: ((s.box1[0] + s.box1[1], s.box2[0] + s.box2[1]), s.amplitude)),
    "two_balls": _Shape(  # one radius; one amplitude for both balls, or one each
        Union, (_Key("centers", 3, 2), _RADIUS, _AMPLITUDE._replace(size=2)),
        build=lambda centers, radius, amps: Union(tuple(Ball(c, radius, a)
                                                        for c, a in zip(centers, amps))),
        fields=_two_balls_fields),
}

# each kind's sensor keys, the one written first
_SENSOR_KEYS = {"near": ("sensors", "sensors_polar"), "far": ("directions",)}
_SHAPE_KEYS = {key.name for spec in _SHAPES.values() for key in spec.keys}
_KNOWN_KEYS = {
    "label", "kind", "shape", "h", "k_max", "num_freq", "noise", "seed", "grid_bounds",
    "grid_n", "zero_mode", "iso",
} | _SHAPE_KEYS | {name for names in _SENSOR_KEYS.values() for name in names}


def _floats(key: str, raw: str, n: int | None = None) -> tuple[float, ...]:
    try:
        return _numbers(raw, n)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from exc


def _groups(key: str, raw: str, size: int | None) -> list[tuple[float, ...]]:
    return [_floats(key, part.strip(), size) for part in raw.split(";")]


def _number(v) -> str:
    """Config text of a number.  A negative zero is written 0.0: the two compare
    equal, so equal scenarios must have the same text and hash."""
    return repr(float(v) + 0.0)


def _format_groups(groups) -> str:
    return " ; ".join(" ".join(map(_number, g)) for g in groups)


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from exc


def _build_shape(shape: str, kv: dict[str, str]) -> SourceSupport:
    """The support that a shape's config keys describe; another shape's keys are refused."""
    foreign = _SHAPE_KEYS - {key.name for key in _SHAPES[shape].keys}
    for name in kv:
        if name in foreign:
            raise ConfigError(f"key '{name}': not a key of shape '{shape}'")
    values = []
    for key in _SHAPES[shape].keys:
        raw = kv.get(key.name, key.default)
        if raw is None:
            raise ConfigError(f"key '{key.name}': missing (required for shape '{shape}')")
        groups = _groups(key.name, raw, None if key.broadcast else key.size)
        if len(groups) != key.count:
            raise ConfigError(f"key '{key.name}': {shape} needs exactly "
                              f"{('one', 'two')[key.count - 1]} {key.name}")
        if key.broadcast:
            if len(groups[0]) not in (1, key.size):
                raise ConfigError(f"key '{key.name}': expected 1 or {key.size} values")
            groups = [g * (key.size // len(g)) for g in groups]
        value = [g[0] if key.size == 1 else g for g in groups]
        values.append(value[0] if key.count == 1 else tuple(value))
    try:
        return (_SHAPES[shape].build or _SHAPES[shape].type)(*values)
    except ValueError as exc:
        raise ConfigError(f"key 'shape': invalid geometry ({exc})") from exc


def _key_text(key: _Key, value) -> str:
    """Config text of a shape key's value, as `_build_shape` reads it."""
    groups = [value] if key.count == 1 else value
    return _format_groups([g] if key.size == 1 else g for g in groups)


def _shape_lines(support: SourceSupport) -> list[str]:
    """Config lines of a support, written by the shape of its type unless `fields` gives None."""
    for shape, spec in _SHAPES.items():
        if type(support) is spec.type:
            values = (spec.fields(support) if spec.fields
                      else [getattr(support, key.name) for key in spec.keys])
            if values is not None:
                return [f"shape = {shape}"] + [f"{key.name} = {_key_text(key, value)}"
                                               for key, value in zip(spec.keys, values)]
    raise ConfigError(f"support {type(support).__name__} is not representable in config text")


def parse_config_text(text: str, updates: Callable[[dict], dict] | None = None) -> Scenario:
    """The scenario config text describes.  `updates`, when given, maps the parsed fields
    to those that replace them before the scenario is built, and so validated, once."""
    kv: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.isascii():  # config text, hash and written configs are ASCII
            raise ConfigError(f"line {lineno}: non-ASCII character in {raw_line!r}")
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
    if kind not in _SENSOR_KEYS:
        raise ConfigError(f"key 'kind': must be 'near' or 'far', got {kind!r}")
    shape = kv.get("shape")
    if shape is None:
        raise ConfigError("key 'shape': missing (required)")
    if shape not in _SHAPES:
        raise ConfigError(f"key 'shape': unknown shape {shape!r}; choose from {tuple(_SHAPES)}")
    support = _build_shape(shape, kv)

    for other, names in _SENSOR_KEYS.items():
        for name in names if other != kind else ():
            if name in kv:
                raise ConfigError(f"key '{name}': only valid for kind = {other}")
    given = [name for name in _SENSOR_KEYS[kind] if name in kv]
    if not given:
        raise ConfigError(f"key '{_SENSOR_KEYS[kind][0]}': missing (required for kind = {kind})")
    if len(given) > 1:
        raise ConfigError(f"key '{given[1]}': give either {' or '.join(given)}")
    name = given[0]
    points = _groups(name, kv[name], 3)
    if name == "sensors_polar":
        points = [polar_sensor(*g) for g in points]
    try:
        measurement = MeasurementSet(kind, points)
    except ValueError as exc:
        raise ConfigError(f"key '{name}': {exc}") from exc

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
    resolution = tuple(_int("grid_n", v) for v in gn)
    try:
        sampling = SamplingGrid(bounds=(gb[0:2], gb[2:4], gb[4:6]), resolution=resolution)
    except ValueError as exc:
        raise ConfigError(f"key 'grid_bounds'/'grid_n': {exc}") from exc

    fields = dict(
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
    if updates is not None:
        fields.update(updates(fields))
    return Scenario(**fields)


def parse_config(path, updates: Callable[[dict], dict] | None = None) -> Scenario:
    # A byte that is not UTF-8 decodes to a lone surrogate: it may sit in a comment,
    # and elsewhere the parser names its line as non-ASCII.
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, updates)


def write_config_text(s: Scenario) -> str:
    """Canonical config text, which `parse_config_text` reads back to an equal scenario."""
    gb, n = s.sampling.bounds, s.sampling.resolution
    lines = [f"label = {s.label}"] if s.label else []
    lines += [
        f"kind = {s.kind}",
        *_shape_lines(s.support),
        f"h = {s.h!r}",
        f"{_SENSOR_KEYS[s.kind][0]} = {_format_groups(s.measurement.points)}",
        f"k_max = {s.frequencies.k_max!r}",
        f"num_freq = {s.frequencies.count}",
        f"noise = {_number(s.noise_level)}",
        f"seed = {s.seed}",
        f"grid_bounds = {_format_groups([gb[0] + gb[1] + gb[2]])}",
        f"grid_n = {n[0]} {n[1]} {n[2]}",
        f"zero_mode = {s.zero_mode}",
        f"iso = {_format_groups([s.iso_values])}",
    ]
    return "\n".join(lines) + "\n"


def write_config(s: Scenario, path) -> None:
    """Write the config text; it is built and encoded first, so an error leaves no file."""
    data = write_config_text(s).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


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
    return MeasurementSet("near", [polar_sensor(phi, theta, _SPHERE_R) for phi, theta in table])


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
                            MeasurementSet("near", [(3.0, 0.0, 0.0)]), (0.7,)),
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


def load_scenario(name_or_path, updates: Callable[[dict], dict] | None = None) -> Scenario:
    """Resolve a preset name or read a config file, with the fields `updates` returns
    (see `parse_config_text`) in place of its own; a preset is rebuilt only if they
    change it."""
    key = str(name_or_path)
    if key not in PRESETS:
        return parse_config(name_or_path, updates)
    changes = updates(vars(PRESETS[key])) if updates is not None else {}
    return replace(PRESETS[key], **changes) if changes else PRESETS[key]
