"""Property tests: config text and the dataset/field containers round-trip exactly, and
config text writes every shape without building a support; the support function's box
and phase ranges hold every quadrature node; the forward data, the factorization and the
coercivity check's O(J^2) norm hold over drawn supports and sensors, and every
certificate passes in every unit of length; the indicator's Fejer polynomial equals the
dense quadratic form over drawn data."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

import mfsampling as mf
from mfsampling.scenario import parse_config_text, write_config_text
from test_verify import analysis_norms, coercivity_denominators

coord = st.floats(-2.0, 2.0, allow_nan=False)
positive = st.floats(0.05, 1.5, allow_nan=False)
amplitude = st.floats(0.1, 10.0, allow_nan=False)
point = st.tuples(coord, coord, coord)
extent = st.tuples(positive, positive, positive)


@st.composite
def boxes(draw):
    lo = draw(point)
    return lo, tuple(a + w for a, w in zip(lo, draw(extent)))


@st.composite
def two_balls(draw):
    radius = draw(positive)
    return mf.Union(parts=tuple(mf.Ball(center=draw(point), radius=radius,
                                        amplitude=draw(amplitude)) for _ in range(2)))


supports = st.one_of(
    st.builds(mf.Ball, center=point, radius=positive, amplitude=amplitude),
    st.builds(mf.Cube, center=point, half_widths=extent, amplitude=st.floats(-10.0, -0.1)),
    st.builds(mf.RoundedCylinder, radius=positive, half_height=positive, amplitude=amplitude),
    st.builds(mf.Peanut, centers=st.tuples(point, point), radius=positive, amplitude=amplitude),
    st.builds(mf.LShape, box1=boxes(), box2=boxes(), amplitude=amplitude),
    two_balls(),
)


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.tuples(coord, coord, coord).filter(
        lambda p: math.hypot(*p) > 0.1)))
    return tuple(v / np.linalg.norm(v))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["near", "far"]))
    directions = draw(st.lists(unit_vectors(), min_size=1, max_size=4))
    if kind == "near":  # outside every support the strategy draws
        measurement = mf.MeasurementSet("near", [tuple(9.0 * c for c in d) for d in directions])
    else:  # the directions as drawn, antipodal pairs or not
        measurement = mf.MeasurementSet("far", directions)
    lo = draw(st.tuples(coord, coord, coord))
    return mf.Scenario(
        support=draw(supports), h=draw(positive), measurement=measurement,
        frequencies=mf.FrequencyGrid(k_max=draw(st.floats(0.5, 50.0)),
                                     count=draw(st.integers(2, 64))),
        noise_level=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**31)),
        sampling=mf.SamplingGrid(bounds=tuple((a, a + w) for a, w in zip(lo, draw(extent))),
                                 resolution=draw(st.tuples(*[st.integers(1, 64)] * 3))),
        zero_mode=draw(st.sampled_from(["extend", "drop"])),
        iso_values=tuple(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3))),
        label=draw(st.from_regex(r"[a-z0-9_]{0,12}", fullmatch=True)),
    )


@given(scenarios())
def test_config_text_round_trip(s):
    text = write_config_text(s)
    back = parse_config_text(text)
    assert back == s
    assert write_config_text(back) == text
    assert mf.scenario_hash(back) == mf.scenario_hash(s)


nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
off_centre = point.filter(any)


@st.composite
def written_two_balls(draw):
    """Two balls of one radius, with one amplitude for both or one each (of one sign)."""
    a = draw(nonzero)
    b = draw(st.sampled_from([a, math.copysign(draw(nonzero), a)]))
    radius = draw(positive)
    return mf.Union(parts=tuple(mf.Ball(draw(off_centre), radius, amp) for amp in (a, b)))


@st.composite
def shape_scenarios(draw):
    """Every shape the config text writes, off the origin with any nonzero amplitude,
    seen by near sensors outside its bounding sphere or by far directions."""
    support = draw(st.one_of(
        st.builds(mf.Ball, center=off_centre, radius=positive, amplitude=nonzero),
        st.builds(mf.Cube, center=off_centre, half_widths=extent, amplitude=nonzero),
        st.builds(mf.RoundedCylinder, radius=positive, half_height=positive, amplitude=nonzero),
        st.builds(mf.Peanut, centers=st.tuples(off_centre, off_centre), radius=positive,
                  amplitude=nonzero),
        st.builds(mf.LShape, box1=boxes(), box2=boxes(), amplitude=nonzero),
        written_two_balls(),
    ))
    kind = draw(st.sampled_from(["near", "far"]))
    directions = draw(st.lists(unit_vectors(), min_size=1, max_size=4))
    if kind == "near":
        reach = float(np.linalg.norm(np.maximum(*np.abs(support.bounding_box()))))
        directions = [tuple((reach + draw(positive)) * c for c in d) for d in directions]
    return dataclasses.replace(mf.PRESETS["ball_pt14"], support=support,
                               measurement=mf.MeasurementSet(kind, directions))


@given(shape_scenarios())
def test_every_shape_round_trips_without_building_a_support(s):
    built = []
    post_init = mf.Ball.__post_init__

    def counted(ball):
        built.append(ball)
        post_init(ball)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mf.Ball, "__post_init__", counted)
        text = write_config_text(s)
    assert built == []
    back = parse_config_text(text)
    assert back == s
    assert write_config_text(back) == text


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    J = draw(st.integers(2, 5))
    if draw(st.booleans()):
        sensors = mf.MeasurementSet("near", draw(st.lists(st.tuples(finite, finite, finite),
                                                          min_size=1, max_size=3)))
    else:
        sensors = mf.MeasurementSet("far", draw(st.lists(unit_vectors(), min_size=1,
                                                         max_size=2)))
    parts = draw(st.lists(finite, min_size=2 * len(sensors) * (2 * J + 1),
                          max_size=2 * len(sensors) * (2 * J + 1)))
    raw = np.array(parts).reshape(len(sensors), 2 * J + 1, 2)
    return mf.MultiFreqDataset(
        sensors=sensors,
        grid=mf.FrequencyGrid(k_max=draw(st.floats(0.5, 50.0)), count=J),
        values=raw[..., 0] + 1j * raw[..., 1], noise_level=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**31)))


def _rewrite(write, read, obj, tag):
    """Bytes of obj, and of obj read back and written again."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        write(obj, first, tag)
        back, meta = read(first)
        write(back, second, meta["scenario_hash"])
        return first.read_bytes(), second.read_bytes(), back


hashes = st.from_regex(r"[0-9a-f]{16}|-", fullmatch=True)


@given(datasets(), hashes)
def test_dataset_byte_round_trip(data, tag):
    first, second, back = _rewrite(mf.write_dataset, mf.read_dataset, data, tag)
    assert first == second
    assert np.array_equal(back.values, data.values)
    assert back.sensors == data.sensors and back.grid == data.grid


@given(datasets(), st.data())
def test_truncated_dataset_is_format_error(data, draw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.mfd"
        mf.write_dataset(data, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:draw.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(mf.DatasetFormatError):
            mf.read_dataset(path)


@st.composite
def fields(draw):
    lo = draw(point)
    grid = mf.SamplingGrid(bounds=tuple((a, a + w) for a, w in zip(lo, draw(extent))),
                           resolution=draw(st.tuples(*[st.integers(1, 4)] * 3)))
    values = draw(st.lists(finite, min_size=grid.size, max_size=grid.size))
    return mf.IndicatorField(grid=grid, values=np.array(values), normalized=draw(st.booleans()))


@given(fields(), hashes)
def test_field_byte_round_trip(field, tag):
    first, second, back = _rewrite(mf.imaging.write_field, mf.imaging.read_field, field, tag)
    assert first == second
    assert np.array_equal(back.values, field.values)
    assert back.grid == field.grid and back.normalized == field.normalized


@given(supports, unit_vectors())
def test_support_function_box_and_phase_range_hold_every_node(support, d):
    # off-centre supports: a far range of +xhat.y, the reflection, misses the phases
    lo, hi = support.bounding_box()
    try:
        rule = mf.quadrature(support, float((hi - lo).max()) / 12)
    except mf.GeometryError:
        assume(False)
    assert np.all((lo < rule.nodes) & (rule.nodes < hi))
    for kind, x in (("far", d), ("near", tuple(9.0 * c for c in d))):
        t_min, t_max = mf.phase_range(kind, x, support)
        t = mf.phase(kind, x, rule.nodes.T)
        assert t_min - 1e-12 <= t.min() and t.max() <= t_max + 1e-12


@st.composite
def one_sensor_scenarios(draw, max_count=16):
    """A noiseless scenario with one drawn sensor, at a spacing of 1/12 of the support's box,
    with 2 to `max_count` frequencies.

    The rule then has at most 12^3 nodes; a support it misses entirely is rejected.
    """
    support = draw(supports)
    lo, hi = support.bounding_box()
    h = float((hi - lo).max()) / 12
    try:
        mf.quadrature(support, h)
    except mf.GeometryError:
        assume(False)
    d = draw(unit_vectors())
    if draw(st.booleans()):  # outside every support the strategy draws
        measurement = mf.MeasurementSet("near", [tuple(9.0 * c for c in d)])
    else:  # the drawn direction and its antipode
        measurement = mf.MeasurementSet("far", [d, tuple(-c for c in d)])
    return mf.Scenario(
        support=support, h=h, measurement=measurement,
        frequencies=mf.FrequencyGrid(k_max=draw(st.floats(0.5, 20.0)),
                                     count=draw(st.integers(2, max_count))),
        noise_level=0.0, seed=draw(st.integers(0, 2**31)))


@given(one_sensor_scenarios(), st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
def test_radiated_field_batch_equals_scalar_calls(s, ks):
    rule = mf.quadrature(s.support, s.h)
    x = s.measurement.points[0]
    batch = mf.radiated_field(s.kind, s.support, rule, x, np.array(ks))
    scalar = np.array([mf.radiated_field(s.kind, s.support, rule, x, k) for k in ks])
    assert batch.shape == scalar.shape
    assert batch.tobytes() == scalar.tobytes()


@given(one_sensor_scenarios(), st.integers(1, 256))
def test_band_rows_match_exact_kernel(s, J):
    # terms c z^m, m = 0..J, built by products from one exponential, against
    # c e^{i m dk phase} directly: one node per row, so each row's sum is its one term
    rule = mf.quadrature(s.support, s.h)
    x, dk = s.measurement.points[0], s.frequencies.spacing
    z, multiplier = mf.forward._band(s.kind, x, rule, dk)
    ph = mf.phase(s.kind, x, rule.nodes.T)
    spreading = mf.forward._spreading(s.kind, ph)
    assert multiplier.tobytes() == (rule.amplitude / spreading).tobytes()
    c = rule.weights * s.support.amplitude_at(rule.nodes) / spreading
    terms = mf.forward._power_sums(z[:, None], c[:, None], J)
    exact = c[:, None] * mf.forward._cis(np.arange(J + 1) * dk, ph).T
    bound = mf.band_error_bound(s.kind, x, rule, dk, J)
    assert np.all(np.abs(terms - exact).sum(axis=0) <= bound)


@given(one_sensor_scenarios())
def test_factorization_residual_small(s):
    assert mf.check_factorization(s).measured <= 1e-10


@given(one_sensor_scenarios(max_count=64))
def test_coercivity_gram_form_is_analysis_norm(s):
    G, gram = coercivity_denominators(s, trials=5)
    exact = analysis_norms(s, G)
    assert np.all(np.abs(gram - exact) <= 1e-13 * exact)


@given(st.builds(mf.Ball, center=point, radius=positive, amplitude=amplitude), unit_vectors(),
       st.booleans(), st.floats(0.5, 20.0), st.integers(2, 16), st.floats(-16.0, 8.0))
def test_certificates_free_of_the_unit_of_length(ball, d, near, k_max, J, e):
    # every length times s = 10^e and k_max over s is the same problem in another unit
    # of length: all four certificates pass at every s
    s = 10.0 ** e
    measurement = (mf.MeasurementSet("near", [tuple(9.0 * s * c for c in d)]) if near
                   else mf.MeasurementSet("far", [d, tuple(-c for c in d)]))
    scaled = mf.Scenario(
        support=mf.Ball(tuple(s * c for c in ball.center), s * ball.radius, ball.amplitude),
        h=s * ball.radius / 6, measurement=measurement,
        frequencies=mf.FrequencyGrid(k_max=k_max / s, count=J), noise_level=0.0)
    reports, ok = mf.verify.run(scaled)
    assert ok, [(r.check, r.measured) for r in reports if not r.passed]


# Below 1e-150 a sample times the Fejer weights can leave the normal range, where no
# relative bound holds; such samples are drawn as 0.
sample = st.floats(-1e3, 1e3).map(lambda v: v if abs(v) >= 1e-150 else 0.0)


@st.composite
def fejer_cases(draw):
    """Drawn rows of a far direction pair, and a line of voxels along it whose phases
    reach up to 4 pi / dk on either side of 0."""
    J = draw(st.integers(2, 64))
    grid = mf.FrequencyGrid(k_max=draw(st.floats(0.5, 50.0)), count=J)
    parts = draw(st.lists(sample, min_size=4 * (2 * J + 1), max_size=4 * (2 * J + 1)))
    raw = np.array(parts).reshape(2, 2 * J + 1, 2)
    data = mf.MultiFreqDataset(sensors=mf.MeasurementSet("far", [(1, 0, 0), (-1, 0, 0)]),
                               grid=grid, values=raw[..., 0] + 1j * raw[..., 1])
    reach = 4 * math.pi / grid.spacing
    lo, hi = sorted(reach * draw(st.floats(-1.0, 1.0)) for _ in range(2))
    assume(lo < hi)
    sampling = mf.SamplingGrid(bounds=((lo, hi), (0.0, 1.0), (0.0, 1.0)),
                               resolution=(draw(st.integers(1, 8)), 1, 1))
    return data, sampling


@given(fejer_cases())
def test_fejer_indicator_equals_quadratic_form(case):
    data, sampling = case
    J, dk = data.grid.count, data.grid.spacing
    field = mf.compute_indicator(data, sampling)
    weights = dk * dk * (J - np.abs(np.arange(1 - J, J)))
    bound = sum(1e-12 * np.sum(weights * np.abs(row[1:-1])) for row in data.values)
    for v, z in enumerate(sampling.centers()):
        dense = sum(abs(mf.quadratic_form(data, ell, mf.probe("far", x, z, data.grid)))
                    for ell, x in enumerate(data.sensors.array))
        assert abs(field.values[v] - dense) <= bound
