"""Numerical certificates: factorization identity, coercivity sandwich,
point-spread-profile bounds against their closed-form references, and data
symmetries; `run`, which runs them; and `Factorization`, one sensor's factors of its
data operator, N = P T P*, exact on matched quadrature.

Every check reduces to a single `measured <= tolerance` comparison;
composite checks report the worst subcheck over its own tolerance, against 1.
Checks are deterministic given (scenario, seed).  `run` runs the checks in `CHECKS`
order.  The scenario certificates run on the noiseless data row of sensor 0 alone,
never all `L` rows: `run` builds that row, its quadrature rule and its factors once
and passes them to each check, and a check called on its own builds them itself.
Each check draws exactly `trials` test functions as one batch from a seeded stream,
redrawing none, and applies the data operator to the whole batch at once, in one
Toeplitz apply (`forward._toeplitz_apply`); the coercivity forms are that
apply's row-wise dots with the conjugate test functions, and the factorization
check hands each row of the batch, a plain array, straight to the factors.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .forward import (FrequencyGrid, MultiFreqDataset, _band, _header_lines, _horner,
                      _laurent_rows, _power_sums, _spreading, _toeplitz_apply, _toeplitz_forms,
                      band_error_bound, mirror, phase_range, radiated_field)
from .geometry import QuadratureRule, quadrature

_FACTORIZATION_SALT = 0x8F1E
_COERCIVITY_SALT = 0x51D3
_PSF_FINE_COUNT = 4000
# the psf's samples t, in units of 1 / k_max: the profile is k_max times a function of k_max t
_PSF_CONVERGENCE_TS = (5.5, 11.0, 55.0)
_PSF_ENVELOPE_TS = np.linspace(-1100.0, 1100.0, 10_000)  # an even count: t = 0 is not a sample

# The certificates in report order; `run` runs `check_<name>` for each name.
CHECKS = ("factorization", "coercivity", "psf", "symmetries")


@dataclass
class VerificationReport:
    check: str
    scenario: str
    measured: float
    tolerance: float
    passed: bool
    runtime_s: float
    details: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = _header_lines([
            ("check", self.check),
            ("scenario", self.scenario),
            ("measured", repr(self.measured)),
            ("tolerance", repr(self.tolerance)),
            ("pass", "true" if self.passed else "false"),
            ("runtime_s", repr(self.runtime_s)),
        ] + [(f"detail.{key}", repr(self.details[key])) for key in sorted(self.details)])
        return "\n".join(lines) + "\n"


def _report(check: str, scenario: str, measured: float, tol: float, t0: float,
            details: dict[str, float] | None = None) -> VerificationReport:
    """The certificate `measured <= tol`, timed from t0."""
    return VerificationReport(check=check, scenario=scenario, measured=measured, tolerance=tol,
                              passed=measured <= tol, runtime_s=time.perf_counter() - t0,
                              details=details or {})


def _check_length(a: np.ndarray, n: int, what: str) -> None:
    if len(a) != n:
        raise ValueError(f"expected {n} {what}, got {len(a)}")


class Factorization:
    """One sensor's factors of its data operator, N = P T P* on matched quadrature.

    The factors act on arrays: P (`synthesis`) maps (Q,) support samples to (J,)
    band samples with kernel e^{i k phase(y)}, T (`apply_multiplier`) multiplies
    (Q,) samples by f(y) / spreading(y), with f the rule's `amplitude`, and P*
    (`analysis`), P's adjoint with the conjugate kernel, maps (J,) to (Q,); each
    refuses another length.
    `_band` gives the multiplier and the sensor's ratio z; the kernel at
    k_j = j dk is z^j, so P sums running products (`_power_sums`) and P* runs
    Horner's rule in conj(z) (`_horner`); neither builds a J x Q kernel.  conj(z)
    and complex copies of the multiplier and weights are taken once, here: a
    complex times a real array's complex copy has the bits of numpy's own
    promotion.  The sensor's data row is P(T 1): `_laurent_rows` of z against
    the weights times `multiplier`, which `_sensor_problem` writes from these
    factors alone.
    """

    def __init__(self, kind: str, x, rule: QuadratureRule, grid: FrequencyGrid):
        self.rule, self.grid = rule, grid
        self.z, self.multiplier = _band(kind, x, rule, grid.spacing)
        self._zc = np.conj(self.z)
        self._multiplier_c = self.multiplier.astype(complex)
        self._weights_c = rule.weights.astype(complex)

    def synthesis(self, psi: np.ndarray) -> np.ndarray:
        _check_length(psi, len(self.rule), "support samples")
        return _power_sums(self.z, self._weights_c * psi, self.grid.count)[1:]

    def apply_multiplier(self, h: np.ndarray) -> np.ndarray:
        _check_length(h, len(self.rule), "support samples")
        return h * self._multiplier_c

    def analysis(self, phi: np.ndarray) -> np.ndarray:
        # dk sum_j conj(z)^(j+1) phi_j: Horner's rule in conj(z), from j = J-1 down
        _check_length(phi, self.grid.count, "band samples")
        out = _horner(phi, self._zc)
        out *= self._zc
        out *= self.grid.spacing
        return out


class _Problem(NamedTuple):
    """One sensor's noiseless data row over m = -J..J, quadrature rule and factors."""

    row: np.ndarray
    rule: QuadratureRule
    fac: Factorization


def _sensor_problem(scenario, sensor: int = 0) -> _Problem:
    """The problem of sensor `sensor` measuring alone: its factors, and its row P(T 1).

    The row equals row `sensor` of the full noiseless dataset bit for bit.  The
    scenario certificates, which use it, hold for noiseless data only.
    """
    if scenario.noise_level != 0:
        raise ValueError("scenario certificates require a noiseless scenario")
    x, grid = scenario.measurement.points[sensor], scenario.frequencies
    rule = quadrature(scenario.support, scenario.h)
    fac = Factorization(scenario.kind, x, rule, grid)
    row = _laurent_rows(fac.z, rule.weights * fac.multiplier, grid.count, scenario.zero_mode)
    return _Problem(row, rule, fac)


def _draws(scenario, sensor: int, salt: int):
    """The seeded stream of test functions (N(0,1) + i N(0,1)) / sqrt 2 per frequency.

    Returns `draw(count)`, a (count, J) array of the stream's next `count` test
    functions; each call continues the stream, so `draw(a)` then `draw(b)`
    equals `draw(a + b)`.
    """
    rng = np.random.default_rng([scenario.seed, sensor, salt])
    J = scenario.frequencies.count

    def draw(count: int) -> np.ndarray:
        xi = rng.standard_normal((count, 2, J))
        return (xi[:, 0] + 1j * xi[:, 1]) / math.sqrt(2)

    return draw


def check_factorization(scenario, sensor: int = 0, trials: int = 20, tol: float = 1e-10,
                        problem: _Problem | None = None) -> VerificationReport:
    """Certify N = P T P* on matched quadrature: max over random g of ||(N - PTP*)g|| / ||Ng||.

    N is applied to all the trials in one `_toeplitz_apply` call, row by row the
    bits of `apply_operator`; the exported factors are applied to one trial, a
    row of that batch, at a time.  The maximum propagates NaN, so a trial whose
    factors return a non-finite sample fails the check; one with N g = 0, or with a
    norm ||N g|| that overflows, has no ratio and fails it with inf, as in
    `check_coercivity`.  `problem`, when given, is `_sensor_problem(scenario, sensor)`;
    otherwise the check builds it.  A maximum over no trial certifies nothing, so
    `trials` must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"a certificate needs at least one trial, got {trials}")
    t0 = time.perf_counter()
    row, rule, fac = problem or _sensor_problem(scenario, sensor)
    G = _draws(scenario, sensor, _FACTORIZATION_SALT)(trials)
    NG = _toeplitz_apply(row, G, scenario.frequencies.spacing)
    ratios = np.empty(trials)
    for t, (g, Ng) in enumerate(zip(G, NG)):
        PTPg = fac.synthesis(fac.apply_multiplier(fac.analysis(g)))
        with np.errstate(over="ignore"):
            den, residual = np.linalg.norm(Ng), np.linalg.norm(Ng - PTPg)
        ratios[t] = residual / den if 0 < den < math.inf else math.inf
    return _report("factorization", scenario.summary(), float(np.max(ratios)), tol, t0,
                   {"trials": float(trials), "sensor": float(sensor)})


def check_coercivity(scenario, sensor: int = 0, trials: int = 100, tol: float = 1e-10,
                     problem: _Problem | None = None) -> VerificationReport:
    """Certify the two-sided quadratic-form bounds against the analysis-side factor norm.

    |(N g, g)| / ||P* g||^2 must lie in [c_f / spreading(t_max), C_f / spreading(t_min)] on
    the sensor's `phase_range` [t_min, t_max]: [c_f/(4 pi r2), C_f/(4 pi r1)] near, [c_f, C_f] far.
    The kernel at k = m dk is z^m, with real weights, so ||P* g||^2 = (P P* g, g),
    and P P* is the band convolution whose column m is sum_q w_q z_q^m: the
    data's P(T 1) with T = 1, and sum_q w_q at m = 0 whatever `zero_mode`.
    Each form is one `_toeplitz_forms` batch, O(J^2) per trial: one Toeplitz
    apply of all trials, then a row-wise dot with their conjugates.  A draw whose
    ||P* g||^2 is not positive has no ratio (NaN) and fails the check with inf.
    `problem`, when given, is `_sensor_problem(scenario, sensor)`; `trials` >= 1.
    """
    if trials < 1:
        raise ValueError(f"a certificate needs at least one trial, got {trials}")
    t0 = time.perf_counter()
    row, rule, fac = problem or _sensor_problem(scenario, sensor)
    x = scenario.measurement.points[sensor]
    J, dk = scenario.frequencies.count, scenario.frequencies.spacing
    gram = _laurent_rows(fac.z, rule.weights, J, "extend")
    c_f, C_f = scenario.support.amplitude_bounds()
    t_min, t_max = phase_range(scenario.kind, x, scenario.support)
    lower, upper = c_f / _spreading(scenario.kind, t_max), C_f / _spreading(scenario.kind, t_min)
    G = _draws(scenario, sensor, _COERCIVITY_SALT)(trials)
    norms = _toeplitz_forms(gram, G, dk).real
    positive = norms > 0  # False at a NaN norm too
    ratios = np.abs(_toeplitz_forms(row, G, dk)) / np.where(positive, norms, math.nan)
    violations = np.where(positive, np.maximum((lower - ratios) / lower,
                                               (ratios - upper) / upper), math.inf)
    return _report("coercivity", scenario.summary(), float(np.max(violations, initial=0.0)),
                   tol, t0, {"ratio_min": float(np.min(ratios)),
                             "ratio_max": float(np.max(ratios)),
                             "lower_bound": lower, "upper_bound": upper,
                             "trials": float(trials)})


def psf_closed_form(t, k_max: float) -> complex | np.ndarray:
    """Band-limited point spread profile: integral of e^{i s t} over s in (0, k_max], per t."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t == 0.0, 1.0, t)
    val = np.where(t == 0.0, k_max, (np.exp(1j * safe * k_max) - 1.0) / (1j * safe))
    return complex(val) if val.ndim == 0 else val


def psf_discrete(t: float, grid: FrequencyGrid) -> complex:
    """Grid analogue: dk * sum_j e^{i k_j t}; converges to the closed form as count grows."""
    return complex(grid.spacing * np.sum(np.exp(1j * grid.nodes * t)))


def check_psf(grid: FrequencyGrid) -> VerificationReport:
    """Certify the point spread profile: peak value, envelope bounds, first zero,
    and convergence of the grid analogue to the closed form.

    Subchecks are normalized by their individual tolerances; the report
    passes when the worst normalized ratio is at most 1.  The samples t and the
    first zero's tolerance are in units of 1 / k_max, free of the unit of length.
    """
    t0 = time.perf_counter()
    k_max = grid.k_max
    peak_err = abs(abs(psf_closed_form(0.0, k_max)) - k_max)

    ts = _PSF_ENVELOPE_TS / k_max
    mag = np.abs(psf_closed_form(ts, k_max))
    envelope = np.minimum(k_max, 2.0 / np.abs(ts))
    bound_violation = float(np.max((mag - envelope) / envelope, initial=0.0))
    strict_violation = float(np.max(mag - k_max * (1 - 1e-15), initial=0.0))

    # one Newton step on Re psf = sin(k_max t) / t, whose slope at 2 pi / k_max is k_max / t
    t_zero = 2 * math.pi / k_max
    zero_loc = t_zero - psf_closed_form(t_zero, k_max).real * t_zero / k_max
    zero_err = abs(zero_loc - t_zero)

    # psf_discrete on nodes j*dk is the right-endpoint rectangle rule, whose
    # error is (dk/2)(e^{i k_max t} - 1) + (dk^2/12) i t (e^{i k_max t} - 1) + O(dk^4)
    # (Euler-Maclaurin).  After the first term the remainder is at most
    # dk^2 |t| / 6; another node convention leaves O(dk) there instead.
    fine = FrequencyGrid(k_max=k_max, count=_PSF_FINE_COUNT)
    dk = fine.spacing
    conv_ratio = max(
        abs(psf_discrete(t, fine) - psf_closed_form(t, k_max)
            - 0.5 * dk * (cmath.exp(1j * k_max * t) - 1.0)) / (dk * dk * abs(t) / 6)
        for t in (kt / k_max for kt in _PSF_CONVERGENCE_TS))

    subchecks = {
        "peak_error": (peak_err, 1e-300),  # exact equality demanded
        "envelope_violation": (bound_violation, 1e-12),
        "strict_peak_violation": (strict_violation, 1e-12),
        "first_zero_error": (zero_err, 1e-12 * t_zero),
        "convergence_remainder_ratio": (conv_ratio, 1.1),
    }
    ratios = {name: (0.0 if v == 0 else v / tol) for name, (v, tol) in subchecks.items()}
    worst = max(ratios.values())
    details = {name: v for name, (v, _) in subchecks.items()}
    details["first_zero_location"] = zero_loc
    return _report("psf", f"k_max={k_max!r} J={grid.count}", worst, 1.0, t0, details)


def symmetry_violation(data: MultiFreqDataset) -> float:
    """Worst per-row relative deviation of the negative columns from the mirror rule.

    Data holding a non-finite sample violate it without bound.
    """
    if not np.all(np.isfinite(data.values)):
        return math.inf
    J = data.grid.count
    scale = np.abs(data.values).max(axis=1)
    dev = np.abs(data.values[:, J - 1::-1] - mirror(data.values[:, J + 1:]))
    ratios = dev.max(axis=1)[scale > 0] / scale[scale > 0]
    return float(ratios.max(initial=0.0))


def check_symmetries(scenario, problem: _Problem | None = None) -> VerificationReport:
    """Certify the columns m = -1..-J that `mirror` writes into sensor 0's data, the
    conjugates of its positive columns, against `radiated_field` at k = m dk.

    `radiated_field` weighs its exponentials with the coefficients the data's
    power sums use, so what differs is the power sums' rounding against `_cis`; each
    column is over the band error bound of column |m|.  The zero column, which
    `zero_mode` sets, is left out.  `problem`, when given, is sensor 0's
    `_sensor_problem`; the check reads its row and rule, not its factors.
    """
    t0 = time.perf_counter()
    row, rule, _ = problem or _sensor_problem(scenario, 0)
    kind, x, grid = scenario.kind, scenario.measurement.points[0], scenario.frequencies
    exact = radiated_field(kind, scenario.support, rule, x, -grid.nodes)
    J = grid.count
    bound = band_error_bound(kind, x, rule, grid.spacing, J)[1:]
    ratio = float(np.max(np.abs(row[J - 1::-1] - exact) / bound))
    return _report("symmetries", scenario.summary(), ratio, 1.0, t0)


def run(scenario, only: str | None = None) -> tuple[list[VerificationReport], bool]:
    """Run the checks in `CHECKS`, or the one named `only`; returns (reports, all_passed).

    Sensor 0's problem is built once, unless the psf check runs alone, and its
    factors are released as soon as the coercivity check is done with them, so the
    psf and symmetry checks do not hold them.  Each check is looked up in this
    module when it runs, so a replaced `check_*` is the one called.
    """
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check {only!r}; choose from {CHECKS}")
    names = [name for name in CHECKS if only in (None, name)]
    problem = _sensor_problem(scenario) if names != ["psf"] else None
    reports = []
    for name in names:
        check = globals()[f"check_{name}"]
        if name == "psf":
            reports.append(check(scenario.frequencies))
            continue
        reports.append(check(scenario, problem=problem))
        if name == "coercivity":  # the last check that uses the factors
            problem = problem._replace(fac=None)
    return reports, all(r.passed for r in reports)
