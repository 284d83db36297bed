"""Numerical certificates: factorization identity, coercivity sandwich,
point-spread-profile bounds, and data symmetries.

Every check reduces to a single `measured <= tolerance` comparison.
Composite checks normalize each subcheck by its own tolerance and report
the worst ratio against an overall tolerance of 1.  Checks are
deterministic given (scenario, seed).
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .forward import FrequencyGrid, MultiFreqDataset, _header_lines, _parse_header_lines, mirror
from .geometry import annulus_radii
from .imaging import psf_closed_form, psf_discrete
from .operators import _sensor_trials, factorization_residual, quadratic_form, support_norm

_COERCIVITY_SALT = 0x51D3
_PSF_FINE_COUNT = 4000
_PSF_CONVERGENCE_TS = (0.5, 1.0, 5.0)


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

    @classmethod
    def from_text(cls, block: str) -> "VerificationReport":
        fields = _parse_header_lines(block.strip().splitlines())
        return cls(
            check=fields.pop("check"),
            scenario=fields.pop("scenario"),
            measured=float(fields.pop("measured")),
            tolerance=float(fields.pop("tolerance")),
            passed=fields.pop("pass") == "true",
            runtime_s=float(fields.pop("runtime_s")),
            details={key.removeprefix("detail."): float(val) for key, val in fields.items()},
        )


def _report(check: str, scenario: str, measured: float, tol: float, t0: float,
            details: dict[str, float] | None = None) -> VerificationReport:
    """The certificate `measured <= tol`, timed from t0."""
    return VerificationReport(check=check, scenario=scenario, measured=measured, tolerance=tol,
                              passed=measured <= tol, runtime_s=time.perf_counter() - t0,
                              details=details or {})


def check_factorization(scenario, sensor: int = 0, trials: int = 20,
                        tol: float = 1e-10) -> VerificationReport:
    """Certify the exact operator factorization on noiseless matched-quadrature data."""
    t0 = time.perf_counter()
    residual = factorization_residual(scenario, sensor=sensor, trials=trials)
    return _report("factorization", scenario.summary(), residual, tol, t0,
                   {"trials": float(trials), "sensor": float(sensor)})


def check_coercivity(scenario, sensor: int = 0, trials: int = 100,
                     tol: float = 1e-10) -> VerificationReport:
    """Certify the two-sided quadratic-form bounds against the analysis-side factor norm.

    Near kind: |(N g, g)| / ||analysis g||^2 must lie in
    [c_f / (4 pi r2), C_f / (4 pi r1)], with r1, r2 the sensor's exact
    distance bounds to the support.  Far kind: the interval is [c_f, C_f].
    """
    t0 = time.perf_counter()
    data, fac, draws = _sensor_trials(scenario, sensor, _COERCIVITY_SALT)
    c_f, C_f = scenario.support.amplitude_bounds()
    x = scenario.measurement.array[sensor]
    if scenario.kind == "near":
        r1, r2 = annulus_radii(scenario.support, x)
        lower, upper = c_f / (4 * math.pi * r2), C_f / (4 * math.pi * r1)
    else:
        lower, upper = c_f, C_f
    worst = 0.0
    ratio_min, ratio_max = math.inf, -math.inf
    for _ in range(trials):
        for g in draws:
            denom = support_norm(fac.analysis(g)) ** 2
            if denom > 1e-30:
                break
        ratio = abs(quadratic_form(data, 0, g)) / denom
        ratio_min, ratio_max = min(ratio_min, ratio), max(ratio_max, ratio)
        violation = max((lower - ratio) / lower, (ratio - upper) / upper, 0.0)
        worst = max(worst, violation)
    return _report("coercivity", scenario.summary(), worst, tol, t0,
                   {"ratio_min": ratio_min, "ratio_max": ratio_max,
                    "lower_bound": lower, "upper_bound": upper, "trials": float(trials)})


def check_psf(grid: FrequencyGrid, t_samples=None) -> VerificationReport:
    """Certify the point spread profile: peak value, envelope bounds, first zero,
    and convergence of the grid analogue to the closed form.

    Subchecks are normalized by their individual tolerances; the report
    passes when the worst normalized ratio is at most 1.
    """
    t0 = time.perf_counter()
    k_max = grid.k_max
    if t_samples is None:
        t_samples = np.linspace(-100.0, 100.0, 10_000)
    t_samples = np.asarray(t_samples, dtype=float)

    peak_err = abs(abs(psf_closed_form(0.0, k_max)) - k_max)

    t_off = t_samples[t_samples != 0.0]
    mag = np.abs(psf_closed_form(t_off, k_max))
    envelope = np.minimum(k_max, 2.0 / np.abs(t_off))
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
        for t in _PSF_CONVERGENCE_TS)

    subchecks = {
        "peak_error": (peak_err, 1e-300),  # exact equality demanded
        "envelope_violation": (bound_violation, 1e-12),
        "strict_peak_violation": (strict_violation, 1e-12),
        "first_zero_error": (zero_err, 1e-12),
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
    dev = np.abs(data.values[:, J - 1::-1] - mirror(data.sensors, data.values[:, J + 1:]))
    ratios = dev.max(axis=1)[scale > 0] / scale[scale > 0]
    return float(ratios.max(initial=0.0))


def check_symmetries(data: MultiFreqDataset, tol: float = 1e-14) -> VerificationReport:
    """Certify conjugate symmetry (near) or antipodal symmetry (far) of the data."""
    t0 = time.perf_counter()
    violation = symmetry_violation(data)
    return _report("symmetries", f"kind={data.kind} L={len(data.sensors)} J={data.grid.count} "
                   f"noise={data.noise_level!r}", violation, tol, t0)
