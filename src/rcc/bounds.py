"""Complexity measures and the closed-form bootstrap solvers.

The central quantity is the reference-contingent complexity

    rcc(rho, ref) = (log2 d_R - S(rho)) / log2 Gamma_R      [structons]

and the circuit lower bounds it feeds, which are self-referential
inequalities of the form x >= D - c * log2(max(1, x)). Their smallest
solutions are obtained exactly through the principal Lambert-W branch,
with conservative piecewise and asymptotic fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .entropy import LN2, relative_to_reference, spectral_skew
from .errors import NumericalError, ValidationError, _check_finite, _check_level
from .operators import DensityOperator
from .reference import ReferenceSet

_INV_E = math.exp(-1.0)
# Lambert-W iterations stop at this relative residual or this many steps.
_W0_TOL = 1e-12
_W0_MAX_ITER = 100
# lambert_w0 accepts z this far below its branch point -1/e, and returns -1
# for z within _W0_BRANCH_TOL above it.
_W0_DOMAIN_SLACK = 1e-12
_W0_BRANCH_TOL = 1e-15
# A Halley step below this relative size has stalled at roundoff.
_W0_STEP_TOL = 1e-16
# The log-domain Newton iteration stops at a step below this relative size,
# and after its step cap accepts a residual of this relative size.
_LOG_W0_STEP_TOL = 4e-16
_LOG_W0_RESIDUAL_TOL = 1e-9

METHODS = ("lambert", "asymptotic", "piecewise")


@dataclass(frozen=True)
class BoundConstants:
    """Universal O(1) constants of the circuit bounds, exposed as config.

    The defaults are 1.0; every report echoes the values actually used.
    """

    c1: float = 1.0
    c1_prime: float = 1.0
    c2_prime: float = 1.0

    def __post_init__(self):
        _check_finite(c1=self.c1, c1_prime=self.c1_prime, c2_prime=self.c2_prime)
        for name in ("c1", "c1_prime", "c2_prime"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"constant {name} must be strictly positive")


DEFAULT_CONSTANTS = BoundConstants()


@dataclass(frozen=True)
class BoundBreakdown:
    """Per-term decomposition of a circuit-complexity lower bound.

    All terms are in structons: `leading` is the divergence term, `spectral`
    the spectrum non-uniformity correction, `log_correction` the precision
    and confidence overhead subtracted before solving, and `final` the
    smallest admissible bound after the bootstrap is resolved.
    """

    leading: float
    spectral: float
    log_correction: float
    final: float
    method: str
    floored: bool
    inputs: dict = field(default_factory=dict)


def rcc(rho: DensityOperator, ref: ReferenceSet) -> float:
    """Reference-contingent complexity in structons.

    Ranges over [0, log2 d_R / log2 Gamma_R]: zero exactly at the structured
    vacuum, maximal for any pure state in the subspace.
    """
    d_bits = relative_to_reference(rho, ref).bits
    return max(0.0, d_bits / ref.log2_gamma)


def lambert_w0(z: float) -> float:
    """Principal branch of w e^w = z for z >= -1/e, by Halley iteration.

    Initial guess: branch-point series near -1/e, log z - log log z for
    z > e, a rational seed otherwise; converges to |w e^w - z| within
    _W0_TOL * max(1, |z|) in at most _W0_MAX_ITER steps.
    """
    _check_finite(z=z)
    if z < -_INV_E - _W0_DOMAIN_SLACK:
        raise ValidationError(f"lambert_w0 undefined for z = {z} < -1/e")
    if z == 0.0:
        return 0.0
    if z < -_INV_E + _W0_BRANCH_TOL:
        return -1.0
    if z > 1e150:
        # w e^w overflows in the iteration well before z does; switch to the
        # logarithmic formulation.
        return _w0_of_exp(math.log(z))
    if z > math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    elif z > 0:
        w = z / (1.0 + z) * (1.0 + math.log1p(z)) / 2.0 + z / 2.0
    else:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    target = _W0_TOL * max(1.0, abs(z))
    for _ in range(_W0_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= target:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= _W0_STEP_TOL * max(1.0, abs(w)):
            ew = math.exp(w)
            if abs(w * ew - z) <= target:
                return w
    if abs(w * math.exp(w) - z) <= target:
        return w
    raise NumericalError(f"lambert_w0 failed to converge for z = {z}")


def _w0_of_exp(log_z: float) -> float:
    """W0(exp(log_z)) without forming exp(log_z); solves w + ln w = log_z.

    Used when exp(log_z) overflows, i.e. far on the branch where W0 > 1.
    """
    if log_z <= 2.0:
        return lambert_w0(math.exp(log_z))
    w = log_z - math.log(log_z)
    for _ in range(_W0_MAX_ITER):
        f = w + math.log(w) - log_z
        step = f / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= _LOG_W0_STEP_TOL * w:
            return w
    # Newton converges quadratically; reaching the cap means the step is
    # dithering at roundoff, so the last iterate is as good as it gets.
    if abs(w + math.log(w) - log_z) <= _LOG_W0_RESIDUAL_TOL * max(1.0, abs(log_z)):
        return w
    raise NumericalError(f"log-domain Lambert iteration failed for log z = {log_z}")


def solve_bootstrap(d: float, c: float, method: str = "lambert") -> float:
    """Smallest x with x + c*log2(x) = D (method "lambert"), or a cheaper
    conservative stand-in.

    "lambert" is exact: x* = alpha * W0(exp(D/alpha)/alpha), alpha = c/ln 2,
    evaluated in the log domain so large D/c cannot overflow. "piecewise" is
    the special-function-free floor (never above the exact root):
    D/(1+alpha) for 0 < D <= 1+alpha, else D - alpha*ln(1+D). "asymptotic"
    is the large-D expansion D - c*log2 D, meaningful only for D > 1.
    Nonpositive D yields 0.
    """
    if c <= 0:
        raise ValidationError(f"bootstrap constant c = {c} must be positive")
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "asymptotic":
        if d <= 1.0:
            raise ValidationError("asymptotic expansion requires D > 1")
        return max(0.0, d - c * math.log2(d))
    if d <= 0.0:
        return 0.0
    alpha = c / LN2
    if method == "piecewise":
        if d <= 1.0 + alpha:
            return max(0.0, d / (1.0 + alpha))
        return d - alpha * math.log1p(d)
    return alpha * _w0_of_exp(d / alpha - math.log(alpha))


def _resolve_bootstrap_floor(
    net: float, c: float, method: str, floor: float
) -> tuple[float, bool]:
    """Smallest x >= 0 with x >= net - c*log2(max(1, x)), honoring the
    piecewise log(max(1, .)) system and the caller's floor (0 or 1)."""
    if net <= 1.0:
        # up to 1 the log term is inactive and the inequality is linear
        return max(floor, net, 0.0), True
    value = solve_bootstrap(net, c, method=method)
    if value < floor:
        return floor, True
    return value, False


def _bound_from_terms(
    leading: float,
    spectral: float,
    log_correction: float,
    c: float,
    method: str,
    floor: float,
    inputs: dict,
) -> BoundBreakdown:
    net = leading + spectral - log_correction
    final, floored = _resolve_bootstrap_floor(net, c, method, floor)
    return BoundBreakdown(
        leading=leading,
        spectral=spectral,
        log_correction=log_correction,
        final=final,
        method=method,
        floored=floored,
        inputs=inputs,
    )


def bound_from_divergence(
    d_bits: float,
    ref: ReferenceSet,
    epsilon: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    spectral_bits: float = 0.0,
    method: str = "lambert",
) -> BoundBreakdown:
    """Circuit lower bound from a divergence value (exact or certified).

    Solves x >= (D + skew - c1 log(1/eps))/log G - (c1/log G) log2(max(1,x)),
    floored at 0. A max-divergence value may be passed as d_bits with zero
    skew, since D + skew equals D_max identically.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValidationError(f"epsilon {epsilon} must be in (0, 0.5]")
    if d_bits < 0 or spectral_bits < 0:
        raise ValidationError("divergence terms must be nonnegative")
    lg = ref.log2_gamma
    return _bound_from_terms(
        leading=d_bits / lg,
        spectral=spectral_bits / lg,
        log_correction=constants.c1 * math.log2(1.0 / epsilon) / lg,
        c=constants.c1 / lg,
        method=method,
        floor=0.0,
        inputs={
            "epsilon": epsilon,
            "c1": constants.c1,
            "gamma_r": ref.gamma,
            "d_r": ref.d_r,
            "form": "divergence",
        },
    )


def main_lower_bound(
    rho: DensityOperator,
    ref: ReferenceSet,
    epsilon: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    method: str = "lambert",
) -> BoundBreakdown:
    """Exact-state circuit lower bound with the unit-coefficient skew term."""
    d_bits = relative_to_reference(rho, ref).bits
    skew = spectral_skew(rho).bits
    return bound_from_divergence(
        d_bits, ref, epsilon, constants=constants, spectral_bits=skew, method=method
    )


def smoothed_lower_bound(
    dh_bits: float,
    ref: ReferenceSet,
    epsilon: float,
    eta: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    method: str = "lambert",
) -> BoundBreakdown:
    """Circuit lower bound from a hypothesis-testing divergence value.

    Uses the confidence-penalized form with correction
    (c1' log(1/eps) + c2' log(1/eta))/log G and keeps the explicit
    max(1, .) floor of its closed-form solution.
    """
    _check_level("epsilon", epsilon)
    _check_level("eta", eta)
    if dh_bits < 0:
        raise ValidationError("divergence bound must be nonnegative")
    lg = ref.log2_gamma
    log_corr = (
        constants.c1_prime * math.log2(1.0 / epsilon)
        + constants.c2_prime * math.log2(1.0 / eta)
    ) / lg
    return _bound_from_terms(
        leading=dh_bits / lg,
        spectral=0.0,
        log_correction=log_corr,
        c=constants.c1_prime / lg,
        method=method,
        floor=1.0,
        inputs={
            "epsilon": epsilon,
            "eta": eta,
            "c1_prime": constants.c1_prime,
            "c2_prime": constants.c2_prime,
            "gamma_r": ref.gamma,
            "d_r": ref.d_r,
            "form": "smoothed",
        },
    )
