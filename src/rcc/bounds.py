"""Complexity measures and the bootstrap solver.

The central quantity is the reference-contingent complexity

    rcc(rho, ref) = (log2 d_R - S(rho)) / log2 Gamma_R      [structons]

and the circuit lower bounds it feeds, which are self-referential
inequalities of the form x >= D - c * log2(max(1, x)). Their smallest
solutions come from one Newton solve that ends on the conservative side of
the root; solve_bootstrap also offers library callers piecewise and
asymptotic stand-ins, both below that root, which no bound uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .entropy import relative_to_reference, spectral_skew
from .errors import ValidationError, _check_finite, _check_level
from .operators import DensityOperator
from .reference import ReferenceSet

LN2 = math.log(2.0)

# The bootstrap root is stepped down until its residual, evaluated in
# doubles, is at most minus this many units in the last place of each of its
# three terms: more than the evaluation's own rounding, so the exact residual
# is negative too.
_MARGIN_ULPS = 4

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
    floored: bool
    inputs: dict = field(default_factory=dict)


def _check_epsilon(epsilon: float) -> None:
    """The precision rule of both bound forms and of a run: 0 < eps <= 1/2."""
    if not 0.0 < epsilon <= 0.5:
        raise ValidationError(f"epsilon {epsilon} must be in (0, 0.5]")


def rcc(rho: DensityOperator, ref: ReferenceSet) -> float:
    """Reference-contingent complexity in structons.

    Ranges over [0, log2 d_R / log2 Gamma_R]: zero exactly at the structured
    vacuum, maximal for any pure state in the subspace.
    """
    d_bits = relative_to_reference(rho, ref)
    return max(0.0, d_bits / ref.log2_gamma)


def solve_bootstrap(d: float, c: float, method: str = "lambert") -> float:
    """Smallest x with x + c*log2(x) = D (method "lambert", which every
    circuit bound here takes), or a cheaper conservative stand-in.

    With alpha = c/ln 2, g(x) = x + alpha*ln(x) - D is increasing and
    concave, so a Newton step from below the root lands below it again.
    "piecewise" is the largest of three points below the root: min(D, 1),
    D/(1+alpha) and D - alpha*ln(1+D). "lambert" climbs from there by Newton
    steps while they still raise x, to the root of the closed form
    alpha * W0(exp(D/alpha)/alpha). Both are then stepped down until the
    residual, evaluated in doubles, is at most -_MARGIN_ULPS units of
    roundoff, so neither is ever above the exact root. "asymptotic" is the
    large-D expansion D - c*log2 D, meaningful only for D > 1.
    Nonpositive D yields 0.
    """
    _check_finite(d=d, c=c)
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
    # each point y is at or below the root: g(y) is alpha*ln(D) or 1 - D at
    # y = min(D, 1), alpha*(ln y - y) at y = D/(1+alpha), and
    # alpha*ln(y/(1+D)) at y = D - alpha*ln(1+D); min(D, 1) keeps the start
    # positive where the other two round to 0 or below
    x = max(min(d, 1.0), d / (1.0 + alpha), d - alpha * math.log1p(d))
    if method == "lambert":
        while True:
            # residual * x first: x / (x + alpha) underflows to 0 at a
            # subnormal start, which would end the climb there
            step = (d - x - c * math.log2(x)) * x / (x + alpha)
            if not x + step > x:
                break
            x += step
    while True:
        cl = c * math.log2(x)
        residual = x + cl - d
        margin = _MARGIN_ULPS * (math.ulp(x) + math.ulp(cl) + math.ulp(d))
        if residual <= -margin:
            return x
        # a Newton step from above lands below the root of g + 2*margin
        x = min(x - (residual + 2.0 * margin) * (x / (x + alpha)), math.nextafter(x, 0.0))


def _resolve_bootstrap_floor(net: float, c: float, floor: float) -> tuple[float, bool]:
    """Smallest x >= 0 with x >= net - c*log2(max(1, x)), honoring the
    piecewise log(max(1, .)) system and the caller's floor (0 or 1); past 1
    it is solve_bootstrap's rounded-down root."""
    if net <= 1.0:
        # up to 1 the log term is inactive and the inequality is linear
        return max(floor, net, 0.0), True
    value = solve_bootstrap(net, c)
    if value < floor:
        return floor, True
    return value, False


def _bound_from_terms(
    leading: float,
    spectral: float,
    log_correction: float,
    c: float,
    floor: float,
    inputs: dict,
) -> BoundBreakdown:
    net = leading + spectral - log_correction
    final, floored = _resolve_bootstrap_floor(net, c, floor)
    return BoundBreakdown(
        leading=leading,
        spectral=spectral,
        log_correction=log_correction,
        final=final,
        floored=floored,
        inputs=inputs,
    )


def bound_from_divergence(
    d_bits: float,
    ref: ReferenceSet,
    epsilon: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    spectral_bits: float = 0.0,
) -> BoundBreakdown:
    """Circuit lower bound from a divergence value (exact or certified).

    Solves x >= (D + skew - c1 log(1/eps))/log G - (c1/log G) log2(max(1,x)),
    floored at 0. A max-divergence value may be passed as d_bits with zero
    skew, since D + skew equals D_max identically.
    """
    _check_epsilon(epsilon)
    if d_bits < 0 or spectral_bits < 0:
        raise ValidationError("divergence terms must be nonnegative")
    lg = ref.log2_gamma
    return _bound_from_terms(
        leading=d_bits / lg,
        spectral=spectral_bits / lg,
        log_correction=constants.c1 * math.log2(1.0 / epsilon) / lg,
        c=constants.c1 / lg,
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
) -> BoundBreakdown:
    """Exact-state circuit lower bound with the unit-coefficient skew term."""
    d_bits = relative_to_reference(rho, ref)
    skew = spectral_skew(rho)
    return bound_from_divergence(d_bits, ref, epsilon, constants=constants, spectral_bits=skew)


def smoothed_lower_bound(
    dh_bits: float,
    ref: ReferenceSet,
    epsilon: float,
    eta: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> BoundBreakdown:
    """Circuit lower bound from a hypothesis-testing divergence value.

    Uses the confidence-penalized form with correction
    (c1' log(1/eps) + c2' log(1/eta))/log G and keeps the explicit
    max(1, .) floor of its closed-form solution.
    """
    _check_epsilon(epsilon)
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
