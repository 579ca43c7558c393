"""Observation windows, windowed complexity, and thermodynamic bounds.

A window is a basis-block partition whose pinching fixes the structured
vacuum; sweeping a nested family of windows traces how much of a state's
order a finite observer can resolve. Thermodynamic identities in this
module follow the nats convention; hbar and k_B default to 1 and are
explicit arguments everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import von_neumann
from .errors import ConfigError, ValidationError, _check_finite
from .operators import BlockPartition, DensityOperator, pinch
from .reference import ReferenceSet

COMPAT_TOL = 1e-10
# A net complexity change below this has no complexity-weighted temperature.
_NET_CHANGE_TOL = 1e-15
# The RECT performance margin may fall below 0 by this much, relative to the
# larger side of the inequality.
_MARGIN_RTOL = 1e-12

# the optional inputs of process_time_bound that each variant reads, and
# what its message says it reads; a given input outside the set is a
# ConfigError
_VARIANT_INPUTS = {
    "envelope": ({"pi_avg"}, "reads pi_avg"),
    "net_gain": ({"pi_avg"}, "reads pi_avg"),
    "full": ({"pi_avg", "log_correction"}, "reads pi_avg and log_correction"),
    "isothermal": ({"temperature"}, "reads temperature"),
    "sign_robust": (set(), "averages the trace's positive potential"),
}
TIME_BOUND_VARIANTS = tuple(_VARIANT_INPUTS)


@dataclass(frozen=True)
class ObservationWindow:
    """A block partition with its capability label Xi >= 0."""

    partition: BlockPartition
    xi: float = 0.0

    def __post_init__(self):
        if self.xi < 0:
            raise ValidationError("window label xi must be >= 0")


def _refines(fine: BlockPartition, coarse: BlockPartition) -> bool:
    """True when every block of `fine` sits inside one block of `coarse`."""
    if fine.covered != coarse.covered:
        return False
    owner: dict[int, int] = {}
    for k, b in enumerate(coarse.blocks):
        for i in b:
            owner[i] = k
    for b in fine.blocks:
        ids = {owner[i] for i in b}
        if len(ids) != 1:
            return False
    return True


@dataclass(frozen=True)
class WindowFamily:
    """Strictly increasing capability labels with nested window algebras.

    Growing Xi enlarges the algebra the observer commands, so partitions
    coarsen along the family: each earlier partition refines every later
    one, and the windowed entropy can only decrease along the sweep.
    """

    windows: tuple[ObservationWindow, ...]

    def __post_init__(self):
        wins = tuple(self.windows)
        if not wins:
            raise ValidationError("window family is empty")
        for a, b in zip(wins, wins[1:]):
            if not b.xi > a.xi:
                raise ValidationError("window labels must be strictly increasing")
            if not _refines(a.partition, b.partition):
                raise ValidationError(
                    f"window at xi={a.xi} does not refine the window at xi={b.xi}; "
                    "the family is not nested"
                )
        object.__setattr__(self, "windows", wins)


def window_compatible(window: ObservationWindow, ref: ReferenceSet) -> bool:
    """A window is compatible when its pinching fixes the total projector
    (equivalently the structured vacuum)."""
    pinched = window.partition.pinch(ref.total.matrix)
    return bool(np.linalg.norm(pinched - ref.total.matrix) <= COMPAT_TOL)


def windowed_entropy_bits(
    rho: DensityOperator, ref: ReferenceSet, window: ObservationWindow
) -> float:
    if not window_compatible(window, ref):
        raise ValidationError(
            "window partition does not preserve the reference projector"
        )
    return von_neumann(pinch(rho, window.partition))


def windowed_rcc(
    rho: DensityOperator, ref: ReferenceSet, window: ObservationWindow
) -> float:
    """(log2 d_R - S(E_Xi(rho))) / log2 Gamma_R, in structons.

    Never exceeds the unwindowed complexity; equals it when the window's
    single block spans the whole space.
    """
    return _windowed_complexity(ref, windowed_entropy_bits(rho, ref, window))


def _windowed_complexity(ref: ReferenceSet, s_bits: float) -> float:
    """The windowed complexity, in structons, of a window whose entropy is s_bits."""
    return max(0.0, (math.log2(ref.d_r) - s_bits) / ref.log2_gamma)


@dataclass(frozen=True)
class ProcessTrace:
    """Sampled process history: time, work potential, temperature, complexity."""

    times: np.ndarray
    potentials: np.ndarray
    temperatures: np.ndarray
    complexities: np.ndarray

    def __post_init__(self):
        arrays = {
            "times": np.asarray(self.times, dtype=float),
            "potentials": np.asarray(self.potentials, dtype=float),
            "temperatures": np.asarray(self.temperatures, dtype=float),
            "complexities": np.asarray(self.complexities, dtype=float),
        }
        n = arrays["times"].size
        if n < 2:
            raise ValidationError("a process trace needs at least 2 samples")
        for name, a in arrays.items():
            if a.ndim != 1 or a.size != n:
                raise ValidationError(f"trace column {name} must have {n} entries")
            # the column's first entry that is NaN or infinite, if it has one
            _check_finite(**{f"column {name}: trace entries": a[np.isfinite(a).argmin()]})
            object.__setattr__(self, name, a)
        if (arrays["times"][1:] <= arrays["times"][:-1]).any():
            raise ValidationError("trace times must be strictly increasing")

    @property
    def net_change(self) -> float:
        """The net complexity change C(t_end) - C(t_0); like time_average,
        inf or nan where it overflows, for its reader's finiteness check."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.complexities[-1] - self.complexities[0])

    def time_average(self, values) -> float:
        """The time average of values sampled at the trace's times
        (trapezoidal over t, divided by the span t_end - t_0)."""
        with np.errstate(over="ignore", invalid="ignore"):
            span = float(self.times[-1] - self.times[0])
            return float(np.trapezoid(values, self.times) / span)


def info_work(trace: ProcessTrace, gamma_r: float) -> tuple[float, float | None]:
    """Total information-processing work and complexity-weighted temperature.

    W = ln(Gamma_R) * integral of T dC (trapezoidal along the complexity
    coordinate) and <T>_C = (integral T dC) / dC. The average is None when
    the net complexity change vanishes, and the work is kept. Gamma_R and
    both results must be finite.
    """
    _check_finite(gamma_r=gamma_r)
    if gamma_r <= 1:
        raise ValidationError("gamma_r must exceed 1")
    with np.errstate(over="ignore", invalid="ignore"):
        t_dc = float(np.trapezoid(trace.temperatures, trace.complexities))
    delta_c = trace.net_change
    work = math.log(gamma_r) * t_dc
    _check_finite(w_info=work)
    if abs(delta_c) < _NET_CHANGE_TOL:
        return work, None
    t_avg = t_dc / delta_c
    _check_finite(t_avg_weighted=t_avg)
    return work, t_avg


@dataclass(frozen=True)
class TimeBound:
    """Lower bound on process duration, with its derivation variant."""

    value: float
    variant: str
    approximate: bool = False


def process_time_bound(
    delta_c: float,
    pi_avg: float | None = None,
    variant: str = "envelope",
    *,
    log_correction: float | None = None,
    temperature: float | None = None,
    trace: ProcessTrace | None = None,
    hbar: float = 1.0,
    k_b: float = 1.0,
) -> TimeBound:
    """Minimum duration to generate delta_c structons of complexity.

    envelope / net_gain: hbar * delta_c / (2 * pi_avg), differing only in
    what the caller subtracted to form delta_c (initial envelope value vs
    initial complexity). full: additionally removes the supplied logarithmic
    correction budget (none given removes 0). isothermal: hbar * delta_c /
    (2 pi k_B T), flagged approximate since the underlying potential cap is
    heuristic. sign_robust: pi_avg is the time average of the positive part
    of the potential along the trace. Of pi_avg, log_correction and
    temperature, a variant reads only its own (_VARIANT_INPUTS), and a given
    one that it does not read is a ConfigError. Every number given and the
    bound must be finite, and hbar and k_B positive.
    """
    if variant not in TIME_BOUND_VARIANTS:
        raise ValidationError(
            f"unknown variant {variant!r}; expected one of {TIME_BOUND_VARIANTS}"
        )
    reads, what = _VARIANT_INPUTS[variant]
    given = {"pi_avg": pi_avg, "log_correction": log_correction, "temperature": temperature}
    given = {name: x for name, x in given.items() if x is not None}
    for name, x in given.items():
        if name not in reads:
            raise ConfigError(f"{name} = {x} cannot be given with the {variant} variant, "
                              f"which {what}")
    _check_finite(delta_c=delta_c, hbar=hbar, k_b=k_b, **given)
    if hbar <= 0 or k_b <= 0:
        raise ValidationError("hbar and k_b must be positive")
    if delta_c == 0.0:
        return TimeBound(0.0, variant, approximate=variant == "isothermal")
    if variant == "isothermal":
        if temperature is None or temperature <= 0:
            raise ValidationError("isothermal variant needs a positive temperature")
        try:
            value = hbar * delta_c / (2.0 * math.pi * k_b * temperature)
        except ZeroDivisionError as exc:
            raise ValidationError("k_b * temperature underflows to 0") from exc
    else:
        if variant == "sign_robust":
            if trace is None:
                raise ValidationError("sign_robust variant needs a process trace")
            pi_avg = trace.time_average(np.clip(trace.potentials, 0.0, None))
            _check_finite(pi_avg=pi_avg)
        if pi_avg is None or pi_avg <= 0:
            raise ValidationError("the average work potential must be positive")
        effective = delta_c - (log_correction or 0.0)
        value = max(0.0, hbar * effective / (2.0 * pi_avg))
    _check_finite(time_bound=value)
    return TimeBound(value, variant, approximate=variant == "isothermal")


@dataclass(frozen=True)
class RectEfficiency:
    """Dynamical efficiency factors; values above 1 violate physical law."""

    eta_qsl: float
    eta_lr: float

    @property
    def qsl_satisfied(self) -> bool:
        return self.eta_qsl <= 1.0

    @property
    def lr_satisfied(self) -> bool:
        return self.eta_lr <= 1.0


def rect_efficiency(
    sigma_avail: float,
    delta_t: float,
    c_opt: float,
    s_e: float,
    gamma_j: float,
    hbar: float = 1.0,
) -> RectEfficiency:
    """Speed-limit and locality efficiency factors of a dynamical process.

    eta_QSL = (pi hbar / 2) C_opt / (sigma_avail * dt) and
    eta_LR = hbar * S_E / (gamma_j * dt). The testable physics is that both
    stay at or below 1.
    """
    _check_finite(sigma_avail=sigma_avail, delta_t=delta_t, c_opt=c_opt, s_e=s_e,
                  gamma_j=gamma_j, hbar=hbar)
    if sigma_avail <= 0 or delta_t <= 0:
        raise ValidationError("sigma_avail and delta_t must be positive")
    if c_opt < 0:
        raise ValidationError("instruction-step count c_opt must be >= 0")
    if s_e < 0:
        raise ValidationError("entanglement output must be >= 0")
    if gamma_j <= 0 or hbar <= 0:
        raise ValidationError("gamma_j and hbar must be positive")
    try:
        eta_qsl = (math.pi * hbar / 2.0) * c_opt / (sigma_avail * delta_t)
        eta_lr = hbar * s_e / (gamma_j * delta_t)
    except ZeroDivisionError as exc:
        raise ValidationError("sigma_avail * delta_t or gamma_j * delta_t underflows to 0") from exc
    _check_finite(eta_qsl=eta_qsl, eta_lr=eta_lr)
    return RectEfficiency(eta_qsl, eta_lr)


def rect_identity_check(
    sigma_avail: float,
    s_e: float,
    eta_qsl: float,
    eta_lr: float,
    gamma_j: float,
    c_opt: float,
) -> float:
    """Residual of the resource-accounting identity.

    sigma_avail * S_E - (eta_LR/eta_QSL)(pi gamma_j / 2) C_opt vanishes
    identically when the efficiency factors come from rect_efficiency on the
    same process; independently chosen factors simply yield a nonzero
    residual (reported, not an error).
    """
    if eta_qsl <= 0:
        raise ValidationError("eta_qsl must be positive")
    residual = sigma_avail * s_e - (eta_lr / eta_qsl) * (math.pi * gamma_j / 2.0) * c_opt
    _check_finite(identity_residual=residual)
    return residual


@dataclass(frozen=True)
class RectPerformance:
    """Margins of the measurable performance inequality."""

    margin: float
    margin_dimensionless: float
    passed: bool


def rect_performance_check(
    sigma_avail: float,
    s_e: float,
    eta_qsl: float,
    eta_lr: float,
    gamma_j: float,
    j: float,
    c_r_value: float,
) -> RectPerformance:
    """Check sigma_avail * S_E >= (eta_LR/eta_QSL)(pi gamma_j/2) C_R and its
    dimensionless form (both sides divided by the energy scale J)."""
    _check_finite(c_r=c_r_value, j=j)
    if eta_qsl <= 0:
        raise ValidationError("eta_qsl must be positive")
    if j <= 0:
        raise ValidationError("the characteristic energy scale J must be positive")
    rhs = (eta_lr / eta_qsl) * (math.pi * gamma_j / 2.0) * c_r_value
    lhs = sigma_avail * s_e
    margin = lhs - rhs
    dimensionless = margin / j
    _check_finite(margin=margin, margin_dimensionless=dimensionless)
    tol = _MARGIN_RTOL * max(1.0, abs(lhs), abs(rhs))
    return RectPerformance(margin, dimensionless, margin >= -tol)
