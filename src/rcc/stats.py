"""Finite-sample certification: exact binomial intervals, the three
measurement protocols, sample-size planners and bound combination.

Every protocol turns raw outcome counts into a CertifiedBound: a one-sided
lower confidence bound on a divergence, tagged with its confidence level
and full parameter provenance. Endpoints are Clopper-Pearson, computed for
one count at a time by bisecting the exact binomial tail (through the
regularized incomplete beta), which is bit-reproducible and avoids
special-function inversions.

Coverage experiments need, of many records of one protocol, only how many
certify above a limit and how many cannot certify: each protocol's counter
(`ht_counts`, `witness_counts`, `dephase_counts`) returns those two from a
matrix of the counts `harness.coverage_experiment` draws, one record per
row, which meet MeasurementRecord's checks by construction and are not
checked again. Each binomial certifier is monotone in one count, so its
counter finds the threshold count by a binary search over the distinct
counts, one scalar endpoint per probe, instead of certifying every record.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .bounds import (
    DEFAULT_CONSTANTS,
    BoundBreakdown,
    BoundConstants,
    bound_from_divergence,
    smoothed_lower_bound,
)
from .entropy import _entropy_bits, binary_entropy, shannon
from .errors import ProtocolInvalidError, ValidationError
from .operators import EFFECT_TOL, _effect_rank
# the record layer, which loads no scipy; re-exported so that callers may
# import it from either module
from .records import (  # noqa: F401
    HT_LABELS,
    PROTOCOLS,
    WITNESS_LABELS,
    MeasurementRecord,
    _check_witness_rank,
    _is_integer,
)
from .reference import ReferenceSet

# Clopper-Pearson endpoints are bisected to this absolute width.
_BISECT_WIDTH = 1e-10
# hypothesis_test spends this share of delta on the type-I endpoint and the
# rest on the type-II endpoint.
_HT_DELTA_SPLIT = 0.5
# The sample planners subtract this before rounding up, so that a requirement
# that is an exact integer does not round up to the next one.
_PLAN_SLACK = 1e-9
# A combined bound's total failure probability is capped just below 1.
_COMBINED_DELTA_CAP = 1.0 - 1e-12


@dataclass(frozen=True)
class CertifiedBound:
    """A one-sided lower bound with confidence 1 - delta and provenance."""

    quantity: str  # "D_H" | "D_max" | "D" | "C_R"
    value: float
    unit: str
    confidence: float
    protocol: str
    params: dict = field(default_factory=dict)
    direction: str = "lower"

    def __post_init__(self):
        if self.quantity not in ("D_H", "D_max", "D", "C_R"):
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError(f"confidence {self.confidence} outside (0,1)")
        if self.direction != "lower":
            raise ValidationError("certified bounds are lower bounds by construction")


def _check_binomial_args(k, n, delta: float) -> None:
    """Integer counts 0 <= k <= n with n > 0 (each an int or a numpy
    integer), and delta in (0, 1)."""
    if not (_is_integer(k) and _is_integer(n)):
        raise ValidationError(f"counts must be integers, got k={k!r}, N={n!r}")
    if n <= 0 or k < 0 or k > n:
        raise ValidationError(f"invalid counts k={k}, N={n}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta {delta} must be in (0,1)")


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), -1 <= k <= n and 0 < p < 1 (the
    points a bisection visits), via the incomplete beta."""
    return float(betainc(n - k, k + 1, 1.0 - p))


def _bisect(f, rising: bool) -> float:
    """Sign change of a monotone function on [0, 1] by plain bisection, to an
    absolute bracket width of _BISECT_WIDTH; f rises through 0 (f(0) <= 0)
    or falls through it (f(0) > 0)."""
    lo, width = 0.0, 1.0
    while width > _BISECT_WIDTH:
        width *= 0.5
        lo = lo + width * ((f(lo + width) > 0) != rising)
    return lo + 0.5 * width


def clopper_pearson_upper(k: int, n: int, delta: float) -> float:
    """One-sided exact upper endpoint: largest p with P(X <= k; p) >= delta."""
    _check_binomial_args(k, n, delta)
    if k == n:
        return 1.0
    return _bisect(lambda p: _binom_cdf(k, n, p) - delta, rising=False)


def clopper_pearson_lower(k: int, n: int, delta: float) -> float:
    """One-sided exact lower endpoint: smallest p with P(X >= k; p) >= delta."""
    _check_binomial_args(k, n, delta)
    if k == 0:
        return 0.0
    return _bisect(lambda p: (1.0 - _binom_cdf(k - 1, n, p)) - delta, rising=True)


def _ht_value(beta_upper: float) -> float:
    """The certified D_H: -log2 of the type-II upper endpoint, floored at 0."""
    return max(0.0, -math.log2(beta_upper) if beta_upper > 0 else math.inf)


def ht_protocol(record: MeasurementRecord, eta: float, delta: float) -> CertifiedBound:
    """Hypothesis-testing certification at total confidence 1 - delta.

    The record holds decision counts from a null-calibration run (state was
    the structured vacuum) and an alternative run (state was rho); see
    HT_LABELS. The type-I endpoint alpha_U(_HT_DELTA_SPLIT * delta) must
    stay within eta, otherwise the run cannot certify at level eta; the
    returned value is -log2 of the type-II upper endpoint at the remaining
    budget.
    """
    if record.protocol != "hypothesis_test":
        raise ValidationError(f"record protocol {record.protocol!r} is not hypothesis_test")
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta {eta} must be in (0,1)")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta {delta} must be in (0,1)")
    missing = [lab for lab in HT_LABELS if lab not in record.counts]
    if missing:
        raise ValidationError(f"hypothesis_test record is missing counts {missing}")
    n_null = record.counts["null_accept_h1"] + record.counts["null_accept_h0"]
    n_alt = record.counts["alt_accept_h1"] + record.counts["alt_accept_h0"]
    if n_null == 0 or n_alt == 0:
        raise ValidationError("both the null and alternative runs need samples")
    alpha_upper = clopper_pearson_upper(
        record.counts["null_accept_h1"], n_null, delta * _HT_DELTA_SPLIT
    )
    if alpha_upper > eta:
        raise ProtocolInvalidError(
            f"type-I upper endpoint {alpha_upper:.6f} exceeds eta = {eta}; the "
            "bound would not certify at this level (recalibrate the test or "
            "increase the null sample size)"
        )
    beta_upper = clopper_pearson_upper(
        record.counts["alt_accept_h0"], n_alt, delta * (1.0 - _HT_DELTA_SPLIT)
    )
    return CertifiedBound(
        quantity="D_H",
        value=_ht_value(beta_upper),
        unit="bits",
        confidence=1.0 - delta,
        protocol="hypothesis_test",
        params={
            "eta": eta,
            "delta": delta,
            "delta_split": _HT_DELTA_SPLIT,
            "alpha_upper": alpha_upper,
            "beta_upper": beta_upper,
            "n_null": n_null,
            "n_alt": n_alt,
            "type_ii_count": record.counts["alt_accept_h0"],
        },
    )


def _pow2(bits: float) -> float:
    """2^bits for a finite exponent, inf where that overflows a float."""
    return 2.0**bits if bits < 1024 else math.inf


def ht_sample_plan(target_bits: float, delta: float) -> int:
    """Zero-failure sample size certifying D_H >= target: ceil(2^L ln(1/delta))."""
    if not (math.isfinite(target_bits) and target_bits >= 0):
        raise ValidationError(f"target must be finite and nonnegative, got {target_bits}")
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta {delta} must be in (0,1]")
    size = _pow2(target_bits) * math.log(1.0 / delta)
    if not size < math.inf:
        raise ValidationError(
            f"the sample size 2^L ln(1/delta) for target L = {target_bits} bits overflows a float")
    return math.ceil(size - _PLAN_SLACK)


def _witness_value(p_lower: float, d_r: int, rank: int) -> float:
    """The certified D_max: log2(p_L d_R / r), floored at 0."""
    return math.log2(p_lower * d_r / rank) if p_lower * d_r > rank else 0.0


def witness_protocol(
    record: MeasurementRecord,
    ref: ReferenceSet,
    rank: int,
    delta: float,
    projector=None,
) -> CertifiedBound:
    """Projective-witness certification of the max-divergence.

    With p_L the exact lower endpoint of the occupation probability of a
    rank-r projector supported in the reference subspace, certifies
    D_max >= max(0, log2(p_L d_R / r)). The caller attests the support
    condition and the rank unless the projector matrix is supplied for
    checking.
    """
    if record.protocol != "witness":
        raise ValidationError(f"record protocol {record.protocol!r} is not witness")
    _check_witness_rank(rank, ref.d_r)
    if projector is not None:
        pw = np.asarray(projector, dtype=complex)
        if _effect_rank(pw) != rank:
            raise ValidationError(f"witness projector trace {np.trace(pw).real:.6g} is not "
                                  f"its rank {rank}")
        leak = np.linalg.norm(pw - ref.total.matrix @ pw @ ref.total.matrix)
        if leak > EFFECT_TOL:
            raise ValidationError(
                f"witness projector leaks outside the reference subspace "
                f"(norm {leak:.3e})"
            )
    for lab in WITNESS_LABELS:
        if lab not in record.counts:
            raise ValidationError(f"witness record is missing count {lab!r}")
    successes = record.counts["success"]
    p_lower = clopper_pearson_lower(successes, record.n, delta)
    return CertifiedBound(
        quantity="D_max",
        value=_witness_value(p_lower, ref.d_r, rank),
        unit="bits",
        confidence=1.0 - delta,
        protocol="witness",
        params={
            "delta": delta,
            "rank": rank,
            "d_r": ref.d_r,
            "p_lower": p_lower,
            "successes": successes,
            "n": record.n,
        },
    )


def witness_sample_plan(
    p0: float, target_bits: float, rank: int, d_r: int, delta: float
) -> int:
    """Hoeffding sample size to separate p0 from p* = 2^L r / d_R."""
    _check_witness_rank(rank, d_r)
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta {delta} must be in (0,1)")
    if not math.isfinite(target_bits):
        raise ValidationError(f"target must be finite, got {target_bits}")
    if not 0.0 < p0 <= 1.0:
        raise ValidationError(f"anticipated occupation p0 = {p0} must be in (0,1]")
    p_star = _pow2(target_bits) * rank / d_r
    if p0 <= p_star:
        raise ValidationError(
            f"anticipated occupation p0 = {p0} does not exceed the certification "
            f"threshold p* = {p_star}; the target is unreachable"
        )
    return math.ceil(math.log(1.0 / delta) / (2.0 * (p0 - p_star) ** 2) - _PLAN_SLACK)


def _dephase_value(h_hat, n: int, m: int, delta: float):
    """(D, H_U, eps_N, v) from the empirical entropy of n shots over the
    m = d_R basis outcomes, or from an array of such entropies.

    H_U = min(log2 M, H(P_hat) + v log2(M-1) + h2(v)), v = eps_N/2 with
    eps_N = sqrt((2/N)(M ln 2 + ln(1/delta))), and D = log2 d_R - H_U
    floored at 0. The continuity term is evaluated on its validity range
    v <= 1 - 1/M; beyond it the always-valid log2 M cap takes over. For
    M = 1 the entropy is 0 and so is H_U.
    """
    eps_n = math.sqrt((2.0 / n) * (m * math.log(2.0) + math.log(1.0 / delta)))
    v = eps_n / 2.0
    continuity = 0.0
    if m > 1:
        v_eff = min(v, 1.0 - 1.0 / m)
        continuity = v_eff * math.log2(m - 1) + binary_entropy(v_eff).bits
    h_upper = np.minimum(math.log2(m), h_hat + continuity)
    return np.maximum(0.0, math.log2(m) - h_upper), h_upper, eps_n, v


def dephase_protocol(
    record: MeasurementRecord, ref: ReferenceSet, delta: float
) -> CertifiedBound:
    """Classical-basis certification through an entropy confidence endpoint.

    From counts over the d_R reference basis outcomes, bounds the true
    Shannon entropy by H_U and returns D >= log2 d_R - H_U floored at 0
    (see _dephase_value).
    """
    if record.protocol != "dephase":
        raise ValidationError(f"record protocol {record.protocol!r} is not dephase")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta {delta} must be in (0,1)")
    m = ref.d_r
    if len(record.counts) > m:
        raise ValidationError(f"{len(record.counts)} outcome labels exceed the d_R = {m} "
                              "basis states")
    n = record.n
    counts = np.array(list(record.counts.values()), dtype=float)
    p_hat = np.zeros(m)
    p_hat[: counts.size] = counts / n
    h_hat = shannon(p_hat).bits
    value, h_upper, eps_n, v = _dephase_value(h_hat, n, m, delta)
    return CertifiedBound(
        quantity="D",
        value=float(value),
        unit="bits",
        confidence=1.0 - delta,
        protocol="dephase",
        params={
            "delta": delta,
            "n": n,
            "m_outcomes": m,
            "empirical_entropy_bits": h_hat,
            "eps_n": eps_n,
            "v": v,
            "entropy_upper_bits": float(h_upper),
        },
    )


def _first_flip(column: np.ndarray, flips) -> tuple[float, int]:
    """(k*, rows): the least count of the column at which flips turns true,
    and the number of rows at or above it, for a predicate on counts that
    is false and then true along ascending counts; (inf, 0) if it never
    turns. A binary search over the u distinct counts of the column makes
    at most ceil(log2(u + 1)) calls of flips, each with a Python int."""
    ks, rows = np.unique(column, return_counts=True)
    i = bisect_left(ks.tolist(), True, key=flips)
    return (ks[i] if i < ks.size else math.inf), int(rows[i:].sum())


def ht_counts(counts: np.ndarray, n: int, limit: float, eta: float,
              delta: float) -> tuple[int, int]:
    """(above, invalid) of hypothesis-test rows in HT_LABELS order, trusted
    as drawn: how many ht_protocol would certify above limit, and how many
    it would reject with ProtocolInvalidError. A test is invalid from some
    null_accept_h1 count on and its value falls as alt_accept_h0 grows, so
    each column is split at its threshold count, each probe one scalar
    endpoint, the certifier's value and the same comparison."""
    k_star, invalid = _first_flip(
        counts[:, 0], lambda k: clopper_pearson_upper(k, n, delta * _HT_DELTA_SPLIT) > eta)
    alt = counts[counts[:, 0] < k_star, 3]
    _, not_above = _first_flip(alt, lambda k: not _ht_value(
        clopper_pearson_upper(k, n, delta * (1.0 - _HT_DELTA_SPLIT))) > limit)
    return alt.size - not_above, invalid


def witness_counts(counts: np.ndarray, n: int, ref: ReferenceSet, limit: float, delta: float,
                   rank: int) -> tuple[int, int]:
    """(above, 0) of witness rows in WITNESS_LABELS order, trusted as drawn
    (the rank is checked): how many witness_protocol would certify above
    limit. The value rises with success, so that column is split at its
    threshold count."""
    _check_witness_rank(rank, ref.d_r)
    _, above = _first_flip(counts[:, 0], lambda k: _witness_value(
        clopper_pearson_lower(k, n, delta), ref.d_r, rank) > limit)
    return above, 0


def dephase_counts(counts: np.ndarray, n: int, ref: ReferenceSet, limit: float,
                   delta: float) -> tuple[int, int]:
    """(above, 0) of dephase rows over the d_R reference basis states,
    trusted as drawn: how many dephase_protocol would certify above limit.
    The value reads the whole row and is computed per row."""
    h_hat = np.array([_entropy_bits(row) for row in counts / n])
    return int(np.count_nonzero(_dephase_value(h_hat, n, ref.d_r, delta)[0] > limit)), 0


def bonferroni(delta: float, m: int) -> float:
    """Split a confidence budget across m comparisons: delta / m."""
    if m < 1:
        raise ValidationError("number of comparisons must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta {delta} must be in (0,1)")
    return delta / m


@dataclass(frozen=True)
class CombinedBound:
    """Best certified circuit bound across measurement paths."""

    value_structons: float
    confidence: float
    winner: str
    breakdown: BoundBreakdown
    contributing: tuple[CertifiedBound, ...]
    per_path: dict[str, float] = field(default_factory=dict)


def _path_breakdown(
    bound: CertifiedBound,
    ref: ReferenceSet,
    epsilon: float,
    constants: BoundConstants,
    method: str,
) -> BoundBreakdown:
    if bound.quantity == "D_H":
        eta = bound.params.get("eta")
        if eta is None:
            raise ValidationError("a D_H bound must carry its eta in params")
        return smoothed_lower_bound(
            bound.value, ref, epsilon, eta, constants=constants, method=method
        )
    if bound.quantity in ("D", "D_max"):
        # D + skew equals D_max identically, so a max-divergence bound may be
        # used as the leading term directly; a plain divergence bound gets
        # the conservative zero skew.
        return bound_from_divergence(
            bound.value, ref, epsilon, constants=constants, spectral_bits=0.0, method=method
        )
    if bound.quantity == "C_R":
        return bound_from_divergence(
            bound.value * ref.log2_gamma, ref, epsilon, constants=constants, method=method
        )
    raise ValidationError(f"cannot combine quantity {bound.quantity!r}")


def combine_bounds(
    bounds,
    ref: ReferenceSet,
    epsilon: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    method: str = "lambert",
) -> CombinedBound:
    """Propagate each certified bound through its matching theorem form and
    keep the best final circuit bound.

    The combined confidence applies a multiple-comparison adjustment over
    the m paths compared: delta_total = min(1, m * max_i delta_i).
    """
    bounds = list(bounds)
    if not bounds:
        raise ValidationError("no bounds to combine")
    for b in bounds:
        if not isinstance(b, CertifiedBound) or b.direction != "lower":
            raise ValidationError(
                "only lower-direction CertifiedBounds can enter a lower-bound report"
            )
    per_path: dict[str, float] = {}
    best: tuple[float, CertifiedBound, BoundBreakdown] | None = None
    for i, b in enumerate(bounds):
        bb = _path_breakdown(b, ref, epsilon, constants, method)
        key = f"{b.protocol}[{i}]" if b.protocol in per_path else b.protocol
        per_path[key] = bb.final
        if best is None or bb.final > best[0]:
            best = (bb.final, b, bb)
    assert best is not None
    m = len(bounds)
    max_delta = max(1.0 - b.confidence for b in bounds)
    delta_total = min(_COMBINED_DELTA_CAP, m * max_delta)
    return CombinedBound(
        value_structons=best[0],
        confidence=1.0 - delta_total,
        winner=best[1].protocol,
        breakdown=best[2],
        contributing=tuple(bounds),
        per_path=per_path,
    )
