"""Finite-sample certification: exact binomial intervals, the three
measurement protocols, sample-size planners and bound combination.

Every protocol turns raw outcome counts into a CertifiedBound: a one-sided
lower confidence bound on a divergence in bits, tagged with its confidence
level and full parameter provenance. Endpoints are Clopper-Pearson,
computed for one count at a time by bisecting the exact binomial tail
(through the regularized incomplete beta) to one cell of a fixed grid on
[0, 1], which is bit-reproducible and needs no Beta quantile function. A count's tail is
one function of p (`_binom_cdf`) that holds the count's two Beta shape
parameters as doubles, so each bisection step is one array betainc call.
scipy is imported at the first tail (`betainc`), so importing this module,
the planners and the dephase protocol load no scipy.

Coverage experiments need, of many records of one protocol, only how many
certify above a limit and how many cannot certify: each protocol's counter
(`ht_counts`, `witness_counts`, `dephase_counts`) returns those two from a
matrix of the counts `harness.coverage_experiment` draws, one record per
row, which meet MeasurementRecord's checks by construction and are not
checked again. The dephase counter evaluates dephase_protocol's certificate
on the whole matrix. Each binomial certifier is monotone in one count, so
its counter compares the column with one threshold count k*, the least
count whose certified value passes the certifier's comparison with the
limit. Every bisected endpoint is the midpoint of one of the _CELLS = 2^34
cells of _bisect's grid, so the endpoints that pass are those from one flip
cell on, found with the comparison alone. Whether a count's endpoint
reaches the flip cell is the test its bisection makes at the cell's lower
edge, one tail evaluation, which gives the bisection's answer as long as
the tail is monotone in p on the grid. A search over the counts 0..n then
finds k*. Both searches start at a guess of their answer (`_first`): the
cell where the counter's value function, inverted at the limit, puts the
flip, and the normal approximation of the binomial delta-quantile at the
flip cell's edge. A column then costs about 2 comparisons and 2 tail
evaluations, whatever the number of records, and a wrong guess costs more
evaluations, never another k*. Counts stay in the shot range [0, 2^53]
(records._check_shots), where the shape parameters are exact doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    DEFAULT_CONSTANTS,
    BoundBreakdown,
    BoundConstants,
    bound_from_divergence,
    smoothed_lower_bound,
)
from .entropy import binary_entropy
from .errors import ProtocolInvalidError, ValidationError, _check_finite, _check_level
from .records import (
    HT_LABELS,
    WITNESS_LABELS,
    MeasurementRecord,
    _check_shots,
    _check_witness_rank,
    _is_integer,
    _witness_projector_rank,
    _witness_value,
)
from .reference import ReferenceSet

# Clopper-Pearson endpoints are bisected on this grid: _bisect halves [0, 1]
# until its bracket is one of this many cells of equal width, 2^-34 < 1e-10.
_CELLS = 2**34
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
    """A one-sided lower bound, in bits, with confidence 1 - delta and
    provenance."""

    quantity: str  # "D_H" | "D_max" | "D"
    value: float
    confidence: float
    protocol: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in ("D_H", "D_max", "D"):
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        _check_level("confidence", self.confidence)


def _check_binomial_args(k, n, delta: float) -> None:
    """Integer counts 0 <= k <= n with n in the shot range (each an int or
    a numpy integer), and delta in (0, 1)."""
    if not (_is_integer(k) and _is_integer(n)):
        raise ValidationError(f"counts must be integers, got k={k!r}, N={n!r}")
    _check_shots(n)
    if n <= 0 or k < 0 or k > n:
        raise ValidationError(f"invalid counts k={k}, N={n}")
    _check_level("delta", delta)


def betainc(a, b, x):
    """scipy.special.betainc, imported at the first binomial tail: this
    function rebinds the module's name to the ufunc and forwards the call,
    so later tails call the ufunc directly and nothing else loads scipy."""
    global betainc
    from scipy.special import betainc

    return betainc(a, b, x)


def _ndtri(p):
    """scipy.special.ndtri, imported at the first call, which rebinds this
    name to the ufunc as betainc's does."""
    global _ndtri
    from scipy.special import ndtri as _ndtri

    return _ndtri(p)


def _binom_cdf(k: int, n: int):
    """P(X <= k) for X ~ Binomial(n, p) as a function of p, for
    -1 <= k <= n and 0 <= p <= 1 (the points a bisection visits), via the
    incomplete beta I_{1-p}(n - k, k + 1).

    The shape parameters are converted to doubles once, into one-element
    arrays; each evaluation writes 1 - p into a third and makes one array
    betainc call, the ufunc loop a scalar call runs, so every tail is the
    same double."""
    a, b, x = np.empty(1), np.empty(1), np.empty(1)
    a[0], b[0] = n - k, k + 1

    def tail(p: float) -> float:
        x[0] = 1.0 - p
        return betainc(a, b, x).item()

    return tail


def _above(upper: bool, k: int, n: int, delta: float):
    """The test _bisect makes for count k's upper endpoint (k < n) or lower
    endpoint (k > 0): whether the endpoint lies above a point g, read off the
    binomial tail at g."""
    cdf = _binom_cdf(k if upper else k - 1, n)
    if upper:
        return lambda g: cdf(g) - delta > 0
    return lambda g: not (1.0 - cdf(g)) - delta > 0


def _bisect(above) -> float:
    """The sign change of a monotone tail on [0, 1] by plain bisection: the
    midpoint of the cell of width 1 / _CELLS it ends in, after 34 halvings.
    Each step keeps the bracket's upper half where above holds at its
    middle."""
    lo, width, cell = 0.0, 1.0, 1.0 / _CELLS
    while width > cell:
        width *= 0.5
        lo = lo + width * above(lo + width)
    return lo + 0.5 * width


def clopper_pearson_upper(k: int, n: int, delta: float) -> float:
    """One-sided exact upper endpoint: largest p with P(X <= k; p) >= delta."""
    _check_binomial_args(k, n, delta)
    return 1.0 if k == n else _bisect(_above(True, k, n, delta))


def clopper_pearson_lower(k: int, n: int, delta: float) -> float:
    """One-sided exact lower endpoint: smallest p with P(X >= k; p) >= delta."""
    _check_binomial_args(k, n, delta)
    return 0.0 if k == 0 else _bisect(_above(False, k, n, delta))


def _ht_value(beta_upper: float) -> float:
    """The certified D_H: -log2 of the type-II upper endpoint, floored at 0."""
    return max(0.0, -math.log2(beta_upper) if beta_upper > 0 else math.inf)


def _record_counts(record: MeasurementRecord, protocol: str, labels) -> list[int]:
    """The record's counts of labels, in their order, once the record is
    checked to be the protocol's and to count every label."""
    if record.protocol != protocol:
        raise ValidationError(f"record protocol {record.protocol!r} is not {protocol}")
    missing = [lab for lab in labels if lab not in record.counts]
    if missing:
        raise ValidationError(f"{protocol} record is missing counts {missing}")
    return [record.counts[lab] for lab in labels]


def ht_protocol(record: MeasurementRecord, eta: float, delta: float) -> CertifiedBound:
    """Hypothesis-testing certification at total confidence 1 - delta.

    The record holds decision counts from a null-calibration run (state was
    the structured vacuum) and an alternative run (state was rho); see
    HT_LABELS. The type-I endpoint alpha_U(_HT_DELTA_SPLIT * delta) must
    stay within eta, otherwise the run cannot certify at level eta; the
    returned value is -log2 of the type-II upper endpoint at the remaining
    budget.
    """
    null_h1, null_h0, alt_h1, alt_h0 = _record_counts(record, "hypothesis_test", HT_LABELS)
    _check_level("eta", eta)
    _check_level("delta", delta)
    n_null, n_alt = null_h1 + null_h0, alt_h1 + alt_h0
    if n_null == 0 or n_alt == 0:
        raise ValidationError("both the null and alternative runs need samples")
    alpha_upper = clopper_pearson_upper(null_h1, n_null, delta * _HT_DELTA_SPLIT)
    if alpha_upper > eta:
        raise ProtocolInvalidError(
            f"type-I upper endpoint {alpha_upper:.6f} exceeds eta = {eta}; the "
            "bound would not certify at this level (recalibrate the test or "
            "increase the null sample size)"
        )
    beta_upper = clopper_pearson_upper(alt_h0, n_alt, delta * (1.0 - _HT_DELTA_SPLIT))
    return CertifiedBound(
        quantity="D_H",
        value=_ht_value(beta_upper),
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
            "type_ii_count": alt_h0,
        },
    )


def _planned(size: float) -> int:
    """A planner's sample size, size rounded up after _PLAN_SLACK, within
    the shot range of one count (records._check_shots)."""
    n = math.ceil(size - _PLAN_SLACK)
    _check_shots(n)
    return n


def _pow2(bits: float) -> float:
    """2^bits for a finite exponent, inf where that overflows a float."""
    return 2.0**bits if bits < 1024 else math.inf


def ht_sample_plan(target_bits: float, delta: float) -> int:
    """Zero-failure sample size certifying D_H >= target: ceil(2^L ln(1/delta))."""
    _check_finite(target=target_bits)
    if target_bits < 0:
        raise ValidationError(f"target must be nonnegative, got {target_bits}")
    _check_level("delta", delta)
    size = _pow2(target_bits) * -math.log(delta)
    if not size < math.inf:
        raise ValidationError(
            f"the sample size 2^L ln(1/delta) for target L = {target_bits} bits overflows a float")
    return _planned(size)


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
    successes, _ = _record_counts(record, "witness", WITNESS_LABELS)
    _check_witness_rank(rank, ref.d_r)
    if projector is not None:
        supplied = _witness_projector_rank(projector, ref)
        if supplied != rank:
            raise ValidationError(f"witness projector rank {supplied} is not its rank {rank}")
    p_lower = clopper_pearson_lower(successes, record.n, delta)
    return CertifiedBound(
        quantity="D_max",
        value=_witness_value(p_lower, ref.d_r, rank),
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
    _check_level("delta", delta)
    _check_finite(target=target_bits)
    if not 0.0 < p0 <= 1.0:
        raise ValidationError(f"anticipated occupation p0 = {p0} must be in (0,1]")
    try:
        p_star = _pow2(target_bits) * rank / d_r
    except OverflowError as exc:
        raise ValidationError(f"rank {rank} and d_R = {d_r} must fit a float") from exc
    if p0 <= p_star:
        raise ValidationError(
            f"anticipated occupation p0 = {p0} does not exceed the certification "
            f"threshold p* = {p_star}; the target is unreachable"
        )
    gap = 2.0 * (p0 - p_star) ** 2
    size = -math.log(delta) / gap if gap > 0 else math.inf
    if not size < math.inf:
        raise ValidationError(
            f"the sample size ln(1/delta) / (2 (p0 - p*)^2) for p0 = {p0} and p* = {p_star} "
            "overflows a float")
    return _planned(size)


def _dephase_value(counts: np.ndarray, n: int, m: int, delta: float):
    """(D, H_U, H(P_hat), eps_N, v) of a count matrix with one record of n
    shots over the m = d_R basis outcomes per row; the first three have one
    entry per row.

    H(P_hat) is one array pass, 0 log 0 := 0, and
    H_U = min(log2 M, H(P_hat) + v log2(M-1) + h2(v)), v = eps_N/2 with
    eps_N = sqrt((2/N)(M ln 2 + ln(1/delta))), and D = log2 d_R - H_U
    floored at 0. The continuity term is evaluated on its validity range
    v <= 1 - 1/M; beyond it the always-valid log2 M cap takes over. For
    M = 1 the entropy is 0 and so is H_U.
    """
    p = counts / n
    # 0.0 - x, not -x, so that an entropy of 0 is +0.0
    h_hat = 0.0 - (p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)
    eps_n = math.sqrt((2.0 / n) * (m * math.log(2.0) + math.log(1.0 / delta)))
    v = eps_n / 2.0
    continuity = 0.0
    if m > 1:
        v_eff = min(v, 1.0 - 1.0 / m)
        continuity = v_eff * math.log2(m - 1) + binary_entropy(v_eff)
    h_upper = np.minimum(math.log2(m), h_hat + continuity)
    return np.maximum(0.0, math.log2(m) - h_upper), h_upper, h_hat, eps_n, v


def dephase_protocol(
    record: MeasurementRecord, ref: ReferenceSet, delta: float
) -> CertifiedBound:
    """Classical-basis certification through an entropy confidence endpoint.

    From counts over the d_R reference basis outcomes, bounds the true
    Shannon entropy by H_U and returns D >= log2 d_R - H_U floored at 0
    (see _dephase_value).
    """
    # a dephase record's labels are its own, in its order
    outcomes = _record_counts(record, "dephase", record.counts)
    _check_level("delta", delta)
    m = ref.d_r
    if len(outcomes) > m:
        raise ValidationError(f"{len(outcomes)} outcome labels exceed the d_R = {m} "
                              "basis states")
    n = record.n
    counts = np.zeros((1, m))
    counts[0, : len(outcomes)] = outcomes
    value, h_upper, h_hat, eps_n, v = _dephase_value(counts, n, m, delta)
    return CertifiedBound(
        quantity="D",
        value=float(value[0]),
        confidence=1.0 - delta,
        protocol="dephase",
        params={
            "delta": delta,
            "n": n,
            "m_outcomes": m,
            "empirical_entropy_bits": float(h_hat[0]),
            "eps_n": eps_n,
            "v": v,
            "entropy_upper_bits": float(h_upper[0]),
        },
    )


def _first(pred, lo: int, hi: int, guess: float) -> int:
    """The least i in [lo, hi) with pred(i), hi if there is none, for
    lo < hi and a pred false and then true along the range.

    The search starts at the guess clamped into the range (lo for NaN),
    steps away from it by doubling steps until the answer is bracketed and
    then halves the bracket, on Python ints: an answer D away from the guess
    costs about 2 log2(D + 1) + 1 evaluations, and no answer more than
    2 ceil(log2(hi - lo + 1)). The guess changes the cost, never the answer.
    """
    f, t = lo - 1, hi  # pred is false at f and true at t; neither end is evaluated
    # max and min return their int over a NaN guess
    i, step = int(max(lo, min(guess, hi - 1))), 1
    if pred(i):
        t = i
        while t - step > f and pred(t - step):
            t, step = t - step, 2 * step
        f = max(f, t - step)
    else:
        f = i
        while f + step < t and not pred(f + step):
            f, step = f + step, 2 * step
        t = min(t, f + step)
    while t - f > 1:
        mid = (f + t + 1) // 2
        f, t = (f, mid) if pred(mid) else (mid, t)
    return t


def _threshold(upper: bool, n: int, delta: float, passes, flip: float) -> int:
    """The least count k in [0, n] whose upper (or lower) endpoint at delta
    passes, n + 1 if none does, for a predicate false and then true along
    [0, 1] that turns near p = flip.

    The least cell whose midpoint passes, the flip cell, is found with
    passes alone, starting at flip's cell; a bisected endpoint passes if and
    only if its bisection keeps the upper half at the flip cell's lower edge
    p, which holds if the tail is monotone in p on the grid of cell edges.
    That search over the counts starts at the normal approximation of the
    binomial quantile at p, n p -+ z sqrt(n p (1 - p)) with z the standard
    normal delta-quantile. The edge count's endpoint (1.0 upper, 0.0 lower)
    is not bisected, as in the certifiers: the search runs over the other n
    counts, and the edge count is compared only where it ends next to it. Neither start changes the threshold, only
    the number of comparisons and tail evaluations.
    """
    cell = _first(lambda j: passes((j + 0.5) / _CELLS), 0, _CELLS, flip * _CELLS)
    p = cell / _CELLS
    x = 1.0 - p

    # _above(upper, k, n, delta) at the edge: the tail _binom_cdf(k, n), or
    # _binom_cdf(k - 1, n) for the lower side, as one scalar betainc call,
    # the same ufunc loop and so the same double
    def reaches(k: int) -> bool:
        if upper:
            return betainc(float(n - k), float(k + 1), x) - delta > 0
        return not (1.0 - betainc(float(n - k + 1), float(k), x)) - delta > 0

    # the upper side's k* is near the delta-quantile of Binomial(n, p), the
    # lower side's one past its (1 - delta)-quantile
    spread = float(_ndtri(delta)) * math.sqrt(n * p * x)
    first = 0 if upper else 1
    k = _first(reaches, first, first + n, n * p + spread if upper else n * p - spread + 1)
    if upper:
        return k if k < n or passes(1.0) else n + 1
    return 0 if k == 1 and passes(0.0) else k


def ht_counts(counts: np.ndarray, n: int, limit: float, eta: float,
              delta: float) -> tuple[int, int]:
    """(above, invalid) of hypothesis-test rows in HT_LABELS order, trusted
    as drawn: how many ht_protocol would certify above limit, and how many
    it would reject with ProtocolInvalidError. A test is invalid from a
    threshold null_accept_h1 count on, and its value is above the limit
    below a threshold alt_accept_h0 count."""
    invalid = counts[:, HT_LABELS.index("null_accept_h1")] >= _threshold(
        True, n, delta * _HT_DELTA_SPLIT, lambda p: p > eta, eta)
    k_alt = _threshold(True, n, delta * (1.0 - _HT_DELTA_SPLIT),
                       lambda b: not _ht_value(b) > limit, _pow2(-limit))
    above = ~invalid & (counts[:, HT_LABELS.index("alt_accept_h0")] < k_alt)
    return int(np.count_nonzero(above)), int(np.count_nonzero(invalid))


def witness_counts(counts: np.ndarray, n: int, ref: ReferenceSet, limit: float, delta: float,
                   rank: int) -> tuple[int, int]:
    """(above, 0) of witness rows in WITNESS_LABELS order, trusted as drawn
    (the rank is checked): how many witness_protocol would certify above
    limit. The value rises with success, so the rows from a threshold
    success count on certify above it."""
    _check_witness_rank(rank, ref.d_r)
    k = _threshold(False, n, delta, lambda p: _witness_value(p, ref.d_r, rank) > limit,
                   _pow2(limit) * rank / ref.d_r)
    return int(np.count_nonzero(counts[:, WITNESS_LABELS.index("success")] >= k)), 0


def dephase_counts(counts: np.ndarray, n: int, ref: ReferenceSet, limit: float,
                   delta: float) -> tuple[int, int]:
    """(above, 0) of dephase rows over the d_R reference basis states,
    trusted as drawn: how many dephase_protocol would certify above limit."""
    return int(np.count_nonzero(_dephase_value(counts, n, ref.d_r, delta)[0] > limit)), 0


def bonferroni(delta: float, m: int) -> float:
    """Split a confidence budget across m comparisons: delta / m."""
    if m < 1:
        raise ValidationError("number of comparisons must be >= 1")
    _check_level("delta", delta)
    return delta / m


@dataclass(frozen=True)
class CombinedBound:
    """Best certified circuit bound across measurement paths."""

    value_structons: float
    confidence: float
    winner: str
    breakdown: BoundBreakdown
    per_path: dict[str, float] = field(default_factory=dict)


def _path_breakdown(
    bound: CertifiedBound, ref: ReferenceSet, epsilon: float, constants: BoundConstants
) -> BoundBreakdown:
    if bound.quantity == "D_H":
        eta = bound.params.get("eta")
        if eta is None:
            raise ValidationError("a D_H bound must carry its eta in params")
        return smoothed_lower_bound(bound.value, ref, epsilon, eta, constants=constants)
    # D + skew equals D_max identically, so a max-divergence bound may be
    # used as the leading term directly; a plain divergence bound gets the
    # conservative zero skew.
    return bound_from_divergence(bound.value, ref, epsilon, constants=constants)


def combine_bounds(
    bounds,
    ref: ReferenceSet,
    epsilon: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
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
        if not isinstance(b, CertifiedBound):
            raise ValidationError("only CertifiedBounds can enter a lower-bound report")
    per_path: dict[str, float] = {}
    best: tuple[float, CertifiedBound, BoundBreakdown] | None = None
    for i, b in enumerate(bounds):
        bb = _path_breakdown(b, ref, epsilon, constants)
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
        per_path=per_path,
    )
