"""Independent oracles used to freeze expected values.

Each oracle deliberately takes a different computational route from the
library code it checks: determinant bisection instead of LAPACK
eigensolvers, grid-scanned threshold tests instead of waterfilling, plain
bisection instead of Lambert-W, direct binomial pmf sums instead of
incomplete-beta tail inversion, Born probabilities of explicit POVM effects
as traces of matrix products instead of a spectrum or one contraction,
one multinomial call per distribution and trial instead of one call of all
trials, one record certification per row instead of a binary search for
a threshold count, and a record's exact law, binomial pmfs summed over every
count it can hold, instead of Monte Carlo coverage. One oracle is the library's own earlier route, kept to
pin a kernel change bit for bit: the Clopper-Pearson bisection with one
scalar betainc call on integer shape parameters per step.
"""

from __future__ import annotations

import math

import numpy as np


def eigenvalues_by_det_bisection(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix from sign changes of det(H - xI).

    Assumes distinct eigenvalues (true almost surely for random input).
    Returns them in descending order.
    """
    m = np.asarray(matrix, dtype=complex)
    dim = m.shape[0]
    radius = float(np.abs(m).sum(axis=1).max()) + 1.0
    grid = np.linspace(-radius, radius, 4001)

    def det_at(x: float) -> float:
        return float(np.linalg.det(m - x * np.eye(dim)).real)

    values = np.array([det_at(x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            roots.append(grid[i])
            continue
        if values[i] * values[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            flo = values[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = det_at(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    assert len(roots) == dim, f"oracle found {len(roots)} roots for dim {dim}"
    return np.sort(np.array(roots))[::-1]


def hypothesis_testing_grid_oracle(
    eigenvalues: np.ndarray, d_r: int, eta: float, points: int = 501
) -> float:
    """-log2 of the best type-II error over a grid of threshold tests.

    Scans `points` thresholds; at each, atoms strictly above threshold are
    accepted outright and the remaining type-I budget is spent fractionally
    on the largest excluded atoms. Returns +inf when the error reaches 0.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1][:d_r]
    lam = np.clip(lam, 0.0, None)
    ratios = lam * d_r
    positive = ratios[ratios > 0]
    lo = math.log2(positive.min()) - 1.0 if positive.size else -1.0
    hi = math.log2(ratios.max()) + 1.0 if positive.size else 1.0
    best_beta = 1.0
    for gamma in np.linspace(lo, hi, points):
        threshold = 2.0**gamma
        full = ratios > threshold
        n_full = int(full.sum())
        if n_full / d_r > eta:
            continue
        accepted = float(lam[full].sum())
        budget = eta * d_r - n_full
        for lam_i in lam[~full]:
            if budget <= 0:
                break
            weight = min(1.0, budget)
            accepted += weight * float(lam_i)
            budget -= weight
        best_beta = min(best_beta, 1.0 - accepted)
    if best_beta <= 1e-15:
        return math.inf
    return -math.log2(best_beta)


def bootstrap_root_by_bisection(d: float, c: float, tol: float = 1e-13) -> float:
    """Unique positive root of x + c*log2(x) = D by bisection."""
    if d <= 0:
        return 0.0

    def f(x: float) -> float:
        return x + c * math.log2(x) - d

    lo = 1e-300
    hi = max(d, 2.0)
    while f(hi) < 0:
        hi *= 2
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, mid):
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binomial_cdf_direct(k: int, n: int, p: float) -> float:
    """P(X <= k) by direct pmf summation in log space."""
    if k >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    total = 0.0
    for i in range(k + 1):
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p)
        )
        total += math.exp(log_pmf)
    return min(1.0, total)


def clopper_pearson_upper_oracle(k: int, n: int, delta: float) -> float:
    if k == n:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if binomial_cdf_direct(k, n, mid) >= delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson_lower_oracle(k: int, n: int, delta: float) -> float:
    if k == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 1.0 - binomial_cdf_direct(k - 1, n, mid) >= delta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def clopper_pearson_by_int_tail(upper: bool, k: int, n: int, delta: float) -> float:
    """The upper (or lower) Clopper-Pearson endpoint by 34 halvings of [0, 1]
    to a cell of width 2^-34 and its midpoint, each step one scalar
    float(betainc(n - j, j + 1, 1 - p)) with integer shape parameters, where
    j = k for the upper endpoint and k - 1 for the lower."""
    from scipy.special import betainc

    if (k == n) if upper else (k == 0):
        return 1.0 if upper else 0.0
    j = k if upper else k - 1

    def above(p):
        tail = float(betainc(n - j, j + 1, 1.0 - p))
        return tail - delta > 0 if upper else not (1.0 - tail) - delta > 0

    lo, width = 0.0, 1.0
    for _ in range(34):
        width *= 0.5
        if above(lo + width):
            lo += width
    return lo + 0.5 * width


def threshold_by_bisection(upper: bool, n: int, delta: float, passes) -> int:
    """stats._threshold by bisect_left: the flip cell by a binary search over
    all 2^34 cells, then the threshold count by one over the n counts other
    than the edge count, each count's test one scalar betainc call at the
    flip cell's lower edge."""
    from bisect import bisect_left

    from scipy.special import betainc

    from rcc.stats import _CELLS

    cell = bisect_left(range(_CELLS), True, key=lambda j: passes((j + 0.5) / _CELLS))
    x = 1.0 - cell / _CELLS

    def reaches(k: int) -> bool:
        if upper:
            return betainc(float(n - k), float(k + 1), x) - delta > 0
        return not (1.0 - betainc(float(n - k + 1), float(k), x)) - delta > 0

    first = 0 if upper else 1
    k = first + bisect_left(range(first, first + n), True, key=reaches)
    if upper:
        return k if k < n or passes(1.0) else n + 1
    return 0 if k == 1 and passes(0.0) else k


def shannon_bits_oracle(p) -> float:
    return float(sum(-x * math.log2(x) for x in p if x > 0))


def explicit_povm_counts(rho, effects, n: int, rng, labels=None) -> dict[str, int]:
    """n shots of the POVM {E_i} on rho, keyed by str(label): one multinomial
    draw on rng from Tr(E_i rho), each the trace of a matrix product, clipped
    at 0 and normalised."""
    p = np.clip([np.trace(e @ rho.matrix).real for e in effects], 0.0, None)
    counts = rng.multinomial(n, p / p.sum()).tolist()
    return dict(zip(map(str, labels if labels is not None else range(len(effects))), counts))


def coverage_one_trial_at_a_time(config, trials: int) -> dict:
    """coverage_experiment's summary, one trial at a time.

    Distribution j of a protocol's outcome setup is drawn on the stream
    (seed, the protocol's position in PROTOCOLS, j), one multinomial call per
    trial. Trial t's counts, without the leak outcome, are certified as a
    record by certify_record, and a ProtocolInvalidError counts as an
    invalid run.
    """
    from rcc import ProtocolInvalidError, protocol_ground_truth, stream
    from rcc.harness import _VIOLATION_SLACK, _outcome_setup
    from rcc.records import PROTOCOLS

    rho, ref, n = config.state, config.reference, config.n_samples
    results = {}
    for proto in (p for p in config.protocols if p != "exact"):
        labels, dists, meta, _ = _outcome_setup(config, proto)
        truth = protocol_ground_truth(rho, ref, proto, eta=config.eta,
                                      witness_rank=config.witness_rank)
        rngs = [stream(config.seed, PROTOCOLS.index(proto), j) for j in range(len(dists))]
        violations = invalid = 0
        for _ in range(trials):
            counts = [c for rng, p in zip(rngs, dists) for c in rng.multinomial(n, p).tolist()]
            row = [c for label, c in zip(labels, counts) if label is not None]
            try:
                bound = certify_record(proto, row, n, ref, config.eta, config.delta,
                                       meta.get("rank", config.witness_rank))
            except ProtocolInvalidError:
                invalid += 1
                continue
            violations += bound.value > truth + _VIOLATION_SLACK
        results[proto] = {
            "trials": trials,
            "violations": violations,
            "invalid_runs": invalid,
            "violation_fraction": violations / trials,
            "true_value_bits": truth,
        }
    return {
        "schema": "rcc-coverage/1",
        "seed": config.seed,
        "delta": config.delta,
        "eta": config.eta,
        "n_samples": config.n_samples,
        "trials": trials,
        "protocols": results,
    }


def certify_record(protocol: str, row: list, n: int, ref, eta: float, delta: float, rank: int):
    """The CertifiedBound of the record whose outcome counts, in label order,
    are row, n shots per distribution (a row of a coverage counter's matrix)."""
    from rcc import MeasurementRecord, dephase_protocol, ht_protocol, witness_protocol
    from rcc.records import HT_LABELS, WITNESS_LABELS

    if protocol == "hypothesis_test":
        return ht_protocol(MeasurementRecord(protocol, 2 * n, dict(zip(HT_LABELS, row))),
                           eta, delta)
    if protocol == "witness":
        return witness_protocol(MeasurementRecord(protocol, n, dict(zip(WITNESS_LABELS, row))),
                                ref, rank, delta)
    record = MeasurementRecord(protocol, n, {str(i): c for i, c in enumerate(row)})
    return dephase_protocol(record, ref, delta)


def count_above_one_record_at_a_time(protocol: str, counts, n: int, ref, limit: float,
                                     eta: float, delta: float, rank: int) -> tuple[int, int]:
    """A coverage counter's (above, invalid), one record certification per row,
    with ProtocolInvalidError counted as invalid."""
    from rcc import ProtocolInvalidError

    above = invalid = 0
    for row in counts.tolist():
        try:
            above += certify_record(protocol, row, n, ref, eta, delta, rank).value > limit
        except ProtocolInvalidError:
            invalid += 1
    return above, invalid


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(X = k) for k = 0..n and X ~ Bin(n, p), each term in log space."""
    if not 0.0 < p < 1.0:
        pmf = np.zeros(n + 1)
        pmf[n if p >= 1.0 else 0] = 1.0
        return pmf
    return np.array([math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                              + k * math.log(p) + (n - k) * math.log1p(-p))
                     for k in range(n + 1)])


def exact_law(config, protocol: str) -> tuple[float, float]:
    """(P(violation), P(invalid)) of one record of the witness or the
    hypothesis test, simulated under config: binomial pmfs of the
    distributions that harness._outcome_setup draws from, summed over the
    counts whose record the real certifier (certify_record) certifies above
    the setup's target + _VIOLATION_SLACK, or rejects with
    ProtocolInvalidError. The witness is one binomial. The test is the null
    binomial times the alternative one: validity reads only the null count
    and the value only the alternative count, so 2(n + 1) certifications
    classify all (n + 1)^2 records. No record is drawn."""
    from rcc import ProtocolInvalidError
    from rcc.harness import _VIOLATION_SLACK, _outcome_setup

    _, dists, meta, target = _outcome_setup(config, protocol)
    n, limit = config.n_samples, target() + _VIOLATION_SLACK
    rank = meta.get("rank", config.witness_rank)

    def value(row):
        """The certified value of the record row, None when it is invalid."""
        try:
            return certify_record(protocol, row, n, config.reference, config.eta,
                                  config.delta, rank).value
        except ProtocolInvalidError:
            return None

    if protocol == "witness":
        above = [value([k, n - k]) > limit for k in range(n + 1)]
        return float(binomial_pmf(n, dists[0][0]) @ above), 0.0
    if protocol != "hypothesis_test":
        raise ValueError(f"no exact law for {protocol!r}")
    null, alt = binomial_pmf(n, dists[0][0]), binomial_pmf(n, dists[1][0])
    valid = np.array([value([k, n - k, 0, n]) is not None for k in range(n + 1)])
    p_invalid = float(null[~valid].sum())
    if not valid.any():
        return 0.0, p_invalid
    k0 = int(valid.argmax())
    above = [value([k0, n - k0, k, n - k]) > limit for k in range(n + 1)]
    return float(null[valid].sum() * (alt @ above)), p_invalid
