"""Measurement simulation and the end-to-end certified pipeline.

Each statistical protocol is one entry of `_PROTOCOL_TABLE`: its outcome
setup, its record certifier and its coverage counter. It fixes its outcome
distributions once per run and then draws records from them; the projectors
of a run share one eigensolve. Randomness comes from Philox, a named 64-bit
counter-based generator; independent streams are derived from the master
seed with spawn keys (the protocol's position in `records.PROTOCOLS`, then the
trial index), so coverage experiments are order-independent and
bit-reproducible across platforms. A Philox stream is its 128-bit key and a
zero counter, so coverage hashes every trial's key in one pass and re-keys
one generator per protocol, with the bits `stream` gives each trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .bounds import (
    DEFAULT_CONSTANTS,
    BoundBreakdown,
    BoundConstants,
    bound_from_divergence,
    rcc,
)
from .entropy import (
    hypothesis_testing_divergence,
    min_entropy,
    reference_overlap,
    relative_to_reference,
    shannon,
    spectral_skew,
    von_neumann,
)
from .errors import RccError, ValidationError
from .operators import EFFECT_TOL, DensityOperator, _effect_rank, eig_hermitian
from .reference import ReferenceSet
from .records import (
    HT_LABELS, PROTOCOLS, WITNESS_LABELS, MeasurementRecord, _check_witness_rank, _is_integer,
)
from .windows import WindowFamily, windowed_entropy_bits, windowed_rcc

if TYPE_CHECKING:
    from .stats import CertifiedBound

REPORT_SCHEMA = "rcc-report/2"
COVERAGE_SCHEMA = "rcc-coverage/1"

# label of the dephase outcome I - Pi_R; a shot on it is a sampling error
_LEAK = None

# units a report can display its exact complexity in
_UNITS = ("bits", "nats", "structons")

# a coverage trial violates when its bound exceeds the truth by more than this
_VIOLATION_SLACK = 1e-12
# the witness target's occupation is floored here so that its log2 is finite
_OCCUPATION_FLOOR = 1e-300
# a coverage trial's index is one 32-bit word of its stream's spawn key
_MAX_TRIALS = 2**32

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# 32-bit words and its mixing constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _check_seed(seed) -> None:
    """A master seed: a nonnegative Python or numpy integer."""
    if not _is_integer(seed) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for (master seed, spawn key); same key, same bits."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _words(n: int) -> list[int]:
    """n as 32-bit words, least significant first, at least one word:
    SeedSequence's reading of an integer."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int) -> Callable:
    """SeedSequence's hashmix with its running constant. Every value is a
    Python int or a uint32 array; Python products are masked to 32 bits and
    array products wrap, so no numpy scalar ever overflows. hashmix(rows,
    lanes) makes `lanes` successive calls at once: row i of the array rows
    is hashed with the constants of the i-th call."""
    def hashmix(value, lanes: int = 1):
        nonlocal const
        consts = [const]
        for _ in range(lanes):
            consts.append(consts[-1] * mult & _MASK32)
        const = consts[-1]
        xor, mul = consts[0], consts[1]
        if lanes > 1:
            xor, mul = (np.array(c, dtype=np.uint32)[:, None] for c in (consts[:-1], consts[1:]))
        value = (value ^ xor) * mul & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or uint32 arrays)."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _trial_keys(seed: int, key: int, trials: int) -> np.ndarray:
    """The Philox keys of stream(seed, key, t) for t < trials, (trials, 2) uint64.

    Philox(SeedSequence(seed, spawn_key=(key, t))) is keyed with the
    sequence's generate_state(2, uint64). Its entropy is the seed's words,
    zero-padded to the pool size, then the key's words, then t. Only that
    last word differs between trials, so everything before it is hashed
    once, over Python ints. The last word is then mixed into all pool words,
    and the state generated from them, in one pass each over a
    (pool size, trials) uint32 array.
    """
    words = _words(int(seed))
    entropy = words + [0] * (_POOL_SIZE - len(words)) + _words(key)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    trial = np.arange(trials, dtype=np.uint32)
    rows = _mix(np.array(pool, dtype=np.uint32)[:, None], hashmix(trial, _POOL_SIZE))
    state = _hasher(_INIT_B, _MULT_B)(rows, _POOL_SIZE).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _trial_streams(seed: int, key: int, trials: int):
    """Generators with the bits of stream(seed, key, t), t = 0 .. trials-1.

    One Philox is re-keyed before each trial: its key is the trial's, its
    counter zero and its buffer empty, which is the state a fresh
    stream(seed, key, t) starts in. Every item is the same Generator, so
    each must be drawn from before the next is asked for, as _draw does.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    fresh = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": fresh, "buffer": np.zeros(4, dtype=np.uint64),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for trial_key in _trial_keys(seed, key, trials):
        fresh["key"] = trial_key
        bit_generator.state = state
        yield rng


def _draw(labels: list, dists: list[np.ndarray], n: int, rngs) -> np.ndarray:
    """One row of counts per generator: a multinomial draw of n shots from
    each distribution in order, with the leak outcome's column dropped. A
    shot on the leak is a sampling error. The rows are integer, nonnegative
    and sum to n per distribution, which the coverage counters rely on
    without checking them again. Each row is drawn in full before the next
    generator is taken, so the rows may come from one re-keyed generator
    (_trial_streams)."""
    if not _is_integer(n) or n <= 0:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    counts = np.array([np.concatenate([rng.multinomial(n, p) for p in dists]) for rng in rngs])
    if _LEAK in labels:
        leak = labels.index(_LEAK)
        if counts[:, leak].any():
            raise ValidationError("state leaked outside the subspace during sampling")
        counts = np.delete(counts, leak, axis=1)
    return counts


def _sample(protocol: str, outcomes: tuple, n: int, rng: np.random.Generator) -> MeasurementRecord:
    """A record of one multinomial draw of n shots per distribution, in order, on rng."""
    labels, dists, meta = outcomes
    counts = _draw(labels, dists, n, [rng])[0]
    tally = dict(zip((label for label in labels if label is not _LEAK), counts.tolist()))
    return MeasurementRecord(protocol, n * len(dists), tally, meta=dict(meta))


def _check_povm(mats: list[np.ndarray], dim: int) -> None:
    """Reject effects that are not PSD or do not sum to the identity within EFFECT_TOL."""
    total = sum(mats)
    if np.abs(total - np.eye(dim)).max() > EFFECT_TOL:
        raise ValidationError("effects do not sum to the identity; not a POVM")
    for i, e in enumerate(mats):
        wmin = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min())
        if wmin < -EFFECT_TOL:
            raise ValidationError(f"effect {i} has negative eigenvalue {wmin:.3e}; not a POVM")


def _born_probabilities(matrix: np.ndarray, mats) -> np.ndarray:
    """Outcome distribution Tr(E_i M), clipped at 0 and normalised. Each
    trace is one O(d^2) contraction, vdot(M^dag, E_i) = sum_jk M_kj E_jk,
    not a matrix product."""
    adjoint = np.ascontiguousarray(matrix.conj().T)
    probs = np.array([np.vdot(adjoint, e).real for e in mats])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def born_sample(
    rho: DensityOperator,
    effects,
    n: int,
    seed: int,
    protocol: str = "dephase",
    labels=None,
    meta: dict | None = None,
    rng: np.random.Generator | None = None,
) -> MeasurementRecord:
    """Sample n outcomes of a POVM on rho; deterministic given the seed.

    Effects must each be PSD and sum to the identity within EFFECT_TOL.
    """
    mats = [np.asarray(e, dtype=complex) for e in effects]
    _check_povm(mats, rho.dim)
    if labels is None:
        labels = range(len(mats))
    outcomes = ([str(lab) for lab in labels], [_born_probabilities(rho.matrix, mats)], meta or {})
    return _sample(protocol, outcomes, n, rng if rng is not None else stream(seed))


def _compression(rho: DensityOperator, ref: ReferenceSet) -> Callable:
    """(V, eigendecomposition of V^dag rho V): rho compressed to H_R in the
    reference support basis V, solved on the first call only, so the test
    and the witness projector of one run share it, and a run needing neither
    pays for none."""
    @functools.cache
    def solve():
        basis = ref.support_basis()
        small = basis.conj().T @ rho.matrix @ basis
        return basis, eig_hermitian(0.5 * (small + small.conj().T))
    return solve


def _test_projector(compression: Callable, ref: ReferenceSet, eta: float) -> np.ndarray:
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta {eta} must be in (0,1)")
    basis, dec = compression()
    budget = eta * ref.d_r
    k = int(math.floor(budget))
    weights = np.zeros(ref.d_r)
    weights[:k] = 1.0
    if k < ref.d_r:
        weights[k] = budget - k
    t_small = (dec.eigenvectors * weights) @ dec.eigenvectors.conj().T
    return basis @ t_small @ basis.conj().T


def optimal_test_projector(
    rho: DensityOperator, ref: ReferenceSet, eta: float
) -> np.ndarray:
    """Waterfilling test operator at type-I level eta, supported in H_R.

    Built in the reference support basis so Tr(T sigma_R) equals eta exactly
    up to roundoff.
    """
    return _test_projector(_compression(rho, ref), ref, eta)


def _witness_projector(compression: Callable, ref: ReferenceSet, rank: int) -> np.ndarray:
    _check_witness_rank(rank, ref.d_r)
    basis, dec = compression()
    v = dec.eigenvectors[:, :rank]
    return basis @ v @ v.conj().T @ basis.conj().T


def default_witness_projector(
    rho: DensityOperator, ref: ReferenceSet, rank: int
) -> np.ndarray:
    """Rank-r projector onto the dominant eigenvectors of rho inside H_R."""
    return _witness_projector(_compression(rho, ref), ref, rank)


def _ht_setup(rho, ref, compression, eta, test_calibration, *_):
    # null calibration on the structured vacuum, then the alternative on rho
    eta_test = eta * test_calibration
    t = _test_projector(compression, ref, eta_test)
    effects = [t, np.eye(ref.dim, dtype=complex) - t]
    dists = [_born_probabilities(m, effects) for m in (ref.sigma_matrix(), rho.matrix)]
    return list(HT_LABELS), dists, {"eta": eta, "eta_test": eta_test}, (
        lambda: hypothesis_testing_divergence(rho, ref, eta).bits)


def _witness_setup(rho, ref, compression, eta, test_calibration, witness_rank, witness_projector):
    if witness_projector is None:
        proj, rank = _witness_projector(compression, ref, witness_rank), witness_rank
    else:
        proj = np.asarray(witness_projector, dtype=complex)
        if proj.shape != (ref.dim, ref.dim):
            raise ValidationError(f"witness projector must be {ref.dim}x{ref.dim}")
        _check_povm([proj, np.eye(ref.dim, dtype=complex) - proj], ref.dim)
        rank = _effect_rank(proj)
    effects = [proj, np.eye(ref.dim, dtype=complex) - proj]
    return list(WITNESS_LABELS), [_born_probabilities(rho.matrix, effects)], {"rank": rank}, (
        lambda: max(0.0, math.log2(max(float(np.trace(proj @ rho.matrix).real),
                                       _OCCUPATION_FLOOR) * ref.d_r / rank)))


def _dephase_setup(rho, ref, *_):
    # outcomes: the d_R reference basis vectors, p_i = v_i^dag rho v_i, then
    # the leak I - Pi_R, whose mass is Tr(rho) - Tr(Pi_R rho)
    basis = ref.support_basis()
    p = np.clip(np.einsum("ji,ji->i", basis.conj(), rho.matrix @ basis).real, 0.0, None)
    leak = float(np.trace(rho.matrix).real) - reference_overlap(rho, ref)
    probs = np.append(p, max(leak, 0.0))
    labels = [str(i) for i in range(ref.d_r)] + [_LEAK]
    return labels, [probs / probs.sum()], {"basis": "reference-support"}, (
        lambda: max(0.0, math.log2(ref.d_r) - shannon(p / p.sum()).bits))


def _stats():
    from . import stats
    return stats


class _Protocol(NamedTuple):
    """A protocol's outcome setup (see _outcome_setup), record certifier
    (record, config) -> CertifiedBound and coverage counter (counts, n, ref,
    limit, eta, delta, rank) -> (above, invalid). The last two look `stats`
    up at each call, so scipy loads only when something certifies and a
    wrapper installed on a `stats` function is called."""

    setup: Callable
    certify: Callable
    count: Callable


# in the order of records.PROTOCOLS, whose positions are the spawn keys
_PROTOCOL_TABLE = {
    "hypothesis_test": _Protocol(
        _ht_setup,
        lambda record, config: _stats().ht_protocol(record, config.eta, config.delta),
        lambda counts, n, ref, limit, eta, delta, rank: _stats().ht_counts(
            counts, n, limit, eta, delta)),
    "witness": _Protocol(
        _witness_setup,
        lambda record, config: _stats().witness_protocol(
            record, config.reference, record.meta.get("rank", config.witness_rank), config.delta),
        lambda counts, n, ref, limit, eta, delta, rank: _stats().witness_counts(
            counts, n, ref, limit, delta, rank)),
    "dephase": _Protocol(
        _dephase_setup,
        lambda record, config: _stats().dephase_protocol(record, config.reference, config.delta),
        lambda counts, n, ref, limit, eta, delta, rank: _stats().dephase_counts(
            counts, n, ref, limit, delta)),
}


def _protocol(name: str) -> _Protocol:
    if name not in _PROTOCOL_TABLE:
        raise ValidationError(f"unknown protocol {name!r}")
    return _PROTOCOL_TABLE[name]


def _outcome_setup(
    rho: DensityOperator, ref: ReferenceSet, protocol: str, compression: Callable, eta: float,
    test_calibration: float, witness_rank: int, witness_projector=None,
) -> tuple[list, list[np.ndarray], dict, Callable[[], float]]:
    """Per-run setup of one protocol on rho: (labels, distributions, meta,
    target).

    A record draws n shots from each distribution in order; the labels run
    over the outcomes of all of them. The effects built here are POVMs by
    construction and are not checked again; a supplied witness projector is
    checked as the POVM {P, I - P} and as a projector, and its rank is
    Tr P. target() is the exact value in bits that the protocol's certified
    bound targets, built from the same pieces; the hypothesis test's is
    computed only when read, so setting up a record neither pays for it nor
    needs a supported state. The setups of one run share compression.
    """
    if rho.dim != ref.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim}, reference {ref.dim}")
    return _protocol(protocol).setup(
        rho, ref, compression, eta, test_calibration, witness_rank, witness_projector)


def simulate_record(
    rho: DensityOperator,
    ref: ReferenceSet,
    protocol: str,
    n: int,
    seed: int,
    eta: float = 0.25,
    test_calibration: float = 0.5,
    witness_rank: int = 1,
    witness_projector=None,
    rng: np.random.Generator | None = None,
) -> MeasurementRecord:
    """Produce the MeasurementRecord a lab would hand to the certifiers.

    hypothesis_test runs both a null calibration (on the structured vacuum)
    and an alternative run of n shots each, with the waterfilling test
    calibrated at eta * test_calibration so the type-I endpoint certifies
    below eta with headroom.
    """
    outcomes = _outcome_setup(rho, ref, protocol, _compression(rho, ref), eta, test_calibration,
                              witness_rank, witness_projector)
    return _sample(protocol, outcomes[:3], n, rng if rng is not None else stream(seed))


def protocol_ground_truth(
    rho: DensityOperator,
    ref: ReferenceSet,
    protocol: str,
    eta: float = 0.25,
    witness_rank: int = 1,
) -> float:
    """The exact value (in bits) that a protocol's certified bound targets:
    the target of its outcome setup, whose test calibration (here
    simulate_record's default) moves the draws but not the target."""
    return _outcome_setup(rho, ref, protocol, _compression(rho, ref), eta, 0.5, witness_rank)[3]()


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs, with the file-path echo for reports.

    The state may be omitted when every selected protocol certifies from a
    provided record; exact analysis and simulation both require it.
    """

    state: DensityOperator | None
    reference: ReferenceSet
    protocols: tuple[str, ...] = ("exact",)
    records: dict[str, MeasurementRecord] = field(default_factory=dict)
    delta: float = 0.05
    eta: float = 0.25
    epsilon: float = 0.01
    constants: BoundConstants = DEFAULT_CONSTANTS
    seed: int = 0
    n_samples: int = 2000
    witness_rank: int = 1
    test_calibration: float = 0.5
    method: str = "lambert"
    unit: str = "structons"
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, x in (("delta", self.delta), ("eta", self.eta), ("epsilon", self.epsilon)):
            if not 0.0 < x < 1.0:
                raise ValidationError(f"{name} = {x} must be in (0,1)")
        _check_seed(self.seed)
        bad = [p for p in self.protocols if p != "exact" and p not in PROTOCOLS]
        if bad:
            raise ValidationError(f"unknown protocols {bad}")
        if not self.protocols:
            raise ValidationError("at least one protocol is required")
        if self.unit not in _UNITS:
            raise ValidationError(f"unknown unit {self.unit!r}")
        if self.state is None:
            needs_state = "exact" in self.protocols or any(
                p not in self.records for p in self.protocols if p != "exact"
            )
            if needs_state:
                raise ValidationError(
                    "a state is required for exact analysis or record simulation"
                )


def _breakdown_dict(bb: BoundBreakdown, log2_gamma: float) -> dict:
    return {
        "leading_structons": bb.leading,
        "spectral_structons": bb.spectral,
        "log_correction_structons": bb.log_correction,
        "final_structons": bb.final,
        "final_bits": bb.final * log2_gamma,
        "method": bb.method,
        "floored": bb.floored,
        "inputs": dict(bb.inputs),
    }


def _bound_dict(b: CertifiedBound, log2_gamma: float) -> dict:
    return {
        "quantity": b.quantity,
        "value_bits": b.value,
        "value_structons": b.value / log2_gamma,
        "unit": b.unit,
        "confidence": b.confidence,
        "direction": b.direction,
        "protocol": b.protocol,
        "params": dict(b.params),
    }


class _Stage:
    """Context that prefixes an RccError raised inside it with the stage name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, RccError):
            exc.args = (f"stage '{self.name}': {exc}",)
        return False


def pipeline(config: RunConfig) -> dict:
    """Run the selected measurement paths end to end and assemble a report.

    Records are taken from the config when provided, otherwise simulated
    from the state with per-protocol Philox streams. Certified bounds are
    combined by best final circuit bound; exact-state analysis is included
    whenever the "exact" protocol is selected.
    """
    ref = config.reference
    rho = config.state
    lg = ref.log2_gamma
    report: dict = {
        "schema": REPORT_SCHEMA,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": config.seed,
        "inputs": {
            **config.echo,
            "dim": rho.dim if rho is not None else None,
            "d_r": ref.d_r,
            "gamma_r": ref.gamma,
            "g": ref.g,
            "addressable_units": ref.addressable_units,
            "protocols": list(config.protocols),
            "delta": config.delta,
            "eta": config.eta,
            "epsilon": config.epsilon,
            "constants": {
                "c1": config.constants.c1,
                "c1_prime": config.constants.c1_prime,
                "c2_prime": config.constants.c2_prime,
            },
            "method": config.method,
            "unit": config.unit,
        },
        "units": {
            "structon_bits": lg,
            "note": "1 structon = log2(Gamma_R) bits = ln(Gamma_R) nats",
        },
    }
    if "exact" in config.protocols:
        with _Stage("exact"):
            d_bits = relative_to_reference(rho, ref).bits
            skew_bits = spectral_skew(rho).bits
            bb = bound_from_divergence(
                d_bits, ref, config.epsilon, constants=config.constants,
                spectral_bits=skew_bits, method=config.method,
            )
            value_structons = rcc(rho, ref)
            display = {
                "bits": d_bits,
                "nats": d_bits * math.log(2.0),
                "structons": value_structons,
            }[config.unit]
            report["exact"] = {
                "rcc_structons": value_structons,
                "divergence_bits": d_bits,
                "entropy_bits": von_neumann(rho).bits,
                "min_entropy_bits": min_entropy(rho).bits,
                "spectral_skew_bits": skew_bits,
                "circuit_bound": _breakdown_dict(bb, lg),
                "display": {"value": display, "unit": config.unit},
            }
    certified: list[CertifiedBound] = []
    compression = _compression(rho, ref)
    for proto in config.protocols:
        if proto == "exact":
            continue
        with _Stage(proto):
            record = config.records.get(proto)
            if record is None:
                outcomes = _outcome_setup(rho, ref, proto, compression, config.eta,
                                          config.test_calibration, config.witness_rank)
                record = _sample(proto, outcomes[:3], config.n_samples,
                                 stream(config.seed, PROTOCOLS.index(proto)))
            certified.append(_protocol(proto).certify(record, config))
    report["certified_bounds"] = [_bound_dict(b, lg) for b in certified]
    if certified:
        from .stats import combine_bounds

        with _Stage("combine"):
            combined = combine_bounds(
                certified, ref, config.epsilon,
                constants=config.constants, method=config.method,
            )
        report["combined"] = {
            "value_structons": combined.value_structons,
            "value_bits": combined.value_structons * lg,
            "confidence": combined.confidence,
            "winner": combined.winner,
            "per_path_structons": dict(combined.per_path),
            "breakdown": _breakdown_dict(combined.breakdown, lg),
        }
    return report


def coverage_experiment(config: RunConfig, trials: int) -> dict:
    """Estimate how often certified bounds overshoot their exact targets.

    Sets up each statistical protocol in the config once; that one setup
    gives both the outcome distributions and the exact target, and the
    setups share one eigensolve of rho compressed to H_R. Draws `trials`
    records from the distributions, trial t with the bits of its own stream
    (seed, protocol, t), into one count matrix. The protocol's coverage
    counter then counts the trials whose certified value exceeds the target
    by more than _VIOLATION_SLACK, and those that cannot certify, with the
    values and the comparison of the record certifiers:
    a binary search over a binomial protocol's distinct counts finds the
    count at which a trial starts to violate, so a column of trials costs
    about log2 of its distinct counts in Clopper-Pearson endpoints.
    Reports the violation fraction against the target; a run that cannot
    certify counts as invalid. The summary contains no timestamp, so
    identical seeds give byte-identical output.
    """
    if not _is_integer(trials) or not 0 < trials <= _MAX_TRIALS:
        raise ValidationError(f"trials must be an integer in [1, 2**32], got {trials!r}")
    protocols = [p for p in config.protocols if p != "exact"]
    if not protocols:
        raise ValidationError("coverage needs at least one statistical protocol")
    if config.state is None:
        raise ValidationError("coverage simulation requires a state")
    rho, ref = config.state, config.reference
    compression = _compression(rho, ref)
    results: dict = {}
    for proto in protocols:
        labels, dists, meta, target = _outcome_setup(
            rho, ref, proto, compression, config.eta, config.test_calibration, config.witness_rank
        )
        truth = target()
        key = PROTOCOLS.index(proto)
        counts = _draw(labels, dists, config.n_samples, _trial_streams(config.seed, key, trials))
        violations, invalid = _protocol(proto).count(
            counts, config.n_samples, ref, truth + _VIOLATION_SLACK, config.eta,
            config.delta, meta.get("rank", config.witness_rank),
        )
        results[proto] = {
            "trials": trials,
            "violations": violations,
            "invalid_runs": invalid,
            "violation_fraction": violations / trials,
            "true_value_bits": truth,
        }
    return {
        "schema": COVERAGE_SCHEMA,
        "seed": config.seed,
        "delta": config.delta,
        "eta": config.eta,
        "n_samples": config.n_samples,
        "trials": trials,
        "protocols": results,
    }


def sweep_windows(
    rho: DensityOperator, ref: ReferenceSet, family: WindowFamily
) -> list[tuple[float, float, float]]:
    """Windowed entropy and complexity along a nested window family.

    Returns (xi, S_xi in bits, C_xi in structons) per window; the complexity
    column is nondecreasing in xi for any valid family.
    """
    rows = []
    for w in family.windows:
        s_bits = windowed_entropy_bits(rho, ref, w)
        rows.append((w.xi, s_bits, windowed_rcc(rho, ref, w)))
    return rows
