"""Measurement simulation and the end-to-end certified pipeline.

Each statistical protocol is one entry of `_PROTOCOL_TABLE`: its outcome
setup, its record certifier and its coverage counter. It fixes its outcome
distributions once per run and then draws records from them. sigma_R is
flat on H_R, so each designed measurement's distribution is a function of
rho's spectrum, which validation already holds: the test and the default
witness read rho's top d_R eigenvalues, those of C = V^dag rho V in the
reference support basis V, and need a state supported in H_R, which one
read per run (`_spectrum_read`) checks for all of them; dephasing
reads C's diagonal, which over a coordinate reference (its H_R spanned by
computational basis vectors, `ReferenceSet.coordinate_indices`) is a
gather of rho's diagonal at the reference's index set. A supplied witness
projector P is read as one trace, Tr(P rho), and no d x d effect is
sampled. Randomness comes from Philox, a named 64-bit counter-based
generator: distribution j of protocol p, its position in `records.PROTOCOLS`,
is drawn on the stream (seed, p, j) everywhere (`_streams`). Coverage draws
it for every trial in one call, and a simulated record (`simulate_record`,
`pipeline`, `rcc simulate`) is coverage's trial 0 at its seed, so two
protocols' records share no bits and coverage experiments are
order-independent and bit-reproducible across platforms.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .bounds import (DEFAULT_CONSTANTS, BoundBreakdown, BoundConstants, _check_epsilon,
                     bound_from_divergence)
from .bounds import rcc  # noqa: F401  (not called; perfbench's tracer test patches this binding)
from .entropy import (
    _supported_spectrum, _testing_divergence, _waterfill_weights, min_entropy,
    relative_to_reference, shannon, spectral_skew, von_neumann,
)
from .errors import CompleteLeakageError, ConfigError, RccError, ValidationError, _check_level
from .operators import _COMPLETE_LEAK_TOL, DensityOperator, _check_same_dim, eig_hermitian
from .reference import ReferenceSet
from .records import (
    HT_LABELS, PROTOCOLS, WITNESS_LABELS, MeasurementRecord, _check_shots, _check_witness_rank,
    _is_integer, _witness_projector_rank, _witness_value,
)
from .windows import WindowFamily, _windowed_complexity, windowed_entropy_bits

if TYPE_CHECKING:
    from .stats import CertifiedBound

REPORT_SCHEMA = "rcc-report/3"
COVERAGE_SCHEMA = "rcc-coverage/1"

# a coverage trial violates when its bound exceeds the truth by more than this
_VIOLATION_SLACK = 1e-12
# the documented trial range; a count past it is rejected before anything
# is set up or allocated
_MAX_TRIALS = 2**32


def _check_seed(seed) -> None:
    """A master seed: a nonnegative Python or numpy integer."""
    if not _is_integer(seed) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for (master seed, spawn key); same key, same bits."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _streams(seed: int, protocol: str, count: int) -> list[np.random.Generator]:
    """Distribution j's stream (seed, p, j), j < count, p the protocol's index in PROTOCOLS."""
    return [stream(seed, PROTOCOLS.index(protocol), j) for j in range(count)]


def _draw(kept: int, dists: list[np.ndarray], n: int, rngs: list, rows: int) -> np.ndarray:
    """A (rows x kept) count matrix: distribution j's n-shot multinomial
    draws, one per row, come from rngs[j] in one call, and the columns follow
    the distributions' outcomes in order. Outcomes past the first kept are
    the leak (the dephase outcome I - Pi_R): a shot on one is a sampling
    error, and their columns are dropped. The rows are integer, nonnegative
    and sum to n per distribution, which the coverage counters rely on
    without checking them again."""
    if not _is_integer(n) or n <= 0:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    _check_shots(n)
    counts = [rng.multinomial(n, p, size=rows) for rng, p in zip(rngs, dists)]
    counts = counts[0] if len(counts) == 1 else np.concatenate(counts, axis=1)
    if counts.shape[1] == kept:
        return counts
    if counts[:, kept:].any():
        raise ValidationError("state leaked outside the subspace during sampling")
    return counts[:, :kept]


def _two_outcome(p: float) -> np.ndarray:
    """The outcome distribution (p, 1 - p), each entry clipped at 0 and
    divided by their sum, in floats: the doubles of np.clip and a numpy sum
    on the pair (the clip maps -0.0 to +0.0 and keeps NaN, as here)."""
    a, b = (0.0 if p <= 0.0 else p), (0.0 if 1.0 - p <= 0.0 else 1.0 - p)
    return np.array([a / (a + b), b / (a + b)])


def _eigenvectors(rho: DensityOperator, ref: ReferenceSet) -> np.ndarray:
    """The eigenvectors of C = V^dag rho V, rho compressed to H_R in the
    reference support basis V, descending, as columns of the full space."""
    basis = ref.support_basis()
    small = basis.conj().T @ rho.matrix @ basis
    return basis @ eig_hermitian(0.5 * (small + small.conj().T)).eigenvectors


def optimal_test_projector(rho: DensityOperator, ref: ReferenceSet, eta: float) -> np.ndarray:
    """Waterfilling test operator at type-I level eta, supported in H_R: the
    operator a lab implements; the simulation reads only its probabilities.

    Built in the reference support basis so Tr(T sigma_R) equals eta exactly
    up to roundoff.
    """
    weights = _waterfill_weights(ref.d_r, eta)
    v = _eigenvectors(rho, ref)
    return (v * weights) @ v.conj().T


def default_witness_projector(rho: DensityOperator, ref: ReferenceSet, rank: int) -> np.ndarray:
    """Rank-r projector onto the dominant eigenvectors of rho inside H_R."""
    _check_witness_rank(rank, ref.d_r)
    v = _eigenvectors(rho, ref)[:, :rank]
    return v @ v.conj().T


def _ht_setup(rho, ref, config, projector, spectrum):
    # the waterfilling test T at eta_test accepts H1 with probability eta_test
    # on sigma_R (the null calibration) and w . mu on rho, mu its top d_R; the
    # target is hypothesis_testing_divergence at eta on the same mu
    eta_test = config.eta * config.test_calibration
    if eta_test == 0.0:
        raise ValidationError(f"the test level eta * test_calibration = {config.eta!r} * "
                              f"{config.test_calibration!r} underflows to 0")
    weights = _waterfill_weights(ref.d_r, eta_test)
    mu = spectrum()
    dists = [_two_outcome(eta_test), _two_outcome(float(weights @ mu))]
    return list(HT_LABELS), dists, {"eta": config.eta, "eta_test": eta_test}, (
        lambda: _testing_divergence(
            1.0 - float(_waterfill_weights(ref.d_r, config.eta) @ mu)))


def _witness_setup(rho, ref, config, projector, spectrum):
    # a projector succeeds with Tr(P rho): the designed one onto rho's top r
    # eigenvectors with their sum, a supplied one with one trace; a leaking
    # state has an infinite D_max, so neither has a finite target
    mu = spectrum()
    if projector is None:
        _check_witness_rank(config.witness_rank, ref.d_r)
        rank, success = config.witness_rank, float(mu[:config.witness_rank].sum())
    else:
        proj = np.asarray(projector, dtype=complex)
        rank, success = _witness_projector_rank(proj, ref), float(np.vdot(rho.matrix, proj).real)
    return list(WITNESS_LABELS), [_two_outcome(success)], {"rank": rank}, (
        lambda: _witness_value(success, ref.d_r, rank))


def _dephase_setup(rho, ref, config, projector, spectrum):
    # outcomes: the d_R reference basis vectors, p_i = C_ii with C = V^dag
    # rho V, then the leak I - Pi_R, whose mass is Tr(rho) - Tr(C); over a
    # coordinate reference V is the identity columns of its index set, so C's
    # diagonal is a gather of rho's, the same doubles
    indices = ref.coordinate_indices
    if indices is not None:
        diagonal = rho.matrix.diagonal()[indices]
    else:
        basis = ref.support_basis()
        diagonal = (basis.conj().T @ rho.matrix @ basis).diagonal()
    p = np.maximum(diagonal.real, 0.0)
    kept = float(diagonal.sum().real)
    leak = float(rho.matrix.trace().real) - kept

    def target():
        # the distribution inside H_R is C's diagonal over Tr C
        if kept <= _COMPLETE_LEAK_TOL:
            raise CompleteLeakageError(kept)
        return max(0.0, math.log2(ref.d_r) - shannon(p / p.sum()))

    # p is clipped already, so only the leak is, as _two_outcome clips
    dist = np.concatenate((p, [0.0 if leak <= 0.0 else leak]))
    dists = [dist / dist.sum()]
    return range(ref.d_r), dists, {"basis": "reference-support"}, target


@functools.cache
def _stats():
    # a relative import statement would look the module up at every call
    from . import stats
    return stats


class _Protocol(NamedTuple):
    """A protocol's outcome setup (see _outcome_setup), record certifier
    (record, config) -> CertifiedBound and coverage counter (counts, n, ref,
    limit, eta, delta, rank) -> (above, invalid). The last two look their
    `stats` function up at each call and import `stats` at the first, so
    it loads only when something certifies, and a wrapper installed on a
    `stats` function is called; scipy loads only at a binomial tail."""

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


def _spectrum_read(rho: DensityOperator, ref: ReferenceSet) -> Callable[[], np.ndarray]:
    """rho's supported spectrum (entropy._supported_spectrum), read at the
    first call and returned by every later one, so that the setups and
    targets of one run check the retained mass and read the clipped
    spectrum once; the cache keeps no exception, so on a leaking state every
    call raises LeakageError."""
    return functools.cache(lambda: _supported_spectrum(rho, ref))


def _outcome_setup(
    config: RunConfig, protocol: str, witness_projector=None, spectrum=None,
) -> tuple[Sequence, list[np.ndarray], dict, Callable[[], float]]:
    """Per-run setup of one protocol: (labels, distributions, meta, target).

    The state, reference, eta, test calibration and witness rank are the
    config's, whose levels and seed RunConfig checked, so every entry point
    rejects a bad one alike. Each setup is called as (rho, ref, config,
    projector, spectrum), with a witness projector P (witness only) or None and
    the run's _spectrum_read (a new one when none is given). A record draws
    n shots from each distribution in order; the labels name the outcomes
    of all of them in that order, and an outcome past the last label is the
    leak, which _draw rejects (dephasing's I - Pi_R, the d_R labels being
    0..d_R - 1). Nothing is eigensolved and no effect is built:
    the test and the witness read rho's validated spectrum through
    spectrum(), so both raise LeakageError on a leaking state, P (checked
    by records._witness_projector_rank) is read as one trace Tr(P rho),
    and dephasing reads the diagonal of C = V^dag rho V,
    gathered from rho's diagonal when the reference is an index set
    (coordinate_indices), so neither V nor C is formed. target() is the
    exact value in bits that the protocol's certified bound targets, built
    from the same pieces and computed only when read: a record never pays
    for the test's divergence, nor divides by a leaked state's retained
    mass.
    """
    rho, ref = config.state, config.reference
    _check_same_dim(rho, ref)
    setup = _protocol(protocol).setup
    if witness_projector is not None and protocol != "witness":
        raise ConfigError(f"only the witness protocol reads a projector, not {protocol!r}")
    if spectrum is None:
        spectrum = _spectrum_read(rho, ref)
    return setup(rho, ref, config, witness_projector, spectrum)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs.

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

    def __post_init__(self):
        for name, x in (("delta", self.delta), ("eta", self.eta),
                        ("test_calibration", self.test_calibration)):
            _check_level(name, x)
        _check_epsilon(self.epsilon)
        _check_seed(self.seed)
        bad = [p for p in self.protocols if p != "exact" and p not in PROTOCOLS]
        if bad:
            raise ValidationError(f"unknown protocols {bad}")
        if not self.protocols:
            raise ValidationError("at least one protocol is required")
        # a repeat would certify one record twice, into one combined confidence
        repeated = sorted({p for p in self.protocols if self.protocols.count(p) > 1})
        if repeated:
            raise ValidationError(f"protocols listed more than once: {repeated}")
        if self.state is None:
            needs_state = "exact" in self.protocols or any(
                p not in self.records for p in self.protocols if p != "exact"
            )
            if needs_state:
                raise ValidationError("exact analysis and record simulation need a state")


def _record(config: RunConfig, protocol: str, witness_projector=None) -> MeasurementRecord:
    """n_samples shots of each of the protocol's distributions, in order, on its _streams at
    the config's seed: row 0 of coverage's draw, so a record is coverage's trial 0."""
    labels, dists, meta, _ = _outcome_setup(config, protocol, witness_projector)
    n = config.n_samples
    counts = _draw(len(labels), dists, n, _streams(config.seed, protocol, len(dists)), 1)[0]
    return MeasurementRecord(protocol, n * len(dists), dict(zip(labels, counts.tolist())),
                             meta=dict(meta))


def simulate_record(
    rho: DensityOperator,
    ref: ReferenceSet,
    protocol: str,
    n: int,
    seed: int,
    eta: float = RunConfig.eta,
    test_calibration: float = RunConfig.test_calibration,
    witness_rank: int = RunConfig.witness_rank,
    witness_projector=None,
) -> MeasurementRecord:
    """Produce the MeasurementRecord a lab would hand to the certifiers.

    hypothesis_test runs both a null calibration (on the structured vacuum)
    and an alternative run of n shots each, with the waterfilling test
    calibrated at eta * test_calibration so the type-I endpoint certifies
    below eta with headroom. Distribution j is drawn on stream(seed, p, j), p the
    protocol's index in PROTOCOLS, as coverage's trial 0 and `pipeline` draw it;
    a witness_projector given to another protocol is a ConfigError.
    """
    config = RunConfig(rho, ref, eta=eta, test_calibration=test_calibration,
                       witness_rank=witness_rank, seed=seed, n_samples=n)
    return _record(config, protocol, witness_projector)


def protocol_ground_truth(
    rho: DensityOperator,
    ref: ReferenceSet,
    protocol: str,
    eta: float = RunConfig.eta,
    witness_rank: int = RunConfig.witness_rank,
) -> float:
    """The exact value (in bits) that a protocol's certified bound targets:
    the target of its outcome setup, whose test calibration (here
    RunConfig's default) moves the draws but not the target."""
    return _outcome_setup(RunConfig(rho, ref, eta=eta, witness_rank=witness_rank), protocol)[3]()


def _breakdown_dict(bb: BoundBreakdown, log2_gamma: float) -> dict:
    return {
        "leading_structons": bb.leading,
        "spectral_structons": bb.spectral,
        "log_correction_structons": bb.log_correction,
        "final_structons": bb.final,
        "final_bits": bb.final * log2_gamma,
        "floored": bb.floored,
        "inputs": dict(bb.inputs),
    }


def _bound_dict(b: CertifiedBound, log2_gamma: float) -> dict:
    return {
        "quantity": b.quantity,
        "value_bits": b.value,
        "value_structons": b.value / log2_gamma,
        "confidence": b.confidence,
        "protocol": b.protocol,
        "params": dict(b.params),
    }


@contextlib.contextmanager
def _stage(name: str):
    """Prefix an RccError raised inside the block with the stage name."""
    try:
        yield
    except RccError as exc:
        exc.args = (f"stage '{name}': {exc}",)
        raise


def pipeline(config: RunConfig) -> dict:
    """Run the selected measurement paths end to end and assemble a report.

    Records are taken from the config when provided, otherwise simulated
    from the state as simulate_record draws them. Certified bounds are
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
        },
        "units": {"structon_bits": lg},
    }
    if "exact" in config.protocols:
        with _stage("exact"):
            d_bits = relative_to_reference(rho, ref)
            skew_bits = spectral_skew(rho)
            bb = bound_from_divergence(d_bits, ref, config.epsilon, constants=config.constants,
                                       spectral_bits=skew_bits)
            report["exact"] = {
                "rcc_structons": max(0.0, d_bits / lg),
                "divergence_bits": d_bits,
                "entropy_bits": von_neumann(rho),
                "min_entropy_bits": min_entropy(rho),
                "spectral_skew_bits": skew_bits,
                "circuit_bound": _breakdown_dict(bb, lg),
            }
    certified: list[CertifiedBound] = []
    for proto in config.protocols:
        if proto == "exact":
            continue
        with _stage(proto):
            record = config.records.get(proto) or _record(config, proto)
            certified.append(_protocol(proto).certify(record, config))
    report["certified_bounds"] = [_bound_dict(b, lg) for b in certified]
    if certified:
        from .stats import combine_bounds

        with _stage("combine"):
            combined = combine_bounds(certified, ref, config.epsilon, constants=config.constants)
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

    Sets up each statistical protocol in the config once, for both its
    outcome distributions and its exact target; the setups share one read
    of rho's validated spectrum (one retained mass, one clipped spectrum)
    and eigensolve nothing, and the test and the witness reject a state that
    leaks out of H_R, as their records do. A one-distribution protocol's
    draw is its count matrix, with no copy. Draws
    `trials` records into one count matrix, distribution j of all trials in
    one call on the stream (seed, protocol, j), trial t taking row t of each
    draw. The protocol's coverage counter counts, with the values
    and comparison of the record certifiers, the trials whose certified
    value exceeds the target by more than _VIOLATION_SLACK and those that
    cannot certify (invalid runs). A binomial column is compared with one
    threshold count, which does not depend on the draws: the comparison
    finds the flip cell of the Clopper-Pearson bisection's grid, and a
    search over the counts 0..n finds the least count whose endpoint
    reaches it, one tail evaluation at the cell's lower edge per count
    (exact while the tail is monotone on that grid). Both searches start
    at a guess of their answer, so a column costs about 2 comparisons and
    2 tail evaluations and bisects no endpoint. The summary contains no
    timestamp, so identical seeds give byte-identical output.
    """
    if not _is_integer(trials) or not 0 < trials <= _MAX_TRIALS:
        raise ValidationError(f"trials must be an integer in [1, 2**32], got {trials!r}")
    protocols = [p for p in config.protocols if p != "exact"]
    if not protocols:
        raise ValidationError("coverage needs at least one statistical protocol")
    if config.state is None:
        raise ValidationError("coverage simulation requires a state")
    ref = config.reference
    spectrum = _spectrum_read(config.state, ref)
    results: dict = {}
    for proto in protocols:
        labels, dists, meta, target = _outcome_setup(config, proto, spectrum=spectrum)
        truth = target()
        rngs = _streams(config.seed, proto, len(dists))
        counts = _draw(len(labels), dists, config.n_samples, rngs, trials)
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
        rows.append((w.xi, s_bits, _windowed_complexity(ref, s_bits)))
    return rows
