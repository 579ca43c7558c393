"""Measurement simulation and the end-to-end certified pipeline.

Randomness comes from Philox, a named 64-bit counter-based generator;
independent streams are derived from the master seed with spawn keys
(one per protocol and trial index), so coverage experiments are
order-independent and bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .bounds import (
    DEFAULT_CONSTANTS,
    BoundBreakdown,
    BoundConstants,
    main_lower_bound,
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
from .operators import DensityOperator, eig_hermitian
from .reference import ReferenceSet
from .stats import (
    CertifiedBound,
    CombinedBound,
    MeasurementRecord,
    combine_bounds,
    dephase_protocol,
    ht_protocol,
    witness_protocol,
)
from .windows import WindowFamily, windowed_entropy_bits, windowed_rcc

REPORT_SCHEMA = "rcc-report/1"
COVERAGE_SCHEMA = "rcc-coverage/1"

STAT_PROTOCOLS = ("hypothesis_test", "witness", "dephase")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for (master seed, spawn key); same key, same bits."""
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


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

    Effects must each be PSD and sum to the identity within 1e-9.
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    mats = [np.asarray(e, dtype=complex) for e in effects]
    if not mats:
        raise ValidationError("no POVM effects given")
    total = sum(mats)
    if np.abs(total - np.eye(rho.dim)).max() > 1e-9:
        raise ValidationError("effects do not sum to the identity; not a POVM")
    for i, e in enumerate(mats):
        wmin = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min())
        if wmin < -1e-9:
            raise ValidationError(f"effect {i} has negative eigenvalue {wmin:.3e}; not a POVM")
    probs = np.array([float(np.trace(e @ rho.matrix).real) for e in mats])
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    if rng is None:
        rng = stream(seed)
    counts = rng.multinomial(n, probs)
    if labels is None:
        labels = [str(i) for i in range(len(mats))]
    return MeasurementRecord(
        protocol=protocol,
        n=n,
        counts={str(lab): int(c) for lab, c in zip(labels, counts)},
        meta=dict(meta or {}),
    )


def _support_probabilities(rho: DensityOperator, ref: ReferenceSet) -> np.ndarray:
    """Outcome distribution of the reference-basis measurement, p_i = v_i^dag rho v_i."""
    basis = ref.support_basis()
    return np.clip(np.einsum("ji,ji->i", basis.conj(), rho.matrix @ basis).real, 0.0, None)


def optimal_test_projector(
    rho: DensityOperator, ref: ReferenceSet, eta: float
) -> np.ndarray:
    """Waterfilling test operator at type-I level eta, supported in H_R.

    Built in the reference support basis so Tr(T sigma_R) equals eta exactly
    up to roundoff.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta {eta} must be in (0,1)")
    basis = ref.support_basis()
    small = basis.conj().T @ rho.matrix @ basis
    dec = eig_hermitian(0.5 * (small + small.conj().T))
    budget = eta * ref.d_r
    k = int(math.floor(budget))
    weights = np.zeros(ref.d_r)
    weights[:k] = 1.0
    if k < ref.d_r:
        weights[k] = budget - k
    t_small = (dec.eigenvectors * weights) @ dec.eigenvectors.conj().T
    return basis @ t_small @ basis.conj().T


def default_witness_projector(
    rho: DensityOperator, ref: ReferenceSet, rank: int
) -> np.ndarray:
    """Rank-r projector onto the dominant eigenvectors of rho inside H_R."""
    if not 1 <= rank <= ref.d_r:
        raise ValidationError(f"witness rank {rank} must be in [1, d_R]")
    basis = ref.support_basis()
    small = basis.conj().T @ rho.matrix @ basis
    dec = eig_hermitian(0.5 * (small + small.conj().T))
    v = dec.eigenvectors[:, :rank]
    return basis @ v @ v.conj().T @ basis.conj().T


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
    if protocol == "dephase":
        if n <= 0:
            raise ValidationError("n must be positive")
        # outcomes: the d_R reference basis vectors, then the leak I - Pi_R,
        # whose mass is Tr(rho) - Tr(Pi_R rho)
        leak = float(np.trace(rho.matrix).real) - reference_overlap(rho, ref)
        probs = np.append(_support_probabilities(rho, ref), max(leak, 0.0))
        if rng is None:
            rng = stream(seed)
        counts = rng.multinomial(n, probs / probs.sum())
        if counts[-1]:
            raise ValidationError("state leaked outside the subspace during sampling")
        return MeasurementRecord(
            "dephase", n, {str(i): int(c) for i, c in enumerate(counts[:-1])},
            meta={"basis": "reference-support"},
        )
    if protocol == "witness":
        proj = (
            np.asarray(witness_projector, dtype=complex)
            if witness_projector is not None
            else default_witness_projector(rho, ref, witness_rank)
        )
        rank = int(round(float(np.trace(proj).real)))
        effects = [proj, np.eye(ref.dim, dtype=complex) - proj]
        return born_sample(
            rho, effects, n, seed, protocol="witness",
            labels=["success", "failure"], meta={"rank": rank}, rng=rng,
        )
    if protocol == "hypothesis_test":
        eta_test = eta * test_calibration
        t = optimal_test_projector(rho, ref, eta_test)
        effects = [t, np.eye(ref.dim, dtype=complex) - t]
        sigma = DensityOperator(ref.sigma_matrix())
        if rng is None:
            rng = stream(seed)
        null_run = born_sample(
            sigma, effects, n, seed, protocol="hypothesis_test",
            labels=["accept_h1", "accept_h0"], rng=rng,
        )
        alt_run = born_sample(
            rho, effects, n, seed, protocol="hypothesis_test",
            labels=["accept_h1", "accept_h0"], rng=rng,
        )
        counts = {
            "null_accept_h1": null_run.counts["accept_h1"],
            "null_accept_h0": null_run.counts["accept_h0"],
            "alt_accept_h1": alt_run.counts["accept_h1"],
            "alt_accept_h0": alt_run.counts["accept_h0"],
        }
        return MeasurementRecord(
            "hypothesis_test", 2 * n, counts,
            meta={"eta": eta, "eta_test": eta_test},
        )
    raise ValidationError(f"unknown protocol {protocol!r}")


def protocol_ground_truth(
    rho: DensityOperator,
    ref: ReferenceSet,
    protocol: str,
    eta: float = 0.25,
    witness_rank: int = 1,
    witness_projector=None,
) -> float:
    """The exact value (in bits) that a protocol's certified bound targets."""
    if protocol == "hypothesis_test":
        return hypothesis_testing_divergence(rho, ref, eta).bits
    if protocol == "witness":
        proj = (
            np.asarray(witness_projector, dtype=complex)
            if witness_projector is not None
            else default_witness_projector(rho, ref, witness_rank)
        )
        rank = int(round(float(np.trace(proj).real)))
        p = float(np.trace(proj @ rho.matrix).real)
        return max(0.0, math.log2(max(p, 1e-300) * ref.d_r / rank))
    if protocol == "dephase":
        p = _support_probabilities(rho, ref)
        return max(0.0, math.log2(ref.d_r) - shannon(p / p.sum()).bits)
    raise ValidationError(f"unknown protocol {protocol!r}")


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
    delta_policy: str = "cap"
    method: str = "lambert"
    unit: str = "structons"
    leak_tol: float = 1e-9
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, x in (("delta", self.delta), ("eta", self.eta), ("epsilon", self.epsilon)):
            if not 0.0 < x < 1.0:
                raise ValidationError(f"{name} = {x} must be in (0,1)")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        bad = [p for p in self.protocols if p != "exact" and p not in STAT_PROTOCOLS]
        if bad:
            raise ValidationError(f"unknown protocols {bad}")
        if not self.protocols:
            raise ValidationError("at least one protocol is required")
        if self.unit not in ("bits", "nats", "structons"):
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


def _stage(name: str):
    class _StageContext:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, RccError):
                exc.args = (f"stage '{name}': {exc}",)
            return False

    return _StageContext()


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
            "delta_policy": config.delta_policy,
            "method": config.method,
            "unit": config.unit,
        },
        "units": {
            "structon_bits": lg,
            "note": "1 structon = log2(Gamma_R) bits = ln(Gamma_R) nats",
        },
    }
    if "exact" in config.protocols:
        with _stage("exact"):
            d_bits = relative_to_reference(rho, ref, leak_tol=config.leak_tol).bits
            bb = main_lower_bound(
                rho, ref, config.epsilon, constants=config.constants,
                method=config.method, leak_tol=config.leak_tol,
            )
            value_structons = rcc(rho, ref, leak_tol=config.leak_tol)
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
                "spectral_skew_bits": spectral_skew(rho).bits,
                "circuit_bound": _breakdown_dict(bb, lg),
                "display": {"value": display, "unit": config.unit},
            }
    certified: list[CertifiedBound] = []
    for proto in config.protocols:
        if proto == "exact":
            continue
        with _stage(proto):
            record = config.records.get(proto)
            if record is None:
                record = simulate_record(
                    rho, ref, proto, config.n_samples,
                    seed=config.seed, eta=config.eta,
                    test_calibration=config.test_calibration,
                    witness_rank=config.witness_rank,
                    rng=stream(config.seed, STAT_PROTOCOLS.index(proto)),
                )
            if proto == "hypothesis_test":
                certified.append(ht_protocol(record, config.eta, config.delta))
            elif proto == "witness":
                rank = int(record.meta.get("rank", config.witness_rank))
                certified.append(witness_protocol(record, ref, rank, config.delta))
            else:
                certified.append(dephase_protocol(record, ref, config.delta))
    report["certified_bounds"] = [_bound_dict(b, lg) for b in certified]
    if certified:
        with _stage("combine"):
            combined: CombinedBound = combine_bounds(
                certified, ref, config.epsilon,
                constants=config.constants, method=config.method,
                delta_policy=config.delta_policy,
            )
        report["combined"] = {
            "value_structons": combined.value_structons,
            "value_bits": combined.value_structons * lg,
            "confidence": combined.confidence,
            "winner": combined.winner,
            "delta_policy": combined.delta_policy,
            "per_path_structons": dict(combined.per_path),
            "breakdown": _breakdown_dict(combined.breakdown, lg),
        }
    return report


def coverage_experiment(config: RunConfig, trials: int) -> dict:
    """Estimate how often certified bounds overshoot their exact targets.

    Runs `trials` independently seeded simulations per statistical protocol
    in the config, certifies each, and reports the violation fraction
    against the exactly computed ground truth. The summary contains no
    timestamp, so identical seeds give byte-identical output.
    """
    if trials <= 0:
        raise ValidationError("trials must be positive")
    protocols = [p for p in config.protocols if p != "exact"]
    if not protocols:
        raise ValidationError("coverage needs at least one statistical protocol")
    if config.state is None:
        raise ValidationError("coverage simulation requires a state")
    rho, ref = config.state, config.reference
    results: dict = {}
    for proto in protocols:
        truth = protocol_ground_truth(
            rho, ref, proto, eta=config.eta, witness_rank=config.witness_rank
        )
        violations = 0
        invalid = 0
        for trial in range(trials):
            rng = stream(config.seed, STAT_PROTOCOLS.index(proto), trial)
            record = simulate_record(
                rho, ref, proto, config.n_samples, seed=config.seed,
                eta=config.eta, test_calibration=config.test_calibration,
                witness_rank=config.witness_rank, rng=rng,
            )
            try:
                if proto == "hypothesis_test":
                    bound = ht_protocol(record, config.eta, config.delta)
                elif proto == "witness":
                    bound = witness_protocol(
                        record, ref, int(record.meta["rank"]), config.delta
                    )
                else:
                    bound = dephase_protocol(record, ref, config.delta)
            except RccError:
                invalid += 1
                continue
            if bound.value > truth + 1e-12:
                violations += 1
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
