"""Entropy and divergence functionals, exact on reference-supported states.

Because the reference state is maximally mixed on its subspace, every
divergence here collapses to a closed form in the eigenvalues of rho:

    D(rho || sigma_R)     = log2 d_R - S(rho)
    D_max(rho || sigma_R) = log2 d_R - H_min(rho)
    D_H^eta               = exact Neyman-Pearson waterfilling

Values are computed from eigenvalues only (never matrix logarithms) and
returned with an explicit unit tag; the default reporting unit is bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, ValidationError
from .operators import DensityOperator, project_renormalize
from .reference import ReferenceSet

LN2 = math.log(2.0)
DEFAULT_LEAK_TOL = 1e-9

BITS = "bits"
NATS = "nats"


@dataclass(frozen=True)
class EntropyValue:
    """A scalar information quantity tagged with its unit."""

    value: float
    unit: str = BITS

    def __post_init__(self):
        if self.unit not in (BITS, NATS):
            raise ValidationError(f"unknown unit {self.unit!r}")

    @property
    def bits(self) -> float:
        return self.value if self.unit == BITS else self.value / LN2

    @property
    def nats(self) -> float:
        return self.value if self.unit == NATS else self.value * LN2

    def to(self, unit: str) -> "EntropyValue":
        if unit == self.unit:
            return self
        if unit == BITS:
            return EntropyValue(self.bits, BITS)
        if unit == NATS:
            return EntropyValue(self.nats, NATS)
        raise ValidationError(f"unknown unit {unit!r}")


def _clipped_eigenvalues(rho: DensityOperator) -> np.ndarray:
    """Descending eigenvalues with tiny negative drift zeroed; 0 log 0 := 0
    downstream."""
    w = rho.spectrum
    return np.where(w < 0.0, 0.0, w)


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0.0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum()) + 0.0  # normalizes -0.0


def von_neumann(rho: DensityOperator) -> EntropyValue:
    """S(rho) = -Tr(rho log rho) from the eigenvalue spectrum."""
    return EntropyValue(_entropy_bits(_clipped_eigenvalues(rho)))


def min_entropy(rho: DensityOperator) -> EntropyValue:
    """H_min(rho) = -log of the largest eigenvalue."""
    top = float(_clipped_eigenvalues(rho).max())
    return EntropyValue(max(0.0, -math.log2(top)))


def spectral_skew(rho: DensityOperator) -> EntropyValue:
    """S(rho) - H_min(rho) >= 0; vanishes for flat spectra and pure states."""
    return EntropyValue(max(0.0, von_neumann(rho).bits - min_entropy(rho).bits))


def reference_overlap(rho: DensityOperator, ref: ReferenceSet) -> float:
    """Tr(Pi_R rho), the mass retained inside the reference subspace."""
    if rho.dim != ref.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim}, reference {ref.dim}")
    # Pi_R is Hermitian, so the trace is the elementwise sum of conj(Pi_R) * rho
    return float(np.vdot(ref.total.matrix, rho.matrix).real)


def _require_supported(rho: DensityOperator, ref: ReferenceSet, leak_tol: float) -> None:
    q = reference_overlap(rho, ref)
    if q < 1.0 - leak_tol:
        raise LeakageError(1.0 - q)


def relative_to_reference(
    rho: DensityOperator, ref: ReferenceSet, leak_tol: float = DEFAULT_LEAK_TOL
) -> EntropyValue:
    """D(rho || sigma_R) = log2 d_R - S(rho) for a reference-supported state.

    States leaking outside the subspace are rejected (the divergence would
    diverge); use project_renormalize or leakage_adjusted_divergence instead.
    """
    _require_supported(rho, ref, leak_tol)
    return EntropyValue(max(0.0, math.log2(ref.d_r) - von_neumann(rho).bits))


def max_relative_to_reference(
    rho: DensityOperator, ref: ReferenceSet, leak_tol: float = DEFAULT_LEAK_TOL
) -> EntropyValue:
    """D_max(rho || sigma_R) = log2 d_R - H_min(rho)."""
    _require_supported(rho, ref, leak_tol)
    return EntropyValue(max(0.0, math.log2(ref.d_r) - min_entropy(rho).bits))


def hypothesis_testing_divergence(
    rho: DensityOperator,
    ref: ReferenceSet,
    eta: float,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> EntropyValue:
    """D_H^eta(rho || sigma_R) by exact Neyman-Pearson waterfilling.

    sigma_R is flat on the subspace, so rho and sigma_R commute and the
    optimal test is classical: accept eigenvectors of rho in descending
    eigenvalue order while the spent null mass (count/d_R) stays within eta,
    then put fractional weight on the marginal eigenvector so the type-I
    budget is exhausted exactly. Returns +inf when the type-II error hits 0.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta {eta} must be in (0,1)")
    _require_supported(rho, ref, leak_tol)
    w = _clipped_eigenvalues(rho)[: ref.d_r]
    budget = eta * ref.d_r
    k = int(math.floor(budget))
    frac = budget - k
    accepted = float(w[:k].sum())
    if k < w.size:
        accepted += frac * float(w[k])
    beta = 1.0 - accepted
    if beta <= 1e-15:
        return EntropyValue(math.inf)
    return EntropyValue(-math.log2(beta))


def explicit_test_divergence_bound(
    rho: DensityOperator, sigma_matrix, test_matrix, eta: float
) -> EntropyValue:
    """Lower bound on the testing divergence from one explicit binary test.

    For non-commuting pairs (a leaked state against a smoothed reference)
    the exact optimum is not computed here; any supplied test operator T
    with 0 <= T <= I and Tr(T sigma) <= eta certifies
    D_H^eta >= -log2 Tr[(I - T) rho].
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta {eta} must be in (0,1)")
    sigma = np.asarray(sigma_matrix, dtype=complex)
    t = np.asarray(test_matrix, dtype=complex)
    w = np.linalg.eigvalsh(0.5 * (t + t.conj().T))
    if w.min() < -1e-9 or w.max() > 1.0 + 1e-9:
        raise ValidationError("test operator must satisfy 0 <= T <= I")
    alpha = float(np.trace(t @ sigma).real)
    if alpha > eta + 1e-12:
        raise ValidationError(
            f"test has type-I error {alpha:.6f} above the allowed eta = {eta}"
        )
    beta = float(np.trace((np.eye(rho.dim) - t) @ rho.matrix).real)
    if beta <= 1e-15:
        return EntropyValue(math.inf)
    return EntropyValue(-math.log2(beta))


def shannon(probabilities) -> EntropyValue:
    """Shannon entropy of a probability vector, 0 log 0 := 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probability vector must be 1-d and nonempty")
    if (p < -1e-12).any():
        raise ValidationError("negative probability entry")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {p.sum()!r}, not 1")
    return EntropyValue(_entropy_bits(np.clip(p, 0.0, None)))


def binary_entropy(v: float) -> EntropyValue:
    """h2(v) = -v log2 v - (1-v) log2(1-v) on [0, 1]."""
    if not 0.0 <= v <= 1.0:
        raise ValidationError(f"binary entropy argument {v} outside [0,1]")
    return EntropyValue(_entropy_bits(np.array([v, 1.0 - v])))


def bernoulli_kl(q: float, p: float) -> EntropyValue:
    """Binary KL divergence D(q || p) in bits."""
    for name, x in (("q", q), ("p", p)):
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"{name} = {x} outside [0,1]")
    terms = 0.0
    if q > 0.0:
        if p == 0.0:
            return EntropyValue(math.inf)
        terms += q * math.log2(q / p)
    if q < 1.0:
        if p == 1.0:
            return EntropyValue(math.inf)
        terms += (1.0 - q) * math.log2((1.0 - q) / (1.0 - p))
    return EntropyValue(max(0.0, terms))


@dataclass(frozen=True)
class PurityCeiling:
    """An upper bound on complexity; deliberately a distinct type so it can
    never be fed into lower-bound combination."""

    value_structons: float
    purity: float
    direction: str = "upper"


def purity_upper_bound(
    rho: DensityOperator, ref: ReferenceSet, leak_tol: float = DEFAULT_LEAK_TOL
) -> PurityCeiling:
    """(log2 d_R + log2 Tr rho^2) / log2 Gamma_R, an upper bound only.

    Purity caps the entropy from below, so it can only cap complexity from
    above; the result is typed as a ceiling so lower-bound reports refuse it.
    """
    _require_supported(rho, ref, leak_tol)
    p = rho.purity()
    value = (math.log2(ref.d_r) + math.log2(p)) / ref.log2_gamma
    return PurityCeiling(max(0.0, value), p)


def leakage_adjusted_divergence(
    rho_phys: DensityOperator,
    ref: ReferenceSet,
    mode: str = "multiplicative",
    delta: float | None = None,
) -> EntropyValue:
    """Certified lower bound on the divergence of a leaking state.

    With q = Tr(Pi_R rho) and rho~ the projected-renormalized state:
    mode="multiplicative" returns q * D(rho~ || sigma_R), which lower-bounds
    the divergence against the reference smoothed at delta = 1 - q;
    mode="full" returns D_Bern(q || 1-delta) + q * D(rho~ || sigma_R) for a
    caller-chosen smoothing delta.
    """
    if rho_phys.dim != ref.dim:
        raise ValidationError("dimension mismatch between state and reference")
    projected, q = project_renormalize(rho_phys, ref.total)
    d_core = max(0.0, math.log2(ref.d_r) - von_neumann(projected).bits)
    if mode == "multiplicative":
        return EntropyValue(q * d_core)
    if mode == "full":
        if delta is None:
            raise ValidationError("mode='full' requires the smoothing delta")
        if not 0.0 < delta < 1.0:
            raise ValidationError(f"delta {delta} must be in (0,1)")
        return EntropyValue(bernoulli_kl(q, 1.0 - delta).bits + q * d_core)
    raise ValidationError(f"unknown mode {mode!r} (use 'multiplicative' or 'full')")
