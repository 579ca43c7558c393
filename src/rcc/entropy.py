"""Entropy and divergence functionals, exact on reference-supported states.

Because the reference state is maximally mixed on its subspace, every
divergence here collapses to a closed form in the eigenvalues of rho:

    D(rho || sigma_R)     = log2 d_R - S(rho)
    D_max(rho || sigma_R) = log2 d_R - H_min(rho)
    D_H^eta               = exact Neyman-Pearson waterfilling

Values are computed from eigenvalues only (never matrix logarithms) and
returned as Python floats in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, ValidationError, _check_finite, _check_level
from .operators import DensityOperator, _check_same_dim, project_renormalize
from .reference import ReferenceSet

# Mass outside the reference subspace above this rejects a state.
DEFAULT_LEAK_TOL = 1e-9
# A probability vector may sum to 1 within this, and its entries may dip
# below 0 by _NEGATIVE_PROB_TOL.
PROBABILITY_TOL = 1e-9
_NEGATIVE_PROB_TOL = 1e-12
# A type-II error at or below this gives an infinite testing divergence.
_BETA_FLOOR = 1e-15


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0.0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum()) + 0.0  # normalizes -0.0


def von_neumann(rho: DensityOperator) -> float:
    """S(rho) = -Tr(rho log rho) from the eigenvalue spectrum."""
    return _entropy_bits(rho.clipped_spectrum)


def min_entropy(rho: DensityOperator) -> float:
    """H_min(rho) = -log of the largest eigenvalue."""
    top = float(rho.clipped_spectrum.max())
    return max(0.0, -math.log2(top))


def spectral_skew(rho: DensityOperator) -> float:
    """S(rho) - H_min(rho) >= 0; vanishes for flat spectra and pure states."""
    return max(0.0, von_neumann(rho) - min_entropy(rho))


def reference_overlap(rho: DensityOperator, ref: ReferenceSet) -> float:
    """Tr(Pi_R rho), the mass retained inside the reference subspace: the
    sum of rho's diagonal over a coordinate reference's index set, otherwise
    one O(d^2) overlap of the two matrices."""
    _check_same_dim(rho, ref)
    indices = ref.coordinate_indices
    if indices is not None:
        return float(rho.matrix.diagonal()[indices].real.sum())
    # Pi_R is Hermitian, so the trace is the elementwise sum of conj(Pi_R) * rho
    return float(np.vdot(ref.total.matrix, rho.matrix).real)


def _require_supported(rho: DensityOperator, ref: ReferenceSet) -> None:
    q = reference_overlap(rho, ref)
    if q < 1.0 - DEFAULT_LEAK_TOL:
        raise LeakageError(1.0 - q)


def _supported_spectrum(rho: DensityOperator, ref: ReferenceSet) -> np.ndarray:
    """rho's top d_R eigenvalues, descending and clipped at 0, for a state
    supported in H_R (a LeakageError otherwise): by Cauchy interlacing they
    are those of V^dag rho V to within the leaked mass in total."""
    _require_supported(rho, ref)
    return rho.clipped_spectrum[: ref.d_r]


def relative_to_reference(rho: DensityOperator, ref: ReferenceSet) -> float:
    """D(rho || sigma_R) = log2 d_R - S(rho) for a reference-supported state.

    States leaking outside the subspace are rejected (the divergence would
    diverge); use project_renormalize or leakage_adjusted_divergence instead.
    """
    _require_supported(rho, ref)
    return max(0.0, math.log2(ref.d_r) - von_neumann(rho))


def max_relative_to_reference(rho: DensityOperator, ref: ReferenceSet) -> float:
    """D_max(rho || sigma_R) = log2 d_R - H_min(rho)."""
    _require_supported(rho, ref)
    return max(0.0, math.log2(ref.d_r) - min_entropy(rho))


def _waterfill_weights(d_r: int, eta: float) -> np.ndarray:
    """The Neyman-Pearson test against the flat sigma_R at type-I level eta,
    as weights on rho's eigenvectors in descending eigenvalue order:
    min(1, max(0, eta d_R - i)) on the i-th, so the leading ones are accepted
    whole and the marginal one in part, spending the budget eta d_R exactly."""
    _check_level("eta", eta)
    # np.clip(x, 0.0, 1.0) by two ufunc calls, without its wrapper: the same
    # doubles on these finite entries, none of which is -0.0
    return np.minimum(np.maximum(eta * d_r - np.arange(d_r), 0.0), 1.0)


def hypothesis_testing_divergence(
    rho: DensityOperator, ref: ReferenceSet, eta: float
) -> float:
    """D_H^eta(rho || sigma_R) by exact Neyman-Pearson waterfilling.

    sigma_R is flat on the subspace, so rho and sigma_R commute and the
    optimal test is classical: the type-II error is 1 - w . lambda, with w
    the waterfilling weights and lambda rho's eigenvalues, descending.
    Returns +inf when the type-II error hits 0.
    """
    weights = _waterfill_weights(ref.d_r, eta)
    return _testing_divergence(1.0 - float(weights @ _supported_spectrum(rho, ref)))


def _testing_divergence(beta: float) -> float:
    """-log2 of the type-II error beta, +inf at or below _BETA_FLOOR."""
    if beta <= _BETA_FLOOR:
        return math.inf
    return -math.log2(beta)


def shannon(probabilities) -> float:
    """Shannon entropy of a probability vector, 0 log 0 := 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probability vector must be 1-d and nonempty")
    # a NaN entry passes the sign and sum checks below
    _check_finite(probabilities=float(np.abs(p).max()))
    if (p < -_NEGATIVE_PROB_TOL).any():
        raise ValidationError("negative probability entry")
    if abs(p.sum() - 1.0) > PROBABILITY_TOL:
        raise ValidationError(f"probabilities sum to {p.sum()!r}, not 1")
    return _entropy_bits(np.maximum(p, 0.0))


def binary_entropy(v: float) -> float:
    """h2(v) = -v log2 v - (1-v) log2(1-v) on [0, 1]."""
    if not 0.0 <= v <= 1.0:
        raise ValidationError(f"binary entropy argument {v} outside [0,1]")
    return _entropy_bits(np.array([v, 1.0 - v]))


def bernoulli_kl(q: float, p: float) -> float:
    """Binary KL divergence D(q || p) in bits."""
    for name, x in (("q", q), ("p", p)):
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"{name} = {x} outside [0,1]")
    terms = 0.0
    if q > 0.0:
        if p == 0.0:
            return math.inf
        terms += q * math.log2(q / p)
    if q < 1.0:
        if p == 1.0:
            return math.inf
        terms += (1.0 - q) * math.log2((1.0 - q) / (1.0 - p))
    return max(0.0, terms)


@dataclass(frozen=True)
class PurityCeiling:
    """An upper bound on complexity; deliberately a distinct type so it can
    never be fed into lower-bound combination."""

    value_structons: float
    purity: float


def purity_upper_bound(rho: DensityOperator, ref: ReferenceSet) -> PurityCeiling:
    """(log2 d_R + log2 Tr rho^2) / log2 Gamma_R, an upper bound only.

    Purity caps the entropy from below, so it can only cap complexity from
    above; the result is typed as a ceiling so lower-bound reports refuse it.
    """
    _require_supported(rho, ref)
    p = rho.purity()
    value = (math.log2(ref.d_r) + math.log2(p)) / ref.log2_gamma
    return PurityCeiling(max(0.0, value), p)


def leakage_adjusted_divergence(
    rho_phys: DensityOperator,
    ref: ReferenceSet,
    mode: str = "multiplicative",
    delta: float | None = None,
) -> float:
    """Certified lower bound on the divergence of a leaking state.

    With q = Tr(Pi_R rho) and rho~ the projected-renormalized state:
    mode="multiplicative" returns q * D(rho~ || sigma_R), which lower-bounds
    the divergence against the reference smoothed at delta = 1 - q;
    mode="full" returns D_Bern(q || 1-delta) + q * D(rho~ || sigma_R) for a
    caller-chosen smoothing delta.
    """
    # a state that is not PSD raises here; the projection alone could drop
    # its negative part and return q > 1
    rho_phys.spectrum
    projected, q = project_renormalize(rho_phys, ref.total)
    d_core = max(0.0, math.log2(ref.d_r) - von_neumann(projected))
    if mode == "multiplicative":
        return q * d_core
    if mode == "full":
        if delta is None:
            raise ValidationError("mode='full' requires the smoothing delta")
        _check_level("delta", delta)
        return bernoulli_kl(q, 1.0 - delta) + q * d_core
    raise ValidationError(f"unknown mode {mode!r} (use 'multiplicative' or 'full')")
