"""Reference sets: structured vacua, their constructors and robustness bounds.

A reference set is a family of mutually commuting projectors whose product
defines a subspace of dimension d_R. Together with the instruction-alphabet
size Gamma_R = g * |addressable units|, it fixes the zero point and the unit
of every complexity figure in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ExclusiveSectorsError, ValidationError
from .operators import Projector, as_projector, eig_hermitian

COMMUTATOR_TOL = 1e-10

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class ReferenceSet:
    """Commuting projector family with its bandwidth parameters.

    The implied reference state sigma_R = total/d_R is represented by
    (total, d_R) and materialized on demand by `sigma_matrix`.
    """

    projectors: tuple[Projector, ...]
    total: Projector
    d_r: int
    g: int
    addressable_units: int

    @property
    def dim(self) -> int:
        return self.total.dim

    @property
    def gamma(self) -> int:
        return self.g * self.addressable_units

    @property
    def log2_gamma(self) -> float:
        return math.log2(self.gamma)

    def sigma_matrix(self) -> np.ndarray:
        return self.total.matrix / self.d_r

    @cached_property
    def _support_basis(self) -> np.ndarray:
        basis = np.ascontiguousarray(eig_hermitian(self.total.matrix).eigenvectors[:, : self.d_r])
        basis.flags.writeable = False
        return basis

    def support_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the reference subspace (d x d_R).

        Computed once per reference set and read-only; every call returns
        the same array.
        """
        return self._support_basis

    def contains(self, other: "ReferenceSet", tol: float = COMMUTATOR_TOL) -> bool:
        """True when the other subspace sits inside this one."""
        if other.dim != self.dim:
            return False
        pa, pb = self.total.matrix, other.total.matrix
        return bool(np.linalg.norm(pa @ pb - pb) <= tol)


def _check_bandwidth(g: int, addressable_units: int) -> None:
    if g < 1 or addressable_units < 1:
        raise ValidationError("g and addressable_units must be >= 1")
    if g * addressable_units < 2:
        raise ValidationError(
            f"instruction alphabet g*|S|={g * addressable_units} must be >= 2 "
            "so its log is positive"
        )


def build_reference(projectors, g: int, addressable_units: int) -> ReferenceSet:
    """Assemble a reference set from explicit commuting projectors.

    The total projector is the ordered product; it must be nonzero. Pairs
    that fail to commute are reported with their indices and commutator norm.
    """
    _check_bandwidth(g, addressable_units)
    projs = tuple(as_projector(p) for p in projectors)
    if not projs:
        raise ValidationError("at least one projector is required")
    dim = projs[0].dim
    for p in projs[1:]:
        if p.dim != dim:
            raise ValidationError("projectors live on different dimensions")
    for (i, a), (j, b) in combinations(enumerate(projs), 2):
        comm = np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix)
        if comm > COMMUTATOR_TOL:
            raise ValidationError(
                f"projectors {i} and {j} do not commute: ||[P_i,P_j]||_F = {comm:.3e}"
            )
    total = np.eye(dim, dtype=complex)
    for p in projs:
        total = total @ p.matrix
    total = 0.5 * (total + total.conj().T)
    d_r = int(round(float(np.trace(total).real)))
    if d_r < 1:
        raise ExclusiveSectorsError(
            "product of the projectors is zero; the sectors are mutually "
            "exclusive. Pick one target sector's total projector first and "
            "add finer constraints inside it."
        )
    return ReferenceSet(projs, Projector(total, rank=d_r), d_r, g, addressable_units)


def sector_reference(
    n_qubits: int, hamming_weight: int, g: int, addressable_units: int
) -> ReferenceSet:
    """Fixed particle-number sector of n qubits.

    Projects onto computational basis states of the given Hamming weight,
    in lexicographic bitstring order; d_R = C(n, w).
    """
    if not 0 <= hamming_weight <= n_qubits:
        raise ValidationError(
            f"hamming weight {hamming_weight} out of range for {n_qubits} qubits"
        )
    from .io import dim_cap  # local import to avoid a cycle

    dim = 2**n_qubits
    if dim > dim_cap():
        raise ValidationError(f"2^{n_qubits} exceeds the dimension cap {dim_cap()}")
    diag = np.array(
        [1.0 if bin(i).count("1") == hamming_weight else 0.0 for i in range(dim)]
    )
    return build_reference([np.diag(diag).astype(complex)], g, addressable_units)


def _pauli_string_matrix(s: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in s:
        if ch not in _PAULI:
            raise ValidationError(f"invalid Pauli letter {ch!r} (use I, X, Y, Z)")
        m = np.kron(m, _PAULI[ch])
    return m


def _paulis_anticommute(a: str, b: str) -> bool:
    clashes = sum(
        1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y
    )
    return clashes % 2 == 1


def stabilizer_reference(
    n_qubits: int, generators, g: int, addressable_units: int
) -> ReferenceSet:
    """Code subspace of commuting, independent Pauli generators (+1 sign).

    Each generator S contributes the projector (I + S)/2; d_R = 2^(n - m)
    for m independent generators.
    """
    gens = [str(s).upper() for s in generators]
    if not gens:
        raise ValidationError("at least one generator is required")
    for s in gens:
        if len(s) != n_qubits:
            raise ValidationError(f"generator {s!r} is not {n_qubits} letters long")
    for (i, a), (j, b) in combinations(enumerate(gens), 2):
        if _paulis_anticommute(a, b):
            raise ValidationError(f"generators {a!r} and {b!r} anticommute")
    from .io import dim_cap

    dim = 2**n_qubits
    if dim > dim_cap():
        raise ValidationError(f"2^{n_qubits} exceeds the dimension cap {dim_cap()}")
    eye = np.eye(dim, dtype=complex)
    projs = [0.5 * (eye + _pauli_string_matrix(s)) for s in gens]
    ref = build_reference(projs, g, addressable_units)
    expected = 2 ** (n_qubits - len(gens))
    if ref.d_r != expected:
        raise ValidationError(
            f"generators are not independent: rank {ref.d_r} != 2^({n_qubits}-{len(gens)})"
        )
    return ref


def block_reference(blocks, g: int, addressable_units: int) -> ReferenceSet:
    """Direct-sum reference from (sector_dim, retained_rank[, multiplicity]) blocks.

    Each block contributes I_{d} tensor Q with rank(Q) = r inside an
    m-dimensional multiplicity space (m defaults to r); d_R = sum d*r.
    """
    specs = []
    for b in blocks:
        t = tuple(int(x) for x in b)
        if len(t) == 2:
            d, r = t
            m = r
        elif len(t) == 3:
            d, r, m = t
        else:
            raise ValidationError(f"block {b!r} must be (d, r) or (d, r, m)")
        if d < 1 or r < 1 or m < r:
            raise ValidationError(f"block {b!r} needs d >= 1 and m >= r >= 1")
        specs.append((d, r, m))
    if not specs:
        raise ValidationError("empty block list")
    diags = []
    for d, r, m in specs:
        q = np.concatenate([np.ones(r), np.zeros(m - r)])
        diags.append(np.kron(np.ones(d), q))
    return build_reference([np.diag(np.concatenate(diags)).astype(complex)], g, addressable_units)


@dataclass(frozen=True)
class SmoothedReference:
    """Full-rank perturbation (1-delta) sigma_R + delta (I-Pi)/(d-d_R)."""

    base: ReferenceSet
    delta: float
    ambient_dim: int

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"smoothing delta {self.delta} must be in (0,1)")
        if self.ambient_dim != self.base.dim:
            raise ValidationError(
                f"ambient dim {self.ambient_dim} must match the reference dim {self.base.dim}"
            )

    def density_matrix(self) -> np.ndarray:
        d, d_r = self.ambient_dim, self.base.d_r
        pi = self.base.total.matrix
        if d == d_r:
            return self.base.sigma_matrix()
        comp = (np.eye(d, dtype=complex) - pi) / (d - d_r)
        return (1.0 - self.delta) * self.base.sigma_matrix() + self.delta * comp


def smooth_reference(ref: ReferenceSet, delta: float, ambient_dim: int) -> SmoothedReference:
    """Smooth a reference onto the full space; a no-op when d = d_R."""
    if ambient_dim < ref.d_r:
        raise ValidationError("ambient_dim must be at least d_R")
    return SmoothedReference(ref, delta, ambient_dim)


def misspecification_gap(
    ref_a: ReferenceSet, ref_b: ReferenceSet, s_rho_bits: float
) -> tuple[float, float | None]:
    """Worst-case complexity shift from swapping one reference for another.

    Returns the robustness bound
    |log d_R/log G - log d_R'/log G'| + |1/log G - 1/log G'| * S(rho)
    in structon-compatible bit ratios, and, when both alphabets agree and
    ref_b's subspace refines ref_a's, the exact difference
    (log d_R - log d_R')/log G as a second value (otherwise None).
    """
    if s_rho_bits < 0:
        raise ValidationError("entropy must be nonnegative")
    la, lb = ref_a.log2_gamma, ref_b.log2_gamma
    bound = abs(math.log2(ref_a.d_r) / la - math.log2(ref_b.d_r) / lb)
    bound += abs(1.0 / la - 1.0 / lb) * s_rho_bits
    exact = None
    if ref_a.gamma == ref_b.gamma and ref_a.contains(ref_b):
        exact = (math.log2(ref_a.d_r) - math.log2(ref_b.d_r)) / la
    return bound, exact
