"""Exact finite-dimensional operator algebra.

Dense Hermitian matrices, density operators, projectors, spectral
decompositions, block pinching and trace distance. Everything here is a
pure function of immutable inputs; nothing mutates shared state.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import CompleteLeakageError, ValidationError

HERMITICITY_TOL = 1e-12
PROJECTOR_TOL = 1e-10
DENSITY_TOL = 1e-10
# Diagonal mass above this marks a basis index as carrying support.
_SUPPORT_TOL = 1e-9
# A projector's trace may differ from its integer rank by this much.
_RANK_TOL = 1e-8
# Retained mass Tr(P rho) at or below this is complete leakage.
_COMPLETE_LEAK_TOL = 1e-14
# Supplied measurement operators (POVM effects, tests, witness projectors):
# completeness, 0 <= E <= I and support are checked to this tolerance.
EFFECT_TOL = 1e-9


def _as_matrix(obj) -> np.ndarray:
    """Coerce input to a square complex ndarray."""
    if isinstance(obj, (HermitianOperator, DensityOperator, Projector)):
        return obj.matrix
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate finiteness and Hermiticity entrywise; returns the matrix unchanged.

    Non-finite entries are rejected first: every comparison with NaN is
    false, so a NaN would pass the asymmetry test and poison the spectrum.
    """
    if not np.isfinite(matrix).all():
        raise ValidationError("matrix has non-finite entries (NaN or inf)")
    asym = np.abs(matrix - matrix.conj().T).max() if matrix.size else 0.0
    if asym > HERMITICITY_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    return matrix


def _is_diagonal(matrix: np.ndarray) -> bool:
    # every nonzero entry sits on the diagonal; no d x d temporary is built
    return np.count_nonzero(matrix) == np.count_nonzero(np.diagonal(matrix))


def eigvals_hermitian(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending.

    Exactly diagonal input short-circuits to its sorted diagonal, which keeps
    entropies of basis states and pinched states free of solver noise.
    """
    m = _as_matrix(matrix)
    if _is_diagonal(m):
        return np.sort(m.diagonal().real)[::-1]
    return np.linalg.eigvalsh(m)[::-1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _with_spectrum(rho: "DensityOperator", w: np.ndarray) -> "DensityOperator":
    """rho carrying w as its cached spectrum, so no functional solves for it."""
    rho.__dict__["spectrum"] = _read_only(w)
    return rho


@dataclass(frozen=True)
class HermitianOperator:
    """A validated dim x dim Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        check_hermitian(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(operator) -> SpectralDecomposition:
    """Full spectral decomposition with eigenvalues in descending order.

    Raises ValidationError (naming the max asymmetry) for non-Hermitian input.
    """
    m = check_hermitian(_as_matrix(operator))
    if _is_diagonal(m):
        d = m.diagonal().real
        order = np.argsort(-d, kind="stable")
        return SpectralDecomposition(d[order], np.eye(m.shape[0], dtype=complex)[:, order])
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w[::-1], v[:, ::-1])


def _check_psd(w: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    """Reject a spectrum with an eigenvalue below -tol; returns it unchanged."""
    wmin = float(w.min())
    if wmin < -tol:
        raise ValidationError(f"eigenvalue {wmin:.3e} below -{tol:.0e}; not PSD")
    return w


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace PSD Hermitian matrix; `clipped` marks a state whose spectrum
    was repaired on load while its matrix was kept as given.

    The spectrum is computed at most once per state and cached, so the
    matrix must not be mutated after construction.
    """

    matrix: np.ndarray
    clipped: bool = False
    _: KW_ONLY
    # set only by validate_density, which has run check_hermitian on the matrix
    checked: InitVar[bool] = False

    def __post_init__(self, checked: bool):
        m = _as_matrix(self.matrix)
        if not checked:
            check_hermitian(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > DENSITY_TOL:
            raise ValidationError(f"density operator trace {tr!r} is not 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending and read-only.

        States from `validate_density` carry the spectrum of its single
        eigensolve; any other state solves for it on first use and is
        rejected there if an eigenvalue is below -DENSITY_TOL.
        """
        return _read_only(_check_psd(eigvals_hermitian(self.matrix)))

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def validate_density(matrix) -> DensityOperator:
    """Accept a matrix as a density operator, repairing tolerable PSD drift.

    Rejects when the trace deviates from 1 by more than DENSITY_TOL or an
    eigenvalue is below -DENSITY_TOL. The check is one eigenvalue solve, and
    the result carries its spectrum, so no later functional solves again.
    Eigenvalues in [-DENSITY_TOL, 0) are clipped to zero and the spectrum
    renormalized; the result is flagged `clipped` and keeps the matrix as
    given, which its consumers read with the drift clipped.
    """
    m = check_hermitian(_as_matrix(matrix))
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValidationError(
            f"trace deviation |{tr} - 1| = {abs(tr - 1.0):.3e} > {DENSITY_TOL:.0e}"
        )
    w = _check_psd(eigvals_hermitian(m))
    clipped = bool(w.min() < 0.0)
    if clipped:
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
    return _with_spectrum(DensityOperator(m, clipped=clipped, checked=True), w)


@dataclass(frozen=True)
class Projector:
    """Idempotent Hermitian matrix with integer rank."""

    matrix: np.ndarray
    rank: int = field(default=-1)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        check_hermitian(m)
        err = np.linalg.norm(m @ m - m)
        if err > PROJECTOR_TOL:
            raise ValidationError(f"not idempotent: ||P^2 - P||_F = {err:.3e}")
        tr = float(np.trace(m).real)
        r = int(round(tr)) if self.rank < 0 else self.rank
        if abs(tr - r) > _RANK_TOL:
            raise ValidationError(f"trace {tr!r} is not the integer rank {r}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", r)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_projector(obj) -> Projector:
    return obj if isinstance(obj, Projector) else Projector(_as_matrix(obj))


def _effect_rank(p: np.ndarray) -> int:
    """The rank Tr P of a supplied projective effect, rejected when
    ||P^2 - P||_F > EFFECT_TOL: an effect that is not a projector has no
    rank, and rounding its trace to one overstates what it certifies."""
    err = float(np.linalg.norm(p @ p - p))
    if err > EFFECT_TOL:
        raise ValidationError(f"effect is not a projector: ||P^2 - P||_F = {err:.3e}")
    return int(round(float(np.trace(p).real)))


@dataclass(frozen=True)
class BlockPartition:
    """Pairwise-disjoint index blocks over a basis, possibly partial."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValidationError("empty block in partition")
            for i in b:
                if i < 0:
                    raise ValidationError(f"negative index {i} in partition")
                if i in seen:
                    raise ValidationError(f"index {i} appears in two blocks")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(i for b in self.blocks for i in b)

    @staticmethod
    def singletons(dim: int) -> "BlockPartition":
        return BlockPartition(tuple((i,) for i in range(dim)))

    @staticmethod
    def whole(dim: int) -> "BlockPartition":
        return BlockPartition((tuple(range(dim)),))

    def labels(self, dim: int) -> np.ndarray:
        """Block id per index; indices outside the partition get fresh ids
        (implicit singletons), so the induced pinching is trace preserving."""
        lab = np.arange(dim) + len(self.blocks)
        for k, b in enumerate(self.blocks):
            for i in b:
                if i >= dim:
                    raise ValidationError(f"block index {i} out of range for dim {dim}")
                lab[i] = k
        return lab


def support_indices(rho: DensityOperator) -> np.ndarray:
    """Basis indices carrying diagonal mass above _SUPPORT_TOL."""
    return np.flatnonzero(np.diagonal(rho.matrix).real > _SUPPORT_TOL)


def pinch(rho: DensityOperator, partition: BlockPartition) -> DensityOperator:
    """Erase coherences between blocks: sum_i P_i rho P_i.

    Indices not covered by the partition must carry no support (they are
    kept as implicit singletons, so the trace is preserved exactly).
    """
    supp = support_indices(rho)
    missing = set(supp.tolist()) - set(partition.covered)
    if missing:
        raise ValidationError(
            f"partition does not cover support indices {sorted(missing)}"
        )
    lab = partition.labels(rho.dim)
    mask = lab[:, None] == lab[None, :]
    return DensityOperator(np.where(mask, rho.matrix, 0.0))


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)|, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w = eigvals_hermitian(rho.matrix - sigma.matrix)
    return float(min(1.0, max(0.0, 0.5 * np.abs(w).sum())))


def project_renormalize(rho: DensityOperator, proj: Projector) -> tuple[DensityOperator, float]:
    """Project onto the range of `proj` and renormalize; also returns the
    retained mass q = Tr(P rho).

    The projected state carries its spectrum. For rho >= -DENSITY_TOL the
    projection P rho P is >= -DENSITY_TOL on the range of P, so after the
    division by q its drift is checked against DENSITY_TOL / q.
    """
    if rho.dim != proj.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {proj.dim}")
    # P is Hermitian, so Tr(P rho) is the elementwise sum of conj(P) * rho
    q = float(np.vdot(proj.matrix, rho.matrix).real)
    if q <= _COMPLETE_LEAK_TOL:
        raise CompleteLeakageError(q)
    out = proj.matrix @ rho.matrix @ proj.matrix / q
    out = 0.5 * (out + out.conj().T)
    w = _check_psd(eigvals_hermitian(out), DENSITY_TOL / q)
    return _with_spectrum(DensityOperator(out), w), q
