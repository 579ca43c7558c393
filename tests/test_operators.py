import numpy as np
import pytest

from rcc import (
    BlockPartition,
    CompleteLeakageError,
    DensityOperator,
    HermitianOperator,
    Projector,
    ValidationError,
    eig_hermitian,
    pinch,
    project_renormalize,
    trace_distance,
    validate_density,
    von_neumann,
)
from conftest import random_density, random_partition

from oracles import eigenvalues_by_det_bisection


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(np.eye(4, dtype=complex))
        assert np.allclose(dec.eigenvalues, [1, 1, 1, 1])

    def test_already_diagonal(self):
        dec = eig_hermitian(np.diag([0.7, 0.3]).astype(complex))
        assert dec.eigenvalues.tolist() == [0.7, 0.3]

    def test_matches_det_bisection_oracle(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = 0.5 * (a + a.conj().T)
        dec = eig_hermitian(h)
        oracle = eigenvalues_by_det_bisection(h)
        assert np.abs(dec.eigenvalues - oracle).max() < 1e-8

    def test_descending_and_reconstruction(self, rng):
        for _ in range(20):
            rho = random_density(rng, 12)
            dec = eig_hermitian(rho.matrix)
            assert (np.diff(dec.eigenvalues) <= 1e-14).all()
            err = np.linalg.norm(dec.reconstruct() - rho.matrix)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(rho.matrix))
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_non_hermitian_rejected_with_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetry"):
            eig_hermitian(bad)


class TestValidateDensity:
    def test_accepts_balanced(self):
        rho = validate_density(np.diag([0.5, 0.5]))
        assert not rho.clipped

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density(np.diag([0.6, 0.5]))

    def test_clips_tolerance_edge(self):
        rho = validate_density(np.diag([1 + 1e-12, -1e-12]))
        assert rho.clipped
        assert rho.eigenvalues().min() >= 0.0
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-14

    def test_rejects_negative_beyond_tol(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            validate_density(np.diag([1.5, -0.5]))


NON_FINITE = [
    # every comparison with NaN is false, so the asymmetry and trace checks alone pass it
    np.diag([np.nan, 0.5, 0.5, 0.0]),
    np.full((2, 2), np.nan),
    np.diag([np.inf, 0.5, 0.5, -np.inf]),
    np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.0]]),
]


class TestNonFinite:
    @pytest.mark.parametrize("matrix", NON_FINITE)
    @pytest.mark.parametrize(
        "build", [validate_density, DensityOperator, Projector, HermitianOperator]
    )
    def test_rejected_everywhere(self, build, matrix):
        with pytest.raises(ValidationError, match="non-finite"):
            build(matrix)


class TestTraceDistance:
    def test_equal_states(self):
        rho = validate_density(np.diag([0.5, 0.5]))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == 1.0

    def test_direct_eigenvalue_sum(self):
        a = validate_density(np.diag([0.7, 0.3]))
        b = validate_density(np.diag([0.5, 0.5]))
        assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-14)

    def test_dim_mismatch(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            trace_distance(a, b)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(50):
            a, b, c = (random_density(rng, 6) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert abs(dab - dba) < 1e-10
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


class TestPinch:
    def test_singletons_on_diagonal_is_identity(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        out = pinch(rho, BlockPartition.singletons(2))
        assert np.array_equal(out.matrix, rho.matrix)

    def test_plus_state_dephases(self):
        plus = validate_density(np.full((2, 2), 0.5))
        out = pinch(plus, BlockPartition.singletons(2))
        assert np.array_equal(out.matrix, np.diag([0.5, 0.5]))

    def test_whole_space_block_is_identity_channel(self, rng):
        rho = random_density(rng, 5)
        out = pinch(rho, BlockPartition.whole(5))
        assert np.array_equal(out.matrix, rho.matrix)

    def test_uncovered_support_rejected(self):
        rho = validate_density(np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError, match="cover"):
            pinch(rho, BlockPartition(((0,),)))

    def test_idempotent(self, rng):
        for _ in range(50):
            rho = random_density(rng, 8)
            part = random_partition(rng, range(8))
            once = pinch(rho, part)
            twice = pinch(once, part)
            assert np.abs(twice.matrix - once.matrix).max() < 1e-12

    def test_entropy_never_decreases(self, rng):
        # spot check here; the full 500-case suite lives in the acceptance module
        for _ in range(100):
            dim = int(rng.integers(2, 33))
            rho = random_density(rng, dim)
            part = random_partition(rng, range(dim))
            assert von_neumann(pinch(rho, part)).bits >= von_neumann(rho).bits - 1e-12

    def test_trace_preserved_exactly(self, rng):
        for _ in range(20):
            rho = random_density(rng, 9)
            part = random_partition(rng, range(9))
            out = pinch(rho, part)
            assert np.trace(out.matrix) == np.trace(rho.matrix)


class TestProjectRenormalize:
    def test_supported_state_unchanged(self):
        rho = validate_density(np.diag([0.6, 0.4, 0.0]))
        proj = Projector(np.diag([1.0, 1.0, 0.0]).astype(complex))
        out, q = project_renormalize(rho, proj)
        assert q == pytest.approx(1.0, abs=1e-14)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_forced_by_definition(self):
        rho = validate_density(np.diag([0.9, 0.1]))
        proj = Projector(np.diag([1.0, 0.0]).astype(complex))
        out, q = project_renormalize(rho, proj)
        assert q == pytest.approx(0.9, abs=1e-14)
        assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-14

    def test_complete_leakage(self):
        rho = validate_density(np.diag([0.0, 1.0]))
        proj = Projector(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(CompleteLeakageError, match="smoothed"):
            project_renormalize(rho, proj)

    def test_output_unit_trace_and_support(self, rng):
        diag = np.zeros(6)
        diag[:4] = 1.0
        proj = Projector(np.diag(diag).astype(complex))
        for _ in range(25):
            rho = random_density(rng, 6)
            out, q = project_renormalize(rho, proj)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
            outside = (np.eye(6) - proj.matrix) @ out.matrix
            assert np.abs(outside).max() < 1e-12


class TestBlockPartition:
    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            BlockPartition(((0, 1), (1, 2)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValidationError):
            BlockPartition(((0,), ()))


class TestProjector:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError, match="idempotent"):
            Projector(np.diag([0.5, 0.5]).astype(complex))

    def test_rank_from_trace(self):
        p = Projector(np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert p.rank == 2
