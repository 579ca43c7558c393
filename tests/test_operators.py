import numpy as np
import pytest

from rcc import operators
from rcc import (
    BlockPartition,
    CompleteLeakageError,
    DensityOperator,
    Projector,
    ValidationError,
    eig_hermitian,
    pinch,
    project_renormalize,
    validate_density,
    von_neumann,
)
from conftest import random_density, random_partition

from oracles import eigenvalues_by_det_bisection
from test_spectrum import eig_calls, ginibre_matrix  # noqa: F401 (eig_calls is a fixture)


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


class TestIsDiagonal:
    @pytest.mark.parametrize("tiny", [1e-300, 1e-300j, 5e-324])
    def test_tiny_off_diagonal_entry_is_off_diagonal(self, tiny):
        m = np.eye(3, dtype=complex)
        m[0, 2] = tiny
        assert not operators._is_diagonal(m)

    def test_negative_zero_off_diagonal_is_zero(self):
        m = np.diag([0.5, 0.0, 0.5]).astype(complex)
        m[0, 1] = complex(-0.0, -0.0)
        m[2, 0] = complex(-0.0, 0.0)
        assert operators._is_diagonal(m)

    def test_matches_subtracting_the_diagonal(self, rng):
        for _ in range(500):
            d = int(rng.integers(1, 9))
            values = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = np.where(rng.random((d, d)) < rng.choice([0.0, 0.02, 0.2]), values, 0.0)
            m[np.diag_indices(d)] = np.where(rng.random(d) < 0.3, 0.0, np.diagonal(values))
            assert operators._is_diagonal(m) == (
                np.count_nonzero(m - np.diag(np.diagonal(m))) == 0
            )


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
        assert rho.spectrum.min() >= 0.0
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-14

    def test_rejects_negative_beyond_tol(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            validate_density(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([np.inf, 0.5]), "matrix has non-finite entries (NaN or inf)"),
        (np.array([[0.5, 1e-3], [0.0, 0.5]]),
         "matrix is not Hermitian: max asymmetry 1.000e-03 exceeds 1e-12"),
        # a matrix with two faults reports the first check it fails
        (np.array([[0.6, 1e-3], [0.0, 0.5]]),
         "matrix is not Hermitian: max asymmetry 1.000e-03 exceeds 1e-12"),
        (np.diag([0.6, 0.5]), "trace deviation |1.1 - 1| = 1.000e-01 > 1e-10"),
        (np.diag([1.5, -0.5]), "eigenvalue -5.000e-01 below -1e-10; not PSD"),
        (np.array([[1.5, 0.1], [0.1, -0.5]]), "eigenvalue -5.050e-01 below -1e-10; not PSD"),
    ])
    def test_each_fault_keeps_its_message(self, matrix, message):
        with pytest.raises(ValidationError) as info:
            validate_density(matrix)
        assert str(info.value) == message

    @pytest.mark.parametrize("rank", [12, 6])
    def test_checks_the_input_once(self, rng, monkeypatch, rank):
        a = rng.normal(size=(12, rank)) + 1j * rng.normal(size=(12, rank))
        matrix = a @ a.conj().T
        matrix = 0.5 * (matrix + matrix.conj().T) / np.trace(matrix).real
        checked = []
        original = operators.check_hermitian

        def counted(m, *args, **kwargs):
            checked.append(np.array_equal(m, matrix))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(operators, "check_hermitian", counted)
        rho = validate_density(matrix)
        assert rho.clipped is (rank < 12)
        assert checked.count(True) == 1


class TestEigenvaluesOnlyValidation:
    @pytest.mark.parametrize("rank", [16, 8])
    def test_one_eigvalsh_and_no_eigh(self, rng, eig_calls, rank):
        rho = validate_density(ginibre_matrix(rng, 16, rank))
        assert rho.clipped is (rank < 16)
        rho.spectrum
        assert eig_calls == {"eigh": 0, "eigvalsh": 1}

    def test_clipped_state_keeps_the_input_matrix(self, rng):
        matrix = ginibre_matrix(rng, 16, 8)
        given = matrix.copy()
        rho = validate_density(matrix)
        assert rho.clipped
        assert np.array_equal(rho.matrix, given)

    @pytest.mark.parametrize("rank", [16, 8, 1])
    def test_carried_spectrum_describes_the_matrix(self, rng, rank):
        for _ in range(10):
            rho = validate_density(ginibre_matrix(rng, 16, rank))
            w = rho.spectrum
            assert (w >= 0.0).all()
            assert abs(w.sum() - 1.0) <= 1e-12
            drift = np.abs(w - np.linalg.eigvalsh(rho.matrix)[::-1]).max()
            assert drift <= operators.DENSITY_TOL


class TestDirectStatePositivity:
    def test_negative_spectrum_rejected(self):
        rho = DensityOperator(np.diag([1.5, -0.5]))
        with pytest.raises(ValidationError) as info:
            rho.spectrum
        assert str(info.value) == "eigenvalue -5.000e-01 below -1e-10; not PSD"
        with pytest.raises(ValidationError, match="not PSD"):
            von_neumann(DensityOperator(np.array([[1.5, 0.1], [0.1, -0.5]])))

    def test_drift_within_tolerance_accepted(self):
        rho = DensityOperator(np.diag([1.0 + 0.5e-10, -0.5e-10]))
        assert rho.spectrum.min() == -0.5e-10
        assert von_neumann(rho) == pytest.approx(0.0, abs=1e-8)

    def test_projection_tolerates_drift_scaled_by_retained_mass(self):
        # validated at -0.9 DENSITY_TOL and kept as given; renormalising by
        # q = 0.5 doubles the drift to -1.8 DENSITY_TOL
        tol = operators.DENSITY_TOL
        rho = validate_density(np.diag([0.5 + 0.9 * tol, 0.5, -0.9 * tol]))
        assert rho.clipped
        proj = Projector(np.diag([1.0, 0.0, 1.0]).astype(complex))
        out, q = project_renormalize(rho, proj)
        assert q == pytest.approx(0.5, abs=1e-15)
        assert out.spectrum.min() == pytest.approx(-1.8 * tol, rel=1e-6)
        assert von_neumann(out) == pytest.approx(0.0, abs=1e-8)

    def test_projection_rejects_a_negative_state(self):
        rho = DensityOperator(np.diag([0.75, 0.5, -0.25]))
        proj = Projector(np.diag([1.0, 0.0, 1.0]).astype(complex))
        with pytest.raises(ValidationError, match="eigenvalue -5.000e-01 below -2e-10; not PSD"):
            project_renormalize(rho, proj)


NON_FINITE = [
    # every comparison with NaN is false, so the asymmetry and trace checks alone pass it
    np.diag([np.nan, 0.5, 0.5, 0.0]),
    np.full((2, 2), np.nan),
    np.diag([np.inf, 0.5, 0.5, -np.inf]),
    np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.0]]),
]


class TestNonFinite:
    @pytest.mark.parametrize("matrix", NON_FINITE)
    @pytest.mark.parametrize("build", [validate_density, DensityOperator, Projector,
                                       eig_hermitian])
    def test_rejected_everywhere(self, build, matrix):
        with pytest.raises(ValidationError, match="non-finite"):
            build(matrix)


class TestCheckHermitian:
    def test_overflowing_asymmetry_is_rejected_without_a_warning(self):
        # M - M^dag overflows to inf at (0, 1); pytest turns a warning into an error
        m = np.array([[0.5, 1.7e308], [-1.7e308, 0.5]])
        with pytest.raises(ValidationError, match="asymmetry inf"):
            operators.check_hermitian(m)


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
            assert von_neumann(pinch(rho, part)) >= von_neumann(rho) - 1e-12

    def test_trace_preserved_exactly(self, rng):
        for _ in range(20):
            rho = random_density(rng, 9)
            part = random_partition(rng, range(9))
            out = pinch(rho, part)
            assert np.trace(out.matrix) == np.trace(rho.matrix)

    def test_output_is_positive(self, rng):
        for _ in range(40):
            rho = random_density(rng, 7, rank=int(rng.integers(1, 8)))
            out = pinch(rho, random_partition(rng, range(7)))
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-12

    def test_block_diagonal_state_is_fixed(self, rng):
        part = BlockPartition(((0, 3), (1, 2, 4)))
        for _ in range(20):
            rho = pinch(random_density(rng, 5), part)
            assert np.array_equal(pinch(rho, part).matrix, rho.matrix)

    def test_never_increases_trace_distance(self, rng):
        # a channel contracts the trace norm, and the pinching is a channel
        def distance(a, b):
            return 0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum()

        for _ in range(50):
            a, b = random_density(rng, 6), random_density(rng, 6)
            part = random_partition(rng, range(6))
            assert distance(pinch(a, part), pinch(b, part)) <= distance(a, b) + 1e-12

    def test_block_index_out_of_range_rejected(self):
        rho = validate_density(np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError, match="block index 2 out of range for dim 2"):
            pinch(rho, BlockPartition(((0, 1), (2,))))


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
        with pytest.raises(CompleteLeakageError, match="leakage_adjusted_divergence"):
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

    def test_dimension_mismatch_rejected(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        proj = Projector(np.diag([1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValidationError, match="dimension mismatch: state 2, reference 3"):
            project_renormalize(rho, proj)


class TestBlockPartition:
    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            BlockPartition(((0, 1), (1, 2)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValidationError):
            BlockPartition(((0,), ()))

    def test_rejects_negative_index(self):
        with pytest.raises(ValidationError, match="negative index -1"):
            BlockPartition(((0, -1),))

    def test_uncovered_indices_are_their_own_blocks(self):
        part = BlockPartition(((3, 1),))
        assert part.covered == frozenset({1, 3})
        labels = part.labels(5)
        assert labels[1] == labels[3]
        assert len(set(labels.tolist())) == 4


class TestProjector:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError, match="idempotent"):
            Projector(np.diag([0.5, 0.5]).astype(complex))

    def test_rank_from_trace(self):
        p = Projector(np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert p.rank == 2
        # the rounded trace, which no caller gives
        m = np.diag([1.0 + 1e-14, 0.0, 1.0, 1.0]).astype(complex)
        assert Projector(m).rank == 3
        with pytest.raises(TypeError):
            Projector(m, rank=3)

    def test_a_trace_off_its_integer_is_rejected(self, monkeypatch):
        # diag(1, 1e-6): its trace is 1e-6 off 1, and ||P^2 - P||_F ~ 1e-6
        m = np.diag([1.0, 1e-6]).astype(complex)
        with pytest.raises(ValidationError, match="not idempotent"):
            Projector(m)
        # with the idempotence tolerance past it, the trace check rejects it
        monkeypatch.setattr(operators, "PROJECTOR_TOL", 1e-5)
        with pytest.raises(ValidationError, match="is not the integer rank 1"):
            Projector(m)
