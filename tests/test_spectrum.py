"""One spectrum per state, one basis per reference, one setup per run.

Every exact figure is a function of rho's spectrum, so validation plus the
exact pipeline must eigensolve rho once; the reference support basis is
built once per reference set; each protocol's outcome distributions are set
up once per run, so coverage eigensolves as often at any trial count; and
sampling from those distributions draws exactly the counts of the explicit
POVM it replaces. A coordinate reference is read as an index set: its
retained mass and dephase distribution are gathers of rho's diagonal, the
same numbers as the reads through its support basis.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcc import (
    DensityOperator,
    ReferenceSet,
    RunConfig,
    block_reference,
    build_reference,
    coverage_experiment,
    pipeline,
    sector_reference,
    simulate_record,
    stabilizer_reference,
    stream,
    validate_density,
)
from rcc import entropy, harness
from rcc.entropy import DEFAULT_LEAK_TOL, _supported_spectrum, reference_overlap
from rcc.harness import _dephase_setup
from rcc.records import PROTOCOLS
from rcc.harness import default_witness_projector, optimal_test_projector
from conftest import full_reference, random_density
from oracles import explicit_povm_counts


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts every Hermitian eigensolve numpy performs."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def ginibre_matrix(rng, dim, rank):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def subspace_state(rng, ref):
    """Full-rank state inside the reference subspace, built from the projector."""
    pi = ref.total.matrix
    m = pi @ ginibre_matrix(rng, ref.dim, ref.dim) @ pi
    m /= np.trace(m).real
    return validate_density(0.5 * (m + m.conj().T))


STATES = {
    "unclipped": lambda rng: validate_density(ginibre_matrix(rng, 16, 16)),
    "clipped": lambda rng: validate_density(ginibre_matrix(rng, 16, 8)),
    "diagonal": lambda rng: validate_density(np.diag(rng.dirichlet(np.ones(16)))),
}

REFERENCES = {
    "sector": lambda: sector_reference(6, 3, 2, 6),
    "block": lambda: block_reference([(2, 3, 4), (3, 2)], 2, 3),
    "stabilizer": lambda: stabilizer_reference(5, ["XXIII", "IIZZI"], 2, 5),
}


class TestEigensolveCount:
    @pytest.mark.parametrize("rank, clipped", [(16, False), (8, True)])
    def test_exact_run_eigensolves_rho_once(self, rng, eig_calls, rank, clipped):
        matrix = ginibre_matrix(rng, 16, rank)
        ref = full_reference(16)
        rho = validate_density(matrix)
        assert rho.clipped is clipped
        report = pipeline(RunConfig(state=rho, reference=ref, protocols=("exact",)))
        assert sum(eig_calls.values()) == 1
        assert report["exact"]["rcc_structons"] >= 0.0

    def test_dephase_reuses_the_reference_basis(self, rng, eig_calls):
        # an X-type generator makes the projector non-diagonal, so building
        # its basis needs a real eigensolve
        ref = stabilizer_reference(4, ["XXII"], 2, 4)
        rho = subspace_state(rng, ref)
        eig_calls.update(eigh=0, eigvalsh=0)
        for seed in (1, 2):
            simulate_record(rho, ref, "dephase", 500, seed=seed)
        assert sum(eig_calls.values()) <= 1

    def test_coverage_eigensolves_do_not_grow_with_trials(self, rng, eig_calls):
        rho = subspace_state(rng, stabilizer_reference(4, ["XXII"], 2, 4))
        counts = []
        for trials in (10, 40):
            # a fresh reference, so both runs build its support basis
            config = RunConfig(
                state=rho, reference=stabilizer_reference(4, ["XXII"], 2, 4),
                protocols=("hypothesis_test", "witness", "dephase"), n_samples=200, seed=3,
            )
            eig_calls.update(eigh=0, eigvalsh=0)
            coverage_experiment(config, trials)
            counts.append(sum(eig_calls.values()))
        assert counts[0] == counts[1]

    def test_coverage_eigensolves_once_for_both_projectors(self, rng, eig_calls):
        # the witness and the test read rho's top d_R eigenvalues from its
        # validation, and the targets come from the same setups
        ref = stabilizer_reference(4, ["XXII"], 2, 4)
        rho = subspace_state(rng, ref)
        ref.support_basis()
        config = RunConfig(state=rho, reference=ref,
                           protocols=("hypothesis_test", "witness", "dephase"),
                           n_samples=200, seed=3)
        eig_calls.update(eigh=0, eigvalsh=0)
        coverage_experiment(config, 10)
        assert eig_calls == {"eigh": 0, "eigvalsh": 0}

    def test_supplied_witness_makes_no_eigensolve(self, rng, eig_calls):
        # a supplied projector is checked by products and read as one trace
        ref = stabilizer_reference(4, ["XXII"], 2, 4)
        rho = subspace_state(rng, ref)
        proj = default_witness_projector(rho, ref, 2)
        eig_calls.update(eigh=0, eigvalsh=0)
        record = simulate_record(rho, ref, "witness", 500, seed=1, witness_projector=proj)
        assert eig_calls == {"eigh": 0, "eigvalsh": 0}
        assert record.meta == {"rank": 2}

    @pytest.mark.parametrize("protocols", [
        ("hypothesis_test", "witness"), ("witness", "dephase", "hypothesis_test"), ("dephase",),
    ])
    def test_pipeline_eigensolves_once_for_both_projectors(self, rng, eig_calls, protocols):
        # a simulating pipeline sets its protocols up on rho's validated
        # spectrum and the diagonal of V^dag rho V: no eigensolve
        ref = stabilizer_reference(4, ["XXII"], 2, 4)
        rho = subspace_state(rng, ref)
        ref.support_basis()
        config = RunConfig(state=rho, reference=ref, protocols=protocols, n_samples=200, seed=3)
        eig_calls.update(eigh=0, eigvalsh=0)
        pipeline(config)
        assert eig_calls == {"eigh": 0, "eigvalsh": 0}


    @pytest.mark.parametrize("make_ref", [
        lambda: sector_reference(6, 3, 2, 6),
        lambda: stabilizer_reference(3, ["XXI"], 2, 3),
    ], ids=["sector", "XXI"])
    def test_a_coverage_call_reads_rho_once(self, rng, eig_calls, monkeypatch, make_ref):
        # the test's setup and target and the witness's setup share one
        # supported-spectrum read: one retained mass, one leakage check
        ref = make_ref()
        rho = subspace_state(rng, ref)
        ref.support_basis()
        reads = {"overlap": 0, "spectrum": 0}

        def counted(name, original):
            def spy(*args):
                reads[name] += 1
                return original(*args)
            return spy

        monkeypatch.setattr(entropy, "reference_overlap",
                            counted("overlap", entropy.reference_overlap))
        monkeypatch.setattr(harness, "_supported_spectrum",
                            counted("spectrum", harness._supported_spectrum))
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=200, seed=3)
        eig_calls.update(eigh=0, eigvalsh=0)
        summary = coverage_experiment(config, 10)
        assert reads == {"overlap": 1, "spectrum": 1}
        assert eig_calls == {"eigh": 0, "eigvalsh": 0}
        assert sorted(summary["protocols"]) == sorted(PROTOCOLS)


class TestSpectrumCache:
    @pytest.mark.parametrize("kind", sorted(STATES))
    def test_spectrum_integrity(self, rng, kind):
        rho = STATES[kind](rng)
        assert rho.clipped is (kind == "clipped")
        w = rho.spectrum
        assert rho.spectrum is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.5
        assert (np.diff(w) <= 0.0).all()
        assert (w >= 0.0).all()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.abs(w - np.linalg.eigvalsh(rho.matrix)[::-1]).max() <= 1e-12

    def test_unvalidated_state_solves_on_first_use(self, rng):
        rho = random_density(rng, 8)
        fresh = DensityOperator(rho.matrix)
        assert np.abs(fresh.spectrum - rho.spectrum).max() <= 1e-12
        assert not fresh.spectrum.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(REFERENCES)))
    def test_supported_spectrum_is_the_compressions(self, seed, kind):
        # the eigensolve the setups no longer make, the descending
        # eigenvalues of V^dag rho V, is the oracle for rho's top d_R; the
        # state is in H_R plus 1e-10 of flat mass outside it, within the leak
        # tolerance and far above eigensolver noise, so nothing is clipped
        ref = REFERENCES[kind]()
        basis = ref.support_basis()
        inside = ginibre_matrix(np.random.default_rng(seed), ref.d_r, ref.d_r)
        outside = (np.eye(ref.dim) - ref.total.matrix) / (ref.dim - ref.d_r)
        rho = validate_density((1.0 - 1e-10) * basis @ inside @ basis.conj().T + 1e-10 * outside)
        assert not rho.clipped
        small = basis.conj().T @ rho.matrix @ basis
        expected = np.linalg.eigvalsh(0.5 * (small + small.conj().T))[::-1]
        assert np.abs(_supported_spectrum(rho, ref) - expected).max() <= 1e-12

    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    def test_support_basis_is_built_once(self, kind):
        ref = REFERENCES[kind]()
        basis = ref.support_basis()
        assert ref.support_basis() is basis
        assert not basis.flags.writeable
        assert basis.shape == (ref.dim, ref.d_r)
        assert np.abs(basis @ basis.conj().T - ref.total.matrix).max() < 1e-12


class TestDephaseRecordIdentity:
    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    def test_counts_match_the_explicit_povm(self, rng, kind):
        ref = REFERENCES[kind]()
        rho = subspace_state(rng, ref)
        basis = ref.support_basis()
        effects = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(ref.d_r)]
        effects.append(np.eye(ref.dim) - ref.total.matrix)
        for trial in range(20):
            explicit = explicit_povm_counts(rho, effects, 2000, stream(trial, 2, 0))
            record = simulate_record(rho, ref, "dephase", 2000, seed=trial)
            assert explicit.pop(str(ref.d_r)) == 0
            assert record.counts == explicit
            assert record.meta == {"basis": "reference-support"}


class TestWitnessAndTestRecordIdentity:
    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    def test_witness_counts_match_the_explicit_povm(self, rng, kind):
        ref = REFERENCES[kind]()
        rho = subspace_state(rng, ref)
        proj = default_witness_projector(rho, ref, 2)
        effects = [proj, np.eye(ref.dim) - proj]
        for trial in range(20):
            explicit = explicit_povm_counts(
                rho, effects, 2000, stream(trial, 1, 0), labels=["success", "failure"]
            )
            record = simulate_record(rho, ref, "witness", 2000, seed=trial, witness_rank=2)
            supplied = simulate_record(rho, ref, "witness", 2000, seed=trial,
                                       witness_projector=proj)
            assert record.counts == explicit
            assert supplied == record
            assert record.n == 2000 and record.meta == {"rank": 2}

    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    def test_hypothesis_test_counts_match_the_explicit_povm(self, rng, kind):
        ref = REFERENCES[kind]()
        rho = subspace_state(rng, ref)
        sigma = DensityOperator(ref.sigma_matrix())
        t = optimal_test_projector(rho, ref, 0.25 * 0.5)
        effects = [t, np.eye(ref.dim) - t]
        labels = ["accept_h1", "accept_h0"]
        for trial in range(20):
            # the null calibration draws on the stream (trial, 0, 0), the
            # alternative on (trial, 0, 1)
            null = explicit_povm_counts(sigma, effects, 2000, stream(trial, 0, 0), labels=labels)
            alt = explicit_povm_counts(rho, effects, 2000, stream(trial, 0, 1), labels=labels)
            record = simulate_record(rho, ref, "hypothesis_test", 2000, seed=trial)
            assert record.counts == {
                **{f"null_{k}": v for k, v in null.items()},
                **{f"alt_{k}": v for k, v in alt.items()},
            }
            assert record.n == 4000 and record.meta == {"eta": 0.25, "eta_test": 0.125}


# coordinate references, each with its support worked out from its construction
COORDINATE = {
    "sector": (lambda: sector_reference(6, 3, 2, 6),
               [i for i in range(64) if bin(i).count("1") == 3]),
    # (2, 3, 4): basis states 0-2 and 4-6 of 8; (3, 2): all of 8-13
    "block": (lambda: block_reference([(2, 3, 4), (3, 2)], 2, 3),
              [0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13]),
    # the first letter is the most significant bit: bits 3 = 2 and 1 = 0
    "z-stabilizer": (lambda: stabilizer_reference(4, ["ZZII", "IIZZ"], 2, 4), [0, 3, 12, 15]),
    "projectors": (lambda: build_reference(
        [np.diag([1.0, 1, 1, 1, 0, 0, 0, 0]), np.diag([1.0, 0, 1, 0, 1, 0, 1, 0])], 2, 2), [0, 2]),
}
HADAMARD_PLUS = np.full((2, 2), 0.5)


def dense(ref):
    """The same reference read through its support basis: a copy whose index
    set is None."""
    copy = dataclasses.replace(ref)
    vars(copy)["coordinate_indices"] = None
    return copy


def coordinate_states(rng, ref):
    """A mixed and a pure state inside H_R and a full-rank state that leaks."""
    basis = dense(ref).support_basis()
    v = basis @ (rng.normal(size=ref.d_r) + 1j * rng.normal(size=ref.d_r))
    v /= np.linalg.norm(v)
    return [subspace_state(rng, ref), validate_density(np.outer(v, v.conj())),
            random_density(rng, ref.dim)]


class TestCoordinateReferences:
    @pytest.mark.parametrize("kind", sorted(COORDINATE))
    def test_the_index_set_is_the_sorted_support(self, kind):
        factory, support = COORDINATE[kind]
        ref = factory()
        indices = ref.coordinate_indices
        assert indices.tolist() == support
        assert ref.coordinate_indices is indices and not indices.flags.writeable
        assert np.array_equal(ref.support_basis(), np.eye(ref.dim)[:, indices])

    @pytest.mark.parametrize("ref", [
        REFERENCES["stabilizer"](),
        build_reference([np.kron(HADAMARD_PLUS, np.eye(2))], 2, 2),
        build_reference([np.kron(np.diag([1.0, 0.0]), HADAMARD_PLUS)], 2, 2),
    ], ids=["XXIII-IIZZI", "rotated", "diagonal-times-rotated"])
    def test_a_reference_not_spanned_by_basis_vectors_has_no_index_set(self, rng, ref):
        assert ref.coordinate_indices is None
        rho = random_density(rng, ref.dim)
        assert reference_overlap(rho, ref) == float(np.vdot(ref.total.matrix, rho.matrix).real)

    @pytest.mark.parametrize("kind", sorted(COORDINATE))
    def test_the_gathered_reads_match_the_support_basis_reads(self, rng, kind):
        # the dephase distribution and target bit for bit, the retained mass
        # within 4 ULPs (a different summation order) and the same leak decision
        ref = COORDINATE[kind][0]()
        for rho in coordinate_states(rng, ref):
            labels, dists, meta, target = _dephase_setup(rho, ref, None, None, None)
            dense_labels, dense_dists, dense_meta, dense_target = _dephase_setup(
                rho, dense(ref), None, None, None)
            assert (labels, meta) == (dense_labels, dense_meta)
            assert dists[0].tobytes() == dense_dists[0].tobytes()
            assert target() == dense_target()
            kept, dense_kept = reference_overlap(rho, ref), reference_overlap(rho, dense(ref))
            assert abs(kept - dense_kept) <= 4 * np.spacing(dense_kept)
            assert (kept < 1.0 - DEFAULT_LEAK_TOL) == (dense_kept < 1.0 - DEFAULT_LEAK_TOL)

    @pytest.mark.parametrize("kind", sorted(COORDINATE))
    def test_a_coordinate_run_never_builds_the_support_basis(self, rng, monkeypatch, kind):
        ref = COORDINATE[kind][0]()
        rho = subspace_state(rng, ref)
        monkeypatch.setattr(ReferenceSet, "support_basis",
                            lambda self: pytest.fail("built the support basis"))
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=200)
        coverage_experiment(config, trials=20)
        simulate_record(rho, ref, "dephase", 400, seed=1)
        assert "_support_basis" not in vars(ref)
