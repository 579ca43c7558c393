"""One spectrum per state, one basis per reference, one setup per run.

Every exact figure is a function of rho's spectrum, so validation plus the
exact pipeline must eigensolve rho once; the reference support basis is
built once per reference set; each protocol's outcome distributions are set
up once per run, so coverage eigensolves as often at any trial count; and
sampling from those distributions draws exactly the counts of the explicit
POVM it replaces.
"""

import numpy as np
import pytest

from rcc import (
    DensityOperator,
    RunConfig,
    block_reference,
    born_sample,
    coverage_experiment,
    pipeline,
    sector_reference,
    simulate_record,
    stabilizer_reference,
    stream,
    validate_density,
)
from rcc.harness import default_witness_projector, optimal_test_projector
from conftest import full_reference, random_density


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
        # the witness and the test projector read one eigensolve of
        # V^dag rho V; the targets come from the same setups, and rho's
        # spectrum from its validation
        ref = stabilizer_reference(4, ["XXII"], 2, 4)
        rho = subspace_state(rng, ref)
        ref.support_basis()
        config = RunConfig(state=rho, reference=ref,
                           protocols=("hypothesis_test", "witness", "dephase"),
                           n_samples=200, seed=3)
        eig_calls.update(eigh=0, eigvalsh=0)
        coverage_experiment(config, 10)
        assert eig_calls == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("protocols, eigh", [
        (("hypothesis_test", "witness"), 1),
        (("witness", "dephase", "hypothesis_test"), 1),
        (("dephase",), 0),
    ])
    def test_pipeline_eigensolves_once_for_both_projectors(self, rng, eig_calls, protocols,
                                                           eigh):
        # a simulating pipeline sets its protocols up on one decomposition
        # of V^dag rho V, solved only if a projector is built
        ref = stabilizer_reference(4, ["XXII"], 2, 4)
        rho = subspace_state(rng, ref)
        ref.support_basis()
        config = RunConfig(state=rho, reference=ref, protocols=protocols, n_samples=200, seed=3)
        eig_calls.update(eigh=0, eigvalsh=0)
        pipeline(config)
        assert eig_calls == {"eigh": eigh, "eigvalsh": 0}


class TestSpectrumCache:
    @pytest.mark.parametrize("kind", sorted(STATES))
    def test_spectrum_integrity(self, rng, kind):
        rho = STATES[kind](rng)
        assert rho.clipped is (kind == "clipped")
        w = rho.spectrum
        assert rho.spectrum is w
        assert rho.eigenvalues() is w
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
            explicit = born_sample(rho, effects, 2000, seed=0, rng=stream(9, 2, trial))
            record = simulate_record(rho, ref, "dephase", 2000, seed=0, rng=stream(9, 2, trial))
            assert explicit.counts.pop(str(ref.d_r)) == 0
            assert record.counts == explicit.counts
            assert record.meta == {"basis": "reference-support"}


class TestWitnessAndTestRecordIdentity:
    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    def test_witness_counts_match_the_explicit_povm(self, rng, kind):
        ref = REFERENCES[kind]()
        rho = subspace_state(rng, ref)
        proj = default_witness_projector(rho, ref, 2)
        effects = [proj, np.eye(ref.dim) - proj]
        for trial in range(20):
            explicit = born_sample(
                rho, effects, 2000, seed=0, labels=["success", "failure"], rng=stream(9, 1, trial)
            )
            record = simulate_record(
                rho, ref, "witness", 2000, seed=0, witness_rank=2, rng=stream(9, 1, trial)
            )
            assert record.counts == explicit.counts
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
            # the null calibration draws first, then the alternative, on one stream
            rng_explicit = stream(9, 0, trial)
            null = born_sample(sigma, effects, 2000, seed=0, labels=labels, rng=rng_explicit)
            alt = born_sample(rho, effects, 2000, seed=0, labels=labels, rng=rng_explicit)
            record = simulate_record(
                rho, ref, "hypothesis_test", 2000, seed=0, rng=stream(9, 0, trial)
            )
            assert record.counts == {
                **{f"null_{k}": v for k, v in null.counts.items()},
                **{f"alt_{k}": v for k, v in alt.counts.items()},
            }
            assert record.n == 4000 and record.meta == {"eta": 0.25, "eta_test": 0.125}
