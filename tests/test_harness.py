import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcc import (
    BlockPartition,
    CompleteLeakageError,
    ConfigError,
    LeakageError,
    ObservationWindow,
    ProtocolInvalidError,
    RunConfig,
    ValidationError,
    WindowFamily,
    coverage_experiment,
    hypothesis_testing_divergence,
    main_lower_bound,
    pipeline,
    protocol_ground_truth,
    rcc,
    sector_reference,
    simulate_record,
    solve_bootstrap,
    stream,
    sweep_windows,
    validate_density,
    windowed_rcc,
    witness_sample_plan,
)
from rcc import harness, io as rcc_io, stats, windows
from rcc.windows import windowed_entropy_bits
from rcc.harness import _protocol, default_witness_projector, optimal_test_projector
from rcc.records import PROTOCOLS
from conftest import embed_state, embedded_reference, full_reference, random_density
from oracles import certify_record, coverage_one_trial_at_a_time, exact_law


def diag_state(*p):
    return validate_density(np.diag(np.array(p, dtype=float)))


def basis_state(dim, index=0):
    d = np.zeros(dim)
    d[index] = 1.0
    return diag_state(*d)


@pytest.fixture
def small_setup():
    ref = embedded_reference(4, 4, g=2, units=2)
    rho = diag_state(0.6, 0.25, 0.1, 0.05)
    return rho, ref


class TestBornSample:
    """Born-rule draws of a supplied witness projector P: one trace Tr(P rho)
    gives the success probability."""

    def test_deterministic_state_all_counts_on_one_outcome(self):
        rho = basis_state(2)
        record = simulate_record(rho, full_reference(2), "witness", 500, seed=7,
                                 witness_projector=np.diag([1.0, 0.0]))
        assert record.counts == {"success": 500, "failure": 0}

    def test_vacuum_binomial_concentration(self):
        ref = full_reference(2)
        sigma = validate_density(ref.sigma_matrix())
        n = 10**6
        record = simulate_record(sigma, ref, "witness", n, seed=11,
                                 witness_projector=np.diag([1.0, 0.0]))
        sd = math.sqrt(n * 0.25)
        assert abs(record.counts["success"] - n / 2) < 5 * sd

    def test_seed_determinism_bit_exact(self):
        rho = diag_state(0.3, 0.7)
        a, b = (simulate_record(rho, full_reference(2), "witness", 1000, seed=123,
                                witness_projector=np.diag([0.0, 1.0])) for _ in range(2))
        assert a.counts == b.counts

    def test_counts_sum(self):
        rho = diag_state(0.3, 0.7)
        record = simulate_record(rho, full_reference(2), "witness", 777, seed=5,
                                 witness_projector=np.diag([1.0, 0.0]))
        assert sum(record.counts.values()) == 777

    @pytest.mark.parametrize("entry, message", [
        (6e-5, "not Hermitian"), (math.nan, "non-finite"), (math.inf, "non-finite"),
    ])
    def test_effects_must_be_finite_and_hermitian(self, entry, message):
        # with entry 6e-5, P is oblique: P^2 = P and Tr P = 1
        rho = diag_state(0.3, 0.7)
        p = np.array([[1.0, entry], [0.0, 0.0]])
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, full_reference(2), "witness", 10, seed=1, witness_projector=p)

    def test_probabilities_are_the_traces_of_the_effects(self, rng):
        # a complex state and a complex rank-2 projector; the traces are full
        # matrix products, not the setup's contraction, so they agree to
        # roundoff
        rho = random_density(rng, 6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        proj = q[:, :2] @ q[:, :2].conj().T
        ref = full_reference(6)
        _, dists, meta, _ = harness._outcome_setup(RunConfig(rho, ref), "witness", proj)
        traces = np.array([np.trace(e @ rho.matrix).real for e in (proj, np.eye(6) - proj)])
        assert meta == {"rank": 2}
        assert np.allclose(dists[0], traces / traces.sum(), rtol=0, atol=1e-14)


class TestSimulateRecord:
    def test_dephase_record_shape(self, small_setup):
        rho, ref = small_setup
        record = simulate_record(rho, ref, "dephase", 400, seed=3)
        assert record.protocol == "dephase"
        assert sum(record.counts.values()) == 400
        assert len(record.counts) == ref.d_r

    def test_witness_record_rank_in_meta(self, small_setup):
        rho, ref = small_setup
        record = simulate_record(rho, ref, "witness", 400, seed=3, witness_rank=2)
        assert record.meta["rank"] == 2
        assert set(record.counts) == {"success", "failure"}

    def test_ht_record_four_labels(self, small_setup):
        rho, ref = small_setup
        record = simulate_record(rho, ref, "hypothesis_test", 300, seed=3, eta=0.25)
        assert sum(record.counts.values()) == 600
        assert record.meta["eta_test"] == pytest.approx(0.125)

    def test_optimal_test_alpha_is_calibrated(self, small_setup):
        rho, ref = small_setup
        t = optimal_test_projector(rho, ref, 0.125)
        alpha = float(np.trace(t @ ref.sigma_matrix()).real)
        assert alpha == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("calibration", [math.nan, 0.0, 1.0, 3.0])
    def test_a_calibration_outside_the_unit_interval_is_rejected(self, small_setup, protocol,
                                                                 calibration):
        # every simulation and every run builds a RunConfig, so each rejects
        # it whatever the protocol
        rho, ref = small_setup
        message = re.escape(f"test_calibration {calibration} must be in (0,1)")
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, protocol, 400, seed=3, test_calibration=calibration)
        with pytest.raises(ValidationError, match=message):
            RunConfig(state=rho, reference=ref, protocols=(protocol,),
                      test_calibration=calibration)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("eta", [math.nan, -1.0, 0.0, 1.0, 1.5, 5.0, 7.0])
    def test_an_eta_outside_the_unit_interval_is_rejected_by_every_protocol(
            self, small_setup, protocol, eta):
        # the error names the eta given, not eta * test_calibration
        rho, ref = small_setup
        message = re.escape(f"eta {eta} must be in (0,1)")
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, protocol, 400, seed=3, eta=eta)
        with pytest.raises(ValidationError, match=message):
            protocol_ground_truth(rho, ref, protocol, eta=eta)

    def test_a_bad_level_is_reported_before_a_bad_protocol_or_shot_count(self, small_setup):
        # RunConfig checks the run's parameters before anything is set up
        rho, ref = small_setup
        with pytest.raises(ValidationError, match=re.escape("eta 2.0 must be in (0,1)")):
            simulate_record(rho, ref, "nope", 0, seed=3, eta=2.0)
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            simulate_record(rho, ref, "nope", 0, seed=-1)
        with pytest.raises(ValidationError, match="unknown protocol 'nope'"):
            simulate_record(rho, ref, "nope", 0, seed=3)

    @pytest.mark.parametrize("scale", [2.0, -1.0])
    def test_witness_projector_outside_zero_and_identity_rejected(self, small_setup, scale):
        rho, ref = small_setup
        bad = scale * default_witness_projector(rho, ref, 1)
        with pytest.raises(ValidationError, match="not a projector"):
            simulate_record(rho, ref, "witness", 100, seed=1, witness_projector=bad)

    def test_witness_effect_that_is_not_a_projector_rejected(self):
        # E = diag(1, 0.4, 0, 0) is a POVM effect whose trace rounds to rank
        # 1; taken as a rank-1 projector it certified D_max >= 1.48 bits
        # where D_max is 1
        rho, ref = diag_state(0.5, 0.5, 0.0, 0.0), full_reference(4)
        effect = np.diag([1.0, 0.4, 0.0, 0.0])
        with pytest.raises(ValidationError, match="not a projector"):
            simulate_record(rho, ref, "witness", 200_000, seed=0, witness_projector=effect)

    @pytest.mark.parametrize("projector, message", [
        (np.zeros((4, 4)), "witness rank 0"),
        (np.diag([0.0, 0.0, 0.0, 1.0]), "leaks outside"),
        (np.diag([1.0, 1.0, 1.0, 0.0]), "leaks outside"),
        (np.eye(2), "4x4"),
    ], ids=["zero", "outside", "over-rank", "wrong-shape"])
    def test_simulator_and_certifier_check_a_witness_alike(self, projector, message):
        # d_R = 2 in 4 dims: a projector the certifier rejects is not simulated
        rho, ref = diag_state(0.5, 0.5, 0.0, 0.0), embedded_reference(2, 4)
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, "witness", 100, seed=1, witness_projector=projector)
        record = simulate_record(rho, ref, "witness", 100, seed=1)
        with pytest.raises(ValidationError, match=message):
            stats.witness_protocol(record, ref, 1, 0.05, projector=projector)

    def test_witness_projector_of_wrong_size_rejected(self, small_setup):
        rho, ref = small_setup
        with pytest.raises(ValidationError, match="4x4"):
            simulate_record(rho, ref, "witness", 100, seed=1, witness_projector=np.eye(2))

    @pytest.mark.parametrize("protocol", ["hypothesis_test", "dephase"])
    def test_a_witness_projector_is_rejected_by_another_protocol(self, small_setup, protocol):
        # the protocol would not read it, so not even its shape (3x3 for a
        # 4-dim state) would be checked; an unknown protocol is named first
        rho, ref = small_setup
        with pytest.raises(ConfigError) as info:
            simulate_record(rho, ref, protocol, 100, seed=1, witness_projector=np.eye(3))
        assert str(info.value) == f"only the witness protocol reads a projector, not '{protocol}'"
        with pytest.raises(ValidationError, match="^unknown protocol 'nope'$"):
            simulate_record(rho, ref, "nope", 100, seed=1, witness_projector=np.eye(3))

    def test_record_counts_are_pinned(self, small_setup):
        # every protocol's draws at a fixed seed, so that a change in how a
        # record is sampled cannot silently move its bits
        rho, ref = small_setup
        expected = {
            "hypothesis_test": {"null_accept_h1": 56, "null_accept_h0": 444,
                                "alt_accept_h1": 148, "alt_accept_h0": 352},
            "witness": {"success": 411, "failure": 89},
            "dephase": {"0": 292, "1": 129, "2": 51, "3": 28},
        }
        for protocol, counts in expected.items():
            record = simulate_record(rho, ref, protocol, 500, seed=2024, witness_rank=2)
            assert record.counts == counts

    def test_witness_projector_support(self, small_setup):
        rho, ref = small_setup
        proj = default_witness_projector(rho, ref, 2)
        assert float(np.trace(proj).real) == pytest.approx(2.0, abs=1e-9)
        leak = np.linalg.norm(proj - ref.total.matrix @ proj @ ref.total.matrix)
        assert leak < 1e-10


class TestDesignedDistributions:
    def test_designed_protocols_build_no_effects(self, small_setup, monkeypatch):
        # the test, the default witness and the reference basis take their
        # distributions from V^dag rho V and its eigenvalues, and a supplied
        # witness projector from one trace: none needs an effect's eigenvectors
        rho, ref = small_setup
        supplied = default_witness_projector(rho, ref, 1)

        def forbidden(*args):
            raise AssertionError("a protocol built its effects")

        monkeypatch.setattr(harness, "_eigenvectors", forbidden)
        config = RunConfig(state=rho, reference=ref, protocols=("exact", *PROTOCOLS),
                           n_samples=200, seed=3, witness_rank=2)
        coverage_experiment(config, 5)
        pipeline(config)
        for protocol in PROTOCOLS:
            simulate_record(rho, ref, protocol, 100, seed=1, witness_rank=2)
        simulate_record(rho, ref, "witness", 100, seed=1, witness_projector=supplied)
        with pytest.raises(AssertionError, match="built its effects"):
            default_witness_projector(rho, ref, 1)

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.0 - 2.0**-53, 1.0 + 2.0**-52, -1e-300, 1.0 + 1e-12]),
        st.floats(-1e-300, 1.0 + 1e-12, allow_subnormal=True),
        st.floats(-1e-300, 1e-300, allow_subnormal=True)))
    def test_a_two_outcome_distribution_is_the_clipped_normalised_pair(self, p):
        # the float arithmetic gives the doubles of np.clip and a numpy sum
        pair = np.clip([p, 1.0 - p], 0.0, None)
        assert harness._two_outcome(p).tobytes() == (pair / pair.sum()).tobytes()


class TestPipeline:
    def test_exact_mode_logical_state(self):
        # 3 logical qubits with a 2-gate alphabet addressing all 3 units
        ref = embedded_reference(8, 32, g=2, units=3)
        config = RunConfig(state=basis_state(32), reference=ref, protocols=("exact",))
        report = pipeline(config)
        assert report["exact"]["rcc_structons"] == pytest.approx(
            3 / math.log2(6), abs=1e-12
        )
        assert report["schema"] == "rcc-report/3"

    def test_vacuum_combined_floor_flagged(self):
        ref = full_reference(4)
        sigma = diag_state(*[0.25] * 4)
        config = RunConfig(
            state=sigma, reference=ref,
            protocols=("exact", "hypothesis_test"), n_samples=400, seed=9,
        )
        report = pipeline(config)
        assert report["exact"]["rcc_structons"] == 0.0
        assert report["combined"]["breakdown"]["floored"]

    def test_three_paths_and_winner(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(
            state=rho, reference=ref,
            protocols=("hypothesis_test", "witness", "dephase"),
            n_samples=1500, seed=21, witness_rank=1,
        )
        report = pipeline(config)
        assert len(report["certified_bounds"]) == 3
        winner = report["combined"]["winner"]
        per_path = report["combined"]["per_path_structons"]
        assert per_path[winner] == max(per_path.values())

    def test_exact_bound_is_the_rounded_down_bootstrap_root(self):
        # a pure state with d_R = 16 and Gamma_R = 4 at epsilon = 0.5: the
        # net term 2 - 0.5 is past 1, so the bootstrap solve decides the bound
        ref = embedded_reference(16, 16, g=2, units=2)
        config = RunConfig(state=basis_state(16), reference=ref, protocols=("exact",),
                           epsilon=0.5)
        report = pipeline(config)
        bound = report["exact"]["circuit_bound"]
        net = (bound["leading_structons"] + bound["spectral_structons"]
               - bound["log_correction_structons"])
        assert net == 1.5 and not bound["floored"]
        c = bound["inputs"]["c1"] / ref.log2_gamma
        assert bound["final_structons"] == solve_bootstrap(net, c)

    def test_pipeline_matches_direct_library_calls(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=("exact",), epsilon=0.02)
        report = pipeline(config)
        assert report["exact"]["rcc_structons"] == rcc(rho, ref)
        bb = main_lower_bound(rho, ref, 0.02)
        assert report["exact"]["circuit_bound"]["final_structons"] == bb.final
        assert report["exact"]["circuit_bound"]["final_bits"] == bb.final * ref.log2_gamma

    def test_reports_carry_no_delta_policy(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(
            state=rho, reference=ref,
            protocols=("exact", "hypothesis_test", "witness", "dephase"), n_samples=300,
        )
        assert "delta_policy" not in rcc_io.dumps_json(pipeline(config))

    def test_report_determinism_modulo_timestamp(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(
            state=rho, reference=ref,
            protocols=("exact", "dephase", "witness"), seed=4, n_samples=300,
        )
        a, b = pipeline(config), pipeline(config)
        a.pop("timestamp"), b.pop("timestamp")
        assert rcc_io.dumps_json(a) == rcc_io.dumps_json(b)

    def test_stage_label_on_failure(self):
        ref = embedded_reference(2, 4)
        leaking = diag_state(0.5, 0.3, 0.2, 0.0)
        config = RunConfig(state=leaking, reference=ref, protocols=("exact",))
        with pytest.raises(Exception, match="stage 'exact'"):
            pipeline(config)

    def test_config_validation(self, small_setup):
        rho, ref = small_setup
        with pytest.raises(ValidationError):
            RunConfig(state=rho, reference=ref, delta=1.5)
        with pytest.raises(ValidationError):
            RunConfig(state=None, reference=ref, protocols=("exact",))

    @pytest.mark.parametrize("protocols, message", [
        (("exact", "tomography"), "unknown protocols ['tomography']"),
        ((), "at least one protocol is required"),
    ])
    def test_protocols_must_be_known_and_given(self, small_setup, protocols, message):
        rho, ref = small_setup
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RunConfig(state=rho, reference=ref, protocols=protocols)

    @pytest.mark.parametrize("protocols, repeated", [
        (("witness", "witness"), ["witness"]),
        (("exact", "dephase", "exact", "dephase", "witness"), ["dephase", "exact"]),
    ])
    def test_a_protocol_listed_twice_is_rejected_by_name(self, small_setup, protocols,
                                                         repeated):
        # certifying one simulated record twice would count it twice into
        # the combined confidence
        rho, ref = small_setup
        message = re.escape(f"protocols listed more than once: {repeated}")
        with pytest.raises(ValidationError, match=message):
            pipeline(RunConfig(state=rho, reference=ref, protocols=protocols, seed=3))


class TestCoverage:
    def test_summary_shape_and_determinism(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(
            state=rho, reference=ref, protocols=("witness",),
            n_samples=200, seed=33,
        )
        a = coverage_experiment(config, trials=40)
        b = coverage_experiment(config, trials=40)
        assert rcc_io.dumps_json(a) == rcc_io.dumps_json(b)
        assert a["protocols"]["witness"]["trials"] == 40

    def test_zero_trials_rejected(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=("witness",))
        with pytest.raises(ValidationError):
            coverage_experiment(config, trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, -3, 2**32 + 1])
    def test_trials_must_be_an_integer_in_range(self, small_setup, trials, monkeypatch):
        # a trial count outside the documented range raises before anything
        # is set up, allocated or drawn
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=("witness",))
        monkeypatch.setattr(harness, "_outcome_setup",
                            lambda *args: pytest.fail("set up before the trial count was checked"))
        message = re.escape(f"trials must be an integer in [1, 2**32], got {trials!r}")
        with pytest.raises(ValidationError, match=message):
            coverage_experiment(config, trials)

    def test_coverage_needs_a_statistical_protocol_and_a_state(self, small_setup):
        rho, ref = small_setup
        record = simulate_record(rho, ref, "witness", 100, seed=1)
        for config, message in (
                (RunConfig(state=rho, reference=ref, protocols=("exact",)),
                 "coverage needs at least one statistical protocol"),
                (RunConfig(state=None, reference=ref, protocols=("witness",),
                           records={"witness": record}),
                 "coverage simulation requires a state")):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                coverage_experiment(config, 5)

    def test_numpy_integer_trials_and_seeds_are_accepted(self, small_setup):
        rho, ref = small_setup
        plain = RunConfig(state=rho, reference=ref, protocols=("witness",), n_samples=50, seed=7)
        typed = RunConfig(state=rho, reference=ref, protocols=("witness",), n_samples=50,
                          seed=np.uint32(7))
        assert rcc_io.dumps_json(coverage_experiment(typed, np.int64(5))) == rcc_io.dumps_json(
            coverage_experiment(plain, 5))

    def test_ground_truths(self, small_setup):
        rho, ref = small_setup
        ht_truth = protocol_ground_truth(rho, ref, "hypothesis_test", eta=0.25)
        assert ht_truth == hypothesis_testing_divergence(rho, ref, 0.25)
        dephase_truth = protocol_ground_truth(rho, ref, "dephase")
        h = -sum(p * math.log2(p) for p in (0.6, 0.25, 0.1, 0.05))
        assert dephase_truth == pytest.approx(2.0 - h, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_leaking_state_has_no_test_or_witness_run(self, seed):
        # 0.1% of the mass leaks out of the weight-1 sector (d_R = 2), so
        # D_max is infinite and D_H is not computed: the test and the witness
        # reject the state in every setup, whatever the seed, before a shot
        ref = sector_reference(2, 1, 2, 2)
        leaking = diag_state(0.001, 0.6, 0.399, 0.0)
        supplied = np.diag([0.0, 1.0, 0.0, 0.0])
        for protocol in ("hypothesis_test", "witness"):
            config = RunConfig(state=leaking, reference=ref, protocols=(protocol,),
                               n_samples=200, seed=seed)
            with pytest.raises(LeakageError):
                simulate_record(leaking, ref, protocol, 200, seed=seed)
            with pytest.raises(LeakageError, match=f"stage '{protocol}'"):
                pipeline(config)
            with pytest.raises(LeakageError):
                coverage_experiment(config, trials=5)
            with pytest.raises(LeakageError):
                protocol_ground_truth(leaking, ref, protocol)
        with pytest.raises(LeakageError):
            simulate_record(leaking, ref, "witness", 200, seed=seed, witness_projector=supplied)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_witness_ground_truth_is_the_top_eigenvalues(self, rank):
        # inside H_R the default witness projects onto rho's top `rank`
        # eigenvectors, so its target is log2(sum of them * d_R / rank)
        rho = embed_state(random_density(np.random.default_rng(8), 6), 8)
        ref = embedded_reference(6, 8)
        top = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1][:rank].sum()
        truth = protocol_ground_truth(rho, ref, "witness", witness_rank=rank)
        assert truth == pytest.approx(math.log2(top * 6 / rank), abs=1e-12)
        assert truth > 0.0

    @pytest.mark.parametrize("rank", [1.5, True, 0, 5])
    def test_witness_rank_is_one_rule(self, small_setup, rank):
        # the simulator, the pipeline and the planner reject a rank the
        # certifier would, with its message
        rho, ref = small_setup
        message = rf"witness rank {rank!r} must be an integer in \[1, d_R = 4\]"
        config = RunConfig(state=rho, reference=ref, protocols=("witness",), witness_rank=rank)
        with pytest.raises(ValidationError, match=message):
            pipeline(config)
        with pytest.raises(ValidationError, match=message):
            coverage_experiment(config, trials=2)
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, "witness", 10, seed=0, witness_rank=rank)
        with pytest.raises(ValidationError, match=message):
            witness_sample_plan(0.9, 1.0, rank, 4, 0.05)

    def test_a_state_with_no_mass_in_the_reference_has_no_dephase_target(self):
        # Tr C = 0: the target's distribution C_ii / Tr C is undefined, so it
        # raises before it divides, and coverage raises before it draws
        ref = sector_reference(2, 1, 2, 2)
        rho = diag_state(0.5, 0.0, 0.0, 0.5)
        with pytest.raises(CompleteLeakageError, match="reference subspace is 0.000e"):
            protocol_ground_truth(rho, ref, "dephase")
        config = RunConfig(state=rho, reference=ref, protocols=("dephase",), n_samples=50)
        with pytest.raises(CompleteLeakageError):
            coverage_experiment(config, trials=5)

    def test_loose_delta_still_covers(self, small_setup):
        rho, ref = small_setup
        config = RunConfig(
            state=rho, reference=ref, protocols=("witness", "dephase"),
            delta=0.5, n_samples=300, seed=77,
        )
        summary = coverage_experiment(config, trials=300)
        for proto in ("witness", "dephase"):
            assert summary["protocols"][proto]["violation_fraction"] <= 0.53


class TestProtocolTable:
    def test_keys_are_the_protocols_in_spawn_key_order(self):
        assert tuple(harness._PROTOCOL_TABLE) == PROTOCOLS

    @pytest.mark.parametrize("protocol", ["exact", "Dephase", ""])
    def test_an_unknown_name_is_rejected_by_the_lookup(self, small_setup, protocol):
        rho, ref = small_setup
        message = re.escape(f"unknown protocol {protocol!r}")
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, protocol, 10, seed=0)
        with pytest.raises(ValidationError, match=message):
            protocol_ground_truth(rho, ref, protocol)


class TestBatchedCoverage:
    """coverage_experiment draws every trial into one count matrix and
    certifies the matrix at once; its summary must be the one that
    simulating and certifying each trial on its own gives, byte for byte."""

    @pytest.fixture(scope="class")
    def state_and_ref(self):
        rng = np.random.default_rng(2024)
        return embed_state(random_density(rng, 6), 8), embedded_reference(6, 8)

    @pytest.mark.parametrize("settings", [
        dict(n_samples=400, seed=11),
        # a test calibrated close enough to eta that some type-I endpoints exceed it
        dict(test_calibration=0.7, n_samples=200, seed=3),
        dict(eta=0.3, witness_rank=3, n_samples=150, delta=0.2, seed=5),
    ])
    def test_matches_the_per_trial_oracle(self, state_and_ref, settings):
        rho, ref = state_and_ref
        config = RunConfig(state=rho, reference=ref,
                           protocols=("hypothesis_test", "witness", "dephase"), **settings)
        summary = coverage_experiment(config, trials=30)
        assert rcc_io.dumps_json(summary) == rcc_io.dumps_json(
            coverage_one_trial_at_a_time(config, trials=30))
        if settings.get("test_calibration") == 0.7:
            assert 0 < summary["protocols"]["hypothesis_test"]["invalid_runs"] < 30

    def test_a_leaking_dephase_setup_raises_as_a_record_does(self):
        ref = embedded_reference(2, 4)
        rho = diag_state(0.5, 0.0, 0.0, 0.5)
        config = RunConfig(state=rho, reference=ref, protocols=("dephase",), n_samples=50)
        message = "state leaked outside the subspace during sampling"
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, "dephase", 50, seed=0)
        with pytest.raises(ValidationError, match=message):
            coverage_experiment(config, trials=5)

    @pytest.mark.parametrize("n", [20.5, 20.0, True, 0])
    def test_the_shot_count_is_a_positive_integer(self, state_and_ref, n):
        # the coverage counters trust the sampler's counts, so the sampler checks n
        rho, ref = state_and_ref
        message = f"n must be a positive integer, got {n!r}"
        for proto in ("hypothesis_test", "witness", "dephase"):
            config = RunConfig(state=rho, reference=ref, protocols=(proto,), n_samples=n)
            with pytest.raises(ValidationError, match=message):
                coverage_experiment(config, trials=2)
            with pytest.raises(ValidationError, match=message):
                simulate_record(rho, ref, proto, n, seed=0)

    @pytest.mark.parametrize("n", [2**53 + 1, 2**63, 10**23])
    def test_a_shot_count_past_the_samplers_range_is_rejected(self, state_and_ref, n):
        # past 2**53 a count is not an exact double, and the binomial tails
        # that certify it are not monotone in it
        rho, ref = state_and_ref
        message = re.escape(f"N = {n} is past the shot range [1, 2**53]")
        for proto in PROTOCOLS:
            config = RunConfig(state=rho, reference=ref, protocols=(proto,), n_samples=n)
            with pytest.raises(ValidationError, match=message):
                coverage_experiment(config, trials=2)
            with pytest.raises(ValidationError, match=message):
                simulate_record(rho, ref, proto, n, seed=0)

    def test_the_largest_shot_count_covers_and_simulates(self, state_and_ref):
        # the threshold searches run on Python ints, past a C int index
        rho, ref = state_and_ref
        n = 2**53
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=n)
        summary = coverage_experiment(config, trials=3)
        assert all(s["trials"] == 3 for s in summary["protocols"].values())
        for proto in PROTOCOLS:
            assert simulate_record(rho, ref, proto, n, seed=0).n in (n, 2 * n)

    @pytest.mark.parametrize("protocol, rank, message", [
        ("witness", 3, r"witness rank 3 must be an integer in \[1, d_R = 2\]"),
        ("witness", 1.5, r"witness rank 1.5 must be an integer in \[1, d_R = 2\]"),
        ("exact", 1, "unknown protocol 'exact'"),
    ])
    def test_certify_counts_checks_the_rank_and_the_protocol(self, protocol, rank, message):
        # the counts themselves come from the sampler and are not checked again
        ref = embedded_reference(2, 4)
        with pytest.raises(ValidationError, match=message):
            _protocol(protocol).count(np.array([[3, 7]]), 10, ref, limit=0.0, eta=0.25,
                                      delta=0.05, rank=rank)

    def test_a_count_column_costs_a_binary_search_of_endpoints(self, state_and_ref, monkeypatch):
        # 500 trials certified one by one would evaluate 1,500 endpoints, and
        # a full bisection makes 34 tail evaluations per endpoint; the three
        # threshold counts cost a few comparisons and tail evaluations in
        # all, whatever the number of trials, each tail one betainc call, and
        # no bisection: their searches start where the comparison flips and
        # at the normal approximation of the binomial quantile there
        def no_bisection(*args):
            raise AssertionError("coverage bisected an endpoint")

        def no_tail_function(*args):
            raise AssertionError("coverage built a tail function")

        tails, comparisons = [], []
        # the first tail rebinds stats.betainc to scipy's ufunc, which the
        # spy must wrap, or that first call would rebind the name over it
        stats.clopper_pearson_upper(1, 2, 0.5)
        betainc, threshold = stats.betainc, stats._threshold

        def counted_threshold(upper, n, delta, passes, flip):
            return threshold(upper, n, delta, lambda p: comparisons.append(1) or passes(p), flip)

        monkeypatch.setattr(stats, "_bisect", no_bisection)
        monkeypatch.setattr(stats, "_binom_cdf", no_tail_function)
        monkeypatch.setattr(stats, "betainc", lambda *args: tails.append(1) or betainc(*args))
        monkeypatch.setattr(stats, "_threshold", counted_threshold)
        rho, ref = state_and_ref
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=400, seed=11)
        costs = []
        for trials in (50, 500):
            tails.clear()
            comparisons.clear()
            summary = coverage_experiment(config, trials=trials)
            assert summary["protocols"]["hypothesis_test"]["invalid_runs"] == 0
            costs.append((len(tails), len(comparisons)))
        assert costs[0] == costs[1]
        assert 0 < costs[1][0] <= 9
        assert 0 < costs[1][1] <= 9

    @pytest.mark.parametrize("state, settings, counts", [
        # (violations, invalid_runs) of hypothesis_test, witness and dephase
        ("flat", dict(n_samples=7, delta=0.3, seed=1), [(3, 242), (47, 0), (0, 0)]),
        ("mixed", dict(n_samples=50, test_calibration=0.7, seed=2), [(0, 314), (19, 0), (0, 0)]),
        ("mixed", dict(n_samples=400, eta=0.3, witness_rank=3, delta=0.2, seed=3),
         [(0, 0), (78, 0), (0, 0)]),
        ("mixed", dict(n_samples=2000, delta=1e-3, seed=4), [(0, 0), (1, 0), (0, 0)]),
        ("mixed", dict(n_samples=100, test_calibration=0.8, eta=0.1, delta=0.1, seed=5),
         [(0, 359), (38, 0), (0, 0)]),
    ])
    def test_golden_counts(self, state_and_ref, state, settings, counts):
        # fixed counts, so that a change to a counter or to the draws shows
        rho, ref = state_and_ref
        if state == "flat":
            rho, ref = diag_state(0.3, 0.25, 0.25, 0.2), full_reference(4)
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, **settings)
        summary = coverage_experiment(config, trials=400)
        assert [(summary["protocols"][p]["violations"], summary["protocols"][p]["invalid_runs"])
                for p in PROTOCOLS] == counts


class TestExactLaw:
    """The violation probability of one record, summed over every count its
    certifier can see (oracles.exact_law), with no draw and no seed."""

    @pytest.mark.parametrize("top", [0.4, 0.7, 0.95])
    @pytest.mark.parametrize("n", [20, 100, 400])
    @pytest.mark.parametrize("delta", [0.05, 0.2])
    def test_each_path_and_the_pair_violate_within_delta(self, top, n, delta):
        # rho has its top eigenvalue, then the rest flat, on d_R = 3
        rho, ref = diag_state(top, (1 - top) / 2, (1 - top) / 2), full_reference(3)
        config = RunConfig(state=rho, reference=ref, protocols=("hypothesis_test", "witness"),
                           n_samples=n, delta=delta)
        test, witness = (exact_law(config, p)[0] for p in ("hypothesis_test", "witness"))
        assert test <= delta and witness <= delta
        # the two records are drawn on independent streams, so the pair
        # violates with 1 - (1 - P_test)(1 - P_witness); the combination's
        # confidence does not depend on the records' counts
        bounds = [certify_record("hypothesis_test", [0, n, n, 0], n, ref, config.eta, delta, 1),
                  certify_record("witness", [n, 0], n, ref, config.eta, delta, 1)]
        confidence = stats.combine_bounds(bounds, ref, config.epsilon).confidence
        assert 1.0 - (1.0 - test) * (1.0 - witness) <= 1.0 - confidence

    def test_coverage_converges_to_the_law(self):
        # the law and 20,000 coverage trials agree within 5 standard errors
        rho, ref = diag_state(0.4, 0.3, 0.3), full_reference(3)
        config = RunConfig(state=rho, reference=ref, protocols=("hypothesis_test", "witness"),
                           n_samples=20, delta=0.2, seed=7)
        trials = 20000
        summary = coverage_experiment(config, trials)["protocols"]
        for proto in config.protocols:
            law = exact_law(config, proto)
            found = (summary[proto]["violations"], summary[proto]["invalid_runs"])
            for p, count in zip(law, found):
                assert abs(count / trials - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials)


class TestSweep:
    def test_vacuum_all_zero(self, rng):
        ref = full_reference(4)
        sigma = diag_state(*[0.25] * 4)
        family = WindowFamily((
            ObservationWindow(BlockPartition.singletons(4), 0.0),
            ObservationWindow(BlockPartition.whole(4), 1.0),
        ))
        rows = sweep_windows(sigma, ref, family)
        assert all(c == 0.0 for _, _, c in rows)

    def test_plus_state_rises(self):
        ref = full_reference(2, g=2, units=2)
        plus = validate_density(np.full((2, 2), 0.5))
        family = WindowFamily((
            ObservationWindow(BlockPartition.singletons(2), 0.0),
            ObservationWindow(BlockPartition.whole(2), 1.0),
        ))
        rows = sweep_windows(plus, ref, family)
        assert rows[0][2] == 0.0
        assert rows[1][2] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_column(self, rng):
        ref = full_reference(8)
        rho = random_density(rng, 8)
        family = WindowFamily((
            ObservationWindow(BlockPartition.singletons(8), 0.0),
            ObservationWindow(BlockPartition(((0, 1), (2, 3), (4, 5), (6, 7))), 1.0),
            ObservationWindow(BlockPartition(((0, 1, 2, 3), (4, 5, 6, 7))), 2.0),
            ObservationWindow(BlockPartition.whole(8), 3.0),
        ))
        rows = sweep_windows(rho, ref, family)
        cs = [c for _, _, c in rows]
        assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))

    def test_each_window_is_checked_pinched_and_solved_once(self, rng, monkeypatch):
        # singletons, pairs and the whole space at d = 16: 3 compatibility
        # checks and 3 pinchings, and one eigensolve for each pinched state
        # that is not diagonal; the rows are the per-window functions' doubles
        ref = full_reference(16)
        rho = random_density(rng, 16)
        family = WindowFamily((
            ObservationWindow(BlockPartition.singletons(16), 0.0),
            ObservationWindow(BlockPartition(tuple((i, i + 1) for i in range(0, 16, 2))), 1.0),
            ObservationWindow(BlockPartition.whole(16), 2.0),
        ))
        expected = [(w.xi, windowed_entropy_bits(rho, ref, w), windowed_rcc(rho, ref, w))
                    for w in family.windows]
        calls = {"window_compatible": 0, "pinch": 0, "eigvalsh": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(windows, "window_compatible")
        counted(windows, "pinch")
        counted(np.linalg, "eigvalsh")
        assert sweep_windows(rho, ref, family) == expected
        assert calls == {"window_compatible": 3, "pinch": 3, "eigvalsh": 2}


class TestStreams:
    def test_spawn_keys_independent_and_reproducible(self):
        a = stream(99, 1, 5).integers(0, 2**32, size=4)
        b = stream(99, 1, 5).integers(0, 2**32, size=4)
        c = stream(99, 1, 6).integers(0, 2**32, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            stream(-1)

    @pytest.mark.parametrize("seed", [True, 1.5, "3", None, -1])
    def test_seed_must_be_a_nonnegative_integer(self, small_setup, seed):
        # int() would read 1.5 as 1 and True as 1; the seed is checked instead
        rho, ref = small_setup
        message = re.escape(f"seed must be a nonnegative integer, got {seed!r}")
        with pytest.raises(ValidationError, match=message):
            RunConfig(state=rho, reference=ref, protocols=("witness",), seed=seed)
        with pytest.raises(ValidationError, match=message):
            stream(seed, 1, 0)
        with pytest.raises(ValidationError, match=message):
            simulate_record(rho, ref, "dephase", 10, seed=seed)


class TestStreamRule:
    """Distribution j of protocol p, its position in PROTOCOLS, is drawn on
    stream(seed, p, j) everywhere: a simulated record is coverage's trial 0
    at its seed, whichever entry point simulates it, and two protocols'
    records share no bits."""

    # the parameter each certificate reads off its record's counts
    READS = {"hypothesis_test": "type_ii_count", "witness": "successes",
             "dephase": "empirical_entropy_bits"}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_record_is_row_0_of_coverages_draw(self, small_setup, protocol):
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=(protocol,), n_samples=300,
                           witness_rank=2)
        labels, dists, _, _ = harness._outcome_setup(config, protocol)
        key = PROTOCOLS.index(protocol)
        for seed in range(20):
            rngs = [stream(seed, key, j) for j in range(len(dists))]
            row = harness._draw(len(labels), dists, 300, rngs, 5)[0].tolist()
            record = simulate_record(rho, ref, protocol, 300, seed=seed, witness_rank=2)
            assert record.counts == {str(label): c for label, c in zip(labels, row)}
            simulated = pipeline(replace(config, seed=seed))["certified_bounds"][0]["params"]
            certified = pipeline(RunConfig(
                state=None, reference=ref, protocols=(protocol,), records={protocol: record},
                witness_rank=2))["certified_bounds"][0]["params"]
            assert simulated[self.READS[protocol]] == certified[self.READS[protocol]]

    def test_two_protocols_records_share_no_bits(self):
        # on the 3-qubit weight-1 sector with rho diagonal (0.6, 0.3, 0.1) on
        # H_R, the witness succeeds and dephasing reads outcome 0 with the
        # same probability 0.6: two records drawn on one stream have equal
        # counts at every seed, independent ones at about 1.3% of seeds
        ref = sector_reference(3, 1, 2, 3)
        v = ref.support_basis()
        rho = validate_density(v @ np.diag([0.6, 0.3, 0.1]) @ v.conj().T)
        equal = sum(simulate_record(rho, ref, "witness", 2000, seed=seed).counts["success"]
                    == simulate_record(rho, ref, "dephase", 2000, seed=seed).counts["0"]
                    for seed in range(50))
        assert equal <= 5

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_coverage_trial_0_is_the_certifiers_verdict_on_the_record(self, small_setup,
                                                                       protocol):
        # settings at which the test is invalid at some seeds, and the test
        # and the witness certify above their targets at some; dephasing's
        # certificate stays below its target at every seed here (its exact
        # P(violation) is at most about 1e-6 at any small n, ROADMAP item 19)
        rho, ref = small_setup
        limit = protocol_ground_truth(rho, ref, protocol) + harness._VIOLATION_SLACK
        verdicts = {"covered": (0, 0), "violation": (1, 0), "invalid": (0, 1)}
        seen = set()
        for seed in range(200):
            summary = coverage_experiment(RunConfig(
                state=rho, reference=ref, protocols=(protocol,), n_samples=100, delta=0.8,
                test_calibration=0.99, seed=seed), trials=1)["protocols"][protocol]
            record = simulate_record(rho, ref, protocol, 100, seed=seed, test_calibration=0.99)
            try:
                report = pipeline(RunConfig(state=None, reference=ref, protocols=(protocol,),
                                            records={protocol: record}, delta=0.8))
            except ProtocolInvalidError:
                verdict = "invalid"
            else:
                above = report["certified_bounds"][0]["value_bits"] > limit
                verdict = "violation" if above else "covered"
            assert (summary["violations"], summary["invalid_runs"]) == verdicts[verdict], seed
            seen.add(verdict)
        assert seen == {"hypothesis_test": {"covered", "violation", "invalid"},
                        "witness": {"covered", "violation"}, "dephase": {"covered"}}[protocol]


def sequential_rows(seed: int, key: int, dists: list, n: int, trials: int) -> list:
    # trial t's counts as the t-th of sequential draws, one call per
    # distribution j on a fresh stream(seed, key, j)
    rngs = [stream(seed, key, j) for j in range(len(dists))]
    return [np.concatenate([rng.multinomial(n, p) for rng, p in zip(rngs, dists)]).tolist()
            for _ in range(trials)]


class TestTrialStreams:
    """Coverage draws distribution j of all trials in one call on the stream
    (seed, protocol, j); trial t must get row t of each draw, the counts of
    the t-th sequential call on that stream."""

    DISTS = [np.array([0.5, 0.3, 0.2]), np.array([0.9, 0.1])]

    @pytest.mark.parametrize("seed", [
        0, 1, 12345, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 7, 2**70 + 5, 2**128 + 3, 2**200,
        np.int64(77),
    ])
    def test_keys_and_draws_match_stream(self, seed):
        for key in (0, 1, 2, 2**33):
            rngs = [stream(seed, key, j) for j in range(len(self.DISTS))]
            counts = harness._draw(5, self.DISTS, 40, rngs, 70)
            assert counts.tolist() == sequential_rows(seed, key, self.DISTS, 40, 70)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**256 - 1), key=st.sampled_from([0, 1, 2]),
           trials=st.integers(1, 40))
    def test_any_seed_draws_as_stream(self, seed, key, trials):
        rngs = [stream(seed, key, j) for j in range(len(self.DISTS))]
        assert harness._draw(5, self.DISTS, 25, rngs, trials).tolist() == (
            sequential_rows(seed, key, self.DISTS, 25, trials))

    def test_coverage_builds_no_seed_sequence_per_trial(self, small_setup, monkeypatch):
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs.get("spawn_key"))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        stream(5, 1, 0)
        assert built == [(1, 0)]
        built.clear()
        # one stream per distribution: the hypothesis test's null and
        # alternative, then the witness and the dephasing distributions
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=50)
        summary = coverage_experiment(config, trials=50)
        assert sorted(summary["protocols"]) == sorted(PROTOCOLS)
        assert built == [(0, 0), (0, 1), (1, 0), (2, 0)]


class TestIoRoundTrips:
    def test_state_file_roundtrip(self, tmp_path, rng):
        rho = random_density(rng, 5)
        path = tmp_path / "state.json"
        rcc_io.dump_state(rho, path)
        back = rcc_io.load_state(path)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-15

    def test_state_file_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0]]}))
        from rcc import ConfigError

        with pytest.raises(ConfigError):
            rcc_io.load_state(path)

    def test_dim_cap_env(self, tmp_path, monkeypatch):
        from rcc import ConfigError

        monkeypatch.setenv("RCC_DIM_CAP", "3")
        payload = {"dim": 4, "re": np.eye(4).tolist()}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="cap"):
            rcc_io.load_state(path)

    def test_reference_configs(self, tmp_path):
        cfgs = [
            {"type": "sector", "g": 2, "addressable_units": 2, "n_qubits": 3,
             "hamming_weight": 1},
            {"type": "stabilizer", "g": 2, "addressable_units": 3, "n_qubits": 3,
             "generators": ["ZZI", "IZZ"]},
            {"type": "blocks", "g": 2, "addressable_units": 2, "blocks": [[2, 1], [1, 3]]},
            {"type": "projectors", "g": 2, "addressable_units": 2,
             "projectors": [{"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}]},
        ]
        dims = [3, 2, 5, 1]
        for cfg, d_r in zip(cfgs, dims):
            path = tmp_path / "ref.json"
            path.write_text(json.dumps(cfg))
            assert rcc_io.load_reference(path).d_r == d_r

    def test_record_roundtrip(self, tmp_path):
        record = simulate_record(
            diag_state(0.7, 0.3), full_reference(2), "dephase", 100, seed=2
        )
        path = tmp_path / "rec.json"
        rcc_io.dump_record(record, path)
        back = rcc_io.load_record(path)
        assert back.counts == record.counts

    def test_window_family_file(self, tmp_path):
        payload = {
            "windows": [
                {"xi": 0.0, "blocks": [[0], [1]]},
                {"xi": 1.0, "blocks": [[0, 1]]},
            ]
        }
        path = tmp_path / "wf.json"
        path.write_text(json.dumps(payload))
        family = rcc_io.load_window_family(path)
        assert len(family.windows) == 2

    def test_trace_csv_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,Pi,T,C\n0,1,2,0\n1,1,2,0.5\n2,1,2,1\n")
        trace = rcc_io.load_trace_csv(path)
        assert trace.times.tolist() == [0.0, 1.0, 2.0]

    def test_inf_rendering(self):
        text = rcc_io.dumps_json({"v": math.inf, "w": [1.0, -math.inf]})
        assert '"inf"' in text and '"-inf"' in text
