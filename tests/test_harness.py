import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcc import (
    BlockPartition,
    LeakageError,
    ObservationWindow,
    RunConfig,
    ValidationError,
    WindowFamily,
    born_sample,
    coverage_experiment,
    hypothesis_testing_divergence,
    main_lower_bound,
    pipeline,
    protocol_ground_truth,
    rcc,
    simulate_record,
    stream,
    sweep_windows,
    validate_density,
    witness_sample_plan,
)
from rcc import harness, io as rcc_io, stats
from rcc.harness import (
    _protocol, _trial_keys, _trial_streams, default_witness_projector, optimal_test_projector,
)
from rcc.records import PROTOCOLS
from conftest import embed_state, embedded_reference, full_reference, random_density
from oracles import coverage_one_trial_at_a_time


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
    def test_deterministic_state_all_counts_on_one_outcome(self):
        rho = basis_state(2)
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        record = born_sample(rho, effects, 500, seed=7)
        assert record.counts["0"] == 500

    def test_vacuum_binomial_concentration(self):
        ref = full_reference(2)
        sigma = validate_density(ref.sigma_matrix())
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        n = 10**6
        record = born_sample(sigma, effects, n, seed=11)
        sd = math.sqrt(n * 0.25)
        assert abs(record.counts["0"] - n / 2) < 5 * sd

    def test_seed_determinism_bit_exact(self):
        rho = diag_state(0.3, 0.7)
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        a = born_sample(rho, effects, 1000, seed=123)
        b = born_sample(rho, effects, 1000, seed=123)
        assert a.counts == b.counts

    def test_counts_sum(self):
        rho = diag_state(0.3, 0.7)
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        record = born_sample(rho, effects, 777, seed=5)
        assert sum(record.counts.values()) == 777

    def test_non_povm_rejected(self):
        rho = diag_state(0.3, 0.7)
        with pytest.raises(ValidationError, match="POVM"):
            born_sample(rho, [np.diag([1.0, 0.0])], 10, seed=1)
        with pytest.raises(ValidationError, match="POVM"):
            born_sample(rho, [], 10, seed=1)
        with pytest.raises(ValidationError, match="POVM"):
            born_sample(
                rho, [np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])], 10, seed=1
            )


    def test_probabilities_are_the_traces_of_the_effects(self, rng):
        # a complex state and complex effects; the traces are contracted in
        # another order than the matrix product, so they agree to roundoff
        rho = random_density(rng, 6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        effects = [np.outer(q[:, i], q[:, i].conj()) for i in range(6)]
        effects = [effects[0] + effects[1], *effects[2:]]
        traces = np.array([np.trace(e @ rho.matrix).real for e in effects])
        assert np.allclose(harness._born_probabilities(rho.matrix, effects),
                           traces / traces.sum(), rtol=0, atol=1e-14)


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

    @pytest.mark.parametrize("scale", [2.0, -1.0])
    def test_witness_projector_outside_zero_and_identity_rejected(self, small_setup, scale):
        rho, ref = small_setup
        bad = scale * default_witness_projector(rho, ref, 1)
        with pytest.raises(ValidationError, match="not a POVM"):
            simulate_record(rho, ref, "witness", 100, seed=1, witness_projector=bad)

    def test_witness_effect_that_is_not_a_projector_rejected(self):
        # E = diag(1, 0.4, 0, 0) is a POVM effect whose trace rounds to rank
        # 1; taken as a rank-1 projector it certified D_max >= 1.48 bits
        # where D_max is 1
        rho, ref = diag_state(0.5, 0.5, 0.0, 0.0), full_reference(4)
        effect = np.diag([1.0, 0.4, 0.0, 0.0])
        with pytest.raises(ValidationError, match="not a projector"):
            simulate_record(rho, ref, "witness", 200_000, seed=0, witness_projector=effect)

    def test_witness_projector_of_wrong_size_rejected(self, small_setup):
        rho, ref = small_setup
        with pytest.raises(ValidationError, match="4x4"):
            simulate_record(rho, ref, "witness", 100, seed=1, witness_projector=np.eye(2))

    def test_witness_projector_support(self, small_setup):
        rho, ref = small_setup
        proj = default_witness_projector(rho, ref, 2)
        assert float(np.trace(proj).real) == pytest.approx(2.0, abs=1e-9)
        leak = np.linalg.norm(proj - ref.total.matrix @ proj @ ref.total.matrix)
        assert leak < 1e-10


class TestPipeline:
    def test_exact_mode_logical_state(self):
        # 3 logical qubits with a 2-gate alphabet addressing all 3 units
        ref = embedded_reference(8, 32, g=2, units=3)
        config = RunConfig(state=basis_state(32), reference=ref, protocols=("exact",))
        report = pipeline(config)
        assert report["exact"]["rcc_structons"] == pytest.approx(
            3 / math.log2(6), abs=1e-12
        )
        assert report["schema"] == "rcc-report/2"

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
        # a trial's index is one 32-bit word of its stream's key; past 2**32
        # trials it would wrap, so that raises before anything is set up,
        # allocated or drawn
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=("witness",))
        monkeypatch.setattr(harness, "_outcome_setup",
                            lambda *args: pytest.fail("set up before the trial count was checked"))
        message = re.escape(f"trials must be an integer in [1, 2**32], got {trials!r}")
        with pytest.raises(ValidationError, match=message):
            coverage_experiment(config, trials)

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
        assert ht_truth == hypothesis_testing_divergence(rho, ref, 0.25).bits
        dephase_truth = protocol_ground_truth(rho, ref, "dephase")
        h = -sum(p * math.log2(p) for p in (0.6, 0.25, 0.1, 0.05))
        assert dephase_truth == pytest.approx(2.0 - h, abs=1e-12)

    def test_a_leaking_state_simulates_but_has_no_test_target(self):
        # the hypothesis test's target is computed only when read, so
        # setting up a record does not need a state supported in H_R
        ref = embedded_reference(2, 4)
        leaking = diag_state(0.5, 0.3, 0.2, 0.0)
        record = simulate_record(leaking, ref, "hypothesis_test", 100, seed=0)
        assert record.n == 200
        with pytest.raises(LeakageError):
            protocol_ground_truth(leaking, ref, "hypothesis_test")

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
        # 500 trials certified one by one would evaluate 1,500 endpoints
        evaluated = []
        for name in ("clopper_pearson_upper", "clopper_pearson_lower"):
            def counting(k, n, delta, endpoint=getattr(stats, name)):
                evaluated.append(np.size(k))
                return endpoint(k, n, delta)
            monkeypatch.setattr(stats, name, counting)
        rho, ref = state_and_ref
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=400, seed=11)
        summary = coverage_experiment(config, trials=500)
        assert summary["protocols"]["hypothesis_test"]["invalid_runs"] == 0
        assert 0 < sum(evaluated) <= 3 * math.ceil(math.log2(501))


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


def first_draws(rng: np.random.Generator) -> list:
    # more than one Philox block of 64-bit words, then 32-bit draws, which
    # use the generator's half-word buffer
    return (rng.integers(0, 2**63, size=9).tolist()
            + rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist())


class TestTrialStreams:
    """Coverage hashes every trial's Philox key in one pass and re-keys one
    generator; each trial must get the bits of stream(seed, key, t)."""

    @pytest.mark.parametrize("seed", [
        0, 1, 12345, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 7, 2**70 + 5, 2**128 + 3, 2**200,
        np.int64(77),
    ])
    def test_keys_and_draws_match_stream(self, seed):
        for key in (0, 1, 2, 2**33):
            keys = _trial_keys(seed, key, 300)
            assert keys.dtype == np.uint64
            assert np.array_equal(keys, [
                np.random.SeedSequence(seed, spawn_key=(key, t)).generate_state(2, np.uint64)
                for t in range(300)])
            assert [first_draws(rng) for rng in _trial_streams(seed, key, 70)] == [
                first_draws(stream(seed, key, t)) for t in range(70)]

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**256 - 1), key=st.sampled_from([0, 1, 2]),
           trials=st.integers(1, 40))
    def test_any_seed_draws_as_stream(self, seed, key, trials):
        assert [first_draws(rng) for rng in _trial_streams(seed, key, trials)] == [
            first_draws(stream(seed, key, t)) for t in range(trials)]

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
        rho, ref = small_setup
        config = RunConfig(state=rho, reference=ref, protocols=PROTOCOLS, n_samples=50)
        summary = coverage_experiment(config, trials=50)
        assert sorted(summary["protocols"]) == sorted(PROTOCOLS)
        assert len(built) <= len(PROTOCOLS)


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
