import math
import re

import numpy as np
import pytest

from rcc import (
    BlockPartition,
    ConfigError,
    ObservationWindow,
    ProcessTrace,
    ValidationError,
    WindowFamily,
    info_work,
    pinch,
    process_time_bound,
    rcc,
    rect_efficiency,
    rect_identity_check,
    rect_performance_check,
    validate_density,
    von_neumann,
    windowed_rcc,
)
from conftest import coarsen, embedded_reference, full_reference, random_density, random_partition
from rcc.windows import window_compatible, windowed_entropy_bits


def diag_state(*p):
    return validate_density(np.diag(np.array(p, dtype=float)))


def plus_pair():
    v = np.full(4, 0.5)
    return validate_density(np.outer(v, v))


class TestConditionalExpectation:
    """E_Xi, a window's conditional expectation, is the pinching of its partition."""

    def test_whole_block_is_identity(self, rng):
        rho = random_density(rng, 4)
        window = ObservationWindow(BlockPartition.whole(4), xi=1.0)
        out = pinch(rho, window.partition)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_plus_state_dephases(self):
        plus = validate_density(np.full((2, 2), 0.5))
        window = ObservationWindow(BlockPartition.singletons(2), xi=0.0)
        out = pinch(plus, window.partition)
        assert np.array_equal(out.matrix, np.diag([0.5, 0.5]))

    def test_vacuum_fixed_point(self, rng):
        ref = embedded_reference(4, 6)
        sigma = validate_density(ref.sigma_matrix())
        for _ in range(20):
            inner = random_partition(rng, range(4))
            outer = random_partition(rng, range(4, 6))
            window = ObservationWindow(BlockPartition(inner.blocks + outer.blocks))
            assert window_compatible(window, ref)
            out = pinch(sigma, window.partition)
            assert np.abs(out.matrix - sigma.matrix).max() < 1e-12

    def test_idempotent(self, rng):
        rho = random_density(rng, 6)
        window = ObservationWindow(random_partition(rng, range(6)))
        once = pinch(rho, window.partition)
        twice = pinch(once, window.partition)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12


class TestWindowedRcc:
    def test_plus_state_windows(self):
        ref = full_reference(2, g=2, units=2)
        plus = validate_density(np.full((2, 2), 0.5))
        diag_w = ObservationWindow(BlockPartition.singletons(2), xi=0.0)
        full_w = ObservationWindow(BlockPartition.whole(2), xi=1.0)
        assert windowed_rcc(plus, ref, diag_w) == 0.0
        assert windowed_rcc(plus, ref, full_w) == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_always_zero(self, rng):
        ref = full_reference(4)
        sigma = diag_state(*[0.25] * 4)
        for _ in range(10):
            window = ObservationWindow(random_partition(rng, range(4)))
            assert windowed_rcc(sigma, ref, window) == 0.0

    def test_diagonal_state_unchanged_by_diagonal_window(self):
        ref = full_reference(2, g=2, units=2)
        zero = diag_state(1.0, 0.0)
        window = ObservationWindow(BlockPartition.singletons(2))
        assert windowed_rcc(zero, ref, window) == rcc(zero, ref)

    def test_never_exceeds_full_rcc(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 17))
            ref = full_reference(d)
            rho = random_density(rng, d)
            window = ObservationWindow(random_partition(rng, range(d)))
            assert windowed_rcc(rho, ref, window) <= rcc(rho, ref) + 1e-12

    def test_incompatible_window_rejected(self):
        # reference projector with off-diagonal structure across the blocks
        h = np.full((2, 2), 0.5)
        from rcc import build_reference

        ref = build_reference([h], g=2, addressable_units=2)
        window = ObservationWindow(BlockPartition.singletons(2))
        rho = validate_density(np.full((2, 2), 0.5))
        with pytest.raises(ValidationError, match="preserve"):
            windowed_rcc(rho, ref, window)

    def test_degeneracy_breaking_pair(self):
        ref = full_reference(4, g=2, units=2)  # gamma 4, two qubits
        product = diag_state(1.0, 0.0, 0.0, 0.0)
        entangledish = plus_pair()
        window = ObservationWindow(BlockPartition.singletons(4))
        assert rcc(product, ref) == pytest.approx(rcc(entangledish, ref), abs=1e-12)
        gap = windowed_rcc(product, ref, window) - windowed_rcc(entangledish, ref, window)
        assert gap >= 0.4  # strict breaking under the diagonal window

    def test_basis_state_keeps_its_complexity_under_the_diagonal_window(self):
        # d_R = 16 and Gamma_R = 4: log2 16 / log2 4 = 2 structons
        ref = embedded_reference(16, 16, g=2, units=2)
        window = ObservationWindow(BlockPartition.singletons(16))
        assert windowed_rcc(diag_state(*np.eye(16)[0]), ref, window) == 2.0

    def test_a_block_keeps_its_coherences(self):
        # (|0> + |1>)/sqrt 2: a window holding both indices in one block sees
        # the pure state; the diagonal window sees one bit of entropy
        ref = embedded_reference(4, 4, g=2, units=2)
        psi = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
        rho = validate_density(np.outer(psi, psi))
        pairs = ObservationWindow(BlockPartition(((0, 1), (2, 3))))
        diagonal = ObservationWindow(BlockPartition.singletons(4))
        assert windowed_rcc(rho, ref, pairs) == pytest.approx(1.0, abs=1e-12)
        assert windowed_rcc(rho, ref, diagonal) == pytest.approx(0.5, abs=1e-12)

    def test_the_windowed_entropy_is_that_of_the_pinched_state(self, rng):
        ref = full_reference(6)
        for _ in range(20):
            rho = random_density(rng, 6)
            window = ObservationWindow(random_partition(rng, range(6)))
            pinched = pinch(rho, window.partition)
            assert windowed_entropy_bits(rho, ref, window) == von_neumann(pinched)


class TestWindowFamily:
    def test_nested_family_accepted(self):
        fine = BlockPartition.singletons(4)
        mid = BlockPartition(((0, 1), (2, 3)))
        full = BlockPartition.whole(4)
        family = WindowFamily((
            ObservationWindow(fine, 0.0),
            ObservationWindow(mid, 1.0),
            ObservationWindow(full, 2.0),
        ))
        assert len(family.windows) == 3

    def test_unnested_rejected(self):
        a = BlockPartition(((0, 1), (2, 3)))
        b = BlockPartition(((0, 2), (1, 3)))
        with pytest.raises(ValidationError, match="nested"):
            WindowFamily((ObservationWindow(a, 0.0), ObservationWindow(b, 1.0)))

    def test_windows_over_different_indices_do_not_nest(self):
        with pytest.raises(ValidationError, match="^" + re.escape(
                "window at xi=0.0 does not refine the window at xi=1.0; "
                "the family is not nested") + "$"):
            WindowFamily((ObservationWindow(BlockPartition.singletons(2), 0.0),
                          ObservationWindow(BlockPartition.whole(4), 1.0)))

    def test_a_negative_label_is_rejected(self):
        with pytest.raises(ValidationError, match="^window label xi must be >= 0$"):
            ObservationWindow(BlockPartition.singletons(2), -1.0)

    def test_labels_strictly_increasing(self):
        part = BlockPartition.singletons(2)
        with pytest.raises(ValidationError, match="increasing"):
            WindowFamily((ObservationWindow(part, 1.0), ObservationWindow(part, 1.0)))

    def test_hierarchy_monotone(self, rng):
        for _ in range(50):
            d = int(rng.integers(3, 13))
            ref = full_reference(d)
            rho = random_density(rng, d)
            fine = random_partition(rng, range(d))
            coarse = coarsen(rng, fine)
            w_fine = ObservationWindow(fine, 0.0)
            w_coarse = ObservationWindow(coarse, 1.0)
            WindowFamily((w_fine, w_coarse))  # validates nesting
            s_fine = windowed_entropy_bits(rho, ref, w_fine)
            s_coarse = windowed_entropy_bits(rho, ref, w_coarse)
            assert s_fine >= s_coarse - 1e-12
            assert windowed_rcc(rho, ref, w_fine) <= windowed_rcc(rho, ref, w_coarse) + 1e-12
            assert windowed_rcc(rho, ref, w_coarse) <= rcc(rho, ref) + 1e-12


class TestThermo:
    def test_info_work_constant_temperature(self):
        trace = ProcessTrace([0, 1, 2], [1, 1, 1], [3, 3, 3], [0, 1, 2])
        work, t_avg = info_work(trace, gamma_r=2.0)
        assert work == pytest.approx(3 * 2 * math.log(2), abs=1e-12)
        assert t_avg == pytest.approx(3.0, abs=1e-12)

    def test_info_work_no_change(self):
        trace = ProcessTrace([0, 1], [1, 1], [3, 3], [1, 1])
        work, t_avg = info_work(trace, gamma_r=2.0)
        assert work == 0.0
        assert t_avg is None

    def test_info_work_round_trip_keeps_its_work(self):
        # C returns to 0, so there is no average, but ln 2 * integral T dC
        # = ln 2 * (4 - 3) is still the work
        trace = ProcessTrace([0, 1, 2], [0.5, 0.5, 0.5], [3, 5, 1], [0, 1, 0])
        work, t_avg = info_work(trace, gamma_r=2.0)
        assert work == pytest.approx(math.log(2), abs=1e-12)
        assert t_avg is None

    def test_info_work_round_trip_must_be_finite(self):
        # the two legs overflow to +inf and -inf
        trace = ProcessTrace([0, 1, 2], [1, 1, 1], [1e308, 1e308, 1], [0, 1e10, 0])
        with pytest.raises(ValidationError, match="w_info must be finite, got nan"):
            info_work(trace, gamma_r=2.0)

    def test_info_work_linear_temperature(self):
        trace = ProcessTrace([0, 1], [1, 1], [1, 3], [0, 1])
        work, t_avg = info_work(trace, gamma_r=math.e)
        assert work == pytest.approx(2.0, abs=1e-12)
        assert t_avg == pytest.approx(2.0, abs=1e-12)

    def test_time_bound_direct(self):
        assert process_time_bound(4.0, 0.5).value == pytest.approx(4.0, abs=1e-15)

    def test_time_bound_zero_change(self):
        assert process_time_bound(0.0, 0.5).value == 0.0

    def test_time_bound_isothermal(self):
        bound = process_time_bound(1.0, variant="isothermal", temperature=1 / (2 * math.pi))
        assert bound.value == pytest.approx(1.0, abs=1e-12)
        assert bound.approximate

    def test_time_bound_full_subtracts_correction(self):
        plain = process_time_bound(4.0, 0.5).value
        corrected = process_time_bound(4.0, 0.5, variant="full", log_correction=1.0).value
        assert corrected == pytest.approx(plain - 1.0, abs=1e-12)

    def test_net_gain_below_envelope(self):
        # consistent inputs: envelope start below the initial complexity
        envelope = process_time_bound(5.0, 0.5, variant="envelope").value
        net = process_time_bound(4.0, 0.5, variant="net_gain").value
        assert net <= envelope

    def test_sign_robust_uses_positive_part(self):
        trace = ProcessTrace([0, 1, 2], [1.0, -1.0, 1.0], [1, 1, 1], [0, 0.5, 1])
        bound = process_time_bound(1.0, variant="sign_robust", trace=trace)
        # clipped samples [1, 0, 1] integrate to 1.0 over a span of 2
        assert bound.value == pytest.approx(1.0 / (2 * 0.5), abs=1e-12)

    def test_sign_robust_rejects_a_given_pi_avg(self):
        # the variant averages the trace's potential; a given average is not used
        trace = ProcessTrace([0, 1, 2], [1.0, -1.0, 1.0], [1, 1, 1], [0, 0.5, 1])
        with pytest.raises(ConfigError, match="pi_avg = 2.0 cannot be given with the "
                                              "sign_robust variant"):
            process_time_bound(1.0, 2.0, variant="sign_robust", trace=trace)

    @pytest.mark.parametrize("variant, given, message", [
        ("isothermal", {"pi_avg": 2.0, "temperature": 1.5},
         "pi_avg = 2.0 cannot be given with the isothermal variant, which reads temperature"),
        ("envelope", {"pi_avg": 0.5, "temperature": 1.5},
         "temperature = 1.5 cannot be given with the envelope variant, which reads pi_avg"),
        ("net_gain", {"pi_avg": 0.5, "log_correction": 5.0},
         "log_correction = 5.0 cannot be given with the net_gain variant, which reads pi_avg"),
        ("full", {"pi_avg": 0.5, "temperature": math.nan},
         "temperature = nan cannot be given with the full variant, which reads pi_avg and "
         "log_correction"),
        ("sign_robust", {"log_correction": 0.0},
         "log_correction = 0.0 cannot be given with the sign_robust variant, which averages "
         "the trace's positive potential"),
    ], ids=["isothermal-pi_avg", "envelope-temperature", "net_gain-log_correction",
            "full-temperature", "sign_robust-log_correction"])
    def test_a_variant_rejects_an_input_it_does_not_read(self, variant, given, message):
        trace = ProcessTrace([0, 1, 2], [1.0, -1.0, 1.0], [1, 1, 1], [0, 0.5, 1])
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            process_time_bound(1.0, variant=variant, trace=trace, **given)

    def test_full_reads_an_absent_correction_as_zero(self):
        assert (process_time_bound(4.0, 0.5, variant="full").value
                == process_time_bound(4.0, 0.5, variant="full", log_correction=0.0).value
                == process_time_bound(4.0, 0.5).value)

    def test_pi_avg_required_positive(self):
        with pytest.raises(ValidationError):
            process_time_bound(1.0, 0.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError, match="unknown variant 'adiabatic'"):
            process_time_bound(1.0, 0.5, variant="adiabatic")

    def test_sign_robust_needs_a_trace(self):
        with pytest.raises(ValidationError, match="sign_robust variant needs a process trace"):
            process_time_bound(1.0, variant="sign_robust")

    @pytest.mark.parametrize("temperature", [None, -1.0])
    def test_isothermal_needs_a_positive_temperature(self, temperature):
        with pytest.raises(ValidationError,
                           match="isothermal variant needs a positive temperature"):
            process_time_bound(1.0, variant="isothermal", temperature=temperature)

    def test_a_complexity_loss_floors_at_zero(self):
        assert process_time_bound(-1.0, 0.5).value == 0.0
        assert process_time_bound(1.0, 0.5, variant="full", log_correction=2.0).value == 0.0

    def test_hbar_and_k_b_scale_the_bound(self):
        assert process_time_bound(4.0, 0.5, hbar=2.0).value == pytest.approx(8.0, abs=1e-15)
        plain = process_time_bound(1.0, variant="isothermal", temperature=1.0).value
        scaled = process_time_bound(1.0, variant="isothermal", temperature=1.0, k_b=2.0).value
        assert scaled == pytest.approx(plain / 2, abs=1e-15)

    @pytest.mark.parametrize("constants", [{"hbar": 0.0}, {"k_b": -1.0}])
    def test_hbar_and_k_b_must_be_positive(self, constants):
        with pytest.raises(ValidationError, match="hbar and k_b must be positive"):
            process_time_bound(1.0, 0.5, **constants)

    def test_a_non_finite_change_is_rejected(self):
        with pytest.raises(ValidationError, match="delta_c must be finite, got inf"):
            process_time_bound(math.inf, 0.5)


class TestProcessTrace:
    def test_needs_two_samples(self):
        with pytest.raises(ValidationError, match="at least 2 samples"):
            ProcessTrace([0], [1], [1], [0])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            ProcessTrace([0, 1, 1], [1, 1, 1], [1, 1, 1], [0, 1, 2])

    def test_columns_have_one_length(self):
        with pytest.raises(ValidationError, match="trace column complexities must have 3 entries"):
            ProcessTrace([0, 1, 2], [1, 1, 1], [1, 1, 1], [0, 1])

    def test_a_non_finite_entry_names_its_column(self):
        with pytest.raises(ValidationError,
                           match="column temperatures: trace entries must be finite, got nan"):
            ProcessTrace([0, 1, 2], [1, 1, 1], [1, math.nan, 1], [0, 1, 2])


class TestRect:
    def test_efficiency_values(self):
        eff = rect_efficiency(2.0, 3.0, 1.0, 1.5, 1.0)
        assert eff.eta_qsl == pytest.approx(math.pi / 12, abs=1e-15)
        assert eff.eta_lr == pytest.approx(0.5, abs=1e-15)
        assert eff.qsl_satisfied and eff.lr_satisfied

    def test_zero_entanglement(self):
        eff = rect_efficiency(2.0, 3.0, 1.0, 0.0, 1.0)
        assert eff.eta_lr == 0.0

    def test_violation_flagged(self):
        eff = rect_efficiency(0.1, 0.1, 10.0, 0.0, 1.0)
        assert not eff.qsl_satisfied

    def test_identity_residual_vanishes_by_construction(self):
        eff = rect_efficiency(2.0, 3.0, 1.0, 1.5, 1.0)
        residual = rect_identity_check(2.0, 1.5, eff.eta_qsl, eff.eta_lr, 1.0, 1.0)
        assert abs(residual) <= 1e-12 * abs(2.0 * 1.5)

    def test_identity_trivial_case(self):
        eff = rect_efficiency(2.0, 3.0, 0.0, 0.0, 1.0)
        # degenerate: zero complexity and entanglement
        assert eff.eta_qsl == 0.0
        residual = rect_identity_check(2.0, 0.0, 1e-6, eff.eta_lr, 1.0, 0.0)
        assert residual == 0.0

    def test_independent_factors_leave_residual(self):
        residual = rect_identity_check(2.0, 1.5, 0.3, 0.4, 1.0, 1.0)
        assert residual != 0.0

    def test_performance_equality_at_identity(self):
        eff = rect_efficiency(2.0, 3.0, 1.0, 1.5, 1.0)
        perf = rect_performance_check(2.0, 1.5, eff.eta_qsl, eff.eta_lr, 1.0, 1.0, 1.0)
        assert perf.margin == pytest.approx(0.0, abs=1e-12)
        assert perf.passed

    def test_performance_positive_margin_when_cr_below(self):
        eff = rect_efficiency(2.0, 3.0, 1.0, 1.5, 1.0)
        perf = rect_performance_check(2.0, 1.5, eff.eta_qsl, eff.eta_lr, 1.0, 1.0, 0.5)
        assert perf.margin > 0
        assert perf.margin_dimensionless == pytest.approx(perf.margin, abs=1e-15)

    @pytest.mark.parametrize("eta_qsl, j, message", [
        (0.0, 1.0, "eta_qsl must be positive"),
        (-0.5, 1.0, "eta_qsl must be positive"),
        (0.5, 0.0, "the characteristic energy scale J must be positive"),
        (0.5, -1.0, "the characteristic energy scale J must be positive"),
    ])
    def test_performance_needs_positive_eta_qsl_and_j(self, eta_qsl, j, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            rect_performance_check(2.0, 1.5, eta_qsl, 0.5, 1.0, j, 1.0)

    def test_fabricated_violation_fails(self):
        perf = rect_performance_check(0.1, 0.1, 0.5, 1.0, 1.0, 1.0, 10.0)
        assert not perf.passed
        assert perf.margin < 0
