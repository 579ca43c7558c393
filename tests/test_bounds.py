import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rcc import (
    BoundConstants,
    ValidationError,
    bound_from_divergence,
    main_lower_bound,
    rcc,
    smoothed_lower_bound,
    solve_bootstrap,
    validate_density,
)
from rcc.bounds import METHODS, _resolve_bootstrap_floor
from conftest import embedded_reference, full_reference, random_density, random_partition
from oracles import bootstrap_root_by_bisection


def diag_state(*p):
    return validate_density(np.diag(np.array(p, dtype=float)))


def basis_state(dim: int, index: int = 0):
    d = np.zeros(dim)
    d[index] = 1.0
    return diag_state(*d)


class TestRcc:
    def test_vacuum_zero(self):
        ref = full_reference(4)
        assert rcc(diag_state(*[0.25] * 4), ref) == 0.0

    def test_logical_pure_state(self):
        # 3 logical qubits, gate set of 2, addressing all 3 units
        ref = embedded_reference(8, 8, g=2, units=3)
        assert rcc(basis_state(8), ref) == pytest.approx(3 / math.log2(6), abs=1e-15)

    def test_plus_state(self):
        ref = full_reference(2, g=2, units=2)
        plus = validate_density(np.full((2, 2), 0.5))
        assert rcc(plus, ref) == pytest.approx(0.5, abs=1e-12)

    def test_embedding_invariance_exact(self):
        values = []
        for n in (5, 7, 9):
            ref = embedded_reference(8, 2**n, g=2, units=3)
            values.append(rcc(basis_state(2**n), ref))
        assert values[0] == values[1] == values[2]

    def test_range(self, rng):
        for _ in range(40):
            d_r = int(rng.integers(2, 17))
            ref = full_reference(d_r)
            value = rcc(random_density(rng, d_r), ref)
            assert 0.0 <= value <= math.log2(d_r) / ref.log2_gamma + 1e-12

    def test_monotone_under_compatible_pinching(self, rng):
        for _ in range(60):
            d_r = int(rng.integers(2, 17))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
            from rcc import pinch

            part = random_partition(rng, range(d_r))
            assert rcc(pinch(rho, part), ref) <= rcc(rho, ref) + 1e-12

    @pytest.mark.parametrize("gamma_a, gamma_b, ratio", [
        (4, 4, 1.0), (4, 8, 2 / 3), (2, 4, 1 / 2), (16, 2, 4.0),
    ])
    def test_structons_convert_by_the_log_of_gamma(self, rng, gamma_a, gamma_b, ratio):
        # one divergence counted in Gamma_R-ary instructions: the figures in
        # two alphabets differ by log Gamma_a / log Gamma_b
        assert rcc(basis_state(16), full_reference(16, g=gamma_b, units=1)) == pytest.approx(
            ratio * rcc(basis_state(16), full_reference(16, g=gamma_a, units=1)), abs=1e-15)
        for _ in range(10):
            rho = random_density(rng, 8)
            a = rcc(rho, full_reference(8, g=gamma_a, units=1))
            b = rcc(rho, full_reference(8, g=gamma_b, units=1))
            assert b == pytest.approx(ratio * a, rel=1e-12, abs=1e-15)


class TestSolveBootstrap:
    def test_example_root(self):
        # frozen from bisection on x + log2(x) = 10
        assert solve_bootstrap(10, 1) == pytest.approx(7.1600336, abs=1e-6)

    def test_piecewise_example(self):
        alpha = 1 / math.log(2)
        assert solve_bootstrap(10, 1, "piecewise") == pytest.approx(
            10 - alpha * math.log(11), abs=1e-12
        )

    def test_vanishing_correction(self):
        assert solve_bootstrap(10, 1e-9) == pytest.approx(10.0, abs=1e-6)

    def test_nonpositive_d(self):
        assert solve_bootstrap(0.0, 1.0) == 0.0
        assert solve_bootstrap(-3.0, 1.0) == 0.0

    def test_invalid_c(self):
        with pytest.raises(ValidationError):
            solve_bootstrap(1.0, 0.0)

    def test_asymptotic_domain(self):
        with pytest.raises(ValidationError):
            solve_bootstrap(0.5, 1.0, "asymptotic")

    def test_residuals_against_bisection(self, rng):
        # a subnormal D starts the climb at D itself, where x / (x + alpha)
        # underflows to 0
        pairs = [(5e-324, 100.0), (5e-324, 1.0)]
        pairs += [(float(10 ** rng.uniform(-1, 3)), float(10 ** rng.uniform(-1, 1)))
                  for _ in range(300)]
        for d, c in pairs:
            x = solve_bootstrap(d, c)
            assert x + c * math.log2(x) - d <= 0.0
            assert abs(x + c * math.log2(x) - d) <= 1e-9
            assert x == pytest.approx(bootstrap_root_by_bisection(d, c), rel=1e-10, abs=1e-10)

    def test_piecewise_below_lambert(self, rng):
        for _ in range(300):
            d = float(10 ** rng.uniform(-1, 3))
            c = float(10 ** rng.uniform(-1, 1))
            assert solve_bootstrap(d, c, "piecewise") <= solve_bootstrap(d, c) + 1e-12

    def test_asymptotic_gap_shrinks(self):
        for c in (0.5, 1.0):
            gaps = [
                solve_bootstrap(d, c) - solve_bootstrap(d, c, "asymptotic")
                for d in (10.0, 100.0, 1000.0)
            ]
            assert gaps[0] > gaps[1] > gaps[2] > 0

    @pytest.mark.parametrize("method", ["lambert", "piecewise", "asymptotic"])
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_d_is_rejected(self, d, method):
        with pytest.raises(ValidationError, match="d must be finite"):
            solve_bootstrap(d, 1.0, method)

    def test_an_unknown_method_is_rejected(self):
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"unknown method 'newton'; expected one of {METHODS}") + "$"):
            solve_bootstrap(2.0, 1.0, "newton")

    @pytest.mark.parametrize("d, c", [(2000.0, 1000.0), (50.0, 20.0), (3.0, 50.0)])
    def test_piecewise_is_positive_at_large_c(self, d, c):
        # D - alpha*ln(1+D) is negative here; the floor D/(1+alpha) is not
        value = solve_bootstrap(d, c, "piecewise")
        assert 0.0 < value <= bootstrap_root_by_bisection(d, c)

    def test_piecewise_takes_the_larger_floor(self):
        # just above D = 1 + alpha, D/(1+alpha) = 1.25 beats D - alpha*ln(1+D)
        assert solve_bootstrap(2.5, math.log(2), "piecewise") == 1.25

    def test_double_residual_at_the_root_is_never_positive(self):
        rng = np.random.default_rng(2028)
        for d, c in zip(10 ** rng.uniform(-6, 6, 10_000), 10 ** rng.uniform(-3, 2, 10_000)):
            for method in ("lambert", "piecewise"):
                x = solve_bootstrap(float(d), float(c), method)
                assert x + c * math.log2(x) - d <= 0.0, (d, c, method)

    def test_extreme_inputs_stay_positive_and_below_the_root(self):
        for d, c in [(5e-324, 1.0), (5e-324, 100.0), (1e-300, 1e-3), (1e300, 1e-3),
                     (1.7e308, 100.0), (1.0, 1e300)]:
            for method in ("lambert", "piecewise"):
                x = solve_bootstrap(d, c, method)
                assert 0.0 < x and x + c * math.log2(x) - d <= 0.0, (d, c, method)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_d=st.floats(-6, 6), log_c=st.floats(-3, 2))
# D = 10**-323.3 rounds to 5e-324, the least subnormal
@example(log_d=-323.3, log_c=2.0)
@example(log_d=-323.3, log_c=0.0)
def test_root_is_never_above_the_exact_root(log_d, log_c):
    """Against a 200-bit root alpha*W0(e^(D/alpha)/alpha): the returned root
    is at most the exact one and within 1e-12 relative of it."""
    mpmath = pytest.importorskip("mpmath")
    d, c = 10.0 ** log_d, 10.0 ** log_c
    x = solve_bootstrap(d, c)
    with mpmath.workprec(200):
        alpha = mpmath.mpf(c) / mpmath.log(2)
        exact = alpha * mpmath.lambertw(mpmath.exp(mpmath.mpf(d) / alpha) / alpha).real
        assert mpmath.mpf(x) <= exact
        assert abs(mpmath.mpf(x) - exact) <= 1e-12 * exact


class TestMainLowerBound:
    def test_vacuum_floors_at_zero(self):
        ref = full_reference(4)
        sigma = diag_state(*[0.25] * 4)
        bb = main_lower_bound(sigma, ref, epsilon=0.01)
        assert bb.final == 0.0
        assert bb.floored

    def test_pure_state_example(self):
        # d_R = 2^10, gamma 4, eps 0.01, c1 1: net = 5 - log2(100)/2;
        # frozen root of x + 0.5 log2 x = net is 1.4234009 (bisection oracle)
        ref = embedded_reference(1024, 1024, g=2, units=2)
        bb = main_lower_bound(basis_state(1024), ref, epsilon=0.01)
        assert bb.leading == pytest.approx(5.0, abs=1e-12)
        assert bb.log_correction == pytest.approx(math.log2(100) / 2, abs=1e-12)
        net = bb.leading + bb.spectral - bb.log_correction
        assert bb.final == pytest.approx(bootstrap_root_by_bisection(net, 0.5), abs=1e-9)
        assert bb.final == pytest.approx(1.4234009, abs=1e-6)

    def test_spectral_term_enters_with_unit_coefficient(self):
        ref = full_reference(3, g=2, units=2)
        skewed = diag_state(0.5, 0.25, 0.25)
        flat = diag_state(1 / 3, 1 / 3, 1 / 3)
        bb_skewed = main_lower_bound(skewed, ref, epsilon=0.01)
        bb_flat = main_lower_bound(flat, ref, epsilon=0.01)
        lead_gap = (bb_skewed.leading + bb_skewed.spectral) - (bb_flat.leading + bb_flat.spectral)
        expected = (
            (math.log2(3) - 1.5 + 0.5) - (math.log2(3) - math.log2(3))
        ) / ref.log2_gamma
        assert lead_gap == pytest.approx(expected, abs=1e-12)
        assert bb_skewed.spectral == pytest.approx(0.5 / ref.log2_gamma, abs=1e-12)

    def test_never_exceeds_unconstrained_leading(self, rng):
        for _ in range(50):
            d_r = int(rng.integers(2, 33))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
            bb = main_lower_bound(rho, ref, epsilon=0.2)
            assert bb.final <= bb.leading + bb.spectral + 1e-12

    def test_monotone_in_epsilon(self, rng):
        # looser precision targets can only weaken the correction term
        ref = full_reference(16)
        rho = diag_state(0.9, *[0.1 / 15] * 15)
        finals = [
            main_lower_bound(rho, ref, epsilon=eps).final
            for eps in (0.001, 0.01, 0.1, 0.5)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(finals, finals[1:]))

    def test_epsilon_domain(self):
        # both bound forms take one precision rule, 0 < epsilon <= 1/2
        ref = full_reference(4)
        message = re.escape("epsilon 0.7 must be in (0, 0.5]")
        with pytest.raises(ValidationError, match=message):
            main_lower_bound(diag_state(*[0.25] * 4), ref, epsilon=0.7)
        with pytest.raises(ValidationError, match=message):
            smoothed_lower_bound(1.0, ref, epsilon=0.7, eta=0.05)
        assert smoothed_lower_bound(1.0, ref, epsilon=0.5, eta=0.05).inputs["epsilon"] == 0.5

    def test_residual_of_reported_inequality(self, rng):
        for _ in range(50):
            d_r = int(rng.integers(4, 65))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r, rank=2)
            bb = main_lower_bound(rho, ref, epsilon=0.01)
            net = bb.leading + bb.spectral - bb.log_correction
            if bb.final > 1.0:
                c = bb.inputs["c1"] / ref.log2_gamma
                assert abs(bb.final + c * math.log2(bb.final) - net) <= 1e-9


class TestBootstrapFloor:
    def test_a_root_rounded_below_the_floor_takes_the_floor(self):
        # net just past 1: the rounded-down root falls below the floor 1
        net = math.nextafter(1.0, 2.0)
        assert solve_bootstrap(net, 1.0) < 1.0
        assert _resolve_bootstrap_floor(net, 1.0, 1.0) == (1.0, True)


class TestNegativeDivergences:
    @pytest.mark.parametrize("d_bits, spectral_bits", [(-1.0, 0.0), (1.0, -0.5)])
    def test_the_divergence_form_rejects_a_negative_term(self, d_bits, spectral_bits):
        with pytest.raises(ValidationError, match="^divergence terms must be nonnegative$"):
            bound_from_divergence(d_bits, full_reference(4), 0.05, spectral_bits=spectral_bits)

    def test_the_smoothed_form_rejects_a_negative_bound(self):
        with pytest.raises(ValidationError, match="^divergence bound must be nonnegative$"):
            smoothed_lower_bound(-1.0, full_reference(4), epsilon=0.05, eta=0.1)


class TestSmoothedLowerBound:
    def test_zero_divergence_floors_at_one(self):
        ref = full_reference(4)
        bb = smoothed_lower_bound(0.0, ref, epsilon=0.05, eta=0.05)
        assert bb.final == 1.0
        assert bb.floored

    def test_small_divergence_floors_at_one(self):
        # A - B = 0.678 < 1, so the explicit floor engages
        ref = full_reference(4, g=2, units=2)
        bb = smoothed_lower_bound(10.0, ref, epsilon=0.05, eta=0.05)
        assert bb.final == 1.0

    def test_large_divergence_root(self):
        # frozen from bisection on x + 0.5 log2 x = 20 - log2(20)
        ref = full_reference(4, g=2, units=2)
        bb = smoothed_lower_bound(40.0, ref, epsilon=0.05, eta=0.05)
        net = 20.0 - math.log2(20)
        assert bb.final == pytest.approx(bootstrap_root_by_bisection(net, 0.5), abs=1e-9)
        assert bb.final == pytest.approx(13.7855305, abs=1e-6)

    def test_constants_echoed(self):
        ref = full_reference(4)
        constants = BoundConstants(c1_prime=2.0, c2_prime=0.5)
        bb = smoothed_lower_bound(6.0, ref, epsilon=0.1, eta=0.1, constants=constants)
        assert bb.inputs["c1_prime"] == 2.0
        assert bb.inputs["c2_prime"] == 0.5


class TestConstants:
    def test_positive_required(self):
        with pytest.raises(ValidationError):
            BoundConstants(c1=0.0)
