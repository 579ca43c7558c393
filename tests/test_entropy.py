import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rcc as rcc_package
from rcc import (
    LeakageError,
    PurityCeiling,
    RunConfig,
    ValidationError,
    bernoulli_kl,
    binary_entropy,
    hypothesis_testing_divergence,
    leakage_adjusted_divergence,
    main_lower_bound,
    max_relative_to_reference,
    min_entropy,
    pinch,
    pipeline,
    project_renormalize,
    purity_upper_bound,
    rcc,
    relative_to_reference,
    shannon,
    spectral_skew,
    stabilizer_reference,
    validate_density,
    von_neumann,
)
from conftest import (
    embed_state,
    embedded_reference,
    full_reference,
    random_density,
    random_partition,
    random_pure,
)
from oracles import hypothesis_testing_grid_oracle, shannon_bits_oracle
from rcc import entropy
from rcc.entropy import _testing_divergence, _waterfill_weights


def diag_state(*p):
    return validate_density(np.diag(np.array(p, dtype=float)))


class TestVonNeumann:
    def test_pure_state(self, rng):
        assert von_neumann(random_pure(rng, 6)) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_bit(self):
        assert von_neumann(diag_state(0.5, 0.5)) == 1.0

    def test_direct_sum(self):
        assert von_neumann(diag_state(0.5, 0.25, 0.25)) == pytest.approx(1.5, abs=1e-14)

    def test_range(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 17))
            s = von_neumann(random_density(rng, dim))
            assert -1e-12 <= s <= math.log2(dim) + 1e-12


class TestMinEntropy:
    def test_pure(self, rng):
        assert min_entropy(random_pure(rng, 5)) == pytest.approx(0.0, abs=1e-12)

    def test_balanced(self):
        assert min_entropy(diag_state(0.5, 0.5)) == 1.0

    def test_top_eigenvalue(self):
        assert min_entropy(diag_state(0.5, 0.25, 0.25)) == 1.0


class TestSpectralSkew:
    def test_pure_state_vanishes(self, rng):
        assert spectral_skew(random_pure(rng, 7)) == pytest.approx(0.0, abs=1e-12)

    def test_flat_spectrum_vanishes(self):
        assert spectral_skew(diag_state(0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.0, abs=1e-14)

    def test_half_bit(self):
        assert spectral_skew(diag_state(0.5, 0.25, 0.25)) == pytest.approx(0.5, abs=1e-14)


class TestRelativeToReference:
    def test_vacuum_is_zero(self):
        ref = full_reference(4)
        sigma = diag_state(0.25, 0.25, 0.25, 0.25)
        assert relative_to_reference(sigma, ref) == pytest.approx(0.0, abs=1e-14)

    def test_pure_state_saturates(self):
        ref = embedded_reference(8, 8)
        pure = diag_state(1.0, *([0.0] * 7))
        assert relative_to_reference(pure, ref) == 3.0

    def test_closed_form(self):
        ref = full_reference(3)
        rho = diag_state(0.5, 0.25, 0.25)
        assert relative_to_reference(rho, ref) == pytest.approx(
            math.log2(3) - 1.5, abs=1e-14
        )

    def test_leakage_reported(self):
        ref = embedded_reference(2, 4)
        rho = diag_state(0.5, 0.3, 0.2, 0.0)
        with pytest.raises(LeakageError) as err:
            relative_to_reference(rho, ref)
        assert err.value.leaked == pytest.approx(0.2, abs=1e-12)

    def test_matrix_log_cross_check(self, rng):
        # closed form vs Tr[rho(log rho - log sigma)] evaluated on the support
        for _ in range(25):
            d_r, dim = 6, 9
            ref = embedded_reference(d_r, dim)
            rho = embed_state(random_density(rng, d_r), dim)
            closed = relative_to_reference(rho, ref)
            w, v = np.linalg.eigh(rho.matrix)
            pos = w > 1e-12
            log_rho = (v[:, pos] * np.log2(w[pos])) @ v[:, pos].conj().T
            log_sigma = ref.total.matrix * math.log2(1.0 / d_r)
            direct = float(np.trace(rho.matrix @ (log_rho - log_sigma)).real)
            assert closed == pytest.approx(direct, abs=1e-8)


# every function that needs a reference-supported state, on (rho, ref)
_SUPPORT_CHECKED = {
    "relative_to_reference": relative_to_reference,
    "max_relative_to_reference": max_relative_to_reference,
    "hypothesis_testing_divergence": lambda rho, ref: hypothesis_testing_divergence(
        rho, ref, 0.25
    ),
    "purity_upper_bound": purity_upper_bound,
    "rcc": rcc,
    "main_lower_bound": lambda rho, ref: main_lower_bound(rho, ref, 0.01),
    "pipeline": lambda rho, ref: pipeline(RunConfig(state=rho, reference=ref)),
}


@pytest.mark.parametrize("name", list(_SUPPORT_CHECKED))
def test_one_leakage_tolerance_decides_everywhere(name):
    """Mass 5e-10 outside the subspace is accepted and 2e-9 is rejected."""
    ref = embedded_reference(2, 4)
    check = _SUPPORT_CHECKED[name]
    check(diag_state(0.5 - 2.5e-10, 0.5 - 2.5e-10, 5e-10, 0.0), ref)
    with pytest.raises(LeakageError) as err:
        check(diag_state(0.5 - 1e-9, 0.5 - 1e-9, 2e-9, 0.0), ref)
    prefix = "stage 'exact': " if name == "pipeline" else ""
    assert str(err.value).startswith(f"{prefix}support leakage 2.000e-09 outside")


class TestMaxRelative:
    def test_vacuum_zero(self):
        ref = full_reference(4)
        assert max_relative_to_reference(diag_state(*[0.25] * 4), ref) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_closed_form(self):
        ref = full_reference(3)
        assert max_relative_to_reference(diag_state(0.5, 0.25, 0.25), ref) == pytest.approx(
            math.log2(3) - 1.0, abs=1e-14
        )

    def test_pure_state(self):
        ref = embedded_reference(8, 8)
        assert max_relative_to_reference(diag_state(1.0, *[0.0] * 7), ref) == 3.0

    def test_entropy_identity(self, rng):
        for _ in range(100):
            d_r = int(rng.integers(2, 65))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
            gap = max_relative_to_reference(rho, ref) - relative_to_reference(rho, ref)
            assert abs(gap - spectral_skew(rho)) <= 1e-9


class TestHypothesisTesting:
    def test_vacuum_rate(self):
        ref = full_reference(2)
        sigma = diag_state(0.5, 0.5)
        assert hypothesis_testing_divergence(sigma, ref, 0.25) == pytest.approx(
            -math.log2(0.75), abs=1e-12
        )

    def test_pure_fractional_weight(self):
        ref = full_reference(2)
        assert hypothesis_testing_divergence(diag_state(1.0, 0.0), ref, 0.25) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_integer_budget(self):
        ref = full_reference(4)
        got = hypothesis_testing_divergence(diag_state(0.7, 0.3, 0.0, 0.0), ref, 0.25)
        assert got == pytest.approx(-math.log2(0.3), abs=1e-12)

    def test_infinite_when_beta_vanishes(self):
        ref = full_reference(2)
        assert hypothesis_testing_divergence(diag_state(1.0, 0.0), ref, 0.6) == math.inf

    def test_eta_domain(self):
        ref = full_reference(2)
        with pytest.raises(ValidationError):
            hypothesis_testing_divergence(diag_state(0.5, 0.5), ref, 1.0)

    def test_matches_grid_oracle(self, rng):
        for _ in range(40):
            d_r = int(rng.integers(2, 33))
            p = rng.dirichlet(np.ones(d_r))
            rho = validate_density(np.diag(p))
            ref = full_reference(d_r)
            eta = float(rng.choice([0.01, 0.1, 0.25, 0.5]))
            mine = hypothesis_testing_divergence(rho, ref, eta)
            oracle = hypothesis_testing_grid_oracle(p, d_r, eta)
            assert mine == pytest.approx(oracle, abs=1e-6)

    def test_nondecreasing_in_eta(self, rng):
        ref = full_reference(8)
        rho = random_density(rng, 8)
        values = [
            hypothesis_testing_divergence(rho, ref, eta)
            for eta in (0.05, 0.1, 0.2, 0.4, 0.6)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eta", [0.125, 0.25, 0.5])
    def test_the_waterfilling_test_attains_the_divergence(self, rng, eta):
        # the operator a lab implements spends the type-I budget eta on
        # sigma_R and leaves type-II error 2^-D_H on rho
        from rcc.harness import optimal_test_projector

        ref = embedded_reference(4, 6)
        for _ in range(10):
            rho = embed_state(random_density(rng, 4), 6)
            t = optimal_test_projector(rho, ref, eta)
            assert np.trace(t @ ref.sigma_matrix()).real == pytest.approx(eta, abs=1e-12)
            beta = 1.0 - np.trace(t @ rho.matrix).real
            exact = hypothesis_testing_divergence(rho, ref, eta)
            assert -math.log2(beta) == pytest.approx(exact, abs=1e-10)

    def test_no_test_within_the_level_does_better(self, rng):
        # projecting on k basis states spends k/d of the budget on the flat
        # sigma_R; the Neyman-Pearson test at that level is never worse
        d = 6
        ref = full_reference(d)
        for _ in range(20):
            rho = random_density(rng, d)
            k = int(rng.integers(1, d))
            accepted = float(np.diag(rho.matrix)[:k].real.sum())
            crude = -math.log2(1.0 - accepted)
            assert crude <= hypothesis_testing_divergence(rho, ref, k / d) + 1e-10


class TestWaterfillWeights:
    @given(d_r=st.integers(1, 64), eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_weights_spend_the_budget_in_descending_order(self, d_r, eta):
        w = _waterfill_weights(d_r, eta)
        assert w.shape == (d_r,)
        assert abs(w.sum() - eta * d_r) <= 1e-12
        assert ((w >= 0.0) & (w <= 1.0)).all()
        assert (np.diff(w) <= 0.0).all()

    @given(d_r=st.one_of(st.integers(1, 64), st.integers(1, 2**16)),
           eta=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2.0**-53])))
    def test_weights_are_np_clips_doubles(self, d_r, eta):
        want = np.clip(eta * d_r - np.arange(d_r), 0.0, 1.0)
        assert _waterfill_weights(d_r, eta).tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), d_r=st.integers(1, 16),
           eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_divergence_is_minus_log_of_the_unaccepted_mass(self, seed, d_r, eta):
        # d_R inside a larger space, so the spectrum also has zeros past d_R
        rho = embed_state(random_density(np.random.default_rng(seed), d_r), d_r + 2)
        ref = embedded_reference(d_r, d_r + 2)
        beta = 1.0 - float(_waterfill_weights(d_r, eta) @ np.clip(rho.spectrum[:d_r], 0.0, None))
        got = hypothesis_testing_divergence(rho, ref, eta)
        assert got == (math.inf if beta <= 1e-15 else -math.log2(beta))

    def test_eta_outside_the_open_interval_is_rejected(self):
        for eta in (0.0, 1.0, math.nan):
            with pytest.raises(ValidationError, match="must be in"):
                _waterfill_weights(4, eta)


class TestClassical:
    def test_uniform_eight(self):
        assert shannon(np.full(8, 0.125)) == 3.0

    def test_binary_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_binary_small(self):
        # frozen from direct evaluation of -v log2 v - (1-v) log2(1-v)
        assert binary_entropy(0.059338) == pytest.approx(0.3248114020, abs=1e-9)

    @pytest.mark.parametrize("p", [[math.nan, math.nan], [0.5, math.nan], [math.inf, 0.0],
                                   [1.0, -math.inf, math.inf]])
    def test_shannon_rejects_non_finite_entries(self, p):
        # a NaN sum passes the sum check, so [nan, nan] read as 0 bits
        with pytest.raises(ValidationError, match="probabilities must be finite"):
            shannon(p)

    def test_shannon_names_a_bad_sum_as_a_float(self):
        with pytest.raises(ValidationError,
                           match=f"^{re.escape('probabilities sum to 1.1, not 1')}$"):
            shannon([0.5, 0.6])

    def test_shannon_oracle(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 20))))
            assert shannon(p) == pytest.approx(shannon_bits_oracle(p), abs=1e-12)

    def test_kl_zero(self):
        assert bernoulli_kl(0.3, 0.3) == 0.0

    def test_kl_certain(self):
        assert bernoulli_kl(1.0, 0.5) == 1.0

    def test_kl_direct_formula(self):
        # frozen from 0.98*log2(0.98/0.99) + 0.02*log2(0.02/0.01)
        assert bernoulli_kl(0.98, 0.99) == pytest.approx(0.0056461596, abs=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0 - 1e-9))
    def test_kl_nonnegative(self, q, p):
        assert bernoulli_kl(q, p) >= 0.0

    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0 - 1e-9))
    def test_kl_obeys_pinsker(self, q, p):
        # D(q || p) >= 2 (q - p)^2 nats
        assert bernoulli_kl(q, p) * math.log(2) >= 2.0 * (q - p) ** 2 - 1e-12

    @pytest.mark.parametrize("q, p", [(0.5, 0.0), (0.5, 1.0)])
    def test_kl_infinite_off_the_support(self, q, p):
        assert bernoulli_kl(q, p) == math.inf

    @pytest.mark.parametrize("q, p, message", [
        (1.5, 0.5, "q = 1.5 outside [0,1]"), (0.5, -0.1, "p = -0.1 outside [0,1]"),
    ])
    def test_kl_arguments_outside_the_unit_interval_rejected(self, q, p, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            bernoulli_kl(q, p)

    @given(st.floats(0.0, 1.0))
    def test_binary_entropy_bounds(self, v):
        assert 0.0 <= binary_entropy(v) <= 1.0


# every exported entropy functional, on a supported state of a 4-dim H_R in
# C^6 or on its own scalar arguments, with both leakage modes and values at inf
FLOAT_CASES = [
    ("von_neumann", lambda rho, ref: von_neumann(rho)),
    ("min_entropy", lambda rho, ref: min_entropy(rho)),
    ("spectral_skew", lambda rho, ref: spectral_skew(rho)),
    ("relative_to_reference", relative_to_reference),
    ("max_relative_to_reference", max_relative_to_reference),
    ("hypothesis_testing_divergence",
     lambda rho, ref: hypothesis_testing_divergence(rho, ref, 0.3)),
    ("hypothesis_testing_divergence",
     lambda rho, ref: hypothesis_testing_divergence(rho, ref, 0.5)),
    ("_testing_divergence", lambda rho, ref: _testing_divergence(0.25)),
    ("leakage_adjusted_divergence", leakage_adjusted_divergence),
    ("leakage_adjusted_divergence",
     lambda rho, ref: leakage_adjusted_divergence(rho, ref, "full", 0.05)),
    ("shannon", lambda rho, ref: shannon([0.25, 0.75])),
    ("binary_entropy", lambda rho, ref: binary_entropy(0.25)),
    ("bernoulli_kl", lambda rho, ref: bernoulli_kl(0.25, 0.5)),
    ("bernoulli_kl", lambda rho, ref: bernoulli_kl(0.5, 0.0)),
]


class TestFloatBits:
    def test_every_exported_functional_has_a_case(self):
        exported = {name for name, obj in vars(rcc_package).items()
                    if inspect.isfunction(obj) and obj.__module__ == entropy.__name__}
        assert exported - {"purity_upper_bound"} <= {name for name, _ in FLOAT_CASES}

    @pytest.mark.parametrize("name, value", FLOAT_CASES)
    def test_value_is_a_python_float(self, name, value):
        ref = embedded_reference(4, 6)
        rho = embed_state(diag_state(0.5, 0.5, 0.0, 0.0), 6)
        assert type(value(rho, ref)) is float


class TestPurity:
    def test_pure_state_gives_exact_complexity(self):
        ref = embedded_reference(8, 8, g=2, units=2)
        ceiling = purity_upper_bound(diag_state(1.0, *[0.0] * 7), ref)
        assert ceiling.value_structons == pytest.approx(1.5, abs=1e-12)
        assert isinstance(ceiling, PurityCeiling)

    def test_vacuum_zero(self):
        ref = full_reference(8)
        sigma = diag_state(*[0.125] * 8)
        assert purity_upper_bound(sigma, ref).value_structons == pytest.approx(0.0, abs=1e-12)

    def test_half_mixed(self):
        ref = full_reference(4, g=2, units=2)
        rho = diag_state(0.5, 0.5, 0.0, 0.0)
        assert purity_upper_bound(rho, ref).value_structons == pytest.approx(0.5, abs=1e-12)

    def test_ceiling_dominates_true_complexity(self, rng):
        from rcc import rcc as rcc_value

        for _ in range(50):
            d_r = int(rng.integers(2, 17))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
            assert purity_upper_bound(rho, ref).value_structons >= rcc_value(rho, ref) - 1e-10


class TestLeakageAdjusted:
    def test_no_leak_unchanged(self):
        ref = embedded_reference(4, 4)
        rho = diag_state(0.5, 0.5, 0.0, 0.0)
        direct = relative_to_reference(rho, ref)
        assert leakage_adjusted_divergence(rho, ref) == pytest.approx(direct, abs=1e-12)

    def test_multiplicative_reduction(self):
        # q = 0.98 against a d_R = 8 subspace holding a pure state: core 3 bits
        dim, d_r = 10, 8
        ref = embedded_reference(d_r, dim)
        diag = np.zeros(dim)
        diag[0] = 0.98
        diag[d_r] = 0.02
        rho = diag_state(*diag)
        got = leakage_adjusted_divergence(rho, ref, mode="multiplicative")
        assert got == pytest.approx(0.98 * 3.0, abs=1e-12)

    def test_full_mode_at_matched_delta(self):
        dim, d_r = 10, 8
        ref = embedded_reference(d_r, dim)
        diag = np.zeros(dim)
        diag[0] = 0.98
        diag[d_r] = 0.02
        rho = diag_state(*diag)
        got = leakage_adjusted_divergence(rho, ref, mode="full", delta=0.02)
        assert got == pytest.approx(0.98 * 3.0, abs=1e-12)

    def test_full_mode_on_states_inside_the_reference(self):
        # rank-4 states on the ZZI code space (d_R = 4 of 8), read through a
        # dense support basis: the projection rounds q = Tr(Pi_R rho) to
        # 1 + 2**-52 on some of them, which the Bernoulli term reads as 1
        ref = stabilizer_reference(3, ["ZZI"], 2, 3)
        v = ref.support_basis()
        past_one = 0
        for seed in range(200):
            small = random_density(np.random.default_rng(seed), 4).matrix
            rho = validate_density(v @ small @ v.conj().T)
            q = project_renormalize(rho, ref.total)[1]
            past_one += q > 1.0
            assert leakage_adjusted_divergence(rho, ref, "full", 0.05) == (
                bernoulli_kl(min(q, 1.0), 0.95) + leakage_adjusted_divergence(rho, ref))
        assert past_one > 0

    def test_multiplicative_mode_rejects_delta(self):
        # the mode smooths at 1 - q, so a delta given to it would be ignored
        ref = embedded_reference(2, 4)
        with pytest.raises(ValidationError, match="^" + re.escape(
                "delta = 0.05 cannot be given with mode 'multiplicative', "
                "which smooths at 1 - q") + "$"):
            leakage_adjusted_divergence(diag_state(1.0, 0.0, 0.0, 0.0), ref, "multiplicative",
                                        0.05)

    def test_full_mode_needs_delta(self):
        ref = embedded_reference(2, 4)
        with pytest.raises(ValidationError):
            leakage_adjusted_divergence(diag_state(1.0, 0.0, 0.0, 0.0), ref, mode="full")

    def test_full_mode_adds_the_bernoulli_term(self):
        dim, d_r = 10, 8
        ref = embedded_reference(d_r, dim)
        diag = np.zeros(dim)
        diag[0] = 0.98
        diag[d_r] = 0.02
        got = leakage_adjusted_divergence(diag_state(*diag), ref, mode="full", delta=0.05)
        assert got == pytest.approx(bernoulli_kl(0.98, 0.95) + 0.98 * 3.0, abs=1e-12)

    def test_full_mode_delta_domain(self):
        ref = embedded_reference(2, 4)
        with pytest.raises(ValidationError, match=re.escape("delta 1.5 must be in (0,1)")):
            leakage_adjusted_divergence(diag_state(1.0, 0.0, 0.0, 0.0), ref, mode="full",
                                        delta=1.5)

    def test_unknown_mode_rejected(self):
        ref = embedded_reference(2, 4)
        with pytest.raises(ValidationError, match="unknown mode 'additive'"):
            leakage_adjusted_divergence(diag_state(1.0, 0.0, 0.0, 0.0), ref, mode="additive")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            leakage_adjusted_divergence(diag_state(1.0, 0.0), embedded_reference(2, 4))

    def test_rejects_a_state_whose_negative_part_projects_away(self):
        # built directly, not validated: the -0.25 sits outside the subspace,
        # so the projection alone would keep q = 1.25 and return 0.0363 bits
        from rcc.operators import DensityOperator

        rho = DensityOperator(np.diag([0.75, 0.5, -0.25]))
        ref = embedded_reference(2, 3)
        with pytest.raises(ValidationError, match="eigenvalue -2.500e-01 below -1e-10; not PSD"):
            leakage_adjusted_divergence(rho, ref)


class TestStructuralProperties:
    def test_data_processing_under_pinch(self, rng):
        for _ in range(60):
            d_r = int(rng.integers(2, 17))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
            part = random_partition(rng, range(d_r))
            before = relative_to_reference(rho, ref)
            after = relative_to_reference(pinch(rho, part), ref)
            assert after <= before + 1e-12

    def test_convexity(self, rng):
        for _ in range(60):
            d_r = int(rng.integers(2, 13))
            ref = full_reference(d_r)
            states = [random_density(rng, d_r) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            mix = validate_density(sum(w * s.matrix for w, s in zip(weights, states)))
            lhs = relative_to_reference(mix, ref)
            rhs = sum(w * relative_to_reference(s, ref) for w, s in zip(weights, states))
            assert lhs <= rhs + 1e-10

    def test_unitary_invariance(self, rng):
        for _ in range(60):
            d_r, dim = 5, 8
            ref = embedded_reference(d_r, dim)
            rho = embed_state(random_density(rng, d_r), dim)
            u_in = np.linalg.qr(rng.normal(size=(d_r, d_r)) + 1j * rng.normal(size=(d_r, d_r)))[0]
            u_out = np.linalg.qr(
                rng.normal(size=(dim - d_r, dim - d_r)) + 1j * rng.normal(size=(dim - d_r, dim - d_r))
            )[0]
            u = np.zeros((dim, dim), dtype=complex)
            u[:d_r, :d_r] = u_in
            u[d_r:, d_r:] = u_out
            rotated = validate_density(u @ rho.matrix @ u.conj().T)
            assert relative_to_reference(rotated, ref) == pytest.approx(
                relative_to_reference(rho, ref), abs=1e-10
            )

    def test_degenerate_subspace_basis_is_immaterial(self, rng):
        # rotations inside a degenerate eigenspace must not move any output
        ref = full_reference(4)
        base = np.diag([0.4, 0.4, 0.15, 0.05]).astype(complex)
        for _ in range(20):
            u2 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            u = np.eye(4, dtype=complex)
            u[:2, :2] = u2
            rotated = validate_density(u @ base @ u.conj().T)
            original = validate_density(base)
            assert von_neumann(rotated) == pytest.approx(
                von_neumann(original), abs=1e-12
            )
            assert min_entropy(rotated) == pytest.approx(
                min_entropy(original), abs=1e-12
            )
            assert hypothesis_testing_divergence(rotated, ref, 0.3) == pytest.approx(
                hypothesis_testing_divergence(original, ref, 0.3), abs=1e-10
            )

    def test_divergences_nonnegative(self, rng):
        for _ in range(40):
            d_r = int(rng.integers(2, 33))
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
            assert relative_to_reference(rho, ref) >= 0.0
            assert max_relative_to_reference(rho, ref) >= 0.0
            assert hypothesis_testing_divergence(rho, ref, 0.2) >= 0.0
