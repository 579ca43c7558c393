import math
import re

import numpy as np
import pytest

from rcc import (
    ConfigError,
    ExclusiveSectorsError,
    ValidationError,
    block_reference,
    build_reference,
    misspecification_gap,
    sector_reference,
    stabilizer_reference,
)
from conftest import embedded_reference


class TestBuildReference:
    def test_single_projector(self):
        ref = build_reference([np.diag([1.0, 1.0, 0.0, 0.0])], g=2, addressable_units=2)
        assert ref.d_r == 2
        assert ref.gamma == 4

    def test_product_of_diagonals(self):
        ref = build_reference(
            [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 1.0, 0.0])],
            g=2, addressable_units=1,
        )
        assert ref.d_r == 1
        assert np.array_equal(ref.total.matrix.real, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_exclusive_sectors(self):
        with pytest.raises(ExclusiveSectorsError, match="sector"):
            build_reference(
                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], g=2, addressable_units=1
            )

    def test_noncommuting_pair_named(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        z = np.diag([1.0, 0.0])
        with pytest.raises(ValidationError, match="0 and 1"):
            build_reference([z, x], g=2, addressable_units=1)

    def test_bandwidth_floor(self):
        with pytest.raises(ValidationError, match="alphabet"):
            build_reference([np.eye(2)], g=1, addressable_units=1)


class TestSectorReference:
    def test_binomial_dimension(self):
        assert sector_reference(4, 2, 2, 2).d_r == 6

    def test_weight_zero(self):
        assert sector_reference(3, 0, 2, 2).d_r == 1

    def test_lexicographic_projector(self):
        ref = sector_reference(2, 1, 2, 2)
        assert np.array_equal(ref.total.matrix.real, np.diag([0.0, 1.0, 1.0, 0.0]))

    def test_weight_out_of_range(self):
        with pytest.raises(ValidationError):
            sector_reference(3, 4, 2, 2)

    def test_sectors_resolve_the_space(self):
        n = 5
        assert sum(sector_reference(n, w, 2, 2).d_r for w in range(n + 1)) == 2**n


class TestStabilizerReference:
    def test_ghz_code_subspace(self):
        assert stabilizer_reference(3, ["ZZI", "IZZ"], 2, 3).d_r == 2

    def test_single_z(self):
        ref = stabilizer_reference(1, ["Z"], 2, 1)
        assert ref.d_r == 1
        assert np.array_equal(ref.total.matrix.real, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        assert stabilizer_reference(2, ["XX", "ZZ"], 2, 2).d_r == 1

    def test_anticommuting_pair(self):
        with pytest.raises(ValidationError, match="anticommute"):
            stabilizer_reference(2, ["XI", "ZI"], 2, 2)

    def test_dependent_generator(self):
        with pytest.raises(ValidationError, match="independent"):
            stabilizer_reference(3, ["ZZI", "IZZ", "ZIZ"], 2, 3)

    def test_rank_count_identity(self):
        for n, gens in ((3, ["ZZI"]), (3, ["ZZI", "IZZ"]), (4, ["ZZII", "IZZI", "IIZZ"])):
            ref = stabilizer_reference(n, gens, 2, n)
            assert ref.d_r * 2 ** len(gens) == 2**n


class TestBlockReference:
    def test_sum_of_products(self):
        assert block_reference([(2, 1), (1, 3)], 2, 2).d_r == 5

    def test_single_trivial_block(self):
        assert block_reference([(1, 1)], 2, 2).d_r == 1

    def test_three_by_two(self):
        assert block_reference([(3, 2)], 2, 2).d_r == 6

    def test_partial_multiplicity(self):
        ref = block_reference([(2, 1, 3)], 2, 2)
        assert ref.d_r == 2
        assert ref.dim == 6

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            block_reference([], 2, 2)

    @pytest.mark.parametrize("blocks, dim", [([(600, 1)], 600), ([(2, 1, 300)], 600),
                                             ([(10**12, 1)], 10**12)])
    def test_dimension_cap(self, blocks, dim):
        # checked before any array is built, so a huge block allocates nothing
        with pytest.raises(ValidationError,
                           match=f"block dimension {dim} exceeds the dimension cap 512"):
            block_reference(blocks, 2, 2)

    def test_dimension_cap_is_read_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("RCC_DIM_CAP", "8")
        assert block_reference([(4, 1, 2)], 2, 2).dim == 8
        with pytest.raises(ValidationError, match="block dimension 9 exceeds"):
            block_reference([(3, 3)], 2, 2)


class TestReferenceSet:
    def test_sigma_is_flat_on_the_subspace(self):
        ref = embedded_reference(2, 4)
        sigma = ref.sigma_matrix()
        w = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        assert np.allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-15)

    def test_full_subspace_sigma_is_maximally_mixed(self):
        ref = embedded_reference(4, 4)
        assert np.array_equal(ref.sigma_matrix(), np.eye(4) / 4)

    def test_contains_its_subspaces(self):
        full, half = embedded_reference(4, 4), embedded_reference(2, 4)
        assert full.contains(half) and full.contains(full)
        assert not half.contains(full)
        assert not full.contains(embedded_reference(2, 2))

    @pytest.mark.parametrize("raw, message", [
        ("eight", "RCC_DIM_CAP='eight' is not an integer"), ("0", "RCC_DIM_CAP must be >= 1"),
    ])
    def test_dimension_cap_must_be_a_positive_integer(self, monkeypatch, raw, message):
        monkeypatch.setenv("RCC_DIM_CAP", raw)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            block_reference([(2, 1)], 2, 2)


class TestMisspecificationGap:
    def test_exact_refinement_difference(self):
        ref_a = embedded_reference(16, 16, g=2, units=2)
        ref_b = embedded_reference(8, 16, g=2, units=2)
        bound, exact = misspecification_gap(ref_a, ref_b, s_rho_bits=0.0)
        assert exact == pytest.approx(0.5, abs=1e-14)
        assert exact <= bound + 1e-14

    def test_same_reference_zero(self):
        ref = embedded_reference(4, 4)
        bound, exact = misspecification_gap(ref, ref, s_rho_bits=1.3)
        assert bound == 0.0
        assert exact == 0.0

    def test_direct_arithmetic(self):
        ref_a = embedded_reference(8, 8, g=2, units=2)   # gamma 4
        ref_b = embedded_reference(8, 8, g=2, units=4)   # gamma 8
        bound, exact = misspecification_gap(ref_a, ref_b, s_rho_bits=2.0)
        assert bound == pytest.approx(abs(1.5 - 1.0) + abs(0.5 - 1 / 3) * 2.0, abs=1e-12)
        assert exact is None  # alphabets differ

    def test_exact_below_bound_when_both_apply(self, rng):
        for _ in range(50):
            d_a = int(rng.integers(2, 33))
            d_b = int(rng.integers(1, d_a + 1))
            s = float(rng.uniform(0, math.log2(d_b) if d_b > 1 else 0.5))
            ref_a = embedded_reference(d_a, d_a)
            ref_b = embedded_reference(d_b, d_a)
            bound, exact = misspecification_gap(ref_a, ref_b, s)
            assert exact is not None
            assert exact <= bound + 1e-12
