import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcc import (
    CertifiedBound,
    MeasurementRecord,
    ProtocolInvalidError,
    ValidationError,
    bonferroni,
    clopper_pearson_lower,
    clopper_pearson_upper,
    combine_bounds,
    dephase_protocol,
    ht_protocol,
    ht_sample_plan,
    purity_upper_bound,
    smoothed_lower_bound,
    validate_density,
    witness_protocol,
    witness_sample_plan,
)
from rcc import stats
from rcc.harness import _protocol, protocol_ground_truth
from conftest import embedded_reference, full_reference
from oracles import (
    certify_record,
    clopper_pearson_by_int_tail,
    clopper_pearson_lower_oracle,
    clopper_pearson_upper_oracle,
    count_above_one_record_at_a_time,
    threshold_by_bisection,
)


def ht_record(null_h1, null_h0, alt_h1, alt_h0):
    counts = {
        "null_accept_h1": null_h1,
        "null_accept_h0": null_h0,
        "alt_accept_h1": alt_h1,
        "alt_accept_h0": alt_h0,
    }
    return MeasurementRecord("hypothesis_test", sum(counts.values()), counts)


def witness_record(successes, n):
    return MeasurementRecord(
        "witness", n, {"success": successes, "failure": n - successes}
    )


class TestClopperPearson:
    def test_zero_count_closed_form(self):
        assert clopper_pearson_upper(0, 100, 0.05) == pytest.approx(
            1 - 0.05 ** (1 / 100), abs=1e-9
        )

    def test_full_count_closed_form(self):
        assert clopper_pearson_lower(100, 100, 0.05) == pytest.approx(
            0.05 ** (1 / 100), abs=1e-9
        )

    def test_zero_count_limit(self):
        previous = 1.0
        for n in (10, 100, 1000, 10000, 100000):
            upper = clopper_pearson_upper(0, n, 0.05)
            assert upper < previous
            previous = upper
        assert previous < 1e-4

    def test_degenerate_endpoints(self):
        assert clopper_pearson_upper(7, 7, 0.05) == 1.0
        assert clopper_pearson_lower(0, 7, 0.05) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            clopper_pearson_upper(5, 4, 0.05)
        with pytest.raises(ValidationError):
            clopper_pearson_lower(1, 4, 1.5)

    def test_matches_direct_pmf_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(0, n + 1))
            delta = float(rng.choice([0.01, 0.05, 0.25]))
            assert clopper_pearson_upper(k, n, delta) == pytest.approx(
                clopper_pearson_upper_oracle(k, n, delta), abs=1e-8
            )
            assert clopper_pearson_lower(k, n, delta) == pytest.approx(
                clopper_pearson_lower_oracle(k, n, delta), abs=1e-8
            )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10**12), delta=st.floats(1e-12, 0.5))
    def test_endpoints_equal_the_integer_argument_bisection(self, data, n, delta):
        # a count's tail converts its shape parameters to doubles once and
        # calls betainc on one-element arrays, the loop a scalar call runs
        k = data.draw(st.integers(0, min(n, 20)) | st.integers(0, n)
                      | st.integers(max(0, n - 20), n))
        for upper, endpoint in ((True, clopper_pearson_upper), (False, clopper_pearson_lower)):
            assert endpoint(k, n, delta).hex() == clopper_pearson_by_int_tail(
                upper, k, n, delta).hex()

    def test_a_bisected_endpoint_builds_one_tail_and_calls_betainc_34_times(self, monkeypatch):
        # the first tail rebinds stats.betainc from its scipy importer to the
        # ufunc, so the spy wraps the ufunc whatever ran before this test
        clopper_pearson_upper(1, 2, 0.5)
        tails, steps = [], []
        binom_cdf, betainc = stats._binom_cdf, stats.betainc
        monkeypatch.setattr(stats, "_binom_cdf", lambda k, n: tails.append((k, n))
                            or binom_cdf(k, n))
        monkeypatch.setattr(stats, "betainc", lambda *args: steps.append(args) or betainc(*args))
        for endpoint, tail in ((clopper_pearson_upper, (251, 2000)),
                               (clopper_pearson_lower, (250, 2000))):
            tails.clear()
            steps.clear()
            endpoint(251, 2000, 0.025)
            assert tails == [tail]
            assert len(steps) == 34
            assert all(arg.shape == (1,) for args in steps for arg in args)
        tails.clear()
        steps.clear()
        assert (clopper_pearson_upper(7, 7, 0.05), clopper_pearson_lower(0, 7, 0.05)) == (1.0, 0.0)
        assert tails == steps == []

    def test_brackets_empirical_rate_exhaustively(self):
        for delta in (0.05, 0.25):
            for n in range(1, 51):
                for k in range(n + 1):
                    lower = clopper_pearson_lower(k, n, delta)
                    upper = clopper_pearson_upper(k, n, delta)
                    assert lower - 1e-9 <= k / n <= upper + 1e-9


class TestArrayEndpoints:
    """The endpoints take one count at a time and return a Python float;
    coverage certifies a whole column of counts through its protocol's
    counter, which must count what certifying each row's record counts."""

    SIZES = [10, 37, 100, 2000, 12345, 10**6, 3 * 2**25, 3216643036] + [
        ht_sample_plan(bits, 0.05) for bits in (20, 25, 30)
    ]

    @pytest.mark.parametrize("n", SIZES)
    def test_array_equals_elementwise_scalar(self, n):
        rng = np.random.default_rng(n % 2**32)
        ks = sorted({*range(min(n, 10) + 1), *rng.integers(0, n + 1, 6).tolist(), n})
        ref = full_reference(4)
        columns = {"hypothesis_test": np.array([[k, n - k, n - k, k] for k in ks]),
                   "witness": np.array([[k, n - k] for k in ks])}
        for delta in (1e-9, 1e-4, 0.025, 0.05, 0.3):
            for endpoint in (clopper_pearson_upper, clopper_pearson_lower):
                assert all(type(endpoint(k, n, delta)) is float for k in ks)
            for protocol, counts in columns.items():
                values = certified_values(protocol, counts, n, ref, 0.25, delta, 1)
                tie = values[len(values) // 2] if values else 0.0
                for limit in (0.0, tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf)):
                    assert _protocol(protocol).count(counts, n, ref, limit, 0.25, delta, 1) == (
                        count_above_one_record_at_a_time(protocol, counts, n, ref, limit, 0.25,
                                                         delta, 1))

    @pytest.mark.parametrize("n", SIZES)
    def test_scalar_endpoints_are_nondecreasing_in_k(self, n):
        # the counters' binary search over the counts relies on this
        rng = np.random.default_rng(n % 2**32 + 1)
        near = [k + step for k in rng.integers(0, n + 1, 8).tolist() for step in (-1, 0, 1)]
        ks = sorted({k for k in (*range(31), *near, n - 1, n) if 0 <= k <= n})
        for delta in (1e-9, 1e-4, 0.025, 0.05, 0.3):
            for endpoint in (clopper_pearson_upper, clopper_pearson_lower):
                values = [endpoint(k, n, delta) for k in ks]
                assert values == sorted(values)

    def test_edges_are_exact(self):
        assert clopper_pearson_upper(np.int64(7), np.int64(7), 0.05) == 1.0
        assert clopper_pearson_lower(np.int64(0), np.int64(7), 0.05) == 0.0

    def test_counts_all_at_the_edge_are_not_bisected(self, monkeypatch):
        def no_bisection(*args, **kwargs):
            raise AssertionError("an edge endpoint was bisected")

        monkeypatch.setattr(stats, "_bisect", no_bisection)
        assert clopper_pearson_upper(7, 7, 0.05) == 1.0
        assert clopper_pearson_lower(0, 7, 0.05) == 0.0
        # no cell midpoint passes, only the upper edge's 1.0; every cell
        # midpoint passes, but not the lower edge's 0.0
        assert stats._threshold(True, 7, 0.05, lambda p: p > 1.0 - 1e-12, 1.0 - 1e-12) == 7
        assert stats._threshold(False, 7, 0.05, lambda p: p > 1e-12, 1e-12) == 1

    def test_array_counts_are_checked(self):
        # an endpoint takes one count; an array of integer counts is not one
        for k, n in [(np.array([0, 5]), 4), (np.array([1, 2]), 4), (np.array(3), 4),
                     (3, np.array([4, 5]))]:
            for endpoint in (clopper_pearson_upper, clopper_pearson_lower):
                with pytest.raises(ValidationError, match="counts must be integers"):
                    endpoint(k, n, 0.05)

    @pytest.mark.parametrize("k, n", [
        (2.5, 10), (2.0, 10), (True, 10), (3, 10.0), (3, True), (np.bool_(True), 10),
        (np.array([2.0, 3.0]), 10), (np.array([True, False]), 10), (np.array([2, 3]), 10.0),
        (np.array([2, 3]), np.array([10.0, 10.0])),
    ])
    def test_counts_must_be_integers(self, k, n):
        for endpoint in (clopper_pearson_upper, clopper_pearson_lower):
            with pytest.raises(ValidationError, match="counts must be integers"):
                endpoint(k, n, 0.05)

    @pytest.mark.parametrize("k, n", [
        (np.int64(3), 100), (np.uint8(3), np.int32(100)), (3, np.int64(100)),
    ])
    def test_numpy_integer_counts_are_counts(self, k, n):
        for endpoint in (clopper_pearson_upper, clopper_pearson_lower):
            assert endpoint(k, n, 0.05) == endpoint(3, 100, 0.05)


# starts of the threshold searches: any of them gives the same threshold
GUESSES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf, 1e300])


def threshold_comparisons(data, n, delta, d_r):
    """(upper endpoint?, its full value at a count k, passes) for the three
    comparisons of the coverage counters, at a k drawn near 0, near n or at
    random, and a limit that ties k's value, sits one ULP beside it or is
    random."""
    k = data.draw(st.integers(0, min(n, 20)) | st.integers(0, n)
                  | st.integers(max(0, n - 20), n))
    rank = data.draw(st.integers(1, d_r))
    upper, lower = clopper_pearson_upper(k, n, delta), clopper_pearson_lower(k, n, delta)
    probes = [  # (upper endpoint?, its full value, the compared value, negated, random limits)
        (True, upper, lambda p: p, False, st.floats(0.0, 1.0)),
        (True, upper, stats._ht_value, True, st.floats(-1.0, 40.0)),
        (False, lower, lambda p: stats._witness_value(p, d_r, rank), False,
         st.floats(-1.0, 5.0)),
    ]
    for is_upper, full, value, negated, limits in probes:
        tie = value(full)
        for limit in (tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf),
                      data.draw(limits)):
            def passes(p, value=value, limit=limit, negated=negated):
                return (value(p) > limit) != negated

            yield k, is_upper, full, passes


class TestThresholdCounts:
    """A coverage counter compares each count with the threshold count of
    its column; a count must reach it exactly when the full endpoint of that
    count passes the comparison, also at a limit that ties the endpoint's
    value or sits one ULP beside it, wherever the searches start."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3216643036), delta=st.floats(1e-9, 0.5),
           d_r=st.integers(1, 8))
    def test_threshold_is_where_the_full_endpoint_passes(self, data, n, delta, d_r):
        for k, is_upper, full, passes in threshold_comparisons(data, n, delta, d_r):
            guess = data.draw(GUESSES)
            assert (k >= stats._threshold(is_upper, n, delta, passes, guess)) == passes(full)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2**53), delta=st.floats(1e-9, 0.5),
           d_r=st.integers(1, 8))
    def test_any_guess_gives_the_blind_binary_searches_threshold(self, data, n, delta, d_r):
        # the searches from a guess make at most 2 ceil(log2(n + 2)) + 2 tail
        # evaluations, and those blind over all counts ceil(log2(n + 1))
        stats.clopper_pearson_upper(1, 2, 0.5)
        betainc, tails = stats.betainc, []

        def counted(*args):
            tails.append(1)
            return betainc(*args)

        for _, is_upper, _, passes in threshold_comparisons(data, n, delta, d_r):
            guess = data.draw(GUESSES)
            tails.clear()
            stats.betainc = counted
            try:
                k = stats._threshold(is_upper, n, delta, passes, guess)
            finally:
                stats.betainc = betainc
            assert k == threshold_by_bisection(is_upper, n, delta, passes)
            assert len(tails) <= 2 * math.ceil(math.log2(n + 2)) + 2


def certified_values(protocol, counts, n, ref, eta, delta, rank) -> list[float]:
    """The values of the rows' records that certify, in row order."""
    values = []
    for row in counts.tolist():
        try:
            values.append(certify_record(protocol, row, n, ref, eta, delta, rank).value)
        except ProtocolInvalidError:
            pass
    return values


class TestCertifyCounts:
    """A coverage counter splits each count column at a threshold count by a
    binary search; it must count what certifying each row's record counts,
    also when the limit ties a row's value or sits one ULP beside it."""

    REFS = {d: full_reference(d) for d in range(1, 9)}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), protocol=st.sampled_from(["hypothesis_test", "witness"]),
           n=st.integers(1, 400) | st.sampled_from([2000, 3141253]),
           delta=st.floats(1e-6, 0.5), eta=st.floats(0.01, 0.99), d_r=st.integers(1, 8))
    def test_counts_what_the_record_certifiers_count(self, data, protocol, n, delta, eta, d_r):
        first = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=40))
        if protocol == "hypothesis_test":
            second = data.draw(st.lists(st.integers(0, n), min_size=len(first),
                                        max_size=len(first)))
            counts = np.array([[a, n - a, n - b, b] for a, b in zip(first, second)])
        else:
            counts = np.array([[k, n - k] for k in first])
        ref, rank = self.REFS[d_r], data.draw(st.integers(1, d_r))
        values = certified_values(protocol, counts, n, ref, eta, delta, rank)
        if values:
            tie = data.draw(st.sampled_from(values))
            limit = data.draw(st.sampled_from(
                [tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf)]))
        else:
            limit = data.draw(st.floats(-1.0, 40.0))
        assert _protocol(protocol).count(counts, n, ref, limit, eta, delta, rank) == (
            count_above_one_record_at_a_time(protocol, counts, n, ref, limit, eta, delta, rank))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d_r=st.integers(1, 64), n=st.integers(20, 2000),
           delta=st.floats(1e-6, 0.5), alpha=st.sampled_from([0.05, 0.3, 1.0]))
    def test_dephase_counts_what_dephase_protocol_certifies(self, data, d_r, n, delta, alpha):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # concentrated rows certify above 0, and rows with zero counts are
        # where an entropy summed over the nonzero counts alone moves
        counts = rng.multinomial(n, rng.dirichlet(np.full(d_r, alpha)), size=20)
        ref = full_reference(d_r)
        values = certified_values("dephase", counts, n, ref, 0.25, delta, 1)
        for limit in values + [np.nextafter(v, -np.inf) for v in values]:
            assert stats.dephase_counts(counts, n, ref, limit, delta) == (
                sum(v > limit for v in values), 0)

    def test_dephase_counts_each_row(self):
        ref = full_reference(4)
        counts = np.array([[50, 0, 0, 0], [20, 10, 10, 10], [25, 25, 0, 0], [49, 1, 0, 0]])
        values = certified_values("dephase", counts, 50, ref, 0.25, 0.05, 1)
        for limit in (0.0, values[2], np.nextafter(values[2], -np.inf), -1.0):
            assert _protocol("dephase").count(counts, 50, ref, limit, 0.25, 0.05, 1) == (
                sum(v > limit for v in values), 0)


class TestHtProtocol:
    def test_zero_failures(self):
        # beta side at delta_beta = 0.05 needs a total delta of 0.1 when split evenly
        record = ht_record(null_h1=5, null_h0=95, alt_h1=100, alt_h0=0)
        bound = ht_protocol(record, eta=0.25, delta=0.1)
        assert bound.value == pytest.approx(-math.log2(1 - 0.05 ** (1 / 100)), abs=1e-9)
        assert bound.quantity == "D_H"
        assert bound.confidence == pytest.approx(0.9)

    def test_test_never_fires(self):
        record = ht_record(null_h1=0, null_h0=100, alt_h1=0, alt_h0=100)
        bound = ht_protocol(record, eta=0.25, delta=0.1)
        assert bound.value == pytest.approx(0.0, abs=1e-12)

    def test_type_ii_inversion(self):
        record = ht_record(null_h1=50, null_h0=950, alt_h1=990, alt_h0=10)
        bound = ht_protocol(record, eta=0.25, delta=0.1)
        expected = -math.log2(clopper_pearson_upper(10, 1000, 0.05))
        assert bound.value == pytest.approx(expected, abs=1e-12)

    def test_alpha_certification_failure(self):
        record = ht_record(null_h1=30, null_h0=70, alt_h1=100, alt_h0=0)
        with pytest.raises(ProtocolInvalidError, match="type-I"):
            ht_protocol(record, eta=0.25, delta=0.1)

    def test_missing_labels(self):
        record = MeasurementRecord("hypothesis_test", 10, {"null_accept_h1": 10})
        with pytest.raises(ValidationError, match="missing"):
            ht_protocol(record, eta=0.25, delta=0.1)


class TestPlanners:
    def test_ht_plan_example(self):
        assert ht_sample_plan(10, 0.05) == 3068

    def test_ht_plan_zero_target(self):
        assert ht_sample_plan(0, 0.05) == 3

    def test_ht_plan_delta_one_limit(self):
        # n = 0 is a record no certifier accepts
        for delta in (1.0, 0.0, 1.5, math.nan):
            with pytest.raises(ValidationError, match=r"must be in \(0,1\)"):
                ht_sample_plan(5, delta)

    def test_subnormal_delta_plans(self):
        # 1 / delta overflows a float at 5e-324; -ln(delta) is 744.44
        assert ht_sample_plan(0, 5e-324) == 745
        assert witness_sample_plan(0.5, 1, 1, 8, 5e-324) == 5956

    def test_planned_sizes_are_ln_one_over_delta(self):
        # the sizes of ceil(2^L ln(1/delta)) and ceil(ln(1/delta) / (2 (p0 - p*)^2))
        # at any normal delta, where 1 / delta is a float
        rng = np.random.default_rng(17)
        slack = stats._PLAN_SLACK
        for target, delta, p0 in zip(rng.uniform(0.0, 40.0, 2000).tolist(),
                                     (10.0 ** -rng.uniform(1e-3, 300.0, 2000)).tolist(),
                                     rng.uniform(0.3, 1.0, 2000).tolist()):
            assert ht_sample_plan(target, delta) == math.ceil(
                2.0**target * math.log(1.0 / delta) - slack)
            assert witness_sample_plan(p0, -target / 8, 1, 4, delta) == math.ceil(
                math.log(1.0 / delta) / (2.0 * (p0 - 2.0 ** (-target / 8) / 4) ** 2) - slack)

    def test_plans_stay_in_the_shot_range(self):
        # 2^52 ln 2 fits the shot range n <= 2**53; 2^53 ln 20 does not
        assert ht_sample_plan(52, 0.5) == math.ceil(2.0**52 * math.log(2.0))
        with pytest.raises(ValidationError, match=r"past the shot range \[1, 2\*\*53\]"):
            ht_sample_plan(53, 0.05)

    def test_witness_plan_example(self):
        # p* = 0.8 realized as 2^2 * 1 / 5
        assert witness_sample_plan(0.9, 2.0, 1, 5, 0.05) == 150

    def test_witness_plan_unreachable(self):
        with pytest.raises(ValidationError, match="unreachable"):
            witness_sample_plan(0.7, 2.0, 1, 5, 0.05)

    def test_witness_plan_unit_log(self):
        assert witness_sample_plan(0.9, 2.0, 1, 5, math.exp(-1.0)) == 50

    def test_planners_monotone(self):
        previous = 0
        for target in (1.0, 2.0, 4.0, 8.0):
            n = ht_sample_plan(target, 0.05)
            assert n >= previous
            previous = n
        previous = 0
        for delta in (0.2, 0.1, 0.05, 0.01):
            n = ht_sample_plan(4.0, delta)
            assert n >= previous
            previous = n


class TestWitnessProtocol:
    def test_direct_formula(self):
        # successes tuned so p_L is near 0.75; check against the formula itself
        ref = embedded_reference(16, 16)
        record = witness_record(80, 100)
        bound = witness_protocol(record, ref, rank=2, delta=0.05)
        p_lower = clopper_pearson_lower(80, 100, 0.05)
        assert bound.value == pytest.approx(math.log2(p_lower * 16 / 2), abs=1e-12)

    def test_clamped_to_zero(self):
        ref = embedded_reference(4, 4)
        record = witness_record(10, 100)
        bound = witness_protocol(record, ref, rank=2, delta=0.05)
        assert bound.value == 0.0

    def test_all_successes_closed_form(self):
        ref = embedded_reference(8, 8)
        record = witness_record(100, 100)
        bound = witness_protocol(record, ref, rank=1, delta=0.05)
        assert bound.value == pytest.approx(math.log2(0.05 ** (1 / 100) * 8), abs=1e-7)

    def test_rank_above_dimension(self):
        ref = embedded_reference(4, 4)
        with pytest.raises(ValidationError, match="rank"):
            witness_protocol(witness_record(3, 10), ref, rank=5, delta=0.05)

    @pytest.mark.parametrize("rank", [1.7, True, "1", 0])
    def test_rank_must_be_a_positive_integer(self, rank):
        ref = embedded_reference(4, 4)
        with pytest.raises(ValidationError, match="must be an integer in"):
            witness_protocol(witness_record(3, 10), ref, rank=rank, delta=0.05)

    def test_leaky_projector_rejected(self):
        ref = embedded_reference(2, 4)
        leaky = np.diag([1.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValidationError, match="leak"):
            witness_protocol(witness_record(5, 10), ref, rank=2, delta=0.05, projector=leaky)

    @pytest.mark.parametrize("projector, rank, message", [
        (np.diag([1.0, 0.4, 0.0, 0.0]), 1, "not a projector"),
        (np.diag([1.0, 1.0, 0.0, 0.0]), 1, "is not its rank 1"),
        # oblique: P^2 = P and Tr P = 1, but P is not Hermitian
        (np.array([[1.0, 6e-5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), 1,
         "not Hermitian"),
        (np.diag([1.0, math.nan, 0.0, 0.0]), 1, "non-finite"),
        (np.diag([1.0, math.inf, 0.0, 0.0]), 1, "non-finite"),
    ])
    def test_supplied_projector_must_be_a_projector_of_the_rank(self, projector, rank, message):
        # a supplied matrix is the witness the rank and the support are checked against
        ref = full_reference(4)
        with pytest.raises(ValidationError, match=message):
            witness_protocol(witness_record(5, 10), ref, rank=rank, delta=0.05,
                             projector=projector)


class TestDephaseProtocol:
    def test_epsilon_and_v_values(self):
        # N=2000, M=16, delta=0.05
        ref = embedded_reference(16, 16)
        counts = {str(i): 125 for i in range(16)}
        record = MeasurementRecord("dephase", 2000, counts)
        bound = dephase_protocol(record, ref, delta=0.05)
        assert bound.params["eps_n"] == pytest.approx(
            math.sqrt((2 / 2000) * (16 * math.log(2) + math.log(20))), abs=1e-9
        )
        assert bound.params["eps_n"] == pytest.approx(0.118685, abs=1e-6)
        assert bound.params["v"] == pytest.approx(0.0593424, abs=1e-6)

    def test_concentrated_distribution(self):
        ref = embedded_reference(16, 16)
        record = MeasurementRecord("dephase", 2000, {"0": 2000})
        bound = dephase_protocol(record, ref, delta=0.05)
        v = bound.params["v"]
        expected_hu = v * math.log2(15) + (-v * math.log2(v) - (1 - v) * math.log2(1 - v))
        assert bound.params["entropy_upper_bits"] == pytest.approx(expected_hu, abs=1e-12)
        assert bound.params["entropy_upper_bits"] == pytest.approx(0.556668, abs=1e-5)
        assert bound.value == pytest.approx(4.0 - expected_hu, abs=1e-12)

    def test_uniform_floors_at_zero(self):
        ref = embedded_reference(16, 16)
        counts = {str(i): 125 for i in range(16)}
        record = MeasurementRecord("dephase", 2000, counts)
        assert dephase_protocol(record, ref, delta=0.05).value == 0.0

    def test_outcome_mismatch(self):
        ref = embedded_reference(2, 2)
        record = MeasurementRecord("dephase", 30, {"0": 10, "1": 10, "2": 10})
        with pytest.raises(ValidationError, match="outcome"):
            dephase_protocol(record, ref, delta=0.05)

    def test_deterministic_limit(self):
        # exact empirical probabilities at N = 10^6 land within 0.02 bits of
        # the noiseless dephasing bound
        ref = embedded_reference(2, 2)
        n = 10**6
        record = MeasurementRecord("dephase", n, {"0": int(0.8 * n), "1": int(0.2 * n)})
        bound = dephase_protocol(record, ref, delta=0.05)
        h = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        assert abs(bound.value - (1.0 - h)) < 0.02


def largest_remainders(w: np.ndarray, n: int) -> np.ndarray:
    """Integer counts summing to n: floor(n w), plus one at each of the
    largest remainders."""
    scaled = w * n
    c = np.floor(scaled).astype(np.int64)
    c[np.argsort(c - scaled, kind="stable")[: n - int(c.sum())]] += 1
    return c


# spectra over d_R basis states: pure, 0.7 with the rest flat, geometric
# with ratio 1/2, and flat on half
EXACT_SPECTRA = {
    "pure": lambda d: np.eye(d)[0],
    "top_0.7": lambda d: np.r_[0.7, np.full(d - 1, 0.3 / (d - 1))],
    "geometric": lambda d: 0.5 ** np.arange(d) / (0.5 ** np.arange(d)).sum(),
    "half_flat": lambda d: np.r_[np.full(d // 2, 2 / d), np.zeros(d - d // 2)],
}


class TestExactFrequencies:
    @pytest.mark.parametrize("spectrum", sorted(EXACT_SPECTRA))
    @pytest.mark.parametrize("n", [2000, 20000])
    @pytest.mark.parametrize("d_r", [4, 16, 64])
    def test_certificates_do_not_exceed_their_targets(self, d_r, n, spectrum):
        # the state is diag(c)/N, so the records' frequencies are its
        # probabilities exactly: a Clopper-Pearson interval holds p-hat = p
        # and H_U >= H(p-hat), so each certificate is at most its target
        c = largest_remainders(EXACT_SPECTRA[spectrum](d_r), n)
        rho = validate_density(np.diag(c / n))
        ref = full_reference(d_r)
        top = int(c.max())
        witness = witness_protocol(witness_record(top, n), ref, 1, 0.05)
        dephase = MeasurementRecord("dephase", n, {str(i): int(k) for i, k in enumerate(c)})
        assert witness.value <= protocol_ground_truth(rho, ref, "witness")
        assert dephase_protocol(dephase, ref, 0.05).value <= protocol_ground_truth(
            rho, ref, "dephase")


class TestBonferroni:
    def test_single(self):
        assert bonferroni(0.05, 1) == 0.05

    def test_split(self):
        assert bonferroni(0.05, 5) == pytest.approx(0.01)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            bonferroni(0.05, 0)


class TestCombineBounds:
    def _dh(self, value, eta=0.05, delta=0.05):
        return CertifiedBound(quantity="D_H", value=value, confidence=1 - delta,
                              protocol="hypothesis_test", params={"eta": eta, "delta": delta})

    def _d(self, value, delta=0.05):
        return CertifiedBound(quantity="D", value=value, confidence=1 - delta,
                              protocol="dephase", params={"delta": delta})

    def _dmax(self, value, delta=0.05):
        return CertifiedBound(quantity="D_max", value=value, confidence=1 - delta,
                              protocol="witness", params={"delta": delta})

    def test_single_bound_is_its_own_winner(self):
        ref = full_reference(4)
        combined = combine_bounds([self._dh(12.0)], ref, epsilon=0.05)
        assert combined.winner == "hypothesis_test"
        assert combined.confidence == pytest.approx(0.95)
        direct = smoothed_lower_bound(12.0, ref, 0.05, 0.05)
        assert combined.value_structons == direct.final

    def test_max_wins(self):
        ref = full_reference(16)
        combined = combine_bounds([self._d(3.0), self._dmax(2.0)], ref, epsilon=0.05)
        assert combined.winner == "dephase"
        assert combined.per_path["dephase"] >= combined.per_path["witness"]

    def test_three_paths_confidence_cap(self):
        ref = full_reference(16)
        combined = combine_bounds(
            [self._dh(6.0), self._d(3.0), self._dmax(2.0)], ref, epsilon=0.05
        )
        assert combined.confidence == pytest.approx(0.85)
        assert list(combined.per_path) == ["hypothesis_test", "dephase", "witness"]

    def test_empty_rejected(self):
        ref = full_reference(4)
        with pytest.raises(ValidationError):
            combine_bounds([], ref, epsilon=0.05)

    def test_an_unknown_quantity_is_rejected(self):
        with pytest.raises(ValidationError, match="^unknown quantity 'D_min'$"):
            CertifiedBound(quantity="D_min", value=1.0, confidence=0.95, protocol="witness")

    def test_a_testing_bound_needs_its_eta(self):
        bound = CertifiedBound(quantity="D_H", value=12.0, confidence=0.95,
                               protocol="hypothesis_test", params={"delta": 0.05})
        with pytest.raises(ValidationError,
                           match="^a D_H bound must carry its eta in params$"):
            combine_bounds([bound], full_reference(4), epsilon=0.05)

    def test_purity_ceiling_refused(self):
        ref = full_reference(4)
        sigma = validate_density(np.eye(4) / 4)
        ceiling = purity_upper_bound(sigma, ref)
        with pytest.raises(ValidationError, match="only CertifiedBounds"):
            combine_bounds([ceiling], ref, epsilon=0.05)
        with pytest.raises(ValidationError, match="only CertifiedBounds"):
            combine_bounds([self._d(3.0), ceiling], ref, epsilon=0.05)


class TestRecordValidation:
    def test_counts_must_sum(self):
        with pytest.raises(ValidationError):
            MeasurementRecord("dephase", 5, {"0": 2, "1": 2})

    def test_unknown_protocol(self):
        with pytest.raises(ValidationError):
            MeasurementRecord("tomography", 4, {"0": 4})

    @pytest.mark.parametrize("n, counts", [
        (10, {"success": 10.7, "failure": -0.7}),
        (10, {"success": 10.0, "failure": 0}),
        (10, {"success": True, "failure": 9}),
        (10, {"success": np.True_, "failure": 9}),
        (True, {"success": True, "failure": False}),
        (10.0, {"success": 10, "failure": 0}),
        ("10", {"success": 10, "failure": 0}),
    ])
    def test_non_integer_or_boolean_counts_rejected(self, n, counts):
        with pytest.raises(ValidationError, match="must be an integer"):
            MeasurementRecord("witness", n, counts)

    def test_a_negative_count_is_rejected(self):
        with pytest.raises(ValidationError, match="^negative count$"):
            MeasurementRecord("witness", 3, {"success": 4, "failure": -1})

    def test_meta_must_be_a_mapping(self):
        with pytest.raises(ValidationError, match="meta"):
            MeasurementRecord("witness", 10, {"success": 9, "failure": 1}, meta=[1])

    def test_counts_stay_in_the_shot_range(self):
        top = 2**53
        record = MeasurementRecord("witness", top, {"success": top // 2, "failure": top // 2})
        assert witness_protocol(record, full_reference(2), 1, 0.05).params["p_lower"] < 0.5
        with pytest.raises(ValidationError, match=re.escape(
                f"count 'failure' = {top + 1} is past the shot range [1, 2**53]")):
            MeasurementRecord("witness", top + 2, {"success": 1, "failure": top + 1})
        # each count is in the range, but their sum, the binomial's n, is not
        record = MeasurementRecord("witness", 2 * top, {"success": top, "failure": top})
        with pytest.raises(ValidationError, match=re.escape(
                f"N = {2 * top} is past the shot range [1, 2**53]")):
            witness_protocol(record, full_reference(2), 1, 0.05)

    @pytest.mark.parametrize("certifier, protocol, counts, message", [
        ("hypothesis_test", "witness", {"success": 3},
         "record protocol 'witness' is not hypothesis_test"),
        ("witness", "dephase", {"0": 3}, "record protocol 'dephase' is not witness"),
        ("dephase", "witness", {"success": 3}, "record protocol 'witness' is not dephase"),
        ("hypothesis_test", "hypothesis_test", {"null_accept_h1": 1, "alt_accept_h0": 2},
         "hypothesis_test record is missing counts ['null_accept_h0', 'alt_accept_h1']"),
        ("witness", "witness", {"failure": 3}, "witness record is missing counts ['success']"),
        ("hypothesis_test", "hypothesis_test",
         {"null_accept_h1": 0, "null_accept_h0": 0, "alt_accept_h1": 2, "alt_accept_h0": 1},
         "both the null and alternative runs need samples"),
        ("hypothesis_test", "hypothesis_test",
         {"null_accept_h1": 2, "null_accept_h0": 1, "alt_accept_h1": 0, "alt_accept_h0": 0},
         "both the null and alternative runs need samples"),
    ])
    def test_certifiers_check_the_protocol_and_labels_alike(self, certifier, protocol, counts,
                                                             message):
        certify = {"hypothesis_test": lambda r: ht_protocol(r, 0.25, 0.05),
                   "witness": lambda r: witness_protocol(r, full_reference(2), 1, 0.05),
                   "dephase": lambda r: dephase_protocol(r, full_reference(2), 0.05)}[certifier]
        with pytest.raises(ValidationError) as info:
            certify(MeasurementRecord(protocol, 3, counts))
        assert str(info.value) == message

    def test_numpy_integer_counts_accepted(self):
        record = MeasurementRecord("witness", np.int64(10), {"success": np.int64(7), "failure": 3})
        assert record.counts == {"success": 7, "failure": 3}
        assert all(type(v) is int for v in record.counts.values())

    @given(st.integers(1, 200), st.floats(0.01, 0.4))
    @settings(max_examples=30, deadline=None)
    def test_cp_endpoints_ordered(self, n, delta):
        k = n // 2
        assert clopper_pearson_lower(k, n, delta) <= clopper_pearson_upper(k, n, delta)
