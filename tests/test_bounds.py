import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deflatrix.bounds import (
    BoundInputs,
    affine_recurrence_closed_form,
    agnostic_bound,
    agnostic_bound_condition,
    build_bound_report,
    directional_gap_bound,
    eigengaps,
    eigvec_drift_bound,
    geometric_tail_bound,
    linear_rate_iteration_budget,
    per_step_error_budget,
    power_iter_bound,
    power_iter_bound_conditions,
    power_iter_iteration_budget,
    sum_recurrence_closed_form,
)
from deflatrix.errors import InvalidSpectrumError


def proto_inputs(lambdas, errs, c0=1.0, t=10, K=None, epsilon=None, rates=None):
    lambdas = np.asarray(lambdas, dtype=float)
    return BoundInputs(
        lambdas=lambdas,
        sub_error_norms=np.asarray(errs, dtype=float),
        init_constant=c0,
        t=t,
        K=K if K is not None else lambdas.size,
        epsilon=epsilon,
        rates=None if rates is None else np.asarray(rates, dtype=float),
    )


# Literal double-loop evaluations of the bound formulas: the reference for
# the engine's one-pass recurrences (O(K^3) or worse, so small K only).
def _ref_accumulation(inputs, gaps, lo, hi):
    out = 1.0
    for j in range(lo, hi + 1):
        out *= 3.0 + 2.0 * float(inputs.lambdas[j - 1]) / gaps.gap(j)
    return out


def _ref_agnostic_condition(inputs, gaps, k):
    lhs = 0.0
    for kp in range(1, k):
        lhs += (
            float(inputs.lambdas[kp - 1])
            * float(inputs.sub_error_norms[kp - 1])
            * _ref_accumulation(inputs, gaps, kp + 1, k - 1)
        )
    return lhs <= gaps.min_gap(inputs.K) / 20.0


def _ref_agnostic_value(inputs, gaps, k):
    lam = inputs.lambdas
    total = 0.0
    for kp in range(1, k + 1):
        total += (
            float(lam[kp - 1])
            / float(lam[k - 1])
            * float(inputs.sub_error_norms[kp - 1])
            * _ref_accumulation(inputs, gaps, kp + 1, k)
        )
    return 5.0 * total


def _ref_lam_next(lam, k):
    return float(lam[k]) if k < lam.size else 0.0


def _ref_contraction_ratio(lam, k):
    lam_k, lam_n = float(lam[k - 1]), _ref_lam_next(lam, k)
    return (7.0 * lam_k + lam_n) / (7.0 * lam_n + lam_k)


def _ref_power_iter_conditions(inputs, gaps):
    lam, K, t = inputs.lambdas, inputs.K, inputs.t
    decay_floor = 0.0
    for j in range(1, lam.size):
        decay_floor = max(decay_floor, 1.0 / (math.log(lam[j - 1]) - math.log(lam[j])))
    per_step = []
    for k in range(1, K + 1):
        g_k = inputs.step_growth_constant(k)
        floor = 0.0
        for kp in range(1, k):
            floor = max(floor, math.log(2.0 * g_k) / math.log(_ref_contraction_ratio(lam, kp)))
        per_step.append(bool(t >= floor) and t >= decay_floor)
    tail = 0.0
    for kp in range(1, K):
        tail += (
            8.0 ** (K - kp)
            * float(lam[kp - 1])
            / gaps.gap(kp)
            * (1.0 / _ref_contraction_ratio(lam, kp)) ** t
        )
    return per_step, bool(tail <= gaps.min_gap(K) / (140.0 * inputs.init_constant))


def _ref_power_iter_value(inputs, gaps, k):
    lam, c0, t = inputs.lambdas, inputs.init_constant, inputs.t
    total = 0.0
    for kp in range(1, k + 1):
        lam_kp = float(lam[kp - 1])
        ratio = _ref_lam_next(lam, kp) / lam_kp
        total += (
            8.0 ** (k - kp)
            * lam_kp
            / float(lam[k - 1])
            * (5.0 * float(inputs.sub_error_norms[kp - 1]) + 7.0 * c0 / gaps.gap(kp) * ratio**t)
        )
    return 3.0 * total


def _ref_error_budget(epsilon, inputs, gaps, k):
    K = inputs.K
    head = min(epsilon * float(inputs.lambdas[K - 1]), gaps.min_gap(K)) / (20.0 * K)
    return head / _ref_accumulation(inputs, gaps, k + 1, K)


def _engine_case(seed, K, shape):
    """Random spectrum with relative consecutive gaps 10**r. "narrow" gaps
    make every f_j = 3 + 2 lambda_j / T_j about 1e13, so products of 24 or
    more of them overflow float64; "mixed" interleaves narrow and wide gaps."""
    gen = np.random.Generator(np.random.Philox(seed))
    d = K + int(gen.integers(0, 4))
    wide = gen.uniform(-1.5, 0.5, d - 1)
    narrow = gen.uniform(-13.5, -12.5, d - 1)
    log_rel = {"wide": wide, "narrow": narrow,
               "mixed": np.where(gen.random(d - 1) < 0.5, narrow, wide)}[shape]
    lam = [10.0 ** gen.uniform(-4.0, 0.0)]
    for r in log_rel:
        lam.append(lam[-1] * (1.0 + 10.0**r))
    return proto_inputs(
        lam[::-1],
        10.0 ** gen.uniform(-16.0, -4.0, d),
        c0=float(10.0 ** gen.uniform(0.0, 2.0)),
        t=int(gen.integers(0, 3000)),
        K=K,
        epsilon=float(10.0 ** gen.uniform(-4.0, -1.0)),
    )


def _assert_matches(got, want):
    """None exactly where the reference has None; values to 1e-12 relative.
    The absolute floor only admits budgets already below 1e-288, where a
    product near the float64 limit leaves them subnormal or zero."""
    if want is None:
        assert got is None
    else:
        assert got is not None and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


class TestEigengaps:
    def test_hand_values(self):
        gaps = eigengaps([1.0, 0.5, 1.0 / 3.0])
        np.testing.assert_allclose(gaps.gaps, [0.5, 1.0 / 6.0, 1.0 / 3.0], atol=1e-16)
        assert gaps.min_gap(2) == pytest.approx(1.0 / 6.0)

    def test_two_values(self):
        gaps = eigengaps([1.0, 0.5])
        np.testing.assert_allclose(gaps.gaps, [0.5, 0.5], atol=0)

    def test_power_law_closed_form(self):
        d = 12
        lam = 1.0 / np.arange(1, d + 1)
        gaps = eigengaps(lam)
        for j in range(1, d):
            assert gaps.gap(j) == pytest.approx(1.0 / (j * (j + 1)), rel=1e-12)

    def test_two_sided_gap(self):
        gaps = eigengaps([1.0, 0.6, 0.5])
        assert gaps.davis_kahan_gap(1) == pytest.approx(0.4)
        assert gaps.davis_kahan_gap(2) == pytest.approx(0.1)
        assert gaps.davis_kahan_gap(3) == pytest.approx(0.1)

    def test_two_sided_gap_single_eigenvalue(self):
        assert eigengaps([0.7]).davis_kahan_gap(1) == pytest.approx(0.7)

    def test_rejects_ties_and_nonpositive(self):
        with pytest.raises(InvalidSpectrumError):
            eigengaps([1.0, 0.5, 0.5])
        with pytest.raises(InvalidSpectrumError):
            eigengaps([1.0, 0.0])


class TestAgnosticFamily:
    def test_condition_trivial_cases(self):
        inputs = proto_inputs([1.0, 0.5], [0.0, 0.0])
        gaps = eigengaps(inputs.lambdas)
        assert agnostic_bound_condition(inputs, gaps, 1)
        assert agnostic_bound_condition(inputs, gaps, 2)

    def test_condition_hand_false(self):
        inputs = proto_inputs([1.0, 0.5], [0.1, 0.0], K=2)
        gaps = eigengaps(inputs.lambdas)
        # sum is 1 * 0.1 with an empty product, threshold is 0.5 / 20
        assert not agnostic_bound_condition(inputs, gaps, 2)

    def test_bound_single_step(self):
        inputs = proto_inputs([1.0, 0.5], [0.01, 0.0])
        gaps = eigengaps(inputs.lambdas)
        assert agnostic_bound(inputs, gaps, 1) == pytest.approx(0.05, rel=1e-15)

    def test_bound_hand_value(self):
        inputs = proto_inputs([1.0, 0.5], [0.01, 0.01])
        gaps = eigengaps(inputs.lambdas)
        assert agnostic_bound(inputs, gaps, 2) == pytest.approx(0.55, rel=1e-14)

    def test_bound_zero_errors(self):
        inputs = proto_inputs([1.0, 0.5, 0.25], [0.0, 0.0, 0.0])
        gaps = eigengaps(inputs.lambdas)
        assert agnostic_bound(inputs, gaps, 3) == 0.0

    def test_zero_errors_under_overflowing_products(self):
        # relative gaps of 1e-13 make the product of f_j overflow float64;
        # with no sub-routine error the sum is still exactly 0, not 0 * inf
        lam = [1e-3]
        for _ in range(29):
            lam.append(lam[-1] * (1.0 + 1e-13))
        inputs = proto_inputs(lam[::-1], np.zeros(30))
        gaps = eigengaps(inputs.lambdas)
        assert all(agnostic_bound_condition(inputs, gaps, k) for k in range(1, 31))
        assert agnostic_bound(inputs, gaps, 30) == 0.0

    def test_bound_gated(self):
        inputs = proto_inputs([1.0, 0.5], [0.2, 0.2], K=2)
        gaps = eigengaps(inputs.lambdas)
        assert agnostic_bound(inputs, gaps, 2) is None


class TestErrorBudget:
    def test_single_component(self):
        inputs = proto_inputs([1.0, 0.5], [0.0, 0.0], K=1)
        gaps = eigengaps(inputs.lambdas)
        assert per_step_error_budget(0.1, inputs, gaps, 1) == pytest.approx(0.005, rel=1e-15)

    def test_budget_shrinks_with_more_components(self):
        lam = 1.0 / np.arange(1, 9)
        gaps = eigengaps(lam)
        previous = None
        for K in range(2, 8):
            inputs = proto_inputs(lam, np.zeros(8), K=K)
            budget = per_step_error_budget(1e-2, inputs, gaps, 1)
            if previous is not None:
                assert budget <= previous
            previous = budget

    def test_rejects_bad_epsilon(self):
        inputs = proto_inputs([1.0, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError):
            per_step_error_budget(0.0, inputs, eigengaps(inputs.lambdas), 1)


class TestLinearRateBudget:
    def test_reduction_at_last_step(self):
        lam = np.array([1.0, 0.5, 0.25])
        inputs = proto_inputs(lam, np.zeros(3), c0=1.0, K=3, epsilon=1e-3,
                              rates=[0.5, 0.5, 0.5])
        gaps = eigengaps(lam)
        got = linear_rate_iteration_budget(inputs, gaps, 3)
        head = min(1e-3 * 0.25, gaps.min_gap(3))
        assert got == pytest.approx(math.log(3 / head) / math.log(2.0), rel=1e-12)

    def test_monotone_in_epsilon(self):
        lam = 1.0 / np.arange(1, 7)
        gaps = eigengaps(lam)
        budgets = []
        for eps in (1e-1, 1e-2, 1e-3):
            inputs = proto_inputs(lam, np.zeros(6), K=4, epsilon=eps, rates=[0.5] * 6)
            budgets.append(linear_rate_iteration_budget(inputs, gaps, 2))
        assert budgets[0] <= budgets[1] <= budgets[2]

    def test_power_law_sum_matches_symbolic(self):
        d, K, k = 10, 8, 2
        lam = 1.0 / np.arange(1, d + 1)
        inputs = proto_inputs(lam, np.zeros(d), K=K, epsilon=1e-2, rates=[0.5] * d)
        gaps = eigengaps(lam)
        got = linear_rate_iteration_budget(inputs, gaps, k)
        head = min(1e-2 * lam[k - 1], gaps.min_gap(K))
        symbolic = (
            math.log(1.0 * K / head) + sum(math.log(j + 2) for j in range(k + 1, K + 1))
        ) / math.log(2.0)
        assert got == pytest.approx(symbolic, rel=1e-12)

    def test_rejects_rate_outside_unit_interval(self):
        lam = np.array([1.0, 0.5])
        inputs = proto_inputs(lam, np.zeros(2), K=2, epsilon=1e-2, rates=[1.0, 0.5])
        with pytest.raises(ValueError):
            linear_rate_iteration_budget(inputs, eigengaps(lam), 1)


class TestPowerIterFamily:
    def test_growth_constant_power_law(self):
        for c0 in (1.0, 2.0, 7.5):
            lam = 1.0 / np.arange(1, 30)
            inputs = proto_inputs(lam, np.zeros(29), c0=c0, K=20)
            # power-law reciprocal differences are >= 1, so growth <= c0 + 1
            assert inputs.growth_constant <= c0 + 1.0 + 1e-12

    def test_tail_condition_passes_for_large_t(self):
        lam = np.array([1.0, 0.5, 0.25])
        gaps = eigengaps(lam)
        inputs = proto_inputs(lam, np.zeros(3), c0=2.0, t=400, K=3)
        per_step, tail = power_iter_bound_conditions(inputs, gaps)
        assert tail and all(per_step)

    def test_tail_condition_fails_for_small_t(self):
        lam = 1.0 / np.arange(1, 12)
        gaps = eigengaps(lam)
        inputs = proto_inputs(lam, np.zeros(11), c0=5.0, t=1, K=8)
        _, tail = power_iter_bound_conditions(inputs, gaps)
        assert not tail
        assert power_iter_bound(inputs, gaps, 3) is None

    def test_conditions_cross_evaluated(self):
        lam = np.array([1.0, 0.5])
        inputs = proto_inputs(lam, np.zeros(2), c0=2.0, t=50, K=2)
        gaps = eigengaps(lam)
        per_step, tail = power_iter_bound_conditions(inputs, gaps)
        # independent evaluation of both requirements
        g2 = 1.0  # lambda_3 = 0 convention at k = K = d... k=2 has no successor
        ratio1 = (7.0 * 1.0 + 0.5) / (7.0 * 0.5 + 1.0)
        floor2 = math.log(2.0 * g2) / math.log(ratio1)
        decay_floor = 1.0 / (math.log(1.0) - math.log(0.5))
        assert per_step[0] == (50 >= decay_floor)
        assert per_step[1] == (50 >= max(floor2, 0.0) and 50 >= decay_floor)
        lhs = 8.0 * (1.0 / 0.5) * (1.0 / ratio1) ** 50
        assert tail == (lhs <= 0.5 / (140.0 * 2.0))

    def test_bound_formula_reevaluation(self):
        lam = np.array([1.0, 0.5, 1.0 / 3.0])
        inputs = proto_inputs(lam, [1e-6, 1e-6, 0.0], c0=2.0, t=20, K=2)
        gaps = eigengaps(lam)
        got = power_iter_bound(inputs, gaps, 2)
        expected = 3.0 * (
            8.0 * 2.0 * (5.0 * 1e-6 + (7.0 * 2.0 / 0.5) * 0.5**20)
            + 1.0 * (5.0 * 1e-6 + (7.0 * 2.0 / (1.0 / 6.0)) * (2.0 / 3.0) ** 20)
        )
        assert got == pytest.approx(expected, rel=1e-14)

    def test_overflowing_growth_factor_is_inadmissible(self):
        # 8**(K-1) exceeds float64 from K = 343 on; the tail must come out
        # inadmissible rather than raise
        K = 343
        lam = 1.0 / np.arange(1, K + 1)
        gaps = eigengaps(lam)
        inputs = proto_inputs(lam, np.zeros(K), c0=1.0, t=200, K=K)
        _, tail = power_iter_bound_conditions(inputs, gaps)
        assert not tail
        assert power_iter_bound(inputs, gaps, K) is None

    def test_bound_vanishes_eventually(self):
        lam = np.array([1.0, 0.5])
        gaps = eigengaps(lam)
        inputs = proto_inputs(lam, [0.0, 0.0], c0=1.0, t=4000, K=1)
        bound = power_iter_bound(inputs, gaps, 1)
        assert bound is not None and bound <= 1e-100

    def test_improvement_over_agnostic_at_depth(self):
        # slow-decay spectrum at matched inputs, in the regime where the
        # sub-routine error dominates both families (t large enough that the
        # alignment-leak terms are negligible next to the errors): the
        # power-iteration amplification 8**(k-k') beats the near-factorial
        # accumulation product once enough steps have stacked up, and the
        # advantage grows with depth k
        d, K, t = 30, 15, 800
        lam = 1.0 / np.arange(1, d + 1)
        gaps = eigengaps(lam)
        errs = np.full(K, 1e-23)
        inputs = proto_inputs(lam, errs, c0=1.0, t=t, K=K)
        per_step, tail = power_iter_bound_conditions(inputs, gaps)
        assert tail and all(per_step)
        assert all(agnostic_bound_condition(inputs, gaps, k) for k in range(1, K + 1))
        ratios = []
        for k in range(1, K + 1):
            a = agnostic_bound(inputs, gaps, k)
            p = power_iter_bound(inputs, gaps, k)
            assert a is not None and p is not None
            ratios.append(p / a)
        assert all(b < a for a, b in zip(ratios[2:], ratios[3:]))  # decays with depth
        assert all(r < 1.0 for r in ratios[4:])
        assert ratios[-1] < 1e-4

    def test_iteration_budget_monotone_and_reevaluated(self):
        lam = 1.0 / np.arange(1, 21)
        gaps = eigengaps(lam)
        previous = None
        for eps in (1e-1, 1e-2, 1e-3):
            inputs = proto_inputs(lam, np.zeros(20), c0=2.0, K=10, epsilon=eps)
            budget = power_iter_iteration_budget(inputs, gaps, 4)
            if previous is not None:
                assert budget >= previous
            previous = budget
        inputs = proto_inputs(lam, np.zeros(20), c0=2.0, K=10, epsilon=1e-2)
        got = power_iter_iteration_budget(inputs, gaps, 4)
        g = inputs.growth_constant
        num = max(math.log(g), (10 - 4) + math.log(2.0 * 10 / (1e-2 * gaps.min_gap(10))))
        den = math.log((7 * lam[3] + lam[4]) / (7 * lam[4] + lam[3]))
        expected = max(num / den, 1.0 / (math.log(lam[3]) - math.log(lam[4])))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_iteration_budget_order_prediction(self):
        # with constants pinned to 1, the budget grows like (K - k) + log(K/eps)
        lam = 1.0 / np.arange(1, 41)
        gaps = eigengaps(lam)
        for K in (10, 20, 30):
            inputs = proto_inputs(lam, np.zeros(40), c0=1.0, K=K, epsilon=1e-2)
            k = 2
            got = power_iter_iteration_budget(inputs, gaps, k)
            den = math.log((7 * lam[k - 1] + lam[k]) / (7 * lam[k] + lam[k - 1]))
            scale = ((K - k) + math.log(K / (1e-2 * gaps.min_gap(K)))) / den
            assert 0.5 * scale <= got <= 2.0 * scale


class TestDirectionalGapBound:
    def test_first_step_is_zero(self):
        lam = 1.0 / np.arange(1, 6)
        inputs = proto_inputs(lam, np.zeros(5), c0=2.0, t=40, K=4)
        assert directional_gap_bound(inputs, 1, 3, 1.0) == 0.0

    def test_formula_reevaluation(self):
        lam = np.array([1.0, 0.5, 0.25, 0.125])
        inputs = proto_inputs(lam, np.zeros(4), c0=2.0, t=15, K=3)
        got = directional_gap_bound(inputs, 3, 4, 0.26)
        g3 = 1.0 + 2.0 * 0.25 * 0.125 / (0.25 - 0.125)
        expected = 2.0 * (g3**1 + g3**0) * (0.125 / 0.26) ** 14
        assert got == pytest.approx(expected, rel=1e-14)

    def test_huge_growth_saturates_to_inf(self):
        # g_300 = 1 + c0 = 101 on the 1/j spectrum, and 101**298 is beyond
        # float64: the bound is +inf rather than an OverflowError
        K = 400
        lam = 1.0 / np.arange(1, K + 1)
        inputs = proto_inputs(lam, np.zeros(K), c0=100.0, t=200, K=K)
        assert inputs.step_growth_constant(300) == pytest.approx(101.0)
        assert directional_gap_bound(inputs, 300, 300, 1.01 * lam[299]) == math.inf

    def test_rejects_inverted_spectrum(self):
        lam = np.array([1.0, 0.5])
        inputs = proto_inputs(lam, np.zeros(2), c0=1.0, t=10, K=2)
        with pytest.raises(InvalidSpectrumError):
            directional_gap_bound(inputs, 2, 2, 0.4)


class TestDriftBound:
    def test_formula_reevaluation(self):
        lam = np.array([1.0, 0.5, 0.25])
        inputs = proto_inputs(lam, np.zeros(3), c0=2.0, t=9, K=2)
        gaps = eigengaps(lam)
        got = eigvec_drift_bound(inputs, gaps, 2, 0.003)
        tail = (0.25 / 0.5) ** 18
        expected = math.sqrt(4.8 / 0.5 * 0.003**2 + 11.0 * 4.0 / (2.0 * 0.25**2) * tail)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_vanishes_at_exact_match_and_large_t(self):
        lam = np.array([1.0, 0.5, 0.25])
        inputs = proto_inputs(lam, np.zeros(3), c0=2.0, t=5000, K=2)
        assert eigvec_drift_bound(inputs, eigengaps(lam), 2, 0.0) <= 1e-100


class TestRecurrences:
    def test_affine_all_ones_is_cumulative_sum(self):
        b = [1.0, 2.0, 3.0, 4.0]
        out = affine_recurrence_closed_form([1.0] * 4, b, 0.5)
        np.testing.assert_allclose(out, np.concatenate([[0.5], 0.5 + np.cumsum(b)]), atol=0)

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_sum_form_matches_recursion(self, seed, n):
        gen = np.random.Generator(np.random.Philox(seed))
        a = gen.uniform(0.0, 3.0, n)
        b = gen.uniform(0.0, 3.0, n)
        closed = sum_recurrence_closed_form(a, b)
        brute = []
        for k in range(n):
            brute.append(float(a[k] + b[k] * sum(brute)) if k else float(a[0]))
        np.testing.assert_allclose(closed, brute, rtol=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_affine_form_matches_recursion(self, seed, n):
        gen = np.random.Generator(np.random.Philox(seed))
        a = gen.uniform(0.0, 2.0, n)
        b = gen.uniform(0.0, 2.0, n)
        q1 = float(gen.uniform(0.0, 2.0))
        closed = affine_recurrence_closed_form(a, b, q1)
        brute = [q1]
        for k in range(n):
            brute.append(float(a[k]) * brute[-1] + float(b[k]))
        np.testing.assert_allclose(closed, brute, rtol=1e-12)

    def test_geometric_tail_bounds_direct_sum(self):
        p = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        g, t, k = 2.0, 6.0, 5
        direct = sum(p[i - 1] ** t / g**i for i in range(1, k))
        assert direct <= geometric_tail_bound(p, g, t, k)

    def test_geometric_tail_floor_violation(self):
        with pytest.raises(InvalidSpectrumError):
            geometric_tail_bound([1.0, 1.1, 1.2], 10.0, 1.0, 3)

    def test_geometric_tail_empty(self):
        assert geometric_tail_bound([1.0, 2.0], 2.0, 5.0, 1) == 0.0


class TestBoundInputs:
    def test_rejects_alignment_reciprocal_below_one(self):
        with pytest.raises(ValueError):
            proto_inputs([1.0, 0.5], [0.0, 0.0], c0=0.5)

    def test_growth_constant_is_max_over_steps(self):
        lam = np.array([1.0, 0.5, 0.25])
        inputs = proto_inputs(lam, np.zeros(3), c0=2.0, K=2)
        per_step = [inputs.step_growth_constant(k) for k in (1, 2)]
        assert inputs.growth_constant == max(per_step)


class TestBoundReport:
    def test_report_shape_and_slacks(self):
        lam = np.array([1.0, 0.5, 0.25])
        inputs = proto_inputs(lam, [1e-8, 1e-8, 0.0], c0=2.0, t=200, K=2, epsilon=1e-2)
        gaps = eigengaps(lam)
        rows = build_bound_report(inputs, gaps, [1e-9, 1e-9, 0.0])
        assert [row.k for row in rows] == [1, 2]
        for row in rows:
            assert row.condition_agnostic and row.condition_tail
            assert row.agnostic is not None and row.power_iter is not None
            assert row.slack_agnostic >= 1.0
            assert row.error_budget is not None and row.iteration_budget is not None

    def test_report_at_depth_400(self):
        K = 400
        gen = np.random.Generator(np.random.Philox(7))
        lam = 1.0 / np.arange(1, K + 1)
        errs = 10.0 ** gen.uniform(-15.0, -13.0, K)
        inputs = proto_inputs(lam, errs, c0=20.0, t=200, K=K, epsilon=1e-2)
        rows = build_bound_report(inputs, eigengaps(lam), errs)
        assert [row.k for row in rows] == list(range(1, K + 1))
        first_fail = next(row.k for row in rows if not row.condition_agnostic)
        assert all(row.agnostic is not None for row in rows[: first_fail - 1])
        assert all(row.agnostic is None for row in rows[first_fail - 1 :])
        assert all(math.isfinite(row.error_budget) and row.error_budget >= 0 for row in rows)

    def test_overflowing_budget_product_saturates_to_zero(self):
        inputs = _engine_case(1, 25, "narrow")
        gaps = eigengaps(inputs.lambdas)
        assert _ref_accumulation(inputs, gaps, 2, 25) == math.inf
        assert per_step_error_budget(inputs.epsilon, inputs, gaps, 1) == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 25), st.sampled_from(["wide", "narrow", "mixed"]))
    @example(1, 25, "narrow")  # the overflowing case above
    @settings(max_examples=80, deadline=None)
    def test_one_pass_matches_double_loop_reference(self, seed, K, shape):
        inputs = _engine_case(seed, K, shape)
        gaps = eigengaps(inputs.lambdas)
        rows = build_bound_report(inputs, gaps, np.zeros(K))
        conds = [_ref_agnostic_condition(inputs, gaps, k) for k in range(1, K + 1)]
        steps, tail = _ref_power_iter_conditions(inputs, gaps)
        assert power_iter_bound_conditions(inputs, gaps) == (steps, tail)
        for row in rows:
            k = row.k
            assert row.condition_agnostic == conds[k - 1]
            assert agnostic_bound_condition(inputs, gaps, k) == conds[k - 1]
            assert (row.condition_step_floor, row.condition_tail) == (steps[k - 1], tail)
            want = _ref_agnostic_value(inputs, gaps, k) if all(conds[:k]) else None
            _assert_matches(row.agnostic, want)
            _assert_matches(agnostic_bound(inputs, gaps, k), want)
            want = _ref_power_iter_value(inputs, gaps, k) if tail and all(steps) else None
            _assert_matches(row.power_iter, want)
            _assert_matches(power_iter_bound(inputs, gaps, k), want)
            want = _ref_error_budget(inputs.epsilon, inputs, gaps, k)
            _assert_matches(row.error_budget, want)
            _assert_matches(per_step_error_budget(inputs.epsilon, inputs, gaps, k), want)
