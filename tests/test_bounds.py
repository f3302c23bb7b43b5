import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deflatrix.bounds import (
    BoundInputs,
    BoundRow,
    _step_growth,
    affine_recurrence_closed_form,
    build_bound_report,
    directional_gap_bound,
    eigengaps,
    eigvec_drift_bound,
    geometric_tail_bound,
    sum_recurrence_closed_form,
)
from deflatrix.errors import DimensionMismatchError, InvalidSpectrumError


def proto_inputs(lambdas, errs, c0=1.0, t=10, K=None, epsilon=None):
    lambdas = np.asarray(lambdas, dtype=float)
    return BoundInputs(
        lambdas=lambdas,
        sub_error_norms=np.asarray(errs, dtype=float),
        init_constant=c0,
        t=t,
        K=K if K is not None else lambdas.size,
        epsilon=epsilon,
    )


def report(inputs):
    """The engine's rows for ``inputs``; no test here reads the empirical
    column, so it is zero."""
    return build_bound_report(inputs, eigengaps(inputs.lambdas), np.zeros(inputs.K))


# Literal double-loop evaluations of the bound formulas: the reference for
# the engine's one-pass recurrences (O(K^3) or worse, so small K only).
def _ref_accumulation(inputs, gaps, lo, hi):
    out = 1.0
    for j in range(lo, hi + 1):
        out *= 3.0 + 2.0 * float(inputs.lambdas[j - 1]) / float(gaps[j - 1])
    return out


def _ref_agnostic_condition(inputs, gaps, k):
    lhs = 0.0
    for kp in range(1, k):
        lhs += (
            float(inputs.lambdas[kp - 1])
            * float(inputs.sub_error_norms[kp - 1])
            * _ref_accumulation(inputs, gaps, kp + 1, k - 1)
        )
    return lhs <= float(gaps[:inputs.K].min()) / 20.0


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


def _ref_step_growth(inputs, k):
    lam_k, lam_n = float(inputs.lambdas[k - 1]), _ref_lam_next(inputs.lambdas, k)
    if lam_n == 0.0:
        return 1.0
    return 1.0 + inputs.init_constant * lam_k * lam_n / (lam_k - lam_n)


def _ref_power_iter_conditions(inputs, gaps):
    lam, K, t = inputs.lambdas, inputs.K, inputs.t
    decay_floor = 0.0
    for j in range(1, lam.size):
        decay_floor = max(decay_floor, 1.0 / (math.log(lam[j - 1]) - math.log(lam[j])))
    per_step = []
    for k in range(1, K + 1):
        g_k = _ref_step_growth(inputs, k)
        floor = 0.0
        for kp in range(1, k):
            floor = max(floor, math.log(2.0 * g_k) / math.log(_ref_contraction_ratio(lam, kp)))
        per_step.append(bool(t >= floor) and t >= decay_floor)
    tail = 0.0
    for kp in range(1, K):
        tail += (
            8.0 ** (K - kp)
            * float(lam[kp - 1])
            / float(gaps[kp - 1])
            * (1.0 / _ref_contraction_ratio(lam, kp)) ** t
        )
    return per_step, bool(tail <= float(gaps[:K].min()) / (140.0 * inputs.init_constant))


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
            * (
                5.0 * float(inputs.sub_error_norms[kp - 1])
                + 7.0 * c0 / float(gaps[kp - 1]) * ratio**t
            )
        )
    return 3.0 * total


def _ref_error_budget(epsilon, inputs, gaps, k):
    K = inputs.K
    head = min(epsilon * float(inputs.lambdas[K - 1]), float(gaps[:K].min())) / (20.0 * K)
    return head / _ref_accumulation(inputs, gaps, k + 1, K)


def _ref_iteration_budget(inputs, gaps, k):
    lam, K, c0 = inputs.lambdas, inputs.K, inputs.init_constant
    growth = max(_ref_step_growth(inputs, kp) for kp in range(1, K + 1))
    numerator = max(
        math.log(growth) if growth > 1 else 0.0,
        (K - k) + math.log(c0 * K / (inputs.epsilon * float(gaps[:K].min()))),
    )
    log_ratio = math.log(_ref_contraction_ratio(lam, k))
    main = math.inf if log_ratio == 0.0 else numerator / log_ratio
    lam_k, lam_n = float(lam[k - 1]), _ref_lam_next(lam, k)
    if lam_n == 0.0:
        return max(main, 0.0)
    log_gap = math.log(lam_k) - math.log(lam_n)
    return max(main, math.inf if log_gap == 0.0 else 1.0 / log_gap)


def _ref_directional_gap_bound(inputs, k, j, lambda_k):
    lam_j = float(inputs.lambdas[j - 1])
    g_k = _ref_step_growth(inputs, k)
    decay = (lam_j / float(lambda_k)) ** (inputs.t - 1)
    total = 0.0
    for _ in range(1, k):
        total = total * g_k + decay
    return inputs.init_constant * total


def _ref_eigvec_drift_bound(inputs, gaps, k, matrix_gap_spec):
    lam = inputs.lambdas
    lam_k = float(lam[k - 1])
    t = inputs.t
    tail = 0.0
    for j in range(k + 1, lam.size + 1):
        tail += (float(lam[j - 1]) / lam_k) ** (2 * t)
    value = (
        4.8 / lam_k * matrix_gap_spec**2
        + 11.0 * inputs.init_constant**2 / (2.0 * float(gaps[k - 1]) ** 2) * tail
    )
    return math.sqrt(value)


# Reference closed forms: every product built from 1.0 in ascending order for
# every k (O(n^3)). The production versions keep the products across k and
# must return the same bits.
def _ref_sum_closed_form(a, b):
    out = []
    for k in range(1, len(a) + 1):
        acc = 0.0
        for kp in range(1, k):
            prod = 1.0
            for ell in range(kp + 1, k):
                prod *= 1.0 + b[ell - 1]
            acc += a[kp - 1] * prod
        out.append(a[k - 1] + b[k - 1] * acc if k > 1 else a[0])
    return out


def _ref_affine_closed_form(a, b, q1):
    coeffs = [q1] + list(b)
    out = []
    for k in range(1, len(a) + 2):
        acc = 0.0
        for kp in range(0, k):
            prod = 1.0
            for j in range(kp + 1, k):
                prod *= a[j - 1]
            acc += coeffs[kp] * prod
        out.append(acc)
    return out


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
        np.testing.assert_allclose(gaps, [0.5, 1.0 / 6.0, 1.0 / 3.0], atol=1e-16)
        assert float(gaps[:2].min()) == pytest.approx(1.0 / 6.0)

    def test_two_values(self):
        gaps = eigengaps([1.0, 0.5])
        np.testing.assert_allclose(gaps, [0.5, 0.5], atol=0)

    def test_power_law_closed_form(self):
        d = 12
        lam = 1.0 / np.arange(1, d + 1)
        gaps = eigengaps(lam)
        for j in range(1, d):
            assert float(gaps[j - 1]) == pytest.approx(1.0 / (j * (j + 1)), rel=1e-12)

    def test_returns_a_read_only_array(self):
        # the report reads the gaps it is given, so a caller cannot alter them
        gaps = eigengaps([1.0, 0.5, 0.25])
        assert isinstance(gaps, np.ndarray) and not gaps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            gaps[0] = 1.0

    def test_rejects_ties_and_nonpositive(self):
        # eigengaps reads a tie as a zero gap; the report rejects a tie among
        # lambda_1..lambda_{K+1} (here lambda_4 = lambda_5 at K = 4)
        lam = [1.0, 0.5, 0.25, 0.125, 0.125]
        with pytest.raises(InvalidSpectrumError, match="strictly decreasing"):
            report(proto_inputs(lam, np.zeros(5), t=200, K=4))
        # a nan is rejected too: the report takes its smallest gap with the
        # builtin min, which can skip one
        nans = ([math.nan, 0.5], [1.0, math.nan, 0.25], [1.0, math.nan])
        for bad in ([1.0, 0.5, 0.6], [1.0, 0.0], [1.0, -0.5], *nans):
            with pytest.raises(InvalidSpectrumError):
                eigengaps(bad)

    def test_tie_past_k_plus_one_fails_decay_floor(self):
        # a tie is a zero gap; past lambda_{K+1} it only makes the decay floor
        # infinite, so every step floor fails and the power-iteration bound is
        # inadmissible
        np.testing.assert_array_equal(eigengaps([1.0, 0.5, 0.5]), [0.5, 0.0, 0.5])
        lam = [1.0, 0.5, 0.25, 0.125, 0.125]
        rows = report(proto_inputs(lam, np.zeros(5), t=10**6, K=3, epsilon=1e-2))
        assert [row.k for row in rows] == [1, 2, 3]
        assert not any(row.condition_step_floor for row in rows)
        assert all(row.power_iter is None for row in rows)
        assert all(row.agnostic is not None for row in rows)
        assert all(math.isfinite(row.iteration_budget) for row in rows)


class TestAgnosticFamily:
    def test_condition_trivial_cases(self):
        rows = report(proto_inputs([1.0, 0.5], [0.0, 0.0]))
        assert rows[0].condition_agnostic
        assert rows[1].condition_agnostic

    def test_condition_hand_false(self):
        rows = report(proto_inputs([1.0, 0.5], [0.1, 0.0], K=2))
        # sum is 1 * 0.1 with an empty product, threshold is 0.5 / 20
        assert not rows[1].condition_agnostic

    def test_bound_single_step(self):
        rows = report(proto_inputs([1.0, 0.5], [0.01, 0.0]))
        assert rows[0].agnostic == pytest.approx(0.05, rel=1e-15)

    def test_bound_hand_value(self):
        rows = report(proto_inputs([1.0, 0.5], [0.01, 0.01]))
        assert rows[1].agnostic == pytest.approx(0.55, rel=1e-14)

    def test_bound_zero_errors(self):
        rows = report(proto_inputs([1.0, 0.5, 0.25], [0.0, 0.0, 0.0]))
        assert rows[2].agnostic == 0.0

    def test_zero_errors_under_overflowing_products(self):
        # relative gaps of 1e-13 make the product of f_j overflow float64;
        # with no sub-routine error the sum is still exactly 0, not 0 * inf
        lam = [1e-3]
        for _ in range(29):
            lam.append(lam[-1] * (1.0 + 1e-13))
        rows = report(proto_inputs(lam[::-1], np.zeros(30)))
        assert all(row.condition_agnostic for row in rows)
        assert rows[29].agnostic == 0.0

    def test_bound_gated(self):
        rows = report(proto_inputs([1.0, 0.5], [0.2, 0.2], K=2))
        assert rows[1].agnostic is None


class TestErrorBudget:
    def test_single_component(self):
        rows = report(proto_inputs([1.0, 0.5], [0.0, 0.0], K=1, epsilon=0.1))
        assert rows[0].error_budget == pytest.approx(0.005, rel=1e-15)

    def test_budget_shrinks_with_more_components(self):
        lam = 1.0 / np.arange(1, 9)
        previous = None
        for K in range(2, 8):
            budget = report(proto_inputs(lam, np.zeros(8), K=K, epsilon=1e-2))[0].error_budget
            if previous is not None:
                assert budget <= previous
            previous = budget

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            report(proto_inputs([1.0, 0.5], [0.0, 0.0], epsilon=0.0))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
    def test_rejects_epsilon_outside_positive_reals(self, epsilon):
        # nan passes a plain `<= 0` test and then vanishes inside min()
        with pytest.raises(ValueError, match="epsilon"):
            report(proto_inputs([1.0, 0.5], [0.0, 0.0], epsilon=epsilon))


class TestPowerIterFamily:
    def test_growth_constant_power_law(self):
        for c0 in (1.0, 2.0, 7.5):
            lam = 1.0 / np.arange(1, 30)
            # power-law reciprocal differences are >= 1, so growth <= c0 + 1
            growth = max(_step_growth(c0, lam[k - 1], lam[k]) for k in range(1, 21))
            assert growth <= c0 + 1.0 + 1e-12

    def test_tail_condition_passes_for_large_t(self):
        lam = np.array([1.0, 0.5, 0.25])
        rows = report(proto_inputs(lam, np.zeros(3), c0=2.0, t=400, K=3))
        assert all(row.condition_tail and row.condition_step_floor for row in rows)

    def test_tail_condition_fails_for_small_t(self):
        lam = 1.0 / np.arange(1, 12)
        rows = report(proto_inputs(lam, np.zeros(11), c0=5.0, t=1, K=8))
        assert not rows[0].condition_tail
        assert rows[2].power_iter is None

    def test_conditions_cross_evaluated(self):
        lam = np.array([1.0, 0.5])
        rows = report(proto_inputs(lam, np.zeros(2), c0=2.0, t=50, K=2))
        per_step = [row.condition_step_floor for row in rows]
        tail = rows[0].condition_tail
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
        got = report(proto_inputs(lam, [1e-6, 1e-6, 0.0], c0=2.0, t=20, K=2))[1].power_iter
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
        rows = report(proto_inputs(lam, np.zeros(K), c0=1.0, t=200, K=K))
        assert not rows[K - 1].condition_tail
        assert rows[K - 1].power_iter is None

    def test_bound_vanishes_eventually(self):
        lam = np.array([1.0, 0.5])
        bound = report(proto_inputs(lam, [0.0, 0.0], c0=1.0, t=4000, K=1))[0].power_iter
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
        rows = report(proto_inputs(lam, np.full(K, 1e-23), c0=1.0, t=t, K=K))
        assert all(row.condition_tail and row.condition_step_floor for row in rows)
        assert all(row.condition_agnostic for row in rows)
        ratios = []
        for row in rows:
            assert row.agnostic is not None and row.power_iter is not None
            ratios.append(row.power_iter / row.agnostic)
        assert all(b < a for a, b in zip(ratios[2:], ratios[3:]))  # decays with depth
        assert all(r < 1.0 for r in ratios[4:])
        assert ratios[-1] < 1e-4

    def test_iteration_budget_monotone_and_reevaluated(self):
        lam = 1.0 / np.arange(1, 21)
        gaps = eigengaps(lam)
        previous = None
        for eps in (1e-1, 1e-2, 1e-3):
            inputs = proto_inputs(lam, np.zeros(20), c0=2.0, K=10, epsilon=eps)
            budget = report(inputs)[3].iteration_budget
            if previous is not None:
                assert budget >= previous
            previous = budget
        inputs = proto_inputs(lam, np.zeros(20), c0=2.0, K=10, epsilon=1e-2)
        got = report(inputs)[3].iteration_budget
        g = max(1.0 + 2.0 * lam[k - 1] * lam[k] / (lam[k - 1] - lam[k]) for k in range(1, 11))
        num = max(math.log(g), (10 - 4) + math.log(2.0 * 10 / (1e-2 * float(gaps[:10].min()))))
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
            got = report(inputs)[k - 1].iteration_budget
            den = math.log((7 * lam[k - 1] + lam[k]) / (7 * lam[k] + lam[k - 1]))
            scale = ((K - k) + math.log(K / (1e-2 * float(gaps[:K].min())))) / den
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
        assert _step_growth(100.0, lam[299], lam[300]) == pytest.approx(101.0)
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
        got = eigvec_drift_bound(inputs, 2, 0.003)
        tail = (0.25 / 0.5) ** 18
        expected = math.sqrt(4.8 / 0.5 * 0.003**2 + 11.0 * 4.0 / (2.0 * 0.25**2) * tail)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_tail_is_summed_left_to_right(self, monkeypatch):
        # builtin sum() of floats is compensated from Python 3.12 on; with a
        # compensated sum in its place the tail must still be the plain
        # left-to-right sum, so the bound has the same bits on every interpreter
        monkeypatch.setattr("deflatrix.bounds.sum", math.fsum, raising=False)
        lam = 1.0 / np.arange(1, 61)
        inputs = proto_inputs(lam, np.zeros(60), c0=1.0, t=1, K=2)
        tail = 0.0
        for j in range(2, 61):
            tail += (float(lam[j - 1]) / 1.0) ** 2
        expected = math.sqrt(11.0 * 1.0**2 / (2.0 * 0.5**2) * tail)
        assert eigvec_drift_bound(inputs, 1, 0.0) == expected

    def test_vanishes_at_exact_match_and_large_t(self):
        lam = np.array([1.0, 0.5, 0.25])
        inputs = proto_inputs(lam, np.zeros(3), c0=2.0, t=5000, K=2)
        assert eigvec_drift_bound(inputs, 2, 0.0) <= 1e-100


class TestFormulaBits:
    # the literal loops above are the reference; repr equality pins every
    # bit and the result's type
    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        st.sampled_from(["wide", "narrow", "mixed"]),
        st.booleans(),
    )
    @example(1, 12, "narrow", True)
    @settings(max_examples=60, deadline=None)
    def test_match_literal_loops(self, seed, K, shape, numpy_scalars):
        inputs = _engine_case(seed, K, shape)
        if numpy_scalars:  # init_constant is used as given, a numpy scalar too
            inputs = dataclasses.replace(inputs, init_constant=np.float64(inputs.init_constant))
        gaps = eigengaps(inputs.lambdas)
        lam = inputs.lambdas
        gen = np.random.Generator(np.random.Philox(seed))
        for k in range(1, K + 1):
            spec = 10.0 ** gen.uniform(-16.0, -1.0)
            spec = np.float64(spec) if numpy_scalars else float(spec)
            got = eigvec_drift_bound(inputs, k, spec)
            assert repr(got) == repr(_ref_eigvec_drift_bound(inputs, gaps, k, spec))
            lambda_k = float(lam[k - 1] * (1.0 + 10.0 ** gen.uniform(-6.0, 0.0)))
            for j in range(k, lam.size + 1):
                got = directional_gap_bound(inputs, k, j, lambda_k)
                assert repr(got) == repr(_ref_directional_gap_bound(inputs, k, j, lambda_k))


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

    @given(
        st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), max_size=60),
        st.floats(0.0, 10.0),
    )
    @example([(0.0, 0.0)], 0.0)
    @settings(max_examples=120, deadline=None)
    def test_closed_forms_match_triple_loop_bitwise(self, pairs, q1):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        assert sum_recurrence_closed_form(a, b) == _ref_sum_closed_form(a, b)
        assert affine_recurrence_closed_form(a, b, q1) == _ref_affine_closed_form(a, b, q1)

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

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_rejects_epsilon_outside_positive_reals(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            proto_inputs([1.0, 0.5], [0.0, 0.0], epsilon=epsilon)


def _three(**change):
    return proto_inputs(**{"lambdas": [1.0, 0.5, 0.25], "errs": [0.0] * 3, "K": 2, **change})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eigengaps([]), "expected a nonempty 1-d eigenvalue list"),
        (lambda: eigengaps([[1.0, 0.5]]), "expected a nonempty 1-d eigenvalue list"),
        (lambda: _three(K=0), "K must lie in [1, 3]"),
        (lambda: _three(K=4), "K must lie in [1, 3]"),
        (lambda: _three(errs=[0.0]), "need a sub-routine error norm for every step up to K"),
        (lambda: _three(t=-1), "t must be non-negative"),
        (lambda: directional_gap_bound(_three(), 2, 1, 1.0),
         "the directional bound applies to j >= k"),
        (lambda: sum_recurrence_closed_form([1.0, 2.0], [1.0]),
         "coefficient lists must have equal length"),
        (lambda: sum_recurrence_closed_form([1.0], [-1.0]), "coefficients must be non-negative"),
        (lambda: affine_recurrence_closed_form([1.0], [1.0, 2.0], 1.0),
         "coefficient lists must have equal length"),
        (lambda: affine_recurrence_closed_form([1.0], [1.0], -1.0),
         "coefficients must be non-negative"),
        (lambda: geometric_tail_bound([1.0, 2.0], 2.0, 5.0, 3), "need at least k sequence entries"),
        (lambda: geometric_tail_bound([1.0, 1.0], 2.0, 5.0, 2),
         "sequence must be positive and strictly increasing"),
        (lambda: geometric_tail_bound([1.0, 2.0], 0.0, 5.0, 2), "g and t must be positive"),
        (lambda: geometric_tail_bound([1.0, 2.0], 2.0, 0.0, 2), "g and t must be positive"),
        (lambda: build_bound_report(_three(), eigengaps([1.0, 0.5, 0.25]), [0.0]),
         "need an empirical error for every step up to K"),
    ],
    ids=["empty-gaps", "2d-gaps", "K-zero", "K-past-d", "few-errors", "negative-t",
         "j-below-k", "sum-lengths", "sum-negative", "affine-lengths", "affine-negative-q1",
         "tail-short", "tail-flat", "tail-g", "tail-t", "few-empirical"],
)
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        call()
    assert err.type is ValueError


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

    def test_rejects_the_gaps_of_another_spectrum(self):
        # the gaps of a longer spectrum would otherwise be read as this one's
        lam = 1.0 / np.arange(1, 6)
        inputs = proto_inputs(lam, np.full(5, 1e-10), c0=2.0, t=200, K=4)
        other = eigengaps(0.5 ** np.arange(8))
        with pytest.raises(DimensionMismatchError, match="expected 5 eigengaps, got 8"):
            build_bound_report(inputs, other, np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            build_bound_report(inputs, eigengaps(lam)[:4], np.zeros(4))

    def test_overflowing_budget_product_saturates_to_zero(self):
        inputs = _engine_case(1, 25, "narrow")
        gaps = eigengaps(inputs.lambdas)
        assert _ref_accumulation(inputs, gaps, 2, 25) == math.inf
        assert report(inputs)[0].error_budget == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 25), st.sampled_from(["wide", "narrow", "mixed"]))
    @example(1, 25, "narrow")  # the overflowing case above
    @settings(max_examples=80, deadline=None)
    def test_one_pass_matches_double_loop_reference(self, seed, K, shape):
        inputs = _engine_case(seed, K, shape)
        gaps = eigengaps(inputs.lambdas)
        rows = build_bound_report(inputs, gaps, np.zeros(K))
        conds = [_ref_agnostic_condition(inputs, gaps, k) for k in range(1, K + 1)]
        steps, tail = _ref_power_iter_conditions(inputs, gaps)
        for row in rows:
            k = row.k
            assert row.condition_agnostic == conds[k - 1]
            assert (row.condition_step_floor, row.condition_tail) == (steps[k - 1], tail)
            want = _ref_agnostic_value(inputs, gaps, k) if all(conds[:k]) else None
            _assert_matches(row.agnostic, want)
            want = _ref_power_iter_value(inputs, gaps, k) if tail and all(steps) else None
            _assert_matches(row.power_iter, want)
            want = _ref_error_budget(inputs.epsilon, inputs, gaps, k)
            _assert_matches(row.error_budget, want)
            _assert_matches(row.iteration_budget, _ref_iteration_budget(inputs, gaps, k))


def _bench_shape(seed, epsilon=1e-2):
    """The bound-report benchmark's inputs: the 1/j spectrum at K = d = 110
    (so lambda_{K+1} = 0), t = 20000, errors at the float64 floor and c0 from
    K random alignments."""
    K = 110
    gen = np.random.Generator(np.random.Philox(seed))
    errs = 10.0 ** gen.uniform(-15.0, -13.0, K)
    alignments = np.abs(gen.standard_normal(K)) / np.sqrt(K)
    c0 = max(1.0, 1.0 / float(alignments.min()))
    empirical = errs * 10.0 ** gen.uniform(0.0, 1.0, K)
    lam = np.arange(1, K + 1, dtype=float) ** -1.0
    return proto_inputs(lam, errs, c0=c0, t=20000, K=K, epsilon=epsilon), empirical


def _exponential_case(K, t=800, err=1e-12):
    lam = 0.7 ** np.arange(30)
    inputs = proto_inputs(lam, np.full(30, err), c0=3.0, t=t, K=K, epsilon=1e-3)
    return inputs, np.full(K, 2.0 * err)


def _tie_case():
    # lambda_4 = lambda_5 past K + 1 = 4: the decay floor is inf
    lam = [1.0, 0.5, 0.25, 0.125, 0.125]
    return proto_inputs(lam, [1e-9] * 5, c0=2.0, t=10**6, K=3, epsilon=1e-2), [2e-9] * 3


def _saturating_case():
    # relative gaps of 1e-13 and c0 = 1e300 make every G_k overflow to inf
    lam = [(1.0 - 1e-13) ** j for j in range(5)]
    return proto_inputs(lam, [1e-15] * 5, c0=1e300, t=100, K=4, epsilon=1e-2), [1e-15] * 4


_DIGEST_CASES = {
    "bench-seed-1": (lambda: _bench_shape(1),
                     "df820b3ba577ca36c82fe179c7c7313e635b77448084bd18105e4dfdfe2e7145"),
    "bench-seed-2": (lambda: _bench_shape(2),
                     "fa33a00337f900223af58aff8b2c621472aeb791574edc2b4e35cbb0cf0a91f0"),
    "bench-seed-3": (lambda: _bench_shape(3),
                     "f11dca970cbb8e994cd23a32fb35b28bda37eaacc3216089e81a614d791ba800"),
    "no-epsilon": (lambda: _bench_shape(1, epsilon=None),
                   "7e9e79628ba830fd8483f3601fdb8f73347c77c31ea9a7c6b7e5e15062d8944f"),
    "k-equals-d": (lambda: _exponential_case(30),
                   "7648d2cf139b544dc0192bbab9f74219cefe4eca4c121647490fd87ce7b1f559"),
    "k-below-d": (lambda: _exponential_case(12),
                  "928c947a30730c0f3e2890ebb70146a1d782194d579b660fd36d5b3d73ff4384"),
    # the power-iteration bound is admissible and its leak term 7 c0 / T_k
    # (lambda_{k+1} / lambda_k)^t is as large as 5 delta_k
    "leak-dominated": (lambda: _exponential_case(12, t=200, err=1e-30),
                       "df7cd9d5920559cbb84d7a0c6264644ed8e9de349059873529ae7d429f10b84d"),
    "tie-past-k-plus-one": (_tie_case,
                            "f6282569f2da1bc0c9e39a13bd40ce66de66160d61764f0e52d5ce39ace841d8"),
    "growth-saturates": (_saturating_case,
                         "e50667ab38a8bad24d0c3c5b5791bb7196fb9bb02a0347cb0b114a7942955d7b"),
}


def _digest_rows(name):
    inputs, empirical = _DIGEST_CASES[name][0]()
    return build_bound_report(inputs, eigengaps(inputs.lambdas), empirical)


class TestEngineDigest:
    # SHA-256 of repr([vars(row) for row in rows]): pins every bit of every
    # row, and every value's type (a numpy scalar has another repr)
    @pytest.mark.parametrize("name", list(_DIGEST_CASES))
    def test_rows_are_pinned(self, name):
        text = repr([vars(row) for row in _digest_rows(name)])
        assert hashlib.sha256(text.encode()).hexdigest() == _DIGEST_CASES[name][1]

    def test_cases_reach_their_branches(self):
        rows = _digest_rows("bench-seed-1")
        assert all(row.power_iter is not None for row in rows)
        assert rows[0].agnostic is not None and rows[-1].agnostic is None
        assert all(row.error_budget is None for row in _digest_rows("no-epsilon"))
        assert all(row.power_iter is not None for row in _digest_rows("k-equals-d"))
        assert all(row.power_iter is not None for row in _digest_rows("leak-dominated"))
        assert not any(row.condition_step_floor for row in _digest_rows("tie-past-k-plus-one"))
        assert all(row.iteration_budget == math.inf for row in _digest_rows("growth-saturates"))


class TestTrustedRows:
    # the engine builds its rows without BoundRow's generated __init__; a
    # row built that way must be indistinguishable from a public one
    @pytest.mark.parametrize("name", list(_DIGEST_CASES))
    def test_trusted_rows_equal_public_rows(self, name):
        for row in _digest_rows(name):
            public = BoundRow(**vars(row))
            assert row == public and hash(row) == hash(public)
            assert repr(row) == repr(public)
            assert list(vars(row)) == list(vars(public))
            assert list(vars(row)) == [f.name for f in dataclasses.fields(BoundRow)]

    @pytest.mark.parametrize("name", list(_DIGEST_CASES))
    def test_values_are_builtin_scalars(self, name):
        for row in _digest_rows(name):
            for value in vars(row).values():
                assert value is None or type(value) in (int, float, bool), (name, value)

    def test_trusted_rows_are_frozen(self):
        row = _digest_rows("k-below-d")[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.agnostic = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.extra = 0.0
