"""Closed-form error bounds, admissibility conditions, and budgets.

Two bound families are evaluated side by side:

* the *agnostic* family, which knows the sub-routine only through the size of
  its per-step error, and
* the *power-iteration* family, which additionally exploits the direction of
  that error (its component along later eigenvectors decays geometrically).

:func:`build_bound_report` is the engine's one entry point: a forward pass
over k = 1..K evaluates both families and their admissibility flags, and a
backward pass adds both budgets when a target accuracy is given, one
:class:`BoundRow` per step. A bound whose admissibility conditions fail
reads ``None``, so callers can distinguish a vacuous bound from a violated
one. The other functions here are pure formulas, the bounds and closed forms
that the selftest checks against measured runs. All step indices are 1-based
to match the recurrences being evaluated. Iteration budgets evaluate
asymptotic prescriptions with their leading constant fixed to 1; treat them
as order-of-magnitude predictors, not thresholds.

Both families are sums over earlier steps of amplified errors, so the pass
evaluates them as first-order linear recurrences in plain float64, where a
bound too large to represent saturates to +inf instead of raising. With
f_j = 3 + 2 lambda_j / T_j, delta_k the k-th sub-routine error, r_k the
contraction ratio and G_k the step growth constant:

* C_1 = 0, C_{k+1} = f_k C_k + lambda_k delta_k; the agnostic condition at k
  is C_k <= min_gap / 20 and the agnostic bound is 5 C_{k+1} / lambda_k;
* P_0 = 0, P_k = 8 P_{k-1} + lambda_k (5 delta_k + 7 c0 / T_k
  (lambda_{k+1} / lambda_k)^t); the power-iteration bound is 3 P_k / lambda_k;
* the step floor is log(2 G_k) over a running min of log r_k; the decay
  floor is the max over j = 1..d-1 of 1 / log(lambda_j / lambda_{j+1}) (one
  O(d) scan); the tail is R_K with R_1 = 0,
  R_{k+1} = 8 (R_k + lambda_k r_k^-t / T_k); a floor over a zero log-gap
  (adjacent eigenvalues that tie or whose logarithms round equal) is +inf,
  so its condition fails instead of raising;
* the error budget is min(epsilon lambda_K, min_gap) / (20 K) over the
  suffix product of f_{k+1}..f_K, filled backwards with the iteration budget
  max(max(log max_j G_j, (K - k) + log(c0 K / (epsilon min_gap))) / log r_k,
  1 / log(lambda_k / lambda_{k+1})), whose second term is 0 at lambda_{k+1} = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpectrumError

__all__ = [
    "BoundInputs",
    "BoundRow",
    "SpectrumGaps",
    "affine_recurrence_closed_form",
    "build_bound_report",
    "directional_gap_bound",
    "eigengaps",
    "eigvec_drift_bound",
    "geometric_tail_bound",
    "sum_recurrence_closed_form",
]


@dataclass(frozen=True)
class SpectrumGaps:
    """Consecutive eigengaps of a non-increasing positive spectrum.

    ``gaps[j-1]`` is lambda_j - lambda_{j+1} for j < d (0 at a tie) and
    lambda_d for j = d (the distance to zero closes the list).
    """

    lambdas: np.ndarray
    gaps: np.ndarray

    @property
    def dim(self) -> int:
        return self.lambdas.size

    def gap(self, j: int) -> float:
        """Consecutive gap T_j (1-based)."""
        return float(self.gaps[j - 1])

    def min_gap(self, K: int) -> float:
        """Smallest consecutive gap among the first K."""
        if not 1 <= K <= self.dim:
            raise ValueError(f"K must lie in [1, {self.dim}]")
        return float(self.gaps[:K].min())

    def davis_kahan_gap(self, k: int) -> float:
        """min over j != k of |lambda_k - lambda_j| (the two-sided gap).

        A one-dimensional spectrum has no neighbor, so the distance to zero
        stands in, mirroring the tail convention of ``gaps``.
        """
        d = self.dim
        if not 1 <= k <= d:
            raise ValueError(f"k must lie in [1, {d}]")
        lam = self.lambdas
        candidates = []
        if k > 1:
            candidates.append(lam[k - 2] - lam[k - 1])
        if k < d:
            candidates.append(lam[k - 1] - lam[k])
        if not candidates:
            return float(lam[0])
        return float(min(candidates))


def eigengaps(lambdas) -> SpectrumGaps:
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a nonempty 1-d eigenvalue list")
    if lam[-1] <= 0 or np.any(np.diff(lam) > 0):
        raise InvalidSpectrumError("eigenvalues must be non-increasing and positive")
    gaps = np.empty_like(lam)
    gaps[:-1] = lam[:-1] - lam[1:]
    gaps[-1] = lam[-1]
    return SpectrumGaps(lambdas=lam.copy(), gaps=gaps)


def _over_log_gap(x: float, log_gap: float) -> float:
    """``x / log_gap``; a zero log-gap makes the step-count floor +inf."""
    return math.inf if log_gap == 0.0 else x / log_gap


def _check_epsilon(epsilon: float) -> None:
    # nan would pass a plain `<= 0` test and then vanish inside min/max
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formulas consume.

    ``sub_error_norms[k-1]`` is the measured per-step sub-routine error size;
    ``init_constant`` is the reciprocal of the worst initial alignment across
    steps (>= 1 since alignments cannot exceed 1); ``epsilon``, the target
    accuracy, must be finite and positive when given and adds the budgets.
    """

    lambdas: np.ndarray
    sub_error_norms: np.ndarray
    init_constant: float
    t: int
    K: int
    epsilon: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        errs = np.asarray(self.sub_error_norms, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "sub_error_norms", errs)
        if not 1 <= self.K <= lam.size:
            raise ValueError(f"K must lie in [1, {lam.size}]")
        if errs.size < self.K:
            raise ValueError("need a sub-routine error norm for every step up to K")
        if self.init_constant < 1.0:
            raise ValueError("init_constant is a reciprocal alignment and cannot be < 1")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        if self.epsilon is not None:
            _check_epsilon(self.epsilon)


def _step_growth(c0, lam_k: float, lam_n: float) -> float:
    """Step growth constant G_k = 1 + c0 lambda_k lambda_{k+1} / (lambda_k - lambda_{k+1})."""
    if lam_n == 0.0:
        return 1.0
    return 1.0 + c0 * lam_k * lam_n / (lam_k - lam_n)


def _contraction_ratio(lam_k: float, lam_n: float) -> float:
    """(7 lambda_k + lambda_{k+1}) / (7 lambda_{k+1} + lambda_k): the
    guaranteed per-step shrink factor of the power-iteration family."""
    return (7.0 * lam_k + lam_n) / (7.0 * lam_n + lam_k)


def directional_gap_bound(
    inputs: BoundInputs, k: int, j: int, lambda_k: float
) -> float:
    """Unrolled bound on ||(ideal_k - actual_k) u_j*|| for j >= k.

    ``lambda_k`` is the top eigenvalue of the actual k-th deflated matrix
    (oracle value). The sum telescopes the per-step leakage with the step
    growth constant; step 1 has no history, so the bound is 0 there.
    """
    if j < k:
        raise ValueError("the directional bound applies to j >= k")
    lam = inputs.lambdas.tolist()
    lam_j = lam[j - 1]
    if lambda_k <= lam_j:
        raise InvalidSpectrumError("need the running top eigenvalue above lambda_j")
    lam_n = lam[k] if k < len(lam) else 0.0  # lambda_{d+1} = 0
    g_k = _step_growth(inputs.init_constant, lam[k - 1], lam_n)
    decay = (lam_j / float(lambda_k)) ** (inputs.t - 1)
    total = 0.0  # sum over k' < k of g_k**(k-k'-1) * decay, saturating to +inf
    for _ in range(1, k):
        total = total * g_k + decay
    return inputs.init_constant * total


def eigvec_drift_bound(
    inputs: BoundInputs, gaps: SpectrumGaps, k: int, matrix_gap_spec: float
) -> float:
    """Bound on the drift between the running and ideal top eigenvectors.

    Pure formula: sqrt of (4.8/lambda_k) * gap^2 plus the geometrically
    decaying alignment tail. Callers gate it on its admissibility conditions
    (small enough matrix gap, step count above the contraction floor).
    """
    lam = inputs.lambdas.tolist()
    lam_k = lam[k - 1]
    two_t = 2 * inputs.t
    tail = 0.0  # an explicit loop: builtin sum() of floats is compensated from 3.12 on
    for lam_j in lam[k:]:
        tail += (lam_j / lam_k) ** two_t
    value = (
        4.8 / lam_k * matrix_gap_spec**2
        + 11.0 * inputs.init_constant**2 / (2.0 * gaps.gap(k) ** 2) * tail
    )
    return math.sqrt(value)


def sum_recurrence_closed_form(a, b) -> list[float]:
    """Closed form of Q_k = a_k + b_k * sum_{k'<k} Q_{k'} (Q_1 = a_1).

    Returns [Q_1, ..., Q_n] for the given coefficient lists: Q_k is a_k plus
    b_k times the ascending sum over k' < k of a_{k'} prod_{k'<l<k} (1 + b_l).
    Each product is kept across k and extended by its new last factor, so it
    has the same factors in the same order (and the same bits) as a product
    built from 1.0 for every k, and the whole list costs O(n^2).
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b):
        raise ValueError("coefficient lists must have equal length")
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise ValueError("coefficients must be non-negative")
    out = []
    prods: list[float] = []  # prods[k'-1] = prod over k' < l < k of (1 + b_l)
    for k in range(1, len(a) + 1):
        if k > 1:
            factor = 1.0 + b[k - 2]
            prods = [p * factor for p in prods]
            prods.append(1.0)
        acc = 0.0
        for a_kp, prod in zip(a, prods):
            acc += a_kp * prod
        out.append(a[k - 1] + b[k - 1] * acc if k > 1 else a[0])
    return out


def affine_recurrence_closed_form(a, b, q1: float) -> list[float]:
    """Closed form of Q_{k+1} = a_k Q_k + b_k with Q_1 = q1.

    Returns [Q_1, ..., Q_{n+1}] for coefficient lists of length n: Q_k is
    the ascending sum over 0 <= k' < k of b_{k'} prod_{k'<j<k} a_j, with
    b_0 = q1. As in :func:`sum_recurrence_closed_form`, each product is kept
    across k and extended by its new last factor (same factors, same order),
    so the list costs O(n^2).
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b):
        raise ValueError("coefficient lists must have equal length")
    if any(x < 0 for x in a) or any(x < 0 for x in b) or q1 < 0:
        raise ValueError("coefficients must be non-negative")
    coeffs = [float(q1)] + b  # b_0 := Q_1
    out = []
    prods: list[float] = []  # prods[k'] = prod over k' < j < k of a_j
    for k in range(1, len(a) + 2):
        if k > 1:
            factor = a[k - 2]
            prods = [p * factor for p in prods]
        prods.append(1.0)
        acc = 0.0
        for coeff, prod in zip(coeffs, prods):
            acc += coeff * prod
        out.append(acc)
    return out


def geometric_tail_bound(p, g: float, t: float, k: int) -> float:
    """Upper bound on S_k = sum_{k'<k} p_{k'}^t / g^{k'} for increasing p.

    Needs t above log(g)/log(p_{k'+1}/p_{k'}) for every k' < k so the terms
    grow geometrically toward the last one; otherwise raises.
    """
    p = [float(x) for x in p]
    if len(p) < k:
        raise ValueError("need at least k sequence entries")
    if any(x <= 0 for x in p) or any(p[i] >= p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("sequence must be positive and strictly increasing")
    if g <= 0 or t <= 0:
        raise ValueError("g and t must be positive")
    if k < 2:
        return 0.0
    gamma = max(g * (p[kp - 1] / p[kp]) ** t for kp in range(1, k))
    if gamma >= 1.0:
        raise InvalidSpectrumError(
            "step count below the geometric-tail floor; the bound does not apply"
        )
    return p[k - 2] ** t / g ** (k - 1) / (1.0 - gamma)


@dataclass(frozen=True)
class BoundRow:
    """One step of the side-by-side bound report.

    ``condition_agnostic`` is the agnostic admissibility at step k (the
    growth-amplified sum of earlier sub-routine errors stays below a twentieth
    of the smallest gap); ``agnostic`` is None unless it holds at every step
    up to k. ``condition_step_floor`` asks the step count to clear log(2 G_k)
    over every earlier contraction log and the spectrum's decay floor;
    ``condition_tail`` (one flag for the whole report) asks the growth-weighted
    geometric tail to stay below min_gap / (140 c0). ``power_iter`` is None
    unless the tail and every step floor hold. The budgets are set only when
    the inputs carry a target accuracy.
    """

    k: int
    agnostic: float | None
    power_iter: float | None
    empirical: float
    condition_agnostic: bool
    condition_step_floor: bool
    condition_tail: bool
    error_budget: float | None = None
    iteration_budget: float | None = None

    @property
    def slack_agnostic(self) -> float | None:
        return None if self.agnostic is None else self.agnostic / max(self.empirical, 1e-300)

    @property
    def slack_power_iter(self) -> float | None:
        return None if self.power_iter is None else self.power_iter / max(self.empirical, 1e-300)


def build_bound_report(
    inputs: BoundInputs, gaps: SpectrumGaps, empirical_errors
) -> list[BoundRow]:
    """Evaluate both bound families, and given a target accuracy both
    budgets, against measured per-step errors: a forward pass over k = 1..K
    runs the recurrences in float64 (see module docstring), where an
    overflowing product saturates to +inf, and a backward pass fills the
    budgets.

    Raises :class:`InvalidSpectrumError` unless lambda_1..lambda_{K+1}
    decrease strictly (a tie past K+1 only makes the decay floor +inf).
    """
    # the scalar work runs on Python floats, read out of the arrays once
    empirical = np.asarray(empirical_errors, dtype=float).tolist()
    K, t, c0 = inputs.K, inputs.t, float(inputs.init_constant)
    if len(empirical) < K:
        raise ValueError("need an empirical error for every step up to K")
    min_gap = gaps.min_gap(K)
    if min_gap <= 0.0:
        raise InvalidSpectrumError("lambda_1..lambda_{K+1} must be strictly decreasing")
    lam = inputs.lambdas.tolist()
    gap = gaps.gaps.tolist()
    errs = inputs.sub_error_norms.tolist()
    lam_next = (lam + [0.0])[1:K + 1]  # lambda_{k+1}, 0 past the end
    log_lam = [math.log(x) for x in lam]
    # step_decay[j-1] = 1 / log(lambda_j / lambda_{j+1}); the decay floor is its max
    step_decay = [_over_log_gap(1.0, a - b) for a, b in zip(log_lam, log_lam[1:])]
    global_floor_ok = t >= max(step_decay, default=0.0)
    factors = [3.0 + 2.0 * lam_k / gap_k for lam_k, gap_k in zip(lam[:K], gap)]

    cond_agnostic, agnostic, cond_step, power_iter = [], [], [], []
    growth, log_ratios = [], []
    c = p = tail = 0.0
    admissible = True
    min_log_ratio = math.inf  # over steps before k; makes the floor 0 at k = 1
    for k, lam_k, lam_n, gap_k, err, f_k in zip(
        range(1, K + 1), lam, lam_next, gap, errs, factors
    ):
        ok = c <= min_gap / 20.0
        admissible = admissible and ok
        c = f_k * c + lam_k * err
        cond_agnostic.append(ok)
        agnostic.append(5.0 * c / lam_k if admissible else None)

        g_k = _step_growth(inputs.init_constant, lam_k, lam_n)
        ratio = _contraction_ratio(lam_k, lam_n)
        log_ratio = math.log(ratio)
        growth.append(g_k)
        log_ratios.append(log_ratio)
        floor = _over_log_gap(math.log(2.0 * g_k), min_log_ratio)
        cond_step.append(bool(t >= floor) and global_floor_ok)
        leak = 7.0 * c0 / gap_k * (lam_n / lam_k) ** t
        p = 8.0 * p + lam_k * (5.0 * err + leak)
        power_iter.append(3.0 * p / lam_k)
        if k < K:
            tail = 8.0 * (tail + lam_k / gap_k * (1.0 / ratio) ** t)
            min_log_ratio = min(min_log_ratio, log_ratio)

    tail_ok = bool(tail <= min_gap / (140.0 * c0))
    if not (tail_ok and all(cond_step)):
        power_iter = [None] * K
    epsilon = inputs.epsilon
    error_budget = iteration_budget = [None] * K
    if epsilon is not None:
        # the error budget shares the smaller of the target accuracy at step
        # K and the smallest gap over K steps, then divides by f_{k+1}..f_K;
        # the iteration budget has its leading constant fixed to 1
        head = min(epsilon * lam[K - 1], min_gap) / (20.0 * K)
        suffix = 1.0
        g_max = max(growth)
        log_growth = math.log(g_max) if g_max > 1 else 0.0
        log_target = math.log(inputs.init_constant * K / (epsilon * min_gap))
        error_budget, iteration_budget = [], []
        for k in range(K, 0, -1):
            error_budget.append(head / suffix)
            suffix = factors[k - 1] * suffix
            main = _over_log_gap(max(log_growth, (K - k) + log_target), log_ratios[k - 1])
            iteration_budget.append(max(main, step_decay[k - 1] if k < len(lam) else 0.0))
        error_budget.reverse()
        iteration_budget.reverse()
    # positional, in BoundRow's field order: keywords make each row slower to build
    return list(map(
        BoundRow, range(1, K + 1), agnostic, power_iter, empirical, cond_agnostic,
        cond_step, [tail_ok] * K, error_budget, iteration_budget,
    ))
