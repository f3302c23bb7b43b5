"""Closed-form error bounds, admissibility conditions, and budgets.

Two bound families are evaluated side by side:

* the *agnostic* family, which knows the sub-routine only through the size of
  its per-step error, and
* the *power-iteration* family, which additionally exploits the direction of
  that error (its component along later eigenvectors decays geometrically).

:func:`build_bound_report` is the engine's one entry point: the per-step
terms that do not depend on the recurrences are computed first, a forward
pass over k = 1..K runs both families' recurrences and admissibility flags,
and a backward pass adds both budgets when a target accuracy is given, one
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

from .errors import DimensionMismatchError, InvalidSpectrumError

__all__ = [
    "BoundInputs",
    "BoundRow",
    "affine_recurrence_closed_form",
    "build_bound_report",
    "directional_gap_bound",
    "eigengaps",
    "eigvec_drift_bound",
    "geometric_tail_bound",
    "sum_recurrence_closed_form",
]


def eigengaps(lambdas) -> np.ndarray:
    """Read-only consecutive eigengaps of a non-increasing positive spectrum:
    ``gaps[j-1]`` is T_j = lambda_j - lambda_{j+1} (0 at a tie), and
    ``gaps[-1]`` is lambda_d, the distance to zero."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a nonempty 1-d eigenvalue list")
    # written so that a nan fails both tests
    if not lam[-1] > 0 or not np.all(np.diff(lam) <= 0):
        raise InvalidSpectrumError("eigenvalues must be non-increasing and positive")
    gaps = np.empty_like(lam)
    gaps[:-1] = lam[:-1] - lam[1:]
    gaps[-1] = lam[-1]
    gaps.setflags(write=False)
    return gaps


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


def eigvec_drift_bound(inputs: BoundInputs, k: int, matrix_gap_spec: float) -> float:
    """Bound on the drift between the running and ideal top eigenvectors.

    Pure formula: sqrt of (4.8/lambda_k) * gap^2 plus the geometrically
    decaying alignment tail. Callers gate it on its admissibility conditions
    (small enough matrix gap, step count above the contraction floor).
    """
    lam = inputs.lambdas.tolist()
    lam_k = lam[k - 1]
    gap_k = lam_k - lam[k] if k < len(lam) else lam_k  # T_k, as eigengaps computes it
    two_t = 2 * inputs.t
    tail = 0.0  # an explicit loop: builtin sum() of floats is compensated from 3.12 on
    for lam_j in lam[k:]:
        tail += (lam_j / lam_k) ** two_t
    value = (
        4.8 / lam_k * matrix_gap_spec**2
        + 11.0 * inputs.init_constant**2 / (2.0 * gap_k**2) * tail
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

    @classmethod
    def _trusted(
        cls, k, agnostic, power_iter, empirical, condition_agnostic,
        condition_step_floor, condition_tail, error_budget, iteration_budget,
    ) -> "BoundRow":
        """A row from values the engine computed, without the generated
        ``__init__``: the frozen row's ``__dict__`` is filled directly, in
        field order, as ``__init__`` would fill it."""
        row = object.__new__(cls)
        row.__dict__.update(
            k=k, agnostic=agnostic, power_iter=power_iter, empirical=empirical,
            condition_agnostic=condition_agnostic,
            condition_step_floor=condition_step_floor, condition_tail=condition_tail,
            error_budget=error_budget, iteration_budget=iteration_budget,
        )
        return row

    @property
    def slack_agnostic(self) -> float | None:
        return None if self.agnostic is None else self.agnostic / max(self.empirical, 1e-300)

    @property
    def slack_power_iter(self) -> float | None:
        return None if self.power_iter is None else self.power_iter / max(self.empirical, 1e-300)


def build_bound_report(inputs: BoundInputs, gaps, empirical_errors) -> list[BoundRow]:
    """Evaluate both bound families, and given a target accuracy both
    budgets, against measured per-step errors: the per-step terms come first,
    a forward pass over k = 1..K runs the recurrences in float64 (see module
    docstring), where an overflowing product saturates to +inf, and a
    backward pass fills the budgets.

    ``gaps`` is :func:`eigengaps` of ``inputs.lambdas``; a gap list of
    another length raises :class:`DimensionMismatchError`. Raises
    :class:`InvalidSpectrumError` unless lambda_1..lambda_{K+1} decrease
    strictly (a tie past K+1 only makes the decay floor +inf).
    """
    # the scalar work runs on Python floats, read out of the arrays once
    empirical = np.asarray(empirical_errors, dtype=float).tolist()
    K, t, c0 = inputs.K, inputs.t, float(inputs.init_constant)
    if len(empirical) < K:
        raise ValueError("need an empirical error for every step up to K")
    lam = inputs.lambdas.tolist()
    gap = np.asarray(gaps, dtype=float).tolist()
    errs = inputs.sub_error_norms.tolist()
    if len(gap) != len(lam):
        raise DimensionMismatchError(f"expected {len(lam)} eigengaps, got {len(gap)}")
    min_gap = min(gap[:K])
    if min_gap <= 0.0:
        raise InvalidSpectrumError("lambda_1..lambda_{K+1} must be strictly decreasing")
    log_lam = list(map(math.log, lam))
    # step_decay[j-1] = 1 / log(lambda_j / lambda_{j+1}), +inf at a zero
    # log-gap; the decay floor is its max
    step_decay = [math.inf if a == b else 1.0 / (a - b) for a, b in zip(log_lam, log_lam[1:])]
    global_floor_ok = t >= max(step_decay, default=0.0)

    # Per-step terms that do not depend on the recurrences, one list each
    # over k = 1..K: lambda_{k+1} is 0 past the end, G_k uses the raw c0.
    raw_c0 = inputs.init_constant
    tops = lam[:K]
    nexts = (lam + [0.0])[1:K + 1]
    factors = [3.0 + 2.0 * lam_k / gap_k for lam_k, gap_k in zip(tops, gap)]
    growth = [
        1.0 if lam_n == 0.0 else 1.0 + raw_c0 * lam_k * lam_n / (lam_k - lam_n)
        for lam_k, lam_n in zip(tops, nexts)
    ]
    ratios = [(7.0 * lam_k + lam_n) / (7.0 * lam_n + lam_k) for lam_k, lam_n in zip(tops, nexts)]
    log_ratios = list(map(math.log, ratios))
    log_2g = [math.log(2.0 * g_k) for g_k in growth]
    c_terms = [lam_k * err for lam_k, err in zip(tops, errs)]
    p_terms = [
        lam_k * (5.0 * err + 7.0 * c0 / gap_k * (lam_n / lam_k) ** t)
        for lam_k, lam_n, gap_k, err in zip(tops, nexts, gap, errs)
    ]

    # C_k, P_k, the agnostic admissibility and the running min of log r_k
    # over steps before k (inf at k = 1, which makes the step floor 0)
    c_limit = min_gap / 20.0
    cond_agnostic, agnostic, cond_step, power_iter = [], [], [], []
    c = p = 0.0
    admissible = True
    min_log_ratio = math.inf
    for lam_k, f_k, c_term, p_term, log_2g_k, log_ratio in zip(
        tops, factors, c_terms, p_terms, log_2g, log_ratios
    ):
        ok = c <= c_limit
        admissible = admissible and ok
        c = f_k * c + c_term
        cond_agnostic.append(ok)
        agnostic.append(5.0 * c / lam_k if admissible else None)
        floor = math.inf if min_log_ratio == 0.0 else log_2g_k / min_log_ratio
        cond_step.append(bool(t >= floor) and global_floor_ok)
        p = 8.0 * p + p_term
        power_iter.append(3.0 * p / lam_k)
        min_log_ratio = min(min_log_ratio, log_ratio)
    tail = 0.0  # R_K, from R_1 = 0 over k = 1..K-1
    for lam_k, gap_k, ratio in zip(tops[:K - 1], gap, ratios):
        tail = 8.0 * (tail + lam_k / gap_k * (1.0 / ratio) ** t)

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
        log_target = math.log(raw_c0 * K / (epsilon * min_gap))
        decay = step_decay[:K] + [0.0] * (K - len(step_decay))  # 0 at lambda_{k+1} = 0
        error_budget, iteration_budget = [], []
        for k, f_k, log_ratio, decay_k in zip(
            range(K, 0, -1), reversed(factors), reversed(log_ratios), reversed(decay)
        ):
            error_budget.append(head / suffix)
            suffix = f_k * suffix
            numerator = max(log_growth, (K - k) + log_target)
            main = math.inf if log_ratio == 0.0 else numerator / log_ratio
            iteration_budget.append(max(main, decay_k))
        error_budget.reverse()
        iteration_budget.reverse()
    return list(map(
        BoundRow._trusted, range(1, K + 1), agnostic, power_iter, empirical, cond_agnostic,
        cond_step, [tail_ok] * K, error_budget, iteration_budget,
    ))
