"""Closed-form error bounds, admissibility conditions, and budgets.

Two bound families are evaluated side by side:

* the *agnostic* family, which knows the sub-routine only through the size of
  its per-step error, and
* the *power-iteration* family, which additionally exploits the direction of
  that error (its component along later eigenvectors decays geometrically).

Every function here is a pure formula over a :class:`BoundInputs` bundle; all
step indices are 1-based to match the recurrences being evaluated. Functions
gated by admissibility conditions return ``None`` when the conditions fail,
so callers can distinguish a vacuous bound from a violated one. Iteration
budgets evaluate asymptotic prescriptions with their leading constant fixed
to 1; treat them as order-of-magnitude predictors, not thresholds.

Both families are sums over earlier steps of amplified errors, so one pass
over k = 1..K evaluates them as first-order linear recurrences in plain
float64, where a bound too large to represent saturates to +inf instead of
raising. With f_j = 3 + 2 lambda_j / T_j and delta_k the k-th sub-routine
error:

* C_1 = 0, C_{k+1} = f_k C_k + lambda_k delta_k; the agnostic condition at k
  is C_k <= min_gap / 20 and the agnostic bound is 5 C_{k+1} / lambda_k;
* P_0 = 0, P_k = 8 P_{k-1} + lambda_k (5 delta_k + 7 c0 / T_k
  (lambda_{k+1} / lambda_k)^t); the power-iteration bound is 3 P_k / lambda_k;
* the step floor divides by a running min of log r_k (contraction ratio r_k);
  the tail is R_K with R_1 = 0, R_{k+1} = 8 (R_k + lambda_k r_k^-t / T_k);
* the error budget divides by the suffix product of f_{k+1}..f_K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpectrumError

__all__ = [
    "BoundInputs",
    "BoundRow",
    "SpectrumGaps",
    "affine_recurrence_closed_form",
    "agnostic_bound",
    "agnostic_bound_condition",
    "build_bound_report",
    "directional_gap_bound",
    "eigengaps",
    "eigvec_drift_bound",
    "geometric_tail_bound",
    "linear_rate_iteration_budget",
    "per_step_error_budget",
    "power_iter_bound",
    "power_iter_bound_conditions",
    "power_iter_iteration_budget",
    "sum_recurrence_closed_form",
]


@dataclass(frozen=True)
class SpectrumGaps:
    """Consecutive eigengaps of a strictly decreasing positive spectrum.

    ``gaps[j-1]`` is lambda_j - lambda_{j+1} for j < d and lambda_d for j = d
    (the distance to zero closes the list).
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
    if lam[-1] <= 0 or np.any(np.diff(lam) >= 0):
        raise InvalidSpectrumError("eigenvalues must be strictly decreasing and positive")
    gaps = np.empty_like(lam)
    gaps[:-1] = lam[:-1] - lam[1:]
    gaps[-1] = lam[-1]
    return SpectrumGaps(lambdas=lam.copy(), gaps=gaps)


def _lam_next(lam: np.ndarray, k: int) -> float:
    """lambda_{k+1} with the convention that it is 0 past the end."""
    return float(lam[k]) if k < lam.size else 0.0


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formulas consume.

    ``sub_error_norms[k-1]`` is the measured per-step sub-routine error size;
    ``init_constant`` is the reciprocal of the worst initial alignment across
    steps (>= 1 since alignments cannot exceed 1); ``rates`` optionally holds
    per-step linear convergence rates for the generic iteration budget.
    """

    lambdas: np.ndarray
    sub_error_norms: np.ndarray
    init_constant: float
    t: int
    K: int
    epsilon: float | None = None
    rates: np.ndarray | None = None
    growth_constant: float = field(init=False)

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
        if self.rates is not None:
            rates = np.asarray(self.rates, dtype=float)
            if rates.size < self.K:
                raise ValueError("need a convergence rate for every step up to K")
            object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "growth_constant", self._growth_constant())

    def _growth_constant(self) -> float:
        return max(self.step_growth_constant(k) for k in range(1, self.K + 1))

    def step_growth_constant(self, k: int) -> float:
        """1 + c0 * lambda_k lambda_{k+1} / (lambda_k - lambda_{k+1})."""
        lam_k = float(self.lambdas[k - 1])
        lam_n = _lam_next(self.lambdas, k)
        if lam_n == 0.0:
            return 1.0
        return 1.0 + self.init_constant * lam_k * lam_n / (lam_k - lam_n)


@dataclass(frozen=True)
class _BoundPass:
    """Per-step results of one pass over k = 1..K, indexed by k-1."""

    cond_agnostic: list[bool]
    agnostic: list[float | None]
    cond_step_floor: list[bool]
    cond_tail: bool
    power_iter: list[float | None]
    suffix_factors: list[float]  # prod over j in [k+1, K] of f_j


def _bound_pass(inputs: BoundInputs, gaps: SpectrumGaps) -> _BoundPass:
    """Run the recurrences of both families once, in float64 (see module
    docstring); an overflowing product saturates to +inf."""
    lam = inputs.lambdas
    K, t, c0 = inputs.K, inputs.t, float(inputs.init_constant)
    min_gap = gaps.min_gap(K)
    decay_floor = 0.0
    for j in range(1, lam.size):
        decay_floor = max(decay_floor, 1.0 / (math.log(lam[j - 1]) - math.log(lam[j])))
    global_floor_ok = t >= decay_floor
    factors = [3.0 + 2.0 * float(lam[j - 1]) / gaps.gap(j) for j in range(1, K + 1)]

    cond_agnostic, agnostic, cond_step, power_iter = [], [], [], []
    c = p = tail = 0.0
    admissible = True
    min_log_ratio = math.inf  # over steps before k; makes the floor 0 at k = 1
    for k in range(1, K + 1):
        lam_k = float(lam[k - 1])
        err = float(inputs.sub_error_norms[k - 1])
        ok = c <= min_gap / 20.0
        admissible = admissible and ok
        c = factors[k - 1] * c + lam_k * err
        cond_agnostic.append(ok)
        agnostic.append(5.0 * c / lam_k if admissible else None)

        floor = math.log(2.0 * inputs.step_growth_constant(k)) / min_log_ratio
        cond_step.append(bool(t >= floor) and global_floor_ok)
        leak = 7.0 * c0 / gaps.gap(k) * (_lam_next(lam, k) / lam_k) ** t
        p = 8.0 * p + lam_k * (5.0 * err + leak)
        power_iter.append(3.0 * p / lam_k)
        if k < K:
            ratio = _contraction_ratio(lam, k)
            tail = 8.0 * (tail + lam_k / gaps.gap(k) * (1.0 / ratio) ** t)
            min_log_ratio = min(min_log_ratio, math.log(ratio))

    tail_ok = bool(tail <= min_gap / (140.0 * c0))
    if not (tail_ok and all(cond_step)):
        power_iter = [None] * K
    suffix = [1.0] * K
    for k in range(K - 1, 0, -1):
        suffix[k - 1] = factors[k] * suffix[k]
    return _BoundPass(cond_agnostic, agnostic, cond_step, tail_ok, power_iter, suffix)


def _step_index(inputs: BoundInputs, k: int) -> int:
    if not 1 <= k <= inputs.K:
        raise ValueError(f"k must lie in [1, {inputs.K}]")
    return k - 1


def agnostic_bound_condition(inputs: BoundInputs, gaps: SpectrumGaps, k: int) -> bool:
    """Admissibility of the agnostic bound at step k: the weighted, growth-
    amplified sum of earlier sub-routine errors must stay below a twentieth
    of the smallest relevant eigengap."""
    return _bound_pass(inputs, gaps).cond_agnostic[_step_index(inputs, k)]


def agnostic_bound(inputs: BoundInputs, gaps: SpectrumGaps, k: int) -> float | None:
    """Sub-routine-agnostic bound on ||v_k - ideal eigenvector k||.

    Returns None when the admissibility condition fails for any step up to k.
    """
    return _bound_pass(inputs, gaps).agnostic[_step_index(inputs, k)]


def _budget_head(epsilon: float, inputs: BoundInputs, gaps: SpectrumGaps) -> float:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    K = inputs.K
    return min(epsilon * float(inputs.lambdas[K - 1]), gaps.min_gap(K)) / (20.0 * K)


def per_step_error_budget(
    epsilon: float, inputs: BoundInputs, gaps: SpectrumGaps, k: int
) -> float:
    """Sub-routine error size at step k sufficient for epsilon-accurate output
    at every step up to K (the converse of the agnostic bound)."""
    head = _budget_head(epsilon, inputs, gaps)
    return head / _bound_pass(inputs, gaps).suffix_factors[_step_index(inputs, k)]


def linear_rate_iteration_budget(inputs: BoundInputs, gaps: SpectrumGaps, k: int) -> float:
    """Step count that a linearly converging sub-routine (rate alpha_k) needs
    to satisfy the per-step budget; leading constant fixed to 1."""
    if inputs.rates is None:
        raise ValueError("per-step convergence rates are required")
    if inputs.epsilon is None:
        raise ValueError("a target accuracy is required")
    alpha = float(inputs.rates[k - 1])
    if not 0.0 < alpha < 1.0:
        raise ValueError("convergence rate must lie in (0, 1)")
    K = inputs.K
    lam = inputs.lambdas
    head = min(inputs.epsilon * float(lam[k - 1]), gaps.min_gap(K))
    log_sum = sum(
        math.log(float(lam[j - 1]) / gaps.gap(j) + 1.0) for j in range(k + 1, K + 1)
    )
    return (math.log(inputs.init_constant * K / head) + log_sum) / math.log(1.0 / alpha)


def _contraction_ratio(lam: np.ndarray, k: int) -> float:
    """(7 lambda_k + lambda_{k+1}) / (7 lambda_{k+1} + lambda_k): the
    guaranteed per-step shrink factor of the power-iteration family."""
    lam_k = float(lam[k - 1])
    lam_n = _lam_next(lam, k)
    return (7.0 * lam_k + lam_n) / (7.0 * lam_n + lam_k)


def power_iter_bound_conditions(
    inputs: BoundInputs, gaps: SpectrumGaps
) -> tuple[list[bool], bool]:
    """Admissibility of the power-iteration bound.

    Returns (per-step flags, global flag). The per-step flag for k demands
    the step count clear both floors: log(2 G_k) over the contraction log for
    every earlier step, and the global spectral-decay floor 1/(log lambda_j -
    log lambda_{j+1}) over the whole spectrum. The global flag checks that
    the growth-weighted geometric tail stays below min_gap/(140 c0).
    """
    run = _bound_pass(inputs, gaps)
    return run.cond_step_floor, run.cond_tail


def power_iter_bound(inputs: BoundInputs, gaps: SpectrumGaps, k: int) -> float | None:
    """Power-iteration-specific bound on ||v_k - ideal eigenvector k||.

    Each summand combines the measured sub-routine error with the guaranteed
    geometric leakage of the start-vector alignment; the 8**(k-k') factor
    replaces the near-factorial growth of the agnostic family. Returns None
    unless every admissibility condition holds.
    """
    return _bound_pass(inputs, gaps).power_iter[_step_index(inputs, k)]


def power_iter_iteration_budget(inputs: BoundInputs, gaps: SpectrumGaps, k: int) -> float:
    """Step count sufficient for the power-iteration family at step k;
    leading constant fixed to 1, both admissibility floors folded in."""
    if inputs.epsilon is None:
        raise ValueError("a target accuracy is required")
    lam = inputs.lambdas
    K = inputs.K
    c0 = inputs.init_constant
    numerator = max(
        math.log(inputs.growth_constant) if inputs.growth_constant > 1 else 0.0,
        (K - k) + math.log(c0 * K / (inputs.epsilon * gaps.min_gap(K))),
    )
    main = numerator / math.log(_contraction_ratio(lam, k))
    lam_k = float(lam[k - 1])
    lam_n = _lam_next(lam, k)
    decay = 0.0 if lam_n == 0.0 else 1.0 / (math.log(lam_k) - math.log(lam_n))
    return max(main, decay)


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
    lam_j = float(inputs.lambdas[j - 1])
    if lambda_k <= lam_j:
        raise InvalidSpectrumError("need the running top eigenvalue above lambda_j")
    g_k = inputs.step_growth_constant(k)
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
    lam = inputs.lambdas
    lam_k = float(lam[k - 1])
    t = inputs.t
    d = lam.size
    tail = sum((float(lam[j - 1]) / lam_k) ** (2 * t) for j in range(k + 1, d + 1))
    value = (
        4.8 / lam_k * matrix_gap_spec**2
        + 11.0 * inputs.init_constant**2 / (2.0 * gaps.gap(k) ** 2) * tail
    )
    return math.sqrt(value)


def sum_recurrence_closed_form(a, b) -> list[float]:
    """Closed form of Q_k = a_k + b_k * sum_{k'<k} Q_{k'} (Q_1 = a_1).

    Returns [Q_1, ..., Q_n] for the given coefficient lists.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b):
        raise ValueError("coefficient lists must have equal length")
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise ValueError("coefficients must be non-negative")
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


def affine_recurrence_closed_form(a, b, q1: float) -> list[float]:
    """Closed form of Q_{k+1} = a_k Q_k + b_k with Q_1 = q1.

    Returns [Q_1, ..., Q_{n+1}] for coefficient lists of length n.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b):
        raise ValueError("coefficient lists must have equal length")
    if any(x < 0 for x in a) or any(x < 0 for x in b) or q1 < 0:
        raise ValueError("coefficients must be non-negative")
    coeffs = [float(q1)] + b  # b_0 := Q_1
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
    """One step of the side-by-side bound report."""

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
    """Evaluate both bound families against measured per-step errors."""
    empirical = np.asarray(empirical_errors, dtype=float)
    if empirical.size < inputs.K:
        raise ValueError("need an empirical error for every step up to K")
    run = _bound_pass(inputs, gaps)
    head = None if inputs.epsilon is None else _budget_head(inputs.epsilon, inputs, gaps)
    rows = []
    for k in range(1, inputs.K + 1):
        budget = it_budget = None
        if head is not None:
            budget = head / run.suffix_factors[k - 1]
            it_budget = power_iter_iteration_budget(inputs, gaps, k)
        rows.append(
            BoundRow(
                k=k,
                agnostic=run.agnostic[k - 1],
                power_iter=run.power_iter[k - 1],
                empirical=float(empirical[k - 1]),
                condition_agnostic=run.cond_agnostic[k - 1],
                condition_step_floor=run.cond_step_floor[k - 1],
                condition_tail=run.cond_tail,
                error_budget=budget,
                iteration_budget=it_budget,
            )
        )
    return rows
