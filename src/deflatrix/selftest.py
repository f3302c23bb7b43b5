"""Randomized verification harness.

Shared engine behind the ``selftest`` CLI command and the acceptance test
suite: it generates randomized instances, runs the deflation pipeline, and
tallies every inequality and identity the package claims, as a three-way
count (holds / violated / skipped) per check. Every trial is decided by its
margins, each a bound plus slack minus the measured value (a tolerance
minus an error, for the closed forms): it holds iff every margin is >= 0.
A trial whose precondition fails is skipped, never counted as a pass. Each
run carries its reference spectrum, so its diagnostics, gaps and bound
report are read from the run alone. The trial families fix their own
dimensions and step counts; a caller sets only how many trials run and,
where the selftest and the acceptance suite differ, their dimensions and
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pool import pool_map
from .bounds import (
    BoundInputs,
    affine_recurrence_closed_form,
    build_bound_report,
    directional_gap_bound,
    eigengaps,
    eigvec_drift_bound,
    geometric_tail_bound,
    sum_recurrence_closed_form,
)
from .deflate import DeflationRun, run_inexact_deflation
from .diagnostics import (
    CHECK_SLACK,
    StepDiagnostics,
    _column_distances,
    alignment_lower_bound_check,
    bound_report,
    diagnose_run,
    eigvec_inner_identity_check,
    inputs_from_run,
    matrix_gap_recurrence_check,
)
from .errors import DegenerateGapError
from .linalg import (
    ExponentialSpectrum,
    PowerLawSpectrum,
    RandomSource,
    Spectrum,
    SymMatrix,
    build_test_sigma,
    jacobi_eigendecomposition,
    random_orthogonal_basis,
    sample_unit_sphere,
    spectral_norm,
)
from .powerit import pi_alignment_bound, pi_error_bound, power_iterate

__all__ = [
    "RunBundle",
    "Tally",
    "agnostic_soundness_trials",
    "budget_e2e_trials",
    "build_run_corpus",
    "inner_identity_trials",
    "iterate_convergence_trials",
    "make_instance",
    "perturbed_alignment_trials",
    "power_iter_soundness_trials",
    "recurrence_trials",
    "run_level_checks",
    "run_selftest",
]


@dataclass
class Tally:
    holds: int = 0
    violated: int = 0
    skipped: int = 0
    worst: float | None = None

    def skip(self) -> None:
        """A trial whose precondition failed."""
        self.skipped += 1

    def record_margins(self, margins) -> None:
        """A trial holds iff every margin is >= 0, so a NaN margin is a
        violation, and no margin at all holds. The row's worst is NaN once a
        margin is, and otherwise the minimum of every margin recorded."""
        margins = [float(m) for m in margins]
        if all(m >= 0 for m in margins):
            self.holds += 1
        else:
            self.violated += 1
        if self.worst is not None:
            margins.insert(0, self.worst)
        if margins:
            nans = [m for m in margins if m != m]
            self.worst = nans[0] if nans else min(margins)


def random_spectrum_kind(gen: np.random.Generator):
    """Strictly decaying spectrum with gaps wide enough for float64 budgets."""
    if gen.random() < 0.5:
        return PowerLawSpectrum(gamma=float(gen.uniform(0.7, 1.5)))
    return ExponentialSpectrum(rho=float(gen.uniform(0.5, 0.75)))


def make_instance(d: int, rng: RandomSource) -> tuple[SymMatrix, Spectrum]:
    """Random test matrix with a known spectrum and basis."""
    kind = random_spectrum_kind(rng.generator)
    basis = random_orthogonal_basis(d, rng)
    return build_test_sigma(d, kind, basis)


def _instances(n: int, rng: RandomSource, d: int):
    """Trial i's substream with the instance drawn on its substream 0."""
    for i in range(n):
        sub = rng.substream(i)
        yield sub, *make_instance(d, sub.substream(0))


def _symmetric_perturbation(rng: RandomSource, d: int, norm: float) -> np.ndarray:
    """Random symmetric d x d matrix scaled to spectral norm ``norm``."""
    g = rng.normal(d, d)
    h = (g + g.T) / 2.0  # bitwise symmetric, so SymMatrix keeps its bits
    h *= norm / max(spectral_norm(SymMatrix(h)), 1e-300)
    return h


@dataclass
class RunBundle:
    run: DeflationRun
    diags: list[StepDiagnostics]


def build_run_corpus(rng: RandomSource, dims, t_values, runs_per_cell: int = 1) -> list[RunBundle]:
    """Deflation runs across dimensions and step counts, with diagnostics."""
    corpus = []
    idx = 0
    for d in dims:
        for t in t_values:
            for _ in range(runs_per_cell):
                idx += 1
                sub = rng.substream(idx)
                sigma, spectrum = make_instance(d, sub.substream(0))
                k_hi = max(3, min(d - 2, 10))
                K = int(sub.substream(1).generator.integers(3, k_hi + 1))
                run = run_inexact_deflation(sigma, K, t, sub.substream(2), spectrum=spectrum)
                corpus.append(RunBundle(run=run, diags=diagnose_run(run)))
    return corpus


def _directional_sums(run: DeflationRun, basis: np.ndarray) -> list[list[float]]:
    """Right-hand sides of the directional-sum check: entry [k-1][j-1], for
    j >= k, is the sum over k' < k of lambda_k' |v_k' . u_j|.

    Each dot is taken once per run, and each row extends the previous one by
    the step-k term, so the terms are added in ascending k'.
    """
    sums = [[0.0] * run.d]
    for k in range(1, run.K):
        v_k = run.components[:, k - 1]
        row = sums[-1].copy()
        for j in range(k + 1, run.d + 1):
            row[j - 1] += run.top_eigenvalues[k - 1] * abs(float(v_k @ basis[:, j - 1]))
        sums.append(row)
    return sums


def run_level_checks(corpus: list[RunBundle]) -> dict[str, Tally]:
    """Every per-run inequality: eigenvalue shift, gap recurrence, eigenvector
    sensitivity, directional gap sums and bounds, alignment floor, drift
    bound."""
    tallies = {
        name: Tally()
        for name in (
            "eigenvalue_shift",
            "gap_recurrence",
            "eigvec_sensitivity",
            "directional_sum",
            "alignment_floor",
            "drift_bound",
            "directional_bound",
        )
    }
    for bundle in corpus:
        run, diags = bundle.run, bundle.diags
        lam = run.spectrum.eigenvalues
        gap = eigengaps(lam).tolist()
        inputs = inputs_from_run(run)
        basis = run.spectrum.basis
        rows = build_bound_report(inputs, gap, np.zeros(inputs.K))
        weighted = _directional_sums(run, basis)

        for margin in matrix_gap_recurrence_check(diags, lam):
            if margin is None:
                tallies["gap_recurrence"].skip()
            else:
                tallies["gap_recurrence"].record_margins([margin])

        for dg in diags:
            k = dg.k
            shift = abs(run.top_eigenvalues[k - 1] - float(lam[k - 1]))
            tallies["eigenvalue_shift"].record_margins([dg.matrix_gap_spec + CHECK_SLACK - shift])

            # the two-sided gap min_{j != k} |lambda_k - lambda_j|; every run has k < d
            dk_gap = min(gap[k - 2], gap[k - 1]) if k > 1 else gap[0]
            if dg.matrix_gap_fro <= dk_gap / 4.0:
                bound = 2.0 / dk_gap * dg.matrix_gap_fro
                tallies["eigvec_sensitivity"].record_margins([bound + CHECK_SLACK - dg.drift])
            else:
                tallies["eigvec_sensitivity"].skip()

            # directional gap of step k against every later ideal direction is
            # at most the alignment-weighted sum of earlier top eigenvalues
            tallies["directional_sum"].record_margins(
                float(weighted[k - 1][j - 1] + CHECK_SLACK - dg.directional_gaps[j - 1])
                for j in range(k, run.d + 1)
            )

            margin = alignment_lower_bound_check(
                dg.matrix_gap_fro, run.exact_tops[:, k - 1], run.spectrum, k
            )
            if margin is None:
                tallies["alignment_floor"].skip()
            else:
                tallies["alignment_floor"].record_margins([margin])

            fro_limit = min(gap[:k]) / 8.0
            fro_ok = all(diags[kp - 1].matrix_gap_fro <= fro_limit for kp in range(1, k))
            if fro_ok and rows[k - 1].condition_step_floor:
                bound = eigvec_drift_bound(inputs, k, dg.matrix_gap_spec)
                tallies["drift_bound"].record_margins([bound + CHECK_SLACK - dg.drift])
                lam_k = float(run.top_eigenvalues[k - 1])
                tallies["directional_bound"].record_margins(
                    directional_gap_bound(inputs, k, j, lam_k)
                    + CHECK_SLACK
                    - float(dg.directional_gaps[j - 1])
                    for j in range(k, run.d + 1)
                    if lam_k > lam[j - 1]
                )
            else:
                tallies["drift_bound"].skip()
                tallies["directional_bound"].skip()
    return tallies


def perturbed_alignment_trials(n: int, rng: RandomSource) -> Tally:
    """Alignment of the iterate with every off-target ideal eigenvector under
    a small symmetric perturbation of the iterated matrix, at d = 12 after
    t = 25 steps."""
    d, t = 12, 25
    tally = Tally()
    for sub, m_star, spectrum in _instances(n, rng, d):
        gap1 = float(spectrum.eigenvalues[0] - spectrum.eigenvalues[1])
        h = _symmetric_perturbation(sub.substream(1), d, 0.05 * gap1)
        m = SymMatrix(m_star.array + h)
        spec_m = jacobi_eigendecomposition(m)
        x0 = sample_unit_sphere(d, sub.substream(2))
        alignment = abs(float(x0 @ spec_m.eigenvector(0)))
        if alignment <= 1e-12:
            tally.skip()
            continue
        c0 = 1.0 / alignment
        sigma1 = float(spec_m.eigenvalues[0])
        x_t = power_iterate(m, x0, t)
        tally.record_margins(
            pi_alignment_bound(
                sigma_j, sigma1, float(np.linalg.norm(h @ spectrum.eigenvector(j))), c0, t
            )
            + CHECK_SLACK
            - abs(float(x_t @ spectrum.eigenvector(j)))
            for j, sigma_j in enumerate(spectrum.eigenvalues.tolist())
            if j > 0 and sigma1 > sigma_j
        )
    return tally


def inner_identity_trials(n: int, rng: RandomSource) -> Tally:
    """Exact eigenvector inner-product identity on random perturbed pairs at
    d = 10."""
    d = 10
    tally = Tally()
    for sub, sigma, _ in _instances(n, rng, d):
        m = SymMatrix(sigma.array + _symmetric_perturbation(sub.substream(1), d, 0.01))
        gen = sub.substream(2).generator
        i_idx = int(gen.integers(0, d))
        j_idx = int(gen.integers(0, d))
        try:
            _, _, rel_err = eigvec_inner_identity_check(m, sigma, i_idx, j_idx)
        except DegenerateGapError:
            tally.skip()
            continue
        tally.record_margins([1e-6 - rel_err])
    return tally


def iterate_convergence_trials(n: int, rng: RandomSource) -> Tally:
    """Sign-minimized distance of the iterate to the top eigenvector against
    its geometric guarantee at d = 10 after t = 1, 5, 20 and 100 steps, gated
    on initial alignment >= 1/sqrt(2)."""
    d = 10
    tally = Tally()
    for sub, sigma, spectrum in _instances(n, rng, d):
        a1 = spectrum.eigenvector(0)
        sigma1 = float(spectrum.eigenvalues[0])
        sigma2 = float(spectrum.eigenvalues[1])
        # bias the start vector toward the top eigenvector to satisfy the gate
        raw = sample_unit_sphere(d, sub.substream(1))
        x0 = a1 + 0.8 * raw
        x0 /= np.linalg.norm(x0)
        if abs(float(x0 @ a1)) < 1.0 / math.sqrt(2.0):
            tally.skip()
            continue
        for t in (1, 5, 20, 100):
            x_t = power_iterate(sigma, x0, t)
            # direct difference norms: the 2 - 2|dot| form loses half the
            # digits to cancellation once the iterate has converged
            dist = min(
                float(np.linalg.norm(x_t - a1)), float(np.linalg.norm(x_t + a1))
            )
            bound = pi_error_bound(sigma1, sigma2, t)
            tally.record_margins([bound + CHECK_SLACK - dist])
    return tally


def recurrence_trials(n: int, rng: RandomSource) -> dict[str, Tally]:
    """Closed forms against direct recursion / summation."""
    tallies = {
        "recurrence_sum_form": Tally(),
        "recurrence_affine_form": Tally(),
        "recurrence_geometric_tail": Tally(),
    }
    gen = rng.generator
    for _ in range(n):
        length = int(gen.integers(2, 31))
        a = gen.uniform(0.0, 2.0, length)
        b = gen.uniform(0.0, 2.0, length)
        closed = sum_recurrence_closed_form(a, b)
        # a running total adds in the same order as summing the prefix anew,
        # and unlike builtin sum() it is not compensated on Python 3.12+
        brute = [float(a[0])]
        total = brute[0]
        for k in range(1, length):
            brute.append(float(a[k] + b[k] * total))
            total += brute[-1]
        rel = max(
            abs(c - e) / max(abs(e), 1e-30) for c, e in zip(closed, brute)
        )
        tallies["recurrence_sum_form"].record_margins([1e-12 - rel])

        q1 = float(gen.uniform(0.0, 2.0))
        closed = affine_recurrence_closed_form(a, b, q1)
        brute = [q1]
        for k in range(length):
            brute.append(float(a[k]) * brute[-1] + float(b[k]))
        rel = max(abs(c - e) / max(abs(e), 1e-30) for c, e in zip(closed, brute))
        tallies["recurrence_affine_form"].record_margins([1e-12 - rel])

        k = int(gen.integers(2, 12))
        p = np.cumsum(gen.uniform(0.05, 1.0, k)) + gen.uniform(0.1, 1.0)
        g = float(gen.uniform(0.2, 5.0))
        floor = max(
            (math.log(g) / (math.log(p[i + 1]) - math.log(p[i])) for i in range(k - 1)),
            default=0.0,
        )
        t = max(1.0, floor) * float(gen.uniform(1.05, 3.0)) + 1.0
        direct = 0.0
        for i in range(1, k):
            direct += p[i - 1] ** t / g**i
        bound = geometric_tail_bound(p, g, t, k)
        tallies["recurrence_geometric_tail"].record_margins([bound * (1 + 1e-12) - direct])
    return tallies


def _budget_predicted_t(lambdas, budgets, c0_guess: float) -> int:
    t = 8
    d = lambdas.size
    for k, budget in enumerate(budgets, start=1):
        rate = float(lambdas[k]) / float(lambdas[k - 1]) if k < d else 0.0
        if rate <= 0.0 or budget <= 0:
            continue
        t = max(t, int(math.ceil(math.log(c0_guess / budget) / math.log(1.0 / rate))) + 2)
    return t


def _sum_condition_budgets(gaps: np.ndarray, lambdas, K: int) -> list[float]:
    # per-step error sizes sufficient for the agnostic admissibility condition
    head = float(gaps[:K].min()) / (20.0 * K)
    budgets = []
    for k in range(1, K + 1):
        prod = 1.0
        for j in range(k + 1, K):
            prod *= 3.0 + 2.0 * float(lambdas[j - 1]) / float(gaps[j - 1])
        budgets.append(head / prod)
    return budgets


def _soundness_trials(n: int, dims, rng: RandomSource, calibrate) -> Tally:
    """Draw loop of the calibrated soundness families: attempt i draws its
    instance on substream i at dimension dims[i % len(dims)] and K on its
    substream 1, and ``calibrate(sigma, spectrum, K, sub)`` runs it on
    substream 2, giving (measured error, bound) per step, or None for an
    instance that does not calibrate. At most 8n instances are drawn."""
    tally = Tally()
    attempt = 0
    dims = list(dims)
    while tally.holds + tally.violated < n and attempt < 8 * n:
        attempt += 1
        sub = rng.substream(attempt)
        d = dims[attempt % len(dims)]
        sigma, spectrum = make_instance(d, sub.substream(0))
        K = int(sub.substream(1).generator.integers(2, min(8, d // 2) + 1))
        checked = calibrate(sigma, spectrum, K, sub)
        if checked is not None:
            tally.record_margins(bound + CHECK_SLACK - err for err, bound in checked)
    return tally


def _agnostic_calibration(sigma: SymMatrix, spectrum: Spectrum, K: int, sub: RandomSource):
    gaps = eigengaps(spectrum.eigenvalues)
    budgets = _sum_condition_budgets(gaps, spectrum.eigenvalues, K)
    if min(budgets) < 1e-11:
        return None  # not satisfiable in float64; draw another instance
    t = _budget_predicted_t(spectrum.eigenvalues, budgets, 3.0 * math.sqrt(sigma.dim))
    while t <= 4096:
        rows = bound_report(run_inexact_deflation(sigma, K, t, sub.substream(2), spectrum=spectrum))
        if all(row.condition_agnostic for row in rows):
            return [(row.empirical, row.agnostic) for row in rows]
        t *= 2
    return None


def agnostic_soundness_trials(n: int, dims, rng: RandomSource) -> Tally:
    """Measured output error against the agnostic bound, on runs calibrated so
    the admissibility condition holds at every step (t doubles up to 4096)."""
    return _soundness_trials(n, dims, rng, _agnostic_calibration)


def _min_t_power_iter(gaps: np.ndarray, lambdas, K: int, c0: float) -> int:
    def conditions_at(t: int) -> bool:
        inputs = BoundInputs(
            lambdas=lambdas,
            sub_error_norms=np.zeros(K),
            init_constant=c0,
            t=t,
            K=K,
        )
        rows = build_bound_report(inputs, gaps, np.zeros(K))
        return all(row.condition_tail and row.condition_step_floor for row in rows)

    t = 8
    while t <= 1 << 20:
        if conditions_at(t):
            return t
        t *= 2
    raise RuntimeError("no admissible step count found")


def _power_iter_calibration(sigma: SymMatrix, spectrum: Spectrum, K: int, sub: RandomSource):
    gaps = eigengaps(spectrum.eigenvalues)
    c0 = 3.0 * math.sqrt(sigma.dim)
    for _ in range(4):
        t = _min_t_power_iter(gaps, spectrum.eigenvalues, K, c0)
        run = run_inexact_deflation(sigma, K, t, sub.substream(2), spectrum=spectrum)
        rows = bound_report(run)
        if all(row.condition_tail and row.condition_step_floor for row in rows):
            return [(row.empirical, row.power_iter) for row in rows]
        c0 = inputs_from_run(run).init_constant  # measured; recompute the floor with it
    return None


def power_iter_soundness_trials(n: int, dims, rng: RandomSource) -> Tally:
    """Measured output error against the power-iteration bound, on runs whose
    step count clears both admissibility conditions (with the run's own
    measured initialization constant)."""
    return _soundness_trials(n, dims, rng, _power_iter_calibration)


def budget_e2e_trials(
    n: int,
    rng: RandomSource,
    *,
    epsilons=(1e-2, 1e-3),
    d: int = 15,
    K: int = 4,
) -> Tally:
    """End-to-end budget check: calibrate the step count (doubling up to
    16384) until every measured sub-routine error fits its per-step budget,
    then demand epsilon-accurate output at every step."""
    tally = Tally()
    for sub, sigma, spectrum in _instances(n, rng, d):
        gaps = eigengaps(spectrum.eigenvalues)
        for eps in epsilons:
            proto = BoundInputs(
                lambdas=spectrum.eigenvalues,
                sub_error_norms=np.zeros(K),
                init_constant=3.0 * math.sqrt(d),
                t=1,
                K=K,
                epsilon=eps,
            )
            budgets = [row.error_budget for row in build_bound_report(proto, gaps, np.zeros(K))]
            if min(budgets) < 1e-11:
                tally.skip()
                continue
            t = _budget_predicted_t(spectrum.eigenvalues, budgets, 3.0 * math.sqrt(d))
            run = None
            while t <= 16384:
                candidate = run_inexact_deflation(
                    sigma, K, t, sub.substream(1), spectrum=spectrum
                )
                measured = _column_distances(candidate.components, candidate.exact_tops)
                if all(m <= b for m, b in zip(measured, budgets)):
                    run = candidate
                    break
                t *= 2
            if run is None:
                tally.skip()
                continue
            errors = _column_distances(run.components, spectrum.basis[:, :K])
            tally.record_margins(eps - e for e in errors)
    return tally


def _error(got: float | None, expected: float) -> float:
    return abs((math.nan if got is None else got) - expected)


def _formula_oracle_checks() -> dict[str, Tally]:
    """Frozen hand-computed values for the closed forms.

    Expected numbers were evaluated by hand, independent of the code paths
    under test; a mis-scaled implementation must fail here. A margin is the
    tolerance minus the error; it is NaN, so violated, where the engine
    returns no bound.
    """
    tallies = {
        "agnostic_formula_oracle": Tally(),
        "power_iter_formula_oracle": Tally(),
        "pi_formula_oracle": Tally(),
    }
    lam = np.array([1.0, 0.5])
    inputs = BoundInputs(
        lambdas=lam,
        sub_error_norms=np.array([0.01, 0.01]),
        init_constant=1.0,
        t=10,
        K=2,
    )
    got = build_bound_report(inputs, eigengaps(lam), np.zeros(2))[1].agnostic
    expected = 0.55  # 5*(2*0.01*(3+2*(1/2)/(1/2)) + 0.01*1)
    tallies["agnostic_formula_oracle"].record_margins([1e-12 - _error(got, expected)])

    lam3 = np.array([1.0, 0.5, 1.0 / 3.0])
    inputs3 = BoundInputs(
        lambdas=lam3,
        sub_error_norms=np.array([1e-6, 1e-6]),
        init_constant=2.0,
        t=20,
        K=2,
    )
    got = build_bound_report(inputs3, eigengaps(lam3), np.zeros(2))[1].power_iter
    expected = 3.0 * (
        8.0 * 2.0 * (5e-6 + 7.0 * 2.0 / 0.5 * 0.5**20)
        + (5e-6 + 7.0 * 2.0 / (1.0 / 6.0) * (2.0 / 3.0) ** 20)
    )
    tallies["power_iter_formula_oracle"].record_margins(
        [1e-12 * expected - _error(got, expected)]
    )

    tallies["pi_formula_oracle"].record_margins(
        [
            1e-15 - _error(pi_error_bound(1.0, 0.5, 10), math.sqrt(2.0) * 2.0**-10),
            1e-15 - _error(pi_alignment_bound(0.5, 1.0, 0.1, 1.0, 4), 0.2625),
        ]
    )
    return tallies


# The selftest's units in report order; unit i draws only from substream
# i + 1 of the seed and returns its rows. The first is the longest, so
# handing them out in this order keeps the last worker from finishing alone
# on it.
_UNITS = (
    lambda rng: run_level_checks(
        build_run_corpus(rng, dims=(8, 12, 16, 20), t_values=(3, 10, 50, 150))
    ),
    lambda rng: {"perturbed_alignment": perturbed_alignment_trials(30, rng)},
    lambda rng: {"inner_identity": inner_identity_trials(40, rng)},
    lambda rng: {"iterate_convergence": iterate_convergence_trials(30, rng)},
    lambda rng: recurrence_trials(200, rng),
    lambda rng: {"agnostic_soundness": agnostic_soundness_trials(10, (8, 12), rng)},
    lambda rng: {"power_iter_soundness": power_iter_soundness_trials(8, (8, 12), rng)},
    lambda rng: {"budget_e2e": budget_e2e_trials(4, rng, epsilons=(1e-2,), d=10, K=3)},
    lambda rng: _formula_oracle_checks(),
)


def _run_unit(root: RandomSource, index: int) -> dict[str, Tally]:
    return _UNITS[index](root.substream(index + 1))


def run_selftest(seed: int = 0) -> dict[str, Tally]:
    """Reduced-scale verification pass (dimensions <= 20, well under a minute).

    The pass is nine units that share nothing: each draws only from its own
    substream of ``seed``. They run in up to one worker process per usable
    CPU (``_pool.pool_map``), handed out in report order, whose first unit
    is the longest, or in this process where one CPU is usable; the report
    has the same rows, in the same order, with the same bits, either way.
    The seed is checked here before any worker starts. A worker that dies
    raises :class:`ChildProcessError`; an error a unit raises in a worker is
    raised here.

    Work is shared wherever the values allow it bit for bit: the recurrence
    rows run the O(n^2) closed forms, each calibrated soundness run reads its
    flags and bounds from one :func:`bound_report` (the rows ``bounds.csv``
    writes), and the directional-sum row takes each dot once per run.
    """
    root = RandomSource(seed)  # rejects a seed outside [0, 2**64)
    # every unit draws from numpy's generators, which numpy imports on first
    # use; importing them here, once per process, spares each worker the import
    import numpy.random  # noqa: F401

    report: dict[str, Tally] = {}
    for rows in pool_map(_run_unit, [(i,) for i in range(len(_UNITS))], shared=(root,)):
        report.update(rows)
    return report
