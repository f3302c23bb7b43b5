"""The selftest harness's shared-work shortcuts against the loops they replace."""

import ast
import dataclasses
import importlib
import itertools
import math
import pkgutil

import numpy as np
import pytest

import deflatrix
from deflatrix import selftest
from deflatrix.bounds import (
    build_bound_report,
    directional_gap_bound,
    eigengaps,
    eigvec_drift_bound,
)
from deflatrix.diagnostics import CHECK_SLACK, inputs_from_run
from deflatrix.linalg import RandomSource
from deflatrix.selftest import (
    Tally,
    _directional_sums,
    build_run_corpus,
    run_level_checks,
    run_selftest,
)


@pytest.fixture(scope="module")
def corpus():
    return build_run_corpus(RandomSource(11), dims=(8, 12, 16), t_values=(3, 50))


def _ref_sums(run, basis, k):
    # the directional-sum row's original loop: every dot taken again for each
    # later step, summed in ascending k' (the order of the builtin sum() it
    # used), for each direction j >= k
    sums = []
    for j in range(k, run.d + 1):
        acc = 0
        for kp in range(1, k):
            acc += run.top_eigenvalues[kp - 1] * abs(
                float(run.components[:, kp - 1] @ basis[:, j - 1])
            )
        sums.append(acc)
    return sums


def _ref_verdicts(corpus):
    holds = violated = 0
    for bundle in corpus:
        run, basis = bundle.run, bundle.run.spectrum.basis
        for dg in bundle.diags:
            sums = _ref_sums(run, basis, dg.k)
            ok = True
            for j, acc in zip(range(dg.k, run.d + 1), sums):
                if dg.directional_gaps[j - 1] > acc + CHECK_SLACK:
                    ok = False
                    break
            holds += ok
            violated += not ok
    return holds, violated


def test_directional_sums_match_reference_bitwise(corpus):
    for bundle in corpus:
        run, basis = bundle.run, bundle.run.spectrum.basis
        got = _directional_sums(run, basis)
        assert len(got) == run.K
        for k in range(1, run.K + 1):
            assert got[k - 1][k - 1 :] == _ref_sums(run, basis, k)


@pytest.mark.parametrize("inflate", [1.0, 1e3])
def test_directional_sum_verdicts_match_reference(corpus, inflate):
    # inflating the measured gaps makes later steps violate, so both verdicts
    # are compared, not only the passing one
    runs = [
        dataclasses.replace(
            bundle,
            diags=[
                dataclasses.replace(dg, directional_gaps=dg.directional_gaps * inflate)
                for dg in bundle.diags
            ],
        )
        for bundle in corpus
    ]
    holds, violated = _ref_verdicts(runs)
    tally = run_level_checks(runs)["directional_sum"]
    assert (tally.holds, tally.violated, tally.skipped) == (holds, violated, 0)
    if inflate > 1.0:
        assert holds and violated


MARGIN_ROWS = (
    "eigenvalue_shift",
    "eigvec_sensitivity",
    "directional_sum",
    "drift_bound",
    "directional_bound",
)


def _ref_margin_rows(corpus):
    # the margin rows of run_level_checks with each comparison stated twice,
    # once for the verdict and once for the margin; a row is
    # [holds, violated, skipped, worst]
    ref = {name: [0, 0, 0, None] for name in MARGIN_ROWS}

    def record(name, ok, margin):
        row = ref[name]
        row[0 if ok else 1] += 1
        if margin is not None and (row[3] is None or margin < row[3]):
            row[3] = margin

    for bundle in corpus:
        run, diags = bundle.run, bundle.diags
        lam = run.spectrum.eigenvalues
        gap = eigengaps(lam).tolist()
        inputs = inputs_from_run(run)
        rows = build_bound_report(inputs, gap, np.zeros(inputs.K))
        weighted = _directional_sums(run, run.spectrum.basis)
        for dg in diags:
            k = dg.k
            shift = abs(run.top_eigenvalues[k - 1] - float(lam[k - 1]))
            record(
                "eigenvalue_shift",
                shift <= dg.matrix_gap_spec + CHECK_SLACK,
                dg.matrix_gap_spec + CHECK_SLACK - shift,
            )
            dk_gap = min(gap[k - 2], gap[k - 1]) if k > 1 else gap[0]
            if dg.matrix_gap_fro <= dk_gap / 4.0:
                bound = 2.0 / dk_gap * dg.matrix_gap_fro
                record(
                    "eigvec_sensitivity",
                    dg.drift <= bound + CHECK_SLACK,
                    bound + CHECK_SLACK - dg.drift,
                )
            else:
                ref["eigvec_sensitivity"][2] += 1
            js = range(k, run.d + 1)
            sums, gaps = weighted[k - 1], dg.directional_gaps
            record(
                "directional_sum",
                not any(gaps[j - 1] > sums[j - 1] + CHECK_SLACK for j in js),
                min(float(sums[j - 1] + CHECK_SLACK - gaps[j - 1]) for j in js),
            )
            fro_limit = min(gap[:k]) / 8.0
            fro_ok = all(diags[kp - 1].matrix_gap_fro <= fro_limit for kp in range(1, k))
            if fro_ok and rows[k - 1].condition_step_floor:
                bound = eigvec_drift_bound(inputs, k, dg.matrix_gap_spec)
                record(
                    "drift_bound", dg.drift <= bound + CHECK_SLACK, bound + CHECK_SLACK - dg.drift
                )
                lam_k = float(run.top_eigenvalues[k - 1])
                checked = [
                    (float(dg.directional_gaps[j - 1]), directional_gap_bound(inputs, k, j, lam_k))
                    for j in js
                    if lam_k > lam[j - 1]
                ]
                record(
                    "directional_bound",
                    not any(g > b + CHECK_SLACK for g, b in checked),
                    min((b + CHECK_SLACK - g for g, b in checked), default=None),
                )
            else:
                ref["drift_bound"][2] += 1
                ref["directional_bound"][2] += 1
    return {name: tuple(row) for name, row in ref.items()}


def _scaled(corpus, drift, gaps, spec):
    # measured values up and the spectral matrix gap, a bound input, down
    return [
        dataclasses.replace(
            bundle,
            diags=[
                dataclasses.replace(
                    dg,
                    drift=dg.drift * drift,
                    directional_gaps=dg.directional_gaps * gaps,
                    matrix_gap_spec=dg.matrix_gap_spec / spec,
                )
                for dg in bundle.diags
            ],
        )
        for bundle in corpus
    ]


@pytest.mark.parametrize("drift, gaps, spec", [(1.0, 1.0, 1.0), (1e3, 1e6, 1e3)])
def test_margin_rows_match_two_expression_reference(corpus, drift, gaps, spec):
    # scaled, every margin row has both verdicts, so the margin rule is
    # compared on violated rows as well as on passing ones
    runs = _scaled(corpus, drift, gaps, spec)
    ref = _ref_margin_rows(runs)
    tallies = run_level_checks(runs)
    for name in MARGIN_ROWS:
        tally = tallies[name]
        assert (tally.holds, tally.violated, tally.skipped, tally.worst) == ref[name], name
        if drift > 1.0:
            assert tally.holds and tally.violated, name


def test_nan_margin_counts_as_violated(corpus):
    # the step-1 directional gap along u_1 is NaN: the two-expression form
    # read `nan > bound` as false and passed the step, the margin rule fails it
    bundle = corpus[0]
    gaps = bundle.diags[0].directional_gaps.copy()
    gaps[0] = math.nan
    first = dataclasses.replace(bundle.diags[0], directional_gaps=gaps)
    poisoned = dataclasses.replace(bundle, diags=[first, *bundle.diags[1:]])
    clean = run_level_checks([bundle])["directional_sum"]
    got = run_level_checks([poisoned])["directional_sum"]
    assert (got.holds, got.violated) == (clean.holds - 1, clean.violated + 1)
    assert _ref_margin_rows([poisoned])["directional_sum"][:2] == (clean.holds, clean.violated)


@pytest.mark.parametrize("trials", ["agnostic_soundness", "power_iter_soundness"])
def test_nan_soundness_bound_counts_as_violated(monkeypatch, trials):
    # `err > nan` is false, so a NaN bound once passed every trial
    real = selftest.bound_report

    def nan_bounds(run):
        return [dataclasses.replace(row, agnostic=math.nan, power_iter=math.nan)
                for row in real(run)]

    monkeypatch.setattr(selftest, "bound_report", nan_bounds)
    tally = getattr(selftest, f"{trials}_trials")(3, (8, 12), RandomSource(0))
    assert (tally.holds, tally.violated) == (0, 3)


def test_formula_oracle_without_a_bound_counts_as_violated(monkeypatch):
    # an engine that returns no bound has NaN margins, not passing ones
    real = selftest.build_bound_report
    monkeypatch.setattr(
        selftest,
        "build_bound_report",
        lambda *args: [
            dataclasses.replace(row, agnostic=None, power_iter=None) for row in real(*args)
        ],
    )
    tallies = selftest._formula_oracle_checks()
    for name in ("agnostic_formula_oracle", "power_iter_formula_oracle"):
        tally = tallies[name]
        assert (tally.holds, tally.violated, tally.skipped) == (0, 1, 0), name
        assert math.isnan(tally.worst), name
    assert _counts(tallies["pi_formula_oracle"]) == (1, 0, 0)


def test_nan_alignment_bound_counts_as_violated(monkeypatch):
    monkeypatch.setattr(selftest, "pi_alignment_bound", lambda *args: math.nan)
    tally = selftest.perturbed_alignment_trials(5, RandomSource(0))
    assert (tally.holds, tally.violated + tally.skipped) == (0, 5)
    assert tally.violated > 0


@pytest.mark.parametrize(
    "margins, worst",
    [([math.nan, 1.0, -1.0], math.nan), ([1.0, math.nan], math.nan), ([2.0, -1.0, 0.5], -1.0)],
)
def test_worst_margin_does_not_depend_on_order(margins, worst):
    # a NaN margin is the worst however it is recorded; otherwise the minimum
    for order in itertools.permutations(margins):
        rows, single = Tally(), Tally()
        single.record_margins(order)
        for margin in order:
            rows.record_margins([margin])
        for tally in (rows, single):
            assert repr(tally.worst) == repr(worst), order
        assert rows.violated == sum(not margin >= 0 for margin in margins)
        assert single.violated == 1 - all(margin >= 0 for margin in margins)


def test_skip_and_empty_trials_leave_the_worst_margin():
    # a skipped trial has no margin, and a trial with none holds vacuously
    tally = Tally()
    tally.skip()
    tally.record_margins([])
    assert (tally.holds, tally.violated, tally.skipped, tally.worst) == (1, 0, 1, None)
    tally.record_margins([np.float64(0.5), 2])
    tally.skip()
    tally.record_margins([])
    assert (tally.holds, tally.violated, tally.skipped, tally.worst) == (3, 0, 2, 0.5)
    assert type(tally.worst) is float


@pytest.mark.parametrize("seed", [0, 1])
def test_every_decided_row_has_a_float_worst_margin(seed):
    # every row is decided by its margins, so a row with a decided trial has
    # a worst margin, a Python float whatever type its margins had
    for name, tally in run_selftest(seed).items():
        decided = tally.holds + tally.violated
        assert decided > 0, name
        assert type(tally.worst) is float, name


@pytest.mark.parametrize(
    "module",
    ["deflatrix", *sorted(m.name for m in pkgutil.iter_modules(deflatrix.__path__, "deflatrix."))],
)
def test_no_builtin_sum(module):
    # builtin sum() of floats is compensated from Python 3.12 on; the
    # explicit ascending loops keep every value the same on any version
    with open(importlib.import_module(module).__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []


# The skip and give-up branches, reached by patching a calibration input. A
# skip is counted only where the family's precondition fails; a soundness
# instance that does not calibrate is dropped, so its row counts nothing.


def _counts(tally):
    return tally.holds, tally.violated, tally.skipped


def test_orthogonal_start_is_a_perturbed_alignment_skip(monkeypatch):
    # the start vector is the iterated matrix's second eigenvector, so it has
    # no alignment with the first
    real = selftest.jacobi_eigendecomposition
    spectra = []

    def recording(m):
        spectra.append(real(m))
        return spectra[-1]

    monkeypatch.setattr(selftest, "jacobi_eigendecomposition", recording)
    monkeypatch.setattr(selftest, "sample_unit_sphere", lambda d, rng: spectra[-1].eigenvector(1))
    assert _counts(selftest.perturbed_alignment_trials(4, RandomSource(0))) == (0, 0, 4)


def test_degenerate_pair_is_an_inner_identity_skip(monkeypatch):
    # the identity divides by sigma_i - sigma_j*, which is zero for an
    # eigenvalue paired with itself
    real = selftest.eigvec_inner_identity_check
    monkeypatch.setattr(
        selftest, "eigvec_inner_identity_check", lambda m, m_star, i, j: real(m_star, m_star, j, j)
    )
    assert _counts(selftest.inner_identity_trials(4, RandomSource(0))) == (0, 0, 4)


def test_budget_predicted_t_passes_over_steps_without_a_rate():
    # ceil(log(1 / 1e-3) / log 2) + 2 = 12 from step 1; the last step has no
    # next eigenvalue, so no rate, and a zero budget has no step count
    half = np.array([1.0, 0.5])
    assert selftest._budget_predicted_t(half, [1e-3], 1.0) == 12
    assert selftest._budget_predicted_t(half, [1e-3, 1e-3], 1.0) == 12
    assert selftest._budget_predicted_t(np.array([1.0, 0.5, 0.25]), [1e-3, 0.0], 1.0) == 12
    assert selftest._budget_predicted_t(np.array([1.0]), [1e-3], 1.0) == 8


def _recording_runs(monkeypatch, steps):
    real = selftest.run_inexact_deflation

    def recording(sigma, K, t, rng, **kwargs):
        steps.append(t)
        return real(sigma, K, t, rng, **kwargs)

    monkeypatch.setattr(selftest, "run_inexact_deflation", recording)


def _failing(monkeypatch, condition):
    real = selftest.bound_report
    monkeypatch.setattr(
        selftest,
        "bound_report",
        lambda run, epsilon=None: [
            dataclasses.replace(row, **{condition: False}) for row in real(run, epsilon)
        ],
    )


def test_agnostic_calibration_gives_up_past_4096_steps(monkeypatch):
    steps = []
    _recording_runs(monkeypatch, steps)
    _failing(monkeypatch, "condition_agnostic")
    monkeypatch.setattr(selftest, "_budget_predicted_t", lambda *args: 2048)
    assert selftest.agnostic_soundness_trials(1, (6,), RandomSource(0)) == Tally()
    # eight instances drawn, each run at 2048 and 4096 steps and then dropped
    assert steps == [2048, 4096] * 8


def test_min_t_power_iter_raises_when_no_step_count_is_admissible(monkeypatch):
    real = selftest.build_bound_report
    monkeypatch.setattr(
        selftest,
        "build_bound_report",
        lambda *args: [dataclasses.replace(row, condition_tail=False) for row in real(*args)],
    )
    lam = np.array([1.0, 0.5, 0.25])
    with pytest.raises(RuntimeError) as err:
        selftest._min_t_power_iter(eigengaps(lam), lam, 2, 1.0)
    assert err.type is RuntimeError
    assert str(err.value) == "no admissible step count found"


def test_power_iter_calibration_gives_up_after_four_runs(monkeypatch):
    constants = []

    def min_t(gaps, lambdas, K, c0):
        constants.append(c0)
        return 8

    monkeypatch.setattr(selftest, "_min_t_power_iter", min_t)
    _failing(monkeypatch, "condition_tail")
    assert selftest.power_iter_soundness_trials(1, (6,), RandomSource(0)) == Tally()
    # eight instances drawn; each starts from 3 sqrt(d) and then reads the
    # run's measured constant three times
    assert len(constants) == 32
    assert constants[::4] == [3.0 * math.sqrt(6)] * 8
    assert all(c >= 1.0 for c in constants)


def test_unsatisfiable_budget_is_a_budget_e2e_skip(monkeypatch):
    steps = []
    _recording_runs(monkeypatch, steps)
    tally = selftest.budget_e2e_trials(3, RandomSource(0), epsilons=(1e-13,), d=10, K=3)
    assert _counts(tally) == (0, 0, 3)
    assert steps == []


def test_budget_e2e_skips_past_16384_steps(monkeypatch):
    steps, predicted = [], []
    _recording_runs(monkeypatch, steps)

    def past_the_cap(*args):
        predicted.append(args)
        return 16385

    monkeypatch.setattr(selftest, "_budget_predicted_t", past_the_cap)
    tally = selftest.budget_e2e_trials(3, RandomSource(0), epsilons=(1e-2, 1e-3), d=10, K=3)
    assert _counts(tally) == (0, 0, 6)
    assert len(predicted) == 6 and steps == []
