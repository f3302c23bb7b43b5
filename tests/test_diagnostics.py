import dataclasses

import numpy as np
import pytest

from deflatrix.bounds import BoundInputs, build_bound_report, eigengaps
from deflatrix.deflate import aligned_top_eigenvector, deflate_step, run_inexact_deflation
from deflatrix.diagnostics import (
    CHECK_SLACK,
    StepDiagnostics,
    alignment_lower_bound_check,
    bound_report,
    diagnose_run,
    eigvec_inner_identity_check,
    inputs_from_run,
    matrix_gap_recurrence_check,
)
from deflatrix.errors import DegenerateGapError, DimensionMismatchError
from deflatrix.linalg import (
    ExponentialSpectrum,
    PowerLawSpectrum,
    RandomSource,
    SymMatrix,
    build_test_sigma,
    random_orthogonal_basis,
    spectral_norm,
)


def make_instance(d, seed, kind=None):
    basis = random_orthogonal_basis(d, RandomSource(seed))
    return build_test_sigma(d, kind or PowerLawSpectrum(1.0), basis)


def ideal_matrix(spec, k):
    """The exact deflation sigma*_k (1-based): the matrix of ``spec`` with its
    first k-1 eigencomponents dropped, in closed form."""
    tail = spec.basis[:, k - 1:] * spec.eigenvalues[k - 1:]
    return SymMatrix(tail @ spec.basis[:, k - 1:].T)


def stored_chain_diagnostics(sigma, run):
    """Reference: diagnostics over a fully stored chain of the run's matrices
    sigma_k, replayed from its input ``sigma``, and of the closed-form ideal
    matrices, all in the input's coordinates."""
    matrices = [sigma]
    for k in range(1, run.K + 1):
        matrices.append(deflate_step(matrices[-1], run.components[:, k - 1]))
    basis = run.spectrum.basis
    sub_errors = run.components - run.exact_tops
    out = []
    for k in range(1, run.K + 1):
        gap = SymMatrix(matrices[k - 1].array - ideal_matrix(run.spectrum, k).array)
        v = run.components[:, k - 1]
        u = run.exact_tops[:, k - 1]
        u_star = run.spectrum.eigenvector(k - 1)
        out.append(
            StepDiagnostics(
                k=k,
                sub_err=float(np.linalg.norm(sub_errors[:, k - 1])),
                matrix_gap_fro=float(np.linalg.norm(gap.array)),
                matrix_gap_spec=spectral_norm(gap),
                output_err=float(np.linalg.norm(v - u_star)),
                drift=float(np.linalg.norm(u - u_star)),
                directional_gaps=np.linalg.norm(gap.array @ basis, axis=0),
                output_alignments=np.abs(basis.T @ v),
                top_alignments=np.abs(basis.T @ u),
                inner_gap=float(abs(u @ (gap.array @ u_star))),
            )
        )
    return out


# largest absolute difference allowed between a gap measured in the
# eigenbasis and in the input's coordinates
GAP_TOL = 1e-14


@pytest.fixture(scope="module")
def accurate_bundle():
    sigma, spec = make_instance(10, 21)
    run = run_inexact_deflation(sigma, 6, 300, RandomSource(7), spectrum=spec)
    return run, spec, diagnose_run(run)


@pytest.fixture(scope="module")
def sloppy_bundle():
    sigma, spec = make_instance(10, 22, ExponentialSpectrum(0.6))
    run = run_inexact_deflation(sigma, 6, 4, RandomSource(8), spectrum=spec)
    return run, spec, diagnose_run(run)


class TestDiagnoseRun:
    def test_exact_subroutine_limit_is_clean(self):
        # drive the deflation with the ideal eigenvectors themselves
        sigma, spec = make_instance(8, 23)
        current = sigma
        for k in range(1, 6):
            gap = np.linalg.norm(current.array - ideal_matrix(spec, k).array)
            assert gap <= 1e-9
            current = deflate_step(current, spec.eigenvector(k - 1))

    @pytest.mark.parametrize(
        "d, K, t, seed", [(10, 6, 300, 21), (10, 10, 4, 22), (16, 9, 20, 23), (5, 5, 1, 24)]
    )
    def test_replay_matches_stored_chain(self, d, K, t, seed):
        # the vector quantities are the same bits; the gaps are taken in
        # another basis, so they agree to roundoff
        sigma, spec = make_instance(d, seed)
        run = run_inexact_deflation(sigma, K, t, RandomSource(seed), spectrum=spec)
        got = diagnose_run(run)
        want = stored_chain_diagnostics(sigma, run)
        assert len(got) == len(want) == K
        gaps = {"matrix_gap_fro", "matrix_gap_spec", "directional_gaps", "inner_gap"}
        for a, b in zip(got, want):
            for field in dataclasses.fields(StepDiagnostics):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if field.name in gaps:
                    assert np.abs(np.subtract(x, y)).max() <= GAP_TOL, field.name
                elif isinstance(x, np.ndarray):
                    assert np.array_equal(x, y), field.name
                else:
                    assert x == y, field.name

    def test_triangle_decomposition(self, sloppy_bundle):
        _, _, diags = sloppy_bundle
        for dg in diags:
            assert dg.output_err <= dg.sub_err + dg.drift + 1e-12

    def test_spec_norm_at_most_frobenius(self, sloppy_bundle):
        _, _, diags = sloppy_bundle
        for dg in diags:
            assert dg.matrix_gap_spec <= dg.matrix_gap_fro + 1e-12

    def test_inner_gap_dominated_by_directional(self, sloppy_bundle):
        # Cauchy-Schwarz: the inner product never exceeds the directional norm
        _, _, diags = sloppy_bundle
        for dg in diags:
            assert dg.directional_gaps[dg.k - 1] >= dg.inner_gap - 1e-12

    def test_accurate_run_has_tiny_gaps(self, accurate_bundle):
        _, _, diags = accurate_bundle
        for dg in diags:
            assert dg.matrix_gap_fro <= 1e-9
            assert dg.output_err <= 1e-9

    def test_alignment_profiles_peak_at_own_direction(self, accurate_bundle):
        _, _, diags = accurate_bundle
        for dg in diags:
            assert dg.output_alignments[dg.k - 1] >= 0.999
            assert dg.top_alignments.argmax() == dg.k - 1


class TestBoundReport:
    @pytest.mark.parametrize("epsilon", [None, 1e-2])
    def test_reads_the_run_and_its_spectrum(self, accurate_bundle, epsilon):
        run, spec, diags = accurate_bundle
        worst = float(run.init_alignments.min())
        inputs = BoundInputs(
            lambdas=spec.eigenvalues,
            sub_error_norms=np.linalg.norm(run.components - run.exact_tops, axis=0),
            init_constant=max(1.0, 1.0 / worst),
            t=run.t,
            K=run.K,
            epsilon=epsilon,
        )
        errors = [
            np.linalg.norm(run.components[:, k - 1] - spec.eigenvector(k - 1)) for k in range(1, 7)
        ]
        want = build_bound_report(inputs, eigengaps(spec.eigenvalues), errors)
        assert bound_report(run, epsilon) == want
        assert bound_report(run, epsilon, diags) == want

    def test_reads_the_errors_of_the_diagnostics_it_is_given(self, accurate_bundle):
        run, _, diags = accurate_bundle
        diags = [dataclasses.replace(dg, output_err=dg.k * 1e-3) for dg in diags]
        rows = bound_report(run, None, diags)
        assert [row.empirical for row in rows] == [k * 1e-3 for k in range(1, run.K + 1)]

    def test_orthogonal_start_vector_raises(self, accurate_bundle):
        # c0 is the reciprocal of the worst start alignment
        run, _, _ = accurate_bundle
        alignments = run.init_alignments.copy()
        alignments[2] = 1e-13
        with pytest.raises(ValueError) as err:
            inputs_from_run(dataclasses.replace(run, init_alignments=alignments))
        assert err.type is ValueError
        assert str(err.value) == "a start vector was (numerically) orthogonal to its target"


class TestGapRecurrence:
    def test_accurate_run_holds(self, accurate_bundle):
        _, spec, diags = accurate_bundle
        margins = matrix_gap_recurrence_check(diags, spec.eigenvalues)
        assert len(margins) == len(diags) - 1
        assert all(type(m) is float and m >= 0 for m in margins)

    def test_large_errors_are_skipped_not_failed(self):
        sigma, spec = make_instance(8, 26, ExponentialSpectrum(0.55))
        run = run_inexact_deflation(sigma, 5, 1, RandomSource(10), spectrum=spec)
        diags = diagnose_run(run)
        margins = matrix_gap_recurrence_check(diags, spec.eigenvalues)
        assert None in margins
        assert all(m is None or m >= 0 for m in margins)


class TestInnerIdentity:
    def test_zero_perturbation(self):
        sigma, _ = make_instance(6, 27)
        lhs, rhs, rel = eigvec_inner_identity_check(sigma, sigma, 0, 2)
        assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9

    def test_random_pairs_exact(self):
        sigma, _ = make_instance(10, 28)
        g = RandomSource(29).normal(10, 10)
        h = (g + g.T) / 2.0
        h *= 0.01 / np.abs(np.linalg.eigvalsh(h)).max()
        m = SymMatrix(sigma.array + h)
        gen = RandomSource(30).generator
        checked = 0
        for _ in range(40):
            i = int(gen.integers(0, 10))
            j = int(gen.integers(0, 10))
            try:
                _, _, rel = eigvec_inner_identity_check(m, sigma, i, j)
            except DegenerateGapError:
                continue
            checked += 1
            assert rel <= 1e-6
        assert checked >= 30

    def test_degenerate_pair(self):
        sigma, _ = make_instance(5, 31)
        with pytest.raises(DegenerateGapError):
            eigvec_inner_identity_check(sigma, sigma, 2, 2)

    def test_rejects_matrices_of_different_sizes(self):
        sigma, _ = make_instance(5, 31)
        with pytest.raises(DimensionMismatchError, match="matrices must have equal dimension"):
            eigvec_inner_identity_check(sigma, SymMatrix(np.eye(4)), 0, 0)

    def test_selftest_trials_do_not_hide_bugs_as_skips(self, monkeypatch):
        from deflatrix import selftest

        def broken(*args):
            raise TypeError("bug in the check")

        monkeypatch.setattr(selftest, "eigvec_inner_identity_check", broken)
        with pytest.raises(TypeError, match="bug in the check"):
            selftest.inner_identity_trials(5, RandomSource(0))


class TestAlignmentLowerBound:
    def test_exact_match_holds(self):
        sigma, spec = make_instance(7, 32)
        # squared alignment 1 against a floor of 1: the margin is the slack
        margin = alignment_lower_bound_check(0.0, spec.eigenvector(0), spec, 1)
        assert margin >= 0
        assert margin == pytest.approx(CHECK_SLACK, abs=1e-14)

    def test_gate_skips_large_gaps(self):
        sigma, spec = make_instance(7, 33)
        # gap far beyond an eighth of the ideal eigenvalue
        k = 3
        big = SymMatrix(ideal_matrix(spec, k).array + 0.5 * np.eye(7))
        gap_fro = float(np.linalg.norm(big.array - ideal_matrix(spec, k).array))
        assert alignment_lower_bound_check(gap_fro, spec.eigenvector(k - 1), spec, k) is None

    def test_reads_the_run_trace(self, sloppy_bundle):
        # the measured gap and the run's oracle vector give the same margin
        # as decomposing the replayed sigma_k again
        run, spec, diags = sloppy_bundle
        sigma_k, _ = make_instance(10, 22, ExponentialSpectrum(0.6))
        for dg in diags:
            k = dg.k
            u, _ = aligned_top_eigenvector(sigma_k, spec.eigenvector(k - 1))
            fresh = alignment_lower_bound_check(dg.matrix_gap_fro, u, spec, k)
            margin = alignment_lower_bound_check(
                dg.matrix_gap_fro, run.exact_tops[:, k - 1], spec, k
            )
            assert margin == fresh
            assert margin is None or margin >= 0
            sigma_k = deflate_step(sigma_k, run.components[:, k - 1])
