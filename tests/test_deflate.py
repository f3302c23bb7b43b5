import re
import types
import warnings

import numpy as np
import pytest

from deflatrix.clustering import build_rnn_graph, normalized_laplacian, synthetic_blobs
from deflatrix.deflate import (
    aligned_top_eigenvector,
    deflate_step,
    run_inexact_deflation,
)
from deflatrix.diagnostics import bound_report, diagnose_run
from deflatrix.errors import (
    DegenerateGapError,
    DimensionMismatchError,
    InvalidSpectrumError,
)
from deflatrix.linalg import (
    ExplicitSpectrum,
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
from deflatrix.powerit import power_iterate


def make_instance(d, seed, kind=None):
    basis = random_orthogonal_basis(d, RandomSource(seed))
    return build_test_sigma(d, kind or PowerLawSpectrum(1.0), basis)


def ideal_matrix(spec, k):
    """The exact deflation sigma*_k (1-based): the matrix of ``spec`` with its
    first k-1 eigencomponents dropped, in closed form."""
    tail = spec.basis[:, k - 1:] * spec.eigenvalues[k - 1:]
    return SymMatrix(tail @ spec.basis[:, k - 1:].T)


def replay(sigma, run):
    """sigma_1 .. sigma_{K+1} of a run, rebuilt from its input and outputs."""
    mats = [sigma]
    for k in range(1, run.K + 1):
        mats.append(deflate_step(mats[-1], run.components[:, k - 1]))
    return mats


class TestDeflateStep:
    def test_exact_eigenvector(self):
        out = deflate_step(SymMatrix(np.diag([3.0, 2.0, 1.0])), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.array, np.diag([0.0, 2.0, 1.0]), atol=0)

    def test_hand_2x2(self):
        out = deflate_step(SymMatrix(np.diag([3.0, 2.0])), np.ones(2) / np.sqrt(2.0))
        np.testing.assert_allclose(out.array, [[1.75, -1.25], [-1.25, 0.75]], atol=1e-15)

    def test_null_rayleigh_is_identity(self):
        m = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
        out = deflate_step(m, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.array, m.array, atol=0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            deflate_step(SymMatrix(np.eye(2)), np.array([1.0, 1.0]))

    def test_rejects_vector_of_another_dimension(self):
        with pytest.raises(
            DimensionMismatchError, match=re.escape("vector shape (3,) incompatible with dim 2")
        ):
            deflate_step(SymMatrix(np.eye(2)), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_update_is_symmetric_as_computed(self, seed):
        # averaging with the transpose would be a bitwise no-op
        sigma, _ = make_instance(9, 40 + seed)
        basis = random_orthogonal_basis(9, RandomSource(50 + seed))
        v = np.ascontiguousarray(basis[:, 0])
        b = sigma.array - float(v @ (sigma.array @ v)) * np.outer(v, v)
        assert np.array_equal(b, b.T)
        assert np.array_equal(deflate_step(sigma, v).array, (b + b.T) / 2.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_update_fails_loudly(self):
        # v . sigma v overflows to inf; the update must not return inf entries
        big = SymMatrix([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
        with pytest.raises(ValueError, match="finite"):
            deflate_step(big, np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_sign_invariance(self):
        sigma, _ = make_instance(6, 0)
        v = random_orthogonal_basis(6, RandomSource(1))[:, 0]
        a = deflate_step(sigma, v)
        b = deflate_step(sigma, -v)
        assert np.array_equal(a.array, b.array)


def validated_step(sigma, v):
    """The update as built through the validating constructor (copy, symmetry
    check, triangle mirror): the reference the trusted update must match."""
    v = np.ascontiguousarray(v, dtype=float)
    a = sigma.array
    return SymMatrix(a - float(v @ (a @ v)) * np.outer(v, v))


def assert_same_update(sigma, v):
    out = deflate_step(sigma, v)
    ref = validated_step(sigma, v)
    assert np.array_equal(out.array, ref.array)
    # bytes too, so a signed zero the mirror would have cleared shows up
    assert out.array.tobytes() == ref.array.tobytes()
    assert not out.array.flags.writeable
    return out


class TestTrustedUpdate:
    @pytest.mark.parametrize("d,seed", [(5, 0), (9, 1), (40, 2), (120, 3)])
    def test_matches_validated_update_on_power_law(self, d, seed):
        sigma, spec = make_instance(d, 60 + seed)
        current = sigma
        for k in range(1, min(d, 8) + 1):
            # an inexact top direction: the ideal one plus a small tilt
            v = spec.eigenvector(k - 1) + 1e-3 * sample_unit_sphere(d, RandomSource(seed, (k,)))
            current = assert_same_update(current, v / np.linalg.norm(v))

    def test_exact_cancellation_matches_validated_update(self):
        # 3 - 3 cancels exactly: the mirror left +0.0 there, and so must the update
        out = assert_same_update(SymMatrix(np.diag([3.0, 2.0, 1.0])), np.array([1.0, 0.0, 0.0]))
        assert not np.signbit(out.array).any()

    def test_matches_validated_update_with_negative_rayleigh(self):
        basis = random_orthogonal_basis(6, RandomSource(70))
        sigma = SymMatrix((basis * [2.0, 1.0, 0.5, -0.25, -1.5, -3.0]) @ basis.T)
        v = basis[:, 5] + 0.1 * basis[:, 0]
        v /= np.linalg.norm(v)
        assert float(v @ (sigma.array @ v)) < 0
        out = assert_same_update(sigma, v)
        assert_same_update(out, basis[:, 4])

    def test_matches_validated_update_on_blob_laplacian(self):
        lap = normalized_laplacian(build_rnn_graph(synthetic_blobs(), 10))
        assert lap.dim == 500
        # the bottom-end embedding target of the clustering sweep
        target = SymMatrix(2.0 * np.eye(lap.dim) - lap.array)
        current = target
        for k in range(1, 4):
            v = power_iterate(current, sample_unit_sphere(lap.dim, RandomSource(k)), 20)
            current = assert_same_update(current, v)


class TestIdealDeflation:
    @pytest.mark.filterwarnings("ignore:leading eigenvalue")
    def test_diagonal_example(self):
        _, spec = build_test_sigma(3, ExplicitSpectrum((3.0, 2.0, 1.0)), np.eye(3))
        np.testing.assert_allclose(ideal_matrix(spec, 2).array, np.diag([0.0, 2.0, 1.0]), atol=1e-12)

    def test_full_deflation_reaches_zero(self):
        _, spec = make_instance(5, 3)
        assert np.abs(ideal_matrix(spec, 6).array).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_recursion_matches_closed_form(self, seed):
        # deflating with the exact eigenvectors reproduces the closed form
        sigma, spec = make_instance(20, seed, ExponentialSpectrum(0.8))
        current = sigma
        for k in range(1, 14):
            gap = np.linalg.norm(current.array - ideal_matrix(spec, k).array)
            assert gap <= 1e-10
            if k <= 12:
                current = deflate_step(current, spec.eigenvector(k - 1))

    def test_rejects_non_orthonormal_basis(self):
        sigma, spec = make_instance(6, 7)
        skewed = spec.basis.copy()
        skewed[:, 1] += 1e-6 * skewed[:, 0]
        with pytest.raises(InvalidSpectrumError, match="orthonormal"):
            run_inexact_deflation(
                sigma, 3, 10, RandomSource(0), spectrum=Spectrum(spec.eigenvalues, skewed)
            )

    def test_annihilates_processed_directions(self):
        _, spec = make_instance(8, 4)
        for k in range(1, 7):
            m = ideal_matrix(spec, k).array
            for j in range(1, spec.dim + 1):
                image = m @ spec.eigenvector(j - 1)
                if j < k:
                    assert np.linalg.norm(image) <= 1e-10
                else:
                    expected = spec.eigenvalues[j - 1] * spec.eigenvector(j - 1)
                    assert np.linalg.norm(image - expected) <= 1e-10

    def test_ideal_matrices_are_psd(self):
        _, spec = make_instance(10, 6)
        for k in range(1, 11):
            w = jacobi_eigendecomposition(ideal_matrix(spec, k)).eigenvalues
            assert w.min() >= -1e-10


class TestAlignedTopEigenvector:
    def test_exact_match(self):
        sigma, spec = make_instance(6, 1)
        u, lam = aligned_top_eigenvector(sigma, spec.eigenvector(0))
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(u - spec.eigenvector(0)) <= 1e-9

    def test_sign_flip(self):
        sigma, spec = make_instance(6, 2)
        u, _ = aligned_top_eigenvector(sigma, -spec.eigenvector(0))
        assert u @ -spec.eigenvector(0) >= 0

    def test_orthogonal_reference_warns(self):
        sigma = SymMatrix(np.diag([2.0, 1.0]))
        with pytest.warns(UserWarning, match="ambiguous"):
            aligned_top_eigenvector(sigma, np.array([0.0, 1.0]))

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGapError):
            aligned_top_eigenvector(SymMatrix(np.eye(2)), np.array([1.0, 0.0]))

    def test_rejects_reference_of_another_dimension(self):
        sigma = SymMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(DimensionMismatchError, match="reference vector dimension mismatch"):
            aligned_top_eigenvector(sigma, np.array([1.0, 0.0, 0.0]))

    def test_rejects_non_unit_reference(self):
        sigma = SymMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError, match="reference vector must have unit norm") as err:
            aligned_top_eigenvector(sigma, np.array([1.0, 1.0]))
        assert err.type is ValueError

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbation_envelope(self, seed):
        # drift under a spectral-norm-controlled perturbation obeys the
        # two-over-gap sensitivity with Frobenius slack sqrt(d)
        d = 9
        sigma, spec = make_instance(d, 30 + seed)
        gap = float(spec.eigenvalues[0] - spec.eigenvalues[1])
        g = RandomSource(60 + seed).normal(d, d)
        h = (g + g.T) / 2.0
        h *= 0.01 * gap / np.abs(np.linalg.eigvalsh(h)).max()
        perturbed = SymMatrix(sigma.array + h)
        u, _ = aligned_top_eigenvector(perturbed, spec.eigenvector(0))
        assert np.linalg.norm(u - spec.eigenvector(0)) <= 2 * 0.01 * np.sqrt(d) + 1e-12


class TestRunInexactDeflation:
    def test_near_exact_on_diagonal(self):
        sigma, spec = build_test_sigma(3, PowerLawSpectrum(1.0), np.eye(3))
        run = run_inexact_deflation(sigma, 2, 200, RandomSource(0), spectrum=spec)
        for k in range(1, 3):
            e_k = np.zeros(3)
            e_k[k - 1] = 1.0
            assert np.linalg.norm(run.components[:, k - 1] - e_k) <= 1e-10

    def test_full_sweep_recovers_orthogonal_set(self):
        d = 8
        sigma, spec = make_instance(d, 5, ExponentialSpectrum(0.6))
        run = run_inexact_deflation(sigma, d, 400, RandomSource(1), spectrum=spec)
        for i in range(d):
            for j in range(i + 1, d):
                assert abs(run.components[:, i] @ run.components[:, j]) <= 1e-6

    def test_trace_is_recomputable(self):
        # the replayed sigma_k is the matrix the run decomposed, bitwise
        sigma, spec = make_instance(7, 8)
        run = run_inexact_deflation(sigma, 4, 50, RandomSource(3), spectrum=spec)
        mats = replay(sigma, run)
        for k in range(1, 5):
            u, lam = aligned_top_eigenvector(mats[k - 1], spec.eigenvector(k - 1))
            assert np.array_equal(u, run.exact_tops[:, k - 1])
            assert lam == run.top_eigenvalues[k - 1]

    def test_reproducible_bitwise(self):
        sigma, spec = make_instance(7, 9)
        a = run_inexact_deflation(sigma, 3, 40, RandomSource(11), spectrum=spec)
        b = run_inexact_deflation(sigma, 3, 40, RandomSource(11), spectrum=spec)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.top_eigenvalues, b.top_eigenvalues)

    def test_unit_outputs_and_sign_convention(self):
        sigma, spec = make_instance(10, 12)
        run = run_inexact_deflation(sigma, 6, 30, RandomSource(2), spectrum=spec)
        for k in range(1, 7):
            assert abs(np.linalg.norm(run.components[:, k - 1]) - 1.0) <= 1e-12
            assert run.exact_tops[:, k - 1] @ spec.eigenvector(k - 1) >= 0
            assert run.components[:, k - 1] @ run.exact_tops[:, k - 1] >= 0

    def test_weyl_consistency(self):
        sigma, spec = make_instance(10, 13)
        run = run_inexact_deflation(sigma, 6, 15, RandomSource(5), spectrum=spec)
        mats = replay(sigma, run)
        for k in range(1, 7):
            gap = SymMatrix(mats[k - 1].array - ideal_matrix(spec, k).array)
            shift = abs(run.top_eigenvalues[k - 1] - spec.eigenvalues[k - 1])
            assert shift <= spectral_norm(gap) + 1e-10

    def test_matrices_not_too_indefinite(self):
        sigma, spec = make_instance(10, 14)
        run = run_inexact_deflation(sigma, 8, 10, RandomSource(6), spectrum=spec)
        mats = replay(sigma, run)
        for k in range(1, 9):
            gap = SymMatrix(mats[k - 1].array - ideal_matrix(spec, k).array)
            w_min = jacobi_eigendecomposition(mats[k - 1]).eigenvalues.min()
            assert w_min >= -spectral_norm(gap) - 1e-10

    def test_exact_subroutine_limit(self):
        sigma, spec = make_instance(9, 15)
        current = sigma
        for k in range(1, 6):
            assert np.linalg.norm(current.array - ideal_matrix(spec, k).array) <= 1e-10
            current = deflate_step(current, spec.eigenvector(k - 1))

    def test_rejects_bad_k_and_t(self):
        sigma, spec = make_instance(4, 16)
        with pytest.raises(ValueError):
            run_inexact_deflation(sigma, 5, 10, RandomSource(0), spectrum=spec)
        with pytest.raises(ValueError):
            run_inexact_deflation(sigma, 2, 0, RandomSource(0), spectrum=spec)

    def test_rejects_tied_spectrum(self):
        sigma = SymMatrix(np.diag([1.0, 0.5, 0.5]))
        spec = Spectrum(np.array([1.0, 0.5, 0.5]), np.eye(3))
        with pytest.raises(InvalidSpectrumError, match="strictly decreasing"):
            run_inexact_deflation(sigma, 2, 10, RandomSource(0), spectrum=spec)

    def test_scale_warning_not_fatal(self):
        # spectrum_eigenvalues warns once; the run adds no second warning
        with pytest.warns(UserWarning, match="leading eigenvalue"):
            sigma, spec = build_test_sigma(3, ExplicitSpectrum((3.0, 2.0, 1.0)), np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = run_inexact_deflation(sigma, 2, 50, RandomSource(0), spectrum=spec)
        assert run.top_eigenvalues[0] == pytest.approx(3.0, abs=1e-12)

    def test_oracle_needs_a_matrix(self):
        sigma, spec = make_instance(5, 32)
        operator = types.SimpleNamespace(dim=sigma.dim, matvec=sigma.array.dot)
        with pytest.raises(TypeError, match="SymMatrix"):
            run_inexact_deflation(operator, 2, 5, RandomSource(0), spectrum=spec)


class TestSpectrumPrecondition:
    # a run checks strict decay only over lambda_1..lambda_{K+1}, the
    # eigenvalues its oracle steps and the bounds read
    TAIL_TIED = (1.0, 0.5, 0.25, 0.125, 0.125)

    def tail_tied(self):
        spec = Spectrum(np.array(self.TAIL_TIED), random_orthogonal_basis(5, RandomSource(3)))
        sigma = SymMatrix((spec.basis * spec.eigenvalues) @ spec.basis.T)
        return sigma, spec

    def test_tie_past_k_plus_one_runs(self):
        sigma, spec = self.tail_tied()
        run = run_inexact_deflation(sigma, 3, 200, RandomSource(1), spectrum=spec)
        assert run.spectrum is spec
        for k in range(1, 4):
            assert np.linalg.norm(run.components[:, k - 1] - spec.eigenvector(k - 1)) <= 1e-8

    def test_tie_past_k_plus_one_reports_bounds(self):
        # the run, its diagnostics and its bound report all accept the tie;
        # its infinite decay floor only makes the power-iteration bound
        # inadmissible
        sigma, spec = self.tail_tied()
        run = run_inexact_deflation(sigma, 3, 200, RandomSource(1), spectrum=spec)
        assert len(diagnose_run(run)) == 3
        rows = bound_report(run, epsilon=1e-2)
        assert [row.k for row in rows] == [1, 2, 3]
        assert all(row.power_iter is None and row.agnostic is not None for row in rows)

    @pytest.mark.parametrize("K", [4, 5])
    def test_tie_within_k_plus_one_rejected(self, K):
        sigma, spec = self.tail_tied()
        with pytest.raises(InvalidSpectrumError, match="strictly decreasing"):
            run_inexact_deflation(sigma, K, 50, RandomSource(1), spectrum=spec)

    @pytest.mark.parametrize("last", [0.0, -0.1])
    def test_non_positive_tail_rejected(self, last):
        lam = np.array([1.0, 0.5, 0.25, last])
        sigma = SymMatrix(np.diag(lam))
        with pytest.raises(InvalidSpectrumError, match="positive"):
            run_inexact_deflation(sigma, 1, 50, RandomSource(0), spectrum=Spectrum(lam, np.eye(4)))

    def test_rejects_spectrum_of_another_dimension(self):
        sigma, _ = make_instance(5, 18)
        _, other = make_instance(6, 18)
        with pytest.raises(DimensionMismatchError):
            run_inexact_deflation(sigma, 2, 10, RandomSource(0), spectrum=other)
