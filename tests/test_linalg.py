import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatrix.deflate import run_inexact_deflation
from deflatrix.errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    PreconditionError,
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
    spectrum_eigenvalues,
)


def random_symmetric(d, seed, scale=1.0):
    g = RandomSource(seed).normal(d, d)
    return SymMatrix((g + g.T) / 2.0 * scale)


class TestSymMatrix:
    def test_mirrors_triangles_exactly(self):
        m = random_symmetric(7, 3)
        assert np.array_equal(m.array, m.array.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_array_is_read_only(self):
        m = random_symmetric(3, 0)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinities(self, bad):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            SymMatrix([[1.0, 0.0], [0.0, bad]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError, match=r"nonempty square matrix, got shape \(0, 0\)"):
            SymMatrix(np.zeros((0, 0)))

    def test_stores_its_own_copy(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymMatrix(a)
        a[0, 1] = a[1, 0] = 7.0
        assert m.array.tolist() == [[1.0, 2.0], [2.0, 3.0]]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_mirror_bits_match_triu_sum(self, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        d = int(gen.integers(1, 9))
        g = gen.standard_normal((d, d))
        # roundoff asymmetry, and signed zeros on both sides of the diagonal
        a = g + g.T + gen.standard_normal((d, d)) * 1e-12
        zero = gen.random((d, d)) < 0.3
        zero |= zero.T
        a[zero] = np.where(gen.random((d, d)) < 0.5, -0.0, 0.0)[zero]
        expect = np.triu(a) + np.triu(a, 1).T
        assert SymMatrix(a).array.tobytes() == expect.tobytes()


class TestNorms:
    def test_identity(self):
        m = SymMatrix(np.eye(3))
        assert np.linalg.norm(m.array) == pytest.approx(np.sqrt(3.0), abs=0)
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-14)

    def test_offdiag_flip(self):
        m = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-14)

    def test_signed_diagonal(self):
        m = SymMatrix(np.diag([3.0, -4.0]))
        assert spectral_norm(m) == pytest.approx(4.0, abs=1e-14)
        assert np.linalg.norm(m.array) == pytest.approx(5.0, abs=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_spectral_at_most_frobenius(self, seed):
        m = random_symmetric(6, seed)
        assert spectral_norm(m) <= np.linalg.norm(m.array) + 1e-12


class TestJacobi:
    def test_diagonal_input(self):
        spec = jacobi_eigendecomposition(SymMatrix(np.diag([3.0, 2.0, 1.0])))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 2.0, 1.0], atol=0)
        np.testing.assert_allclose(np.abs(spec.basis), np.eye(3), atol=1e-14)

    def test_analytic_2x2(self):
        spec = jacobi_eigendecomposition(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-14)
        expect = np.ones(2) / np.sqrt(2.0)
        assert abs(abs(spec.eigenvector(0) @ expect) - 1.0) < 1e-14
        expect = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(spec.eigenvector(1) @ expect) - 1.0) < 1e-14

    @pytest.mark.parametrize("seed", range(50))
    def test_reconstruction_residual(self, seed):
        m = random_symmetric(20, seed)
        spec = jacobi_eigendecomposition(m)
        rebuilt = (spec.basis * spec.eigenvalues) @ spec.basis.T
        resid = np.linalg.norm(rebuilt - m.array)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(m.array))

    def test_orthonormal_basis(self):
        spec = jacobi_eigendecomposition(random_symmetric(15, 9))
        gram = spec.basis.T @ spec.basis
        assert np.abs(gram - np.eye(15)).max() <= 1e-10

    def test_descending_order(self):
        spec = jacobi_eigendecomposition(random_symmetric(12, 4))
        assert np.all(np.diff(spec.eigenvalues) <= 0)

    def test_zero_matrix(self):
        spec = jacobi_eigendecomposition(SymMatrix(np.zeros((4, 4))))
        assert np.array_equal(spec.eigenvalues, np.zeros(4))

    def test_dim_one(self):
        spec = jacobi_eigendecomposition(SymMatrix([[5.0]]))
        assert spec.eigenvalues[0] == 5.0

    def test_solver_failure_is_a_precondition_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        m = random_symmetric(3, 0)
        with pytest.raises(PreconditionError, match="did not converge"):
            jacobi_eigendecomposition(m)
        with pytest.raises(PreconditionError, match="did not converge"):
            spectral_norm(m)


class TestRandomSource:
    def test_determinism(self):
        a = RandomSource(7).normal(10)
        b = RandomSource(7).normal(10)
        assert np.array_equal(a, b)

    def test_substream_independence(self):
        root = RandomSource(7)
        a = root.substream(1).normal(10)
        b = root.substream(2).normal(10)
        assert not np.array_equal(a, b)

    def test_substream_determinism(self):
        a = RandomSource(7).substream(3, 1).normal(4)
        b = RandomSource(7).substream(3, 1).normal(4)
        assert np.array_equal(a, b)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)


class TestRandomOrthogonalBasis:
    def test_dim_one_is_sign(self):
        u = random_orthogonal_basis(1, RandomSource(0))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-15

    def test_orthonormality(self):
        u = random_orthogonal_basis(5, RandomSource(7))
        assert np.abs(u.T @ u - np.eye(5)).max() <= 1e-12

    def test_determinism(self):
        a = random_orthogonal_basis(5, RandomSource(7))
        b = random_orthogonal_basis(5, RandomSource(7))
        assert np.array_equal(a, b)


class TestSampleUnitSphere:
    def test_unit_norm(self):
        for seed in range(20):
            x = sample_unit_sphere(9, RandomSource(seed))
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14

    def test_dim_one(self):
        x = sample_unit_sphere(1, RandomSource(3))
        assert abs(abs(x[0]) - 1.0) <= 1e-14

    def test_first_moment(self):
        # uniformity sanity: coordinate means vanish over many draws
        rng = RandomSource(11)
        draws = np.array([sample_unit_sphere(3, rng) for _ in range(10_000)])
        assert np.abs(draws.mean(axis=0)).max() < 0.05


class TestSpectrumKinds:
    def test_power_law_values(self):
        lam = spectrum_eigenvalues(PowerLawSpectrum(1.0), 3)
        np.testing.assert_allclose(lam, [1.0, 0.5, 1.0 / 3.0], atol=0)

    def test_exponential_values(self):
        lam = spectrum_eigenvalues(ExponentialSpectrum(0.5), 3)
        np.testing.assert_allclose(lam, [1.0, 0.5, 0.25], atol=0)

    def test_exponential_range(self):
        with pytest.raises(InvalidSpectrumError):
            spectrum_eigenvalues(ExponentialSpectrum(1.0), 3)

    @staticmethod
    def _run(values, K):
        sigma, spec = build_test_sigma(len(values), ExplicitSpectrum(values), np.eye(len(values)))
        return run_inexact_deflation(sigma, K, 20, RandomSource(0), spectrum=spec)

    def test_explicit_rejects_ties(self):
        # the values come back as given; the run owns the decay check, which
        # reads lambda_1..lambda_{K+1}
        values = (1.0, 0.9, 0.9)
        np.testing.assert_array_equal(spectrum_eigenvalues(ExplicitSpectrum(values), 3), values)
        with pytest.raises(InvalidSpectrumError, match="strictly decreasing"):
            self._run(values, K=2)
        assert self._run(values, K=1).K == 1  # the tie lies past lambda_{K+1}

    def test_explicit_rejects_nonpositive(self):
        # zero or negative past lambda_{K+1} too: every eigenvalue must be positive
        for values in ((1.0, 0.5, 0.0), (1.0, 0.5, -0.25)):
            lam = spectrum_eigenvalues(ExplicitSpectrum(values), 3)
            np.testing.assert_array_equal(lam, values)
            with pytest.raises(InvalidSpectrumError, match="positive"):
                self._run(values, K=1)

    @pytest.mark.parametrize(
        "kind",
        [
            PowerLawSpectrum(float("nan")),
            ExponentialSpectrum(float("nan")),
            ExplicitSpectrum((1.0, float("nan"), 0.1)),
            ExplicitSpectrum((float("inf"), 1.0, 0.5)),
        ],
    )
    def test_rejects_non_finite(self, kind):
        with pytest.raises(InvalidSpectrumError):
            spectrum_eigenvalues(kind, 3)

    def test_explicit_warns_off_scale(self):
        with pytest.warns(UserWarning, match="leading eigenvalue"):
            spectrum_eigenvalues(ExplicitSpectrum((2.0, 1.0)), 2)


class TestBuildTestSigma:
    def test_identity_basis_power_law(self):
        sigma, spec = build_test_sigma(3, PowerLawSpectrum(1.0), np.eye(3))
        np.testing.assert_allclose(np.diag(sigma.array), [1.0, 0.5, 1.0 / 3.0], atol=0)
        assert np.abs(sigma.array - np.diag(np.diag(sigma.array))).max() == 0.0
        assert isinstance(spec, Spectrum)

    def test_rejects_skewed_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            build_test_sigma(2, PowerLawSpectrum(1.0), np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_constructed_eigenpairs(self, seed):
        d = 12
        basis = random_orthogonal_basis(d, RandomSource(seed))
        sigma, spec = build_test_sigma(d, PowerLawSpectrum(1.0), basis)
        for j in range(d):
            resid = sigma.array @ spec.eigenvector(j) - spec.eigenvalues[j] * spec.eigenvector(j)
            assert np.linalg.norm(resid) <= 1e-9

    def test_oracle_matches_construction(self):
        for d, kind, atol in ((15, ExponentialSpectrum(0.7), 1e-9),
                              (100, PowerLawSpectrum(1.0), 1e-14)):
            basis = random_orthogonal_basis(d, RandomSource(2))
            sigma, spec = build_test_sigma(d, kind, basis)
            oracle = jacobi_eigendecomposition(sigma)
            np.testing.assert_allclose(oracle.eigenvalues, spec.eigenvalues, rtol=0, atol=atol)
            gaps = -np.diff(spec.eigenvalues)
            for j in range(d):
                lo = gaps[j - 1] if j else np.inf
                hi = gaps[j] if j < d - 1 else np.inf
                if lo > 1e-6 and hi > 1e-6:
                    assert abs(spec.eigenvector(j) @ oracle.eigenvector(j)) >= 1.0 - 1e-8

    def test_figure_scale_matrix(self):
        d = 100
        basis = random_orthogonal_basis(d, RandomSource(5))
        sigma, spec = build_test_sigma(d, PowerLawSpectrum(1.0), basis)
        assert spec.eigenvalues[0] == 1.0
        assert spec.eigenvalues[-1] == pytest.approx(0.01, abs=0)
        fro = np.linalg.norm(sigma.array)
        assert fro == pytest.approx(np.linalg.norm(spec.eigenvalues), rel=1e-12)
