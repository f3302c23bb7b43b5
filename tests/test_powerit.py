import math
import re

import numpy as np
import pytest

from deflatrix.clustering import _DeflatedOperator
from deflatrix.deflate import run_inexact_deflation
from deflatrix.errors import (
    DegenerateIterateError,
    DimensionMismatchError,
    InvalidSpectrumError,
)
from deflatrix.linalg import (
    ExponentialSpectrum,
    PowerLawSpectrum,
    RandomSource,
    SymMatrix,
    build_test_sigma,
    random_orthogonal_basis,
    sample_unit_sphere,
)
from deflatrix.powerit import pi_alignment_bound, pi_error_bound, power_iterate


class TestPowerIterate:
    def test_zero_steps_returns_start(self):
        x0 = np.ones(2) / np.sqrt(2.0)
        res = power_iterate(SymMatrix(np.diag([2.0, 1.0])), x0, 0)
        assert np.array_equal(res, x0)

    def test_two_steps_hand_value(self):
        x0 = np.ones(2) / np.sqrt(2.0)
        res = power_iterate(SymMatrix(np.diag([2.0, 1.0])), x0, 2)
        np.testing.assert_allclose(res, np.array([4.0, 1.0]) / np.sqrt(17.0), atol=1e-15)

    def test_geometric_convergence(self):
        x0 = np.ones(2) / np.sqrt(2.0)
        res = power_iterate(SymMatrix(np.diag([2.0, 1.0])), x0, 60)
        assert abs(res @ np.array([1.0, 0.0])) >= 1.0 - 1e-12

    def test_unit_output(self):
        m = SymMatrix((lambda g: (g + g.T) / 2)(RandomSource(1).normal(8, 8)))
        res = power_iterate(m, sample_unit_sphere(8, RandomSource(2)), 13)
        assert abs(np.linalg.norm(res) - 1.0) <= 1e-14

    def test_kernel_start_fails(self):
        m = SymMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateIterateError):
            power_iterate(m, np.array([0.0, 1.0]), 1)

    def test_non_unit_start_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            power_iterate(SymMatrix(np.eye(2)), np.array([1.0, 1.0]), 1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            power_iterate(SymMatrix(np.eye(2)), np.array([1.0, 0.0]), -1)

    def test_start_vector_of_another_dimension_rejected(self):
        with pytest.raises(
            DimensionMismatchError, match=re.escape("start vector shape (3,) incompatible with dim 2")
        ):
            power_iterate(SymMatrix(np.eye(2)), np.array([1.0, 0.0, 0.0]), 1)


def _reference_iterates(product, x0, t):
    # x_0, ..., x_t of the loop as first written, with a fresh array for
    # every product, np.linalg.norm and an out-of-place divide
    xs = [np.ascontiguousarray(x0, dtype=float)]
    for _ in range(t):
        y = product(xs[-1])
        xs.append(y / float(np.linalg.norm(y)))
    return xs


def _reference_power_iterate(a, x0, t):
    # power_iterate must reproduce this loop's x_t bit for bit
    return _reference_iterates(a.__matmul__, x0, t)[-1]


def _first_exact_two_cycle(xs):
    # the first s >= 1 with x_{s+2} == x_s bit for bit, or None
    return next(
        (s for s in range(1, len(xs) - 2) if xs[s + 2].tobytes() == xs[s].tobytes()), None
    )


class _CountingOperator:
    def __init__(self, m):
        self.dim = m.dim
        self.products = 0
        self._matvec = m.matvec

    def matvec(self, x, out):
        self.products += 1
        return self._matvec(x, out)


class TestPowerIterateMatchesReference:
    @staticmethod
    def assert_matches_reference(m, x0, t):
        before = x0.copy()
        res = power_iterate(m, x0, t)
        assert np.array_equal(res, _reference_power_iterate(m.array, x0, t))
        assert np.array_equal(x0, before)

    @pytest.mark.parametrize("d", [1, 2, 7, 32, 100, 500])
    @pytest.mark.parametrize("t", [0, 1, 7, 200])
    def test_bitwise(self, d, t):
        g = RandomSource(d).normal(d, d)
        m = SymMatrix((g + g.T) / 2.0)
        self.assert_matches_reference(m, sample_unit_sphere(d, RandomSource(d + 1)), t)

    @pytest.mark.parametrize("t", [0, 1, 7, 200])
    def test_strided_start_vector(self, t):
        basis = random_orthogonal_basis(32, RandomSource(8))
        sigma, _ = build_test_sigma(32, PowerLawSpectrum(1.0), basis)
        x0 = basis[:, 3]
        assert not x0.flags.c_contiguous
        self.assert_matches_reference(sigma, x0, t)

    @pytest.mark.parametrize("t", [0, 1, 7])
    def test_read_only_start_vector(self, t):
        g = RandomSource(9).normal(7, 7)
        x0 = sample_unit_sphere(7, RandomSource(10))
        x0.setflags(write=False)
        self.assert_matches_reference(SymMatrix((g + g.T) / 2.0), x0, t)

    # Once the iterate repeats exactly with period two, power_iterate stops
    # early; its result must still be the reference x_t, at either parity
    # of t.

    @staticmethod
    def assert_skips_to_reference(m, x0, t, product):
        xs = _reference_iterates(product, x0, t)
        s = _first_exact_two_cycle(xs)
        assert s is not None and s < t // 4
        counting = _CountingOperator(m)
        res = power_iterate(counting, x0, t)
        assert res.tobytes() == xs[t].tobytes()
        assert counting.products < t // 2

    @pytest.mark.parametrize("t", [4999, 5000])
    def test_exponential_spectrum_repeats_exactly(self, t):
        basis = random_orthogonal_basis(8, RandomSource(20))
        sigma, _ = build_test_sigma(8, ExponentialSpectrum(0.3), basis)
        x0 = sample_unit_sphere(8, RandomSource(21))
        self.assert_skips_to_reference(sigma, x0, t, sigma.array.__matmul__)

    @pytest.mark.parametrize("t", [999, 1000])
    def test_negative_top_eigenvalue_alternates_sign(self, t):
        # the iterate flips sign every step: period two, never a fixed point
        basis = random_orthogonal_basis(6, RandomSource(22))
        lam = np.array([-1.0, 0.5, 0.4, 0.3, 0.2, 0.1])
        sigma = SymMatrix((basis * lam) @ basis.T)
        x0 = sample_unit_sphere(6, RandomSource(23))
        xs = _reference_iterates(sigma.array.__matmul__, x0, 3)
        assert xs[3].tobytes() != xs[2].tobytes()
        self.assert_skips_to_reference(sigma, x0, t, sigma.array.__matmul__)

    @pytest.mark.parametrize("t", [2999, 3000])
    def test_deflated_sweep_operator_repeats_exactly(self, t):
        sigma, _ = build_test_sigma(
            10, PowerLawSpectrum(1.0), random_orthogonal_basis(10, RandomSource(24))
        )
        op = _DeflatedOperator(sigma, 2)
        op.deflate(power_iterate(sigma, sample_unit_sphere(10, RandomSource(25)), 200))
        x0 = sample_unit_sphere(10, RandomSource(26))
        self.assert_skips_to_reference(op, x0, t, lambda x: op.matvec(x, np.empty(op.dim)))

    @pytest.mark.parametrize("t", [299, 300])
    def test_slow_convergence_never_repeats(self, t):
        # lambda_2 / lambda_1 = 2**-0.01: far from converged at step t
        basis = random_orthogonal_basis(8, RandomSource(27))
        sigma, _ = build_test_sigma(8, PowerLawSpectrum(0.01), basis)
        x0 = sample_unit_sphere(8, RandomSource(28))
        xs = _reference_iterates(sigma.array.__matmul__, x0, t)
        assert _first_exact_two_cycle(xs) is None
        counting = _CountingOperator(sigma)
        assert power_iterate(counting, x0, t).tobytes() == xs[t].tobytes()
        assert counting.products == t


class TestIterateOwnership:
    # the loop writes into buffers of its own; a result must never alias the
    # start vector or another call's result

    @pytest.mark.parametrize("t", [1, 2, 3, 8])
    def test_result_does_not_alias_start(self, t):
        g = RandomSource(11).normal(9, 9)
        x0 = sample_unit_sphere(9, RandomSource(12))
        res = power_iterate(SymMatrix((g + g.T) / 2.0), x0, t)
        assert not np.shares_memory(res, x0)

    @pytest.mark.parametrize("t", [1, 2, 3, 8])
    def test_consecutive_results_are_independent(self, t):
        g = RandomSource(13).normal(9, 9)
        m = SymMatrix((g + g.T) / 2.0)
        first = power_iterate(m, sample_unit_sphere(9, RandomSource(14)), t)
        kept = first.copy()
        second = power_iterate(m, sample_unit_sphere(9, RandomSource(15)), t)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_zero_steps_return_a_copy_of_start(self):
        x0 = sample_unit_sphere(4, RandomSource(19))
        kept = x0.copy()
        res = power_iterate(SymMatrix(np.eye(4)), x0, 0)
        assert res is not x0 and not np.shares_memory(res, x0)
        assert res.tobytes() == kept.tobytes()
        res[:] = 0.0
        assert np.array_equal(x0, kept)

    def test_run_components_survive_another_run(self):
        basis = random_orthogonal_basis(12, RandomSource(16))
        sigma, spectrum = build_test_sigma(12, PowerLawSpectrum(1.0), basis)
        run = run_inexact_deflation(sigma, 12, 9, RandomSource(17), spectrum=spectrum)
        kept = run.components.copy()
        other = run_inexact_deflation(sigma, 12, 9, RandomSource(18), spectrum=spectrum)
        assert not np.array_equal(other.components, kept)
        assert np.array_equal(run.components, kept)


class TestErrorBound:
    def test_sqrt2_at_zero(self):
        assert pi_error_bound(1.0, 0.5, 0) == pytest.approx(math.sqrt(2.0), abs=0)

    def test_hand_value(self):
        assert pi_error_bound(1.0, 0.5, 10) == pytest.approx(
            math.sqrt(2.0) * 2.0**-10, rel=1e-15
        )

    def test_monotone_in_t(self):
        vals = [pi_error_bound(1.0, 0.8, t) for t in range(20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_invalid_spectrum(self):
        with pytest.raises(InvalidSpectrumError):
            pi_error_bound(0.5, 1.0, 3)
        with pytest.raises(InvalidSpectrumError):
            pi_error_bound(1.0, -0.1, 3)

    @pytest.mark.parametrize("seed", range(25))
    def test_bounds_measured_distance(self, seed):
        # gate: start alignment at least 1/sqrt(2) with the top eigenvector
        d = 8
        basis = random_orthogonal_basis(d, RandomSource(seed))
        sigma, spec = build_test_sigma(d, PowerLawSpectrum(1.0), basis)
        a1 = spec.eigenvector(0)
        raw = sample_unit_sphere(d, RandomSource(seed + 100))
        x0 = a1 + 0.5 * raw
        x0 /= np.linalg.norm(x0)
        if abs(x0 @ a1) < 1.0 / math.sqrt(2.0):
            pytest.skip("start vector missed the alignment gate")
        for t in (1, 5, 20, 100):
            x_t = power_iterate(sigma, x0, t)
            dist = min(np.linalg.norm(x_t - a1), np.linalg.norm(x_t + a1))
            assert dist <= pi_error_bound(1.0, 0.5, t) + 1e-10


@pytest.mark.parametrize(
    "call",
    [lambda: pi_error_bound(1.0, 0.5, -1), lambda: pi_alignment_bound(0.5, 1.0, 0.0, 1.0, -1)],
    ids=["error-bound", "alignment-bound"],
)
def test_bounds_reject_negative_steps(call):
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError
    assert str(err.value) == "step count must be non-negative"


class TestAlignmentBound:
    def test_unperturbed_reduction(self):
        assert pi_alignment_bound(0.5, 1.0, 0.0, 2.0, 3) == pytest.approx(0.25, abs=0)

    def test_hand_value(self):
        # decay 0.5**4 plus leak 0.1/(1 - 0.5)
        assert pi_alignment_bound(0.5, 1.0, 0.1, 1.0, 4) == pytest.approx(0.2625, rel=1e-15)

    def test_invalid_spectrum(self):
        with pytest.raises(InvalidSpectrumError):
            pi_alignment_bound(1.0, 0.5, 0.0, 1.0, 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pi_alignment_bound(0.5, 1.0, -0.1, 1.0, 2)
        with pytest.raises(ValueError):
            pi_alignment_bound(0.5, 1.0, 0.0, 0.0, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_measured_alignment(self, seed, perturbed_instance):
        m, spectrum, h, x0, t = perturbed_instance(seed)
        eigenvalues, eigenvectors = np.linalg.eigh(m.array)
        a1 = eigenvectors[:, -1]
        sigma1 = float(eigenvalues[-1])
        c0 = 1.0 / abs(float(x0 @ a1))
        x_t = power_iterate(m, x0, t)
        for j in range(2, spectrum.dim + 1):
            sigma_j = float(spectrum.eigenvalues[j - 1])
            if sigma1 <= sigma_j:
                continue
            h_aj = float(np.linalg.norm(h @ spectrum.eigenvector(j - 1)))
            bound = pi_alignment_bound(sigma_j, sigma1, h_aj, c0, t)
            assert abs(float(x_t @ spectrum.eigenvector(j - 1))) <= bound + 1e-10


@pytest.fixture
def perturbed_instance():
    def build(seed, d=10, t=30):
        root = RandomSource(1000 + seed)
        basis = random_orthogonal_basis(d, root.substream(0))
        sigma, spectrum = build_test_sigma(d, PowerLawSpectrum(1.0), basis)
        g = root.substream(1).normal(d, d)
        h = (g + g.T) / 2.0
        h *= 0.02 / np.abs(np.linalg.eigvalsh(h)).max()
        m = SymMatrix(sigma.array + h)
        x0 = sample_unit_sphere(d, root.substream(2))
        return m, spectrum, h, x0, t

    return build


class TestInitAlignment:
    def test_random_init_clears_threshold_often(self):
        # all-K pass frequency over uniform draws must beat 1 - 2K/(3d)
        d, K, trials = 50, 10, 10_000
        gen = RandomSource(99).generator
        draws = gen.standard_normal((trials, K, d))
        draws /= np.linalg.norm(draws, axis=2, keepdims=True)
        # alignment against any fixed orthonormal directions; use coordinates
        alignments = np.abs(draws[:, np.arange(K), np.arange(K)])
        threshold = 1.0 / math.sqrt(1.0 + 2.0 * d**3)
        all_pass = (alignments >= threshold).all(axis=1)
        assert all_pass.mean() >= 1.0 - 2 * K / (3 * d)
