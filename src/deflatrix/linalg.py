"""Dense symmetric linear algebra and seeded generators.

Everything downstream measures errors against the eigendecomposition oracle
defined here, which is LAPACK's symmetric eigensolver (``np.linalg.eigh``).
The oracle is measuring equipment, not the algorithm under study.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidSpectrumError, PreconditionError

__all__ = [
    "ExplicitSpectrum",
    "ExponentialSpectrum",
    "PowerLawSpectrum",
    "RandomSource",
    "Spectrum",
    "SymMatrix",
    "build_test_sigma",
    "jacobi_eigendecomposition",
    "random_orthogonal_basis",
    "sample_unit_sphere",
    "spectral_norm",
    "spectrum_eigenvalues",
]

class SymMatrix:
    """Real symmetric matrix with exactly mirrored triangles.

    The upper triangle is the source of truth: construction mirrors it onto
    the lower one, so ``array[i, j] == array[j, i]`` holds bitwise. Inputs
    that are asymmetric beyond roundoff are rejected rather than silently
    symmetrized. The stored array is a read-only copy, built in one n x n
    buffer next to the input.
    """

    __slots__ = ("array",)

    def __init__(self, array) -> None:
        a = np.asarray(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {a.shape}")
        # a NaN or an infinity anywhere reaches one of the two extremes
        hi = float(a.max())
        lo = float(a.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, hi, -lo)
        out = np.subtract(a, a.T)
        skew = float(np.abs(out, out=out).max())
        if skew > 1e-8 * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
        # the bits of np.triu(a) + np.triu(a, 1).T: each entry is its upper
        # triangle value plus 0.0, which turns -0.0 into +0.0
        np.copyto(out, a)
        np.copyto(out, a.T, where=np.tri(a.shape[0], k=-1, dtype=bool))
        out += 0.0
        out.setflags(write=False)
        self.array = out

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "SymMatrix":
        """Wrap, without copying, a fresh float array that is bitwise symmetric
        by construction (a result computed from mirrored inputs).

        Only finiteness is checked; the array is made read-only in place.
        External inputs go through the validating constructor instead.
        """
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        m = cls.__new__(cls)
        m.array = a
        return m

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def matvec(self):
        """``matvec(x, out)`` writes the product with ``x`` into ``out``.
        ``ndarray.dot`` releases the GIL around the BLAS call; the 2-D x 1-D
        ``a @ x`` does not."""
        return self.array.dot

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order plus the matching orthonormal basis.

    ``basis[:, j]`` is the unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        u = np.asarray(self.basis, dtype=float)
        if w.ndim != 1 or u.shape != (w.size, w.size):
            raise DimensionMismatchError(
                f"eigenvalue/basis shapes do not match: {w.shape} vs {u.shape}"
            )
        if np.any(np.diff(w) > 0):
            raise InvalidSpectrumError("eigenvalues must be sorted non-increasing")
        w = w.copy()
        u = u.copy()
        w.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "basis", u)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenvector(self, j: int) -> np.ndarray:
        """Column ``j`` (0-based) of the basis."""
        return self.basis[:, j]


class RandomSource:
    """Deterministic random stream (counter-based Philox keyed by seed + path).

    The same (seed, path) pair produces the identical stream on every
    platform. A source is stateful and should stay confined to one logical
    task; derive independent streams for per-step or parallel use with
    :meth:`substream`. The seed is checked at once, but the generator is
    built on the first draw, so a source that only derives substreams never
    pays for one.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()) -> None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.path = tuple(int(p) for p in path)
        self._gen = None

    def substream(self, *path: int) -> "RandomSource":
        """Independent stream derived from this source's identity."""
        return RandomSource(self.seed, self.path + path)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def normal(self, *shape: int) -> np.ndarray:
        return self.generator.standard_normal(shape)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"


def spectral_norm(m: SymMatrix) -> float:
    """Largest absolute eigenvalue, from LAPACK's symmetric eigenvalue solver."""
    try:
        w = np.linalg.eigvalsh(m.array)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"symmetric eigenvalue solver failed: {exc}") from exc
    return float(np.abs(w).max())


def jacobi_eigendecomposition(m: SymMatrix) -> Spectrum:
    """Full eigendecomposition by LAPACK's symmetric solver: the exact-solver oracle.

    Eigenvalues are returned in descending order with basis columns permuted
    consistently. A solver failure raises :class:`PreconditionError` rather
    than returning a partial result. The name is historical; tooling outside
    the package locates the oracle by it.
    """
    try:
        w, v = np.linalg.eigh(m.array)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"symmetric eigensolver failed: {exc}") from exc
    return Spectrum(w[::-1], v[:, ::-1])


def sample_unit_sphere(d: int, rng: RandomSource) -> np.ndarray:
    """Uniform draw from the unit sphere (normalized i.i.d. Gaussian vector)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    while True:
        x = rng.normal(d)
        n = float(np.linalg.norm(x))
        if n > 1e-6:
            return x / n


def random_orthogonal_basis(d: int, rng: RandomSource) -> np.ndarray:
    """Orthonormal d x d basis from Householder QR of a Gaussian draw.

    Signs are fixed so the R factor has a positive diagonal, which makes the
    output a deterministic function of the stream.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    while True:
        g = rng.normal(d, d)
        q, r = np.linalg.qr(g)
        diag = np.diag(r)
        if np.abs(diag).min() < 1e-12:
            continue
        q = q * np.where(diag >= 0, 1.0, -1.0)
        if np.abs(q.T @ q - np.eye(d)).max() <= 1e-12:
            return q


@dataclass(frozen=True)
class PowerLawSpectrum:
    """Eigenvalues 1, 2**-gamma, 3**-gamma, ..."""

    gamma: float = 1.0


@dataclass(frozen=True)
class ExponentialSpectrum:
    """Eigenvalues 1, rho, rho**2, ... with 0 < rho < 1."""

    rho: float = 0.8


@dataclass(frozen=True)
class ExplicitSpectrum:
    """A caller-supplied eigenvalue list, largest first."""

    values: tuple[float, ...]


SpectrumKind = PowerLawSpectrum | ExponentialSpectrum | ExplicitSpectrum


def spectrum_eigenvalues(kind: SpectrumKind, d: int) -> np.ndarray:
    """Materialize a spectrum kind as d finite eigenvalues; their decay and
    positivity are the run's precondition (``run_inexact_deflation``)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if isinstance(kind, PowerLawSpectrum):
        if not kind.gamma > 0:  # NaN fails this test too
            raise InvalidSpectrumError("power-law exponent must be positive")
        lam = np.arange(1, d + 1, dtype=float) ** (-kind.gamma)
    elif isinstance(kind, ExponentialSpectrum):
        if not 0.0 < kind.rho < 1.0:
            raise InvalidSpectrumError("decay rate must lie in (0, 1)")
        lam = kind.rho ** np.arange(d, dtype=float)
    elif isinstance(kind, ExplicitSpectrum):
        lam = np.asarray(kind.values, dtype=float)
        if lam.shape != (d,):
            raise DimensionMismatchError(f"expected {d} eigenvalues, got {lam.shape}")
    else:
        raise TypeError(f"unknown spectrum kind: {kind!r}")
    if not np.isfinite(lam).all():
        raise InvalidSpectrumError("eigenvalues must be finite")
    if abs(lam[0] - 1.0) > 1e-12:
        warnings.warn(
            "leading eigenvalue is not 1; proceeding without rescaling",
            stacklevel=2,
        )
    return lam


def build_test_sigma(d: int, kind: SpectrumKind, basis: np.ndarray) -> tuple[SymMatrix, Spectrum]:
    """Assemble a test matrix with a known spectrum: sum_j lambda_j u_j u_j^T.

    The returned :class:`Spectrum` is exact by construction (it is the input
    eigenvalues and basis, not a re-decomposition).
    """
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (d, d):
        raise DimensionMismatchError(f"basis shape {basis.shape} incompatible with d={d}")
    if np.abs(basis.T @ basis - np.eye(d)).max() > 1e-10:
        raise ValueError("basis columns are not orthonormal")
    lam = spectrum_eigenvalues(kind, d)
    sigma = SymMatrix((basis * lam) @ basis.T)
    return sigma, Spectrum(lam, basis)
