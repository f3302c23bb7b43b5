"""Sequential top-K eigenvector extraction by matrix deflation.

Each step asks the inexact sub-routine (power iteration) for an approximate
top eigenvector of the current matrix, then removes that direction:

    sigma_{k+1} = sigma_k - (v_k . sigma_k v_k) v_k v_k^T.

The run keeps vectors, not matrices: its outputs ``v_k`` and, when a
reference spectrum is given, that spectrum and the oracle's exact top
eigenpair of ``sigma_k``. The oracle reads each ``sigma_k``, so a run with a
spectrum updates a dense matrix. A run without one multiplies by
sigma_k x = sigma_1 x - V (rho * V^T x), with V the outputs so far and rho
their Rayleigh quotients, in O(dK) memory beside ``sigma_1``, which may be
any symmetric operator (a sparse graph Laplacian, say). Diagnostics replay
the update in the spectrum's eigenbasis, where the input is diagonal
(:mod:`deflatrix.diagnostics`).
:func:`reference_run` is the seeded protocol behind the ``deflate`` and
``bounds`` commands: a random basis, a test matrix of a given spectrum kind,
and a run checked against that spectrum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, DimensionMismatchError, InvalidSpectrumError
from .linalg import (
    RandomSource,
    Spectrum,
    SpectrumKind,
    SymMatrix,
    build_test_sigma,
    jacobi_eigendecomposition,
    random_orthogonal_basis,
    sample_unit_sphere,
)
from .powerit import power_iterate

__all__ = [
    "DeflationRun",
    "aligned_top_eigenvector",
    "deflate_step",
    "reference_run",
    "run_inexact_deflation",
]

_UNIT_TOL = 1e-10
_GAP_TOL = 1e-12


def deflate_step(sigma_k: SymMatrix, v: np.ndarray) -> SymMatrix:
    """One deflation update: subtract the Rayleigh-weighted projector of ``v``.

    The update is bitwise symmetric as computed: ``a`` has mirrored triangles
    and ``v_i v_j == v_j v_i`` in floating point. So the result is wrapped
    without re-validation; only finiteness is checked.
    """
    # contiguous copy: BLAS kernels round differently on strided views, which
    # would break bitwise replay of a run from its stored output columns
    v = np.ascontiguousarray(v, dtype=float)
    if v.shape != (sigma_k.dim,):
        raise DimensionMismatchError(f"vector shape {v.shape} incompatible with dim {sigma_k.dim}")
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise ValueError("deflation vector must have unit norm")
    a = sigma_k.array
    # np.dot releases the GIL around the BLAS call; `a @ v` does not
    rayleigh = float(v @ np.dot(a, v))
    # a - rayleigh * outer(v, v), the same operations in the same order, in
    # one d x d buffer
    b = np.outer(v, v)
    b *= rayleigh
    np.subtract(a, b, out=b)
    return SymMatrix._trusted(b)


def aligned_top_eigenvector(sigma_k: SymMatrix, u_star_k: np.ndarray) -> tuple[np.ndarray, float]:
    """Oracle top eigenvector of ``sigma_k`` with its sign fixed by ``u_star_k``.

    Both signs of an eigenvector are valid; the returned one satisfies
    u . u_star_k >= 0. An exactly orthogonal pair is accepted with a warning
    (either sign is as good). A top-gap below 1e-12 means the "top
    eigenvector" is not well defined and raises :class:`DegenerateGapError`.
    """
    u_star_k = np.asarray(u_star_k, dtype=float)
    if u_star_k.shape != (sigma_k.dim,):
        raise DimensionMismatchError("reference vector dimension mismatch")
    if abs(np.linalg.norm(u_star_k) - 1.0) > _UNIT_TOL:
        raise ValueError("reference vector must have unit norm")
    spec = jacobi_eigendecomposition(sigma_k)
    if spec.dim >= 2 and spec.eigenvalues[0] - spec.eigenvalues[1] < _GAP_TOL:
        raise DegenerateGapError(
            f"top two eigenvalues within {_GAP_TOL:g}; top eigenvector is ambiguous"
        )
    u = spec.eigenvector(0)
    dot = float(u @ u_star_k)
    if dot == 0.0:
        warnings.warn("alignment is ambiguous: candidate is orthogonal to the reference",
                      stacklevel=2)
    if dot < 0:
        u = -u
    return u, float(spec.eigenvalues[0])


@dataclass(frozen=True)
class DeflationRun:
    """Vector trace of an inexact deflation run.

    ``spectrum`` is the reference spectrum the run was checked and measured
    against (``None`` for a run without the oracle). The run stores no
    matrix. For a run with the oracle, from the input sigma_1,
    sigma_{k+1} = deflate_step(sigma_k, components[:, k-1]) replays the
    deflated ones bitwise; a run without it multiplied by the deflated
    operator instead, which that replay matches to roundoff.

    Per step k (columns of the (d, K) arrays, 1-based step index):

    * ``components[:, k-1]`` - sub-routine output v_k, sign-matched to the
      exact top eigenvector of sigma_k when the oracle ran (both signs are
      equally valid outputs; the deflation update is sign-invariant).
    * ``exact_tops[:, k-1]`` - oracle top eigenvector u_k of sigma_k, sign
      fixed against the ideal eigenvector (diagnostic; the algorithm itself
      never consults the oracle).
    * ``top_eigenvalues[k-1]`` - oracle top eigenvalue of sigma_k.
    * ``init_alignments[k-1]`` - |x_{0,k} . u_k|.

    The oracle fields (``top_eigenvalues``, ``exact_tops`` and
    ``init_alignments``) are ``None`` for a run without the oracle. The
    sub-routine error v_k - u_k is ``components - exact_tops``, column k-1.
    """

    d: int
    K: int
    t: int
    seed: int
    spectrum: Spectrum | None
    components: np.ndarray
    top_eigenvalues: np.ndarray | None
    exact_tops: np.ndarray | None
    init_alignments: np.ndarray | None

    def __post_init__(self):
        for name in ("components", "top_eigenvalues", "exact_tops", "init_alignments"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)


class _DeflatedOperator:
    """sigma_k of a run without the oracle: the rows of ``_v[:k]`` are the
    outputs deflated so far, ``_rho[:k]`` their Rayleigh quotients, and the
    product is sigma_1 x - V^T (rho * V x). Until the first update it is
    sigma_1's own product, with its bits."""

    __slots__ = ("dim", "_base", "_v", "_rho", "_k")

    def __init__(self, sigma, K: int) -> None:
        self.dim = sigma.dim
        self._base = sigma.matvec
        self._v = np.empty((K, sigma.dim))
        self._rho = np.empty(K)
        self._k = 0

    @property
    def matvec(self):
        return self._deflated_matvec if self._k else self._base

    def _deflated_matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._base(x, out)
        v = self._v[:self._k]
        c = v.dot(x)
        c *= self._rho[:self._k]
        out -= c.dot(v)
        return out

    def deflate(self, v: np.ndarray) -> None:
        """sigma_{k+1} = sigma_k - (v . sigma_k v) v v^T, kept as (v, rho)."""
        rho = float(v @ self.matvec(v, np.empty(self.dim)))
        if not math.isfinite(rho):
            raise ValueError(f"Rayleigh quotient {rho} of the deflation vector is not finite")
        self._v[self._k] = v
        self._rho[self._k] = rho
        self._k += 1


def _check_spectrum(spectrum: Spectrum, d: int, K: int) -> None:
    """The run's precondition on its reference spectrum.

    Theorems 1-2, the smallest of the first K gaps and the oracle's per-step
    gap read only lambda_1..lambda_{K+1}, so only those must decrease
    strictly; every eigenvalue must be positive.
    """
    if spectrum.dim != d:
        raise DimensionMismatchError("spectrum dimension does not match the matrix")
    basis = spectrum.basis
    if np.abs(basis.T @ basis - np.eye(d)).max() > 1e-10:
        raise InvalidSpectrumError("spectrum basis columns are not orthonormal")
    lam = spectrum.eigenvalues
    if lam[-1] <= 0 or np.any(np.diff(lam[:K + 1]) >= -_GAP_TOL):
        raise InvalidSpectrumError(
            "matrix must have strictly decreasing positive eigenvalues"
        )


def run_inexact_deflation(
    sigma,
    K: int,
    t: int,
    rng: RandomSource,
    *,
    spectrum: Spectrum | None = None,
) -> DeflationRun:
    """Extract K approximate top eigenvectors with t power-iteration steps each.

    Every step draws its start vector from an independent substream derived
    from (seed, k), runs the sub-routine and deflates. Given the reference
    ``spectrum`` of ``sigma``, the run first checks it (orthonormal basis,
    positive eigenvalues, lambda_1..lambda_{K+1} strictly decreasing) and
    records the exact top eigenpair of every current matrix for
    diagnostics. The runtime path never feeds oracle information back into
    the algorithm; the only oracle-dependent choice is the reported sign of
    the output vector, and the deflation update is sign-invariant.

    Without a spectrum no oracle runs and no decay is required, for matrices
    (such as graph Laplacians) that may carry ties. ``sigma`` is then either
    a :class:`SymMatrix` or any symmetric operator with ``dim`` and
    ``matvec(x, out)``, and the run multiplies by the deflated operator
    without forming a deflated matrix.
    """
    d = sigma.dim
    if not 1 <= K <= d:
        raise ValueError(f"K must lie in [1, {d}], got {K}")
    if t < 1:
        raise ValueError("t must be >= 1")
    oracle = spectrum is not None
    if oracle:
        if not isinstance(sigma, SymMatrix):
            raise TypeError("the oracle needs sigma as a SymMatrix")
        _check_spectrum(spectrum, d, K)

    components = np.empty((d, K))
    lambdas = np.empty(K) if oracle else None
    exact_tops = np.empty((d, K)) if oracle else None
    alignments = np.empty(K) if oracle else None

    current = sigma if oracle else _DeflatedOperator(sigma, K)
    for k in range(1, K + 1):
        x0 = sample_unit_sphere(d, rng.substream(k))
        v = power_iterate(current, x0, t)
        if oracle:
            u, lam = aligned_top_eigenvector(current, spectrum.eigenvector(k - 1))
            if float(v @ u) < 0:
                v = -v
            exact_tops[:, k - 1] = u
            alignments[k - 1] = abs(float(x0 @ u))
            lambdas[k - 1] = lam
        components[:, k - 1] = v
        if oracle:
            current = deflate_step(current, v)
        elif k < K:  # nothing multiplies by sigma_{K+1}
            current.deflate(v)

    return DeflationRun(
        d=d,
        K=K,
        t=t,
        seed=rng.seed,
        spectrum=spectrum,
        components=components,
        top_eigenvalues=lambdas,
        exact_tops=exact_tops,
        init_alignments=alignments,
    )


def reference_run(d: int, K: int, t: int, seed: int, kind: SpectrumKind) -> DeflationRun:
    """The reference protocol: a random basis drawn on substream 0 of
    ``seed``, the test matrix with ``kind``'s eigenvalues in that basis, and a
    K-step run with its spectrum on substream 1."""
    root = RandomSource(seed)
    basis = random_orthogonal_basis(d, root.substream(0))
    sigma, spectrum = build_test_sigma(d, kind, basis)
    return run_inexact_deflation(sigma, K, t, root.substream(1), spectrum=spectrum)
