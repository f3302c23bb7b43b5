"""Sequential top-K eigenvector extraction by matrix deflation.

Each step asks the inexact sub-routine (power iteration) for an approximate
top eigenvector of the current matrix, then removes that direction:

    sigma_{k+1} = sigma_k - (v_k . sigma_k v_k) v_k v_k^T.

A run is checked against a reference spectrum and measured by the oracle,
which reads the exact top eigenpair of every sigma_k, so the run updates a
dense matrix. It keeps vectors, not matrices: its outputs ``v_k``, the
spectrum and the oracle's top eigenpairs. Diagnostics replay the update in
the spectrum's eigenbasis, where the input is diagonal
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
from .powerit import _UNIT_TOL, power_iterate

__all__ = [
    "DeflationRun",
    "aligned_top_eigenvector",
    "deflate_step",
    "reference_run",
    "run_inexact_deflation",
]

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
    if abs(math.sqrt(v.dot(v)) - 1.0) > _UNIT_TOL:
        raise ValueError("deflation vector must have unit norm")
    a = sigma_k.array
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
    # np.linalg.norm's value: it, too, takes a strided column's dot on a
    # contiguous copy
    ref = np.ascontiguousarray(u_star_k)
    if abs(math.sqrt(ref.dot(ref)) - 1.0) > _UNIT_TOL:
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
    against. The run stores no matrix: from the input sigma_1,
    sigma_{k+1} = deflate_step(sigma_k, components[:, k-1]) replays the
    deflated ones bitwise.

    Per step k (columns of the (d, K) arrays, 1-based step index):

    * ``components[:, k-1]`` - sub-routine output v_k, sign-matched to the
      exact top eigenvector of sigma_k (both signs are equally valid
      outputs; the deflation update is sign-invariant).
    * ``exact_tops[:, k-1]`` - oracle top eigenvector u_k of sigma_k, sign
      fixed against the ideal eigenvector (diagnostic; the algorithm itself
      never consults the oracle).
    * ``top_eigenvalues[k-1]`` - oracle top eigenvalue of sigma_k.
    * ``init_alignments[k-1]`` - |x_{0,k} . u_k|.

    The sub-routine error v_k - u_k is ``components - exact_tops``, column k-1.
    """

    d: int
    K: int
    t: int
    seed: int
    spectrum: Spectrum
    components: np.ndarray
    top_eigenvalues: np.ndarray
    exact_tops: np.ndarray
    init_alignments: np.ndarray

    def __post_init__(self):
        for arr in (self.components, self.top_eigenvalues, self.exact_tops,
                    self.init_alignments):
            arr.setflags(write=False)


def _check_spectrum(spectrum: Spectrum, d: int, K: int) -> None:
    """The run's precondition on its reference spectrum.

    Theorems 1-2, the smallest of the first K gaps and the oracle's per-step
    gap read only lambda_1..lambda_{K+1}, so only those must decrease
    strictly, each by more than 1e-12; every eigenvalue must be positive. The
    message names the first eigenvalue or gap that fails.
    """
    if spectrum.dim != d:
        raise DimensionMismatchError("spectrum dimension does not match the matrix")
    basis = spectrum.basis
    if np.abs(basis.T @ basis - np.eye(d)).max() > 1e-10:
        raise InvalidSpectrumError("spectrum basis columns are not orthonormal")
    lam = spectrum.eigenvalues
    head = lam[:K + 1]
    gaps = head[:-1] - head[1:]
    if lam[-1] <= 0:
        j = int(np.argmax(lam <= 0))
        cause = f"lambda_{j + 1} = {lam[j]:.3g} is not positive"
    elif np.any(gaps <= _GAP_TOL):
        k = int(np.argmax(gaps <= _GAP_TOL)) + 1
        cause = f"lambda_{k} - lambda_{k + 1} = {gaps[k - 1]:.3g} is at most {_GAP_TOL:g}"
    else:
        return
    raise InvalidSpectrumError(
        f"matrix must have strictly decreasing positive eigenvalues: {cause}"
    )


def run_inexact_deflation(
    sigma: SymMatrix,
    K: int,
    t: int,
    rng: RandomSource,
    *,
    spectrum: Spectrum,
) -> DeflationRun:
    """Extract K approximate top eigenvectors with t power-iteration steps each.

    The run first checks the reference ``spectrum`` of ``sigma`` (orthonormal
    basis, positive eigenvalues, lambda_1..lambda_{K+1} strictly
    decreasing). Every step then draws its start vector from an independent
    substream derived from (seed, k), runs the sub-routine, records the
    exact top eigenpair of the current matrix for diagnostics and deflates.
    The runtime path never feeds oracle information back into the
    algorithm; the only oracle-dependent choice is the reported sign of the
    output vector, and the deflation update is sign-invariant.
    """
    d = sigma.dim
    if not 1 <= K <= d:
        raise ValueError(f"K must lie in [1, {d}], got {K}")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not isinstance(sigma, SymMatrix):
        raise TypeError("the oracle needs sigma as a SymMatrix")
    _check_spectrum(spectrum, d, K)

    components = np.empty((d, K))
    lambdas = np.empty(K)
    exact_tops = np.empty((d, K))
    alignments = np.empty(K)

    current = sigma
    for k in range(1, K + 1):
        x0 = sample_unit_sphere(d, rng.substream(k))
        v = power_iterate(current, x0, t)
        u, lam = aligned_top_eigenvector(current, spectrum.eigenvector(k - 1))
        if float(v @ u) < 0:
            v = -v
        exact_tops[:, k - 1] = u
        alignments[k - 1] = abs(float(x0 @ u))
        lambdas[k - 1] = lam
        components[:, k - 1] = v
        current = deflate_step(current, v)

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
