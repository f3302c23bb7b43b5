"""Sequential top-K eigenvector extraction by matrix deflation.

Each step asks the inexact sub-routine (power iteration) for an approximate
top eigenvector of the current matrix, then removes that direction:

    sigma_{k+1} = sigma_k - (v_k . sigma_k v_k) v_k v_k^T.

The run keeps vectors, not matrices: alongside each output ``v_k`` it
records the oracle's exact top eigenpair of ``sigma_k`` and the sub-routine
error vector, plus a reference to the input matrix. Every ``sigma_k`` can be
replayed bitwise from the input and the outputs with :func:`deflate_step`,
and every ideal matrix is a closed form of the known spectrum, so memory
stays O(d^2) however many steps are taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, DimensionMismatchError, InvalidSpectrumError
from .linalg import (
    RandomSource,
    Spectrum,
    SymMatrix,
    jacobi_eigendecomposition,
    sample_unit_sphere,
)
from .powerit import power_iterate

__all__ = [
    "DeflationRun",
    "GroundTruthTrace",
    "aligned_top_eigenvector",
    "deflate_step",
    "ideal_deflation",
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


@dataclass(frozen=True)
class GroundTruthTrace:
    """The ideal deflation sequence: what exact sub-routine steps would produce.

    The k-th ideal matrix (``k = 1`` is the original matrix, ``k = K + 1`` the
    matrix after K exact steps) is built on demand from its closed form; its
    top eigenpair is ``spectrum.eigenvector(k-1)`` / ``eigenvalues[k-1]``.
    """

    spectrum: Spectrum
    K: int

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    def ideal_matrix(self, k: int) -> SymMatrix:
        """Ideal deflated matrix at step ``k`` (1-based, up to K+1): the
        original matrix with its first k-1 eigencomponents dropped."""
        if not 1 <= k <= self.K + 1:
            raise ValueError(f"k must lie in [1, {self.K + 1}], got {k}")
        basis = self.spectrum.basis
        tail = basis[:, k - 1:] * self.spectrum.eigenvalues[k - 1:]
        return SymMatrix(tail @ basis[:, k - 1:].T)

    def ideal_vector(self, k: int) -> np.ndarray:
        return self.spectrum.eigenvector(k - 1)

    def ideal_value(self, k: int) -> float:
        return float(self.spectrum.eigenvalues[k - 1])


def ideal_deflation(spectrum: Spectrum, K: int) -> GroundTruthTrace:
    """The ideal deflation sequence of ``spectrum`` up to step K.

    Exact deflation drops one eigencomponent per step only if the basis is
    orthonormal; a basis off by more than 1e-10 raises.
    """
    d = spectrum.dim
    if not 1 <= K <= d:
        raise ValueError(f"K must lie in [1, {d}], got {K}")
    basis = spectrum.basis
    if np.abs(basis.T @ basis - np.eye(d)).max() > 1e-10:
        raise InvalidSpectrumError("spectrum basis columns are not orthonormal")
    return GroundTruthTrace(spectrum=spectrum, K=K)


def aligned_top_eigenvector(
    sigma_k: SymMatrix,
    u_star_k: np.ndarray,
    *,
    spectrum: Spectrum | None = None,
) -> tuple[np.ndarray, float]:
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
    spec = spectrum if spectrum is not None else jacobi_eigendecomposition(sigma_k)
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

    ``sigma`` is the input matrix. The run stores no deflated matrix:
    sigma_{k+1} = deflate_step(sigma_k, components[:, k-1]) replays them
    bitwise.

    Per step k (columns of the (d, K) arrays, 1-based step index):

    * ``components[:, k-1]`` - sub-routine output v_k, sign-matched to the
      exact top eigenvector of sigma_k when the oracle ran (both signs are
      equally valid outputs; the deflation update is sign-invariant).
    * ``exact_tops[:, k-1]`` - oracle top eigenvector u_k of sigma_k, sign
      fixed against the ideal eigenvector (diagnostic; the algorithm itself
      never consults the oracle).
    * ``sub_errors[:, k-1]`` - v_k - u_k.
    * ``top_eigenvalues[k-1]`` - top eigenvalue of sigma_k (oracle value
      when available, otherwise the Rayleigh quotient of v_k).
    * ``init_alignments[k-1]`` - |x_{0,k} . u_k|.
    """

    d: int
    K: int
    t: int
    seed: int
    sigma: SymMatrix
    components: np.ndarray
    top_eigenvalues: np.ndarray
    exact_tops: np.ndarray | None
    sub_errors: np.ndarray | None
    init_alignments: np.ndarray | None
    assumption_ok: bool | None

    def __post_init__(self):
        for name in ("components", "top_eigenvalues", "exact_tops",
                     "sub_errors", "init_alignments"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def has_oracle_trace(self) -> bool:
        return self.exact_tops is not None

    def component(self, k: int) -> np.ndarray:
        """Output vector at step ``k`` (1-based)."""
        return self.components[:, k - 1]


def _check_assumption(spectrum: Spectrum) -> bool:
    lam = spectrum.eigenvalues
    if lam[-1] <= 0 or np.any(np.diff(lam) >= -_GAP_TOL):
        raise InvalidSpectrumError(
            "matrix must have strictly decreasing positive eigenvalues"
        )
    if abs(lam[0] - 1.0) > 1e-12:
        warnings.warn("leading eigenvalue is not 1; proceeding without rescaling", stacklevel=3)
        return False
    return True


def run_inexact_deflation(
    sigma: SymMatrix,
    K: int,
    t: int,
    rng: RandomSource,
    *,
    spectrum: Spectrum | None = None,
    with_oracle: bool = True,
) -> DeflationRun:
    """Extract K approximate top eigenvectors with t power-iteration steps each.

    Every step draws its start vector from an independent substream derived
    from (seed, k), runs the sub-routine, deflates, and (when ``with_oracle``)
    records the exact top eigenpair of the current matrix for diagnostics.
    The runtime path never feeds oracle information back into the algorithm;
    the only oracle-dependent choice is the reported sign of the output
    vector, and the deflation update is sign-invariant.

    ``with_oracle=False`` also skips the strict-eigenvalue-decay check, for
    matrices (such as graph Laplacians) that may carry ties; step-level
    degeneracies then surface as errors only where they matter.
    """
    d = sigma.dim
    if not 1 <= K <= d:
        raise ValueError(f"K must lie in [1, {d}], got {K}")
    if t < 1:
        raise ValueError("t must be >= 1")

    assumption_ok: bool | None = None
    if spectrum is None and with_oracle:
        spectrum = jacobi_eigendecomposition(sigma)
    if spectrum is not None:
        if spectrum.dim != d:
            raise DimensionMismatchError("spectrum dimension does not match the matrix")
        if with_oracle:
            assumption_ok = _check_assumption(spectrum)

    components = np.empty((d, K))
    lambdas = np.empty(K)
    exact_tops = np.empty((d, K)) if with_oracle else None
    sub_errors = np.empty((d, K)) if with_oracle else None
    alignments = np.empty(K) if with_oracle else None

    current = sigma
    for k in range(1, K + 1):
        x0 = sample_unit_sphere(d, rng.substream(k))
        result = power_iterate(current, x0, t)
        v = result.x_t
        if with_oracle:
            assert spectrum is not None
            step_spec = jacobi_eigendecomposition(current)
            u, lam = aligned_top_eigenvector(
                current, spectrum.eigenvector(k - 1), spectrum=step_spec
            )
            if float(v @ u) < 0:
                v = -v
            exact_tops[:, k - 1] = u
            sub_errors[:, k - 1] = v - u
            alignments[k - 1] = abs(float(x0 @ u))
            lambdas[k - 1] = lam
        else:
            lambdas[k - 1] = result.rayleigh
        components[:, k - 1] = v
        current = deflate_step(current, v)

    return DeflationRun(
        d=d,
        K=K,
        t=t,
        seed=rng.seed,
        sigma=sigma,
        components=components,
        top_eigenvalues=lambdas,
        exact_tops=exact_tops,
        sub_errors=sub_errors,
        init_alignments=alignments,
        assumption_ok=assumption_ok,
    )
