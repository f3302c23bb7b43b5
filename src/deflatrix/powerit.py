"""Fixed-step power iteration plus its guarantees as checkable formulas.

The sub-routine runs a fixed number of multiply-and-normalize steps (no
adaptive stopping), so the step count stays meaningful for the error budgets
evaluated in :mod:`deflatrix.bounds`. The closed-form guarantees here are
pure formula evaluations; property tests compare them against measured runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIterateError, DimensionMismatchError, InvalidSpectrumError
from .linalg import SymMatrix

__all__ = [
    "PowerIterResult",
    "pi_alignment_bound",
    "pi_error_bound",
    "power_iterate",
]

_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class PowerIterResult:
    """Outcome of a fixed-step power iteration: the final iterate and its
    Rayleigh quotient."""

    x_t: np.ndarray
    rayleigh: float


def power_iterate(m: SymMatrix, x0: np.ndarray, t: int) -> PowerIterResult:
    """Run exactly ``t`` multiply-and-normalize steps from unit vector ``x0``."""
    x0 = np.ascontiguousarray(x0, dtype=float)
    if x0.shape != (m.dim,):
        raise DimensionMismatchError(f"start vector shape {x0.shape} incompatible with dim {m.dim}")
    if abs(np.linalg.norm(x0) - 1.0) > _UNIT_TOL:
        raise ValueError("start vector must have unit norm")
    if t < 0:
        raise ValueError("step count must be non-negative")
    a = m.array
    x = x0
    # Step i writes its product into buffer i % 2 and normalizes it there,
    # so a step never writes the iterate it reads, the loop only reads x0,
    # and the buffer returned as x_t belongs to this call alone.
    # `a.dot(x, y)` releases the GIL around the BLAS call, like np.dot; the
    # 2-D x 1-D `a @ x` does not.
    buffers = (np.empty(m.dim), np.empty(m.dim))
    matvec = a.dot
    divide = np.divide
    for i in range(t):
        y = buffers[i % 2]
        matvec(x, y)
        # the value np.linalg.norm computes for a 1-D vector, without its overhead
        n = math.sqrt(y.dot(y))
        if n < 1e-300:
            raise DegenerateIterateError("iterate vanished: start vector lies in the kernel")
        divide(y, n, out=y)
        x = y
    # np.dot releases the GIL around the BLAS call; `a @ x` does not
    rayleigh = float(x @ np.dot(a, x))
    return PowerIterResult(x_t=x, rayleigh=rayleigh)


def pi_error_bound(sigma1: float, sigma2: float, t: int) -> float:
    """Distance guarantee sqrt(2) * (sigma2/sigma1)**t for the iterate.

    Bounds min over signs of ||s*x_t - a_1||_2, valid once the start vector
    has alignment at least 1/sqrt(2) with the top eigenvector. Equals sqrt(2)
    at t = 0 and decreases geometrically.
    """
    if not sigma1 > sigma2 >= 0:
        raise InvalidSpectrumError("need sigma1 > sigma2 >= 0")
    if t < 0:
        raise ValueError("step count must be non-negative")
    return math.sqrt(2.0) * (sigma2 / sigma1) ** t


def pi_alignment_bound(
    sigma_j_star: float, sigma1: float, h_aj_norm: float, c0: float, t: int
) -> float:
    """Upper bound on |x_t . a_j*| when iterating a perturbed matrix.

    ``sigma_j_star`` is the j-th eigenvalue of the unperturbed matrix,
    ``sigma1`` the top eigenvalue of the matrix actually iterated,
    ``h_aj_norm`` the norm of the perturbation applied to the j-th ideal
    eigenvector, and ``c0`` the reciprocal of the start vector's alignment
    with the iterated matrix's top eigenvector. With ``h_aj_norm == 0`` this
    reduces to the unperturbed decay c0 * (sigma_j*/sigma1)**t.

    The leak coefficient must be 1/(sigma1 - sigma_j*): unrolling the iterate
    puts t-1-t' powers of sigma_j* on the perturbation picked up at step t',
    and the t -> infinity limit |a_1 . H a_j*| / (sigma1 - sigma_j*) is not
    damped by sigma_j*, so a sigma_j*-weighted coefficient would be violated
    for small sigma_j*.
    """
    if not sigma1 > sigma_j_star >= 0:
        raise InvalidSpectrumError("need sigma1 > sigma_j_star >= 0")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if h_aj_norm < 0:
        raise ValueError("perturbation norm must be non-negative")
    if t < 0:
        raise ValueError("step count must be non-negative")
    decay = (sigma_j_star / sigma1) ** t
    leak = h_aj_norm / (sigma1 - sigma_j_star)
    return c0 * (decay + leak)

