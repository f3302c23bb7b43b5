"""Fixed-step power iteration plus its guarantees as checkable formulas.

The sub-routine returns the iterate of a fixed number of
multiply-and-normalize steps (no adaptive stopping), so the step count stays
meaningful for the error budgets evaluated in :mod:`deflatrix.bounds`; it
only skips steps that would repeat earlier ones exactly. The closed-form guarantees here are
pure formula evaluations; property tests compare them against measured runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateIterateError, DimensionMismatchError, InvalidSpectrumError
from .linalg import SymMatrix

__all__ = [
    "pi_alignment_bound",
    "pi_error_bound",
    "power_iterate",
]

_UNIT_TOL = 1e-10
# the iterate is snapshotted every _SNAPSHOT_EVERY steps and compared two
# steps later; a match ends the loop (see power_iterate)
_SNAPSHOT_EVERY = 16


def power_iterate(m: SymMatrix, x0: np.ndarray, t: int) -> np.ndarray:
    """Run ``t`` multiply-and-normalize steps from unit vector ``x0`` and
    return the final iterate x_t, bit for bit.

    ``m`` is a :class:`SymMatrix` or any symmetric operator with ``dim`` and
    ``matvec(x, out)``, which writes m x into ``out`` without reading it.

    In float64 the iterate often starts to repeat exactly long before step
    t. A step's result depends only on the bits of the iterate it reads and
    on the two buffers it reads and writes, which alternate. So once x_{s+2}
    equals x_s bit for bit (+0.0 and -0.0 count as different) in the buffer
    that held x_s, every later step repeats one already taken, and x_t is
    x_s or x_{s+1} by the parity of t. Both are in hand: the loop stops
    there and returns the buffer that holds x_t's parity."""
    x0 = np.ascontiguousarray(x0, dtype=float)
    if x0.shape != (m.dim,):
        raise DimensionMismatchError(f"start vector shape {x0.shape} incompatible with dim {m.dim}")
    # the value np.linalg.norm computes for a contiguous 1-D vector, without its overhead
    if abs(math.sqrt(x0.dot(x0)) - 1.0) > _UNIT_TOL:
        raise ValueError("start vector must have unit norm")
    if t < 0:
        raise ValueError("step count must be non-negative")
    x = x0
    # Step i writes its product into buffer i % 2 and normalizes it there,
    # so a step never writes the iterate it reads and the loop only reads x0;
    # the array returned belongs to this call alone, a copy of x0 at t = 0.
    buffers = (np.empty(m.dim), np.empty(m.dim))
    matvec = m.matvec
    divide = np.divide
    snapshot = None
    check = _SNAPSHOT_EVERY - 1
    for i in range(t):
        y = buffers[i % 2]
        matvec(x, y)
        n = math.sqrt(y.dot(y))
        if n < 1e-300:
            raise DegenerateIterateError("iterate vanished: start vector lies in the kernel")
        divide(y, n, out=y)
        x = y
        if i == check:
            if snapshot is None:
                snapshot, check = y.tobytes(), i + 2
            elif y.tobytes() == snapshot:
                # x_{i+1} repeats x_{i-1} in buffer i % 2: period two from here
                return buffers[(t - 1) % 2]
            else:
                snapshot, check = None, i - 2 + _SNAPSHOT_EVERY
    return x if t else x0.copy()


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

