"""Measured error-propagation quantities, bound reports and gated inequality
margins.

Everything here is read-only analysis of a finished run against the
reference spectrum (lambda, U) it carries. :func:`diagnose_run` works in
the eigenbasis U, where the exact deflation sequence is diagonal, so no
ideal matrix is ever built. :func:`bound_report` feeds the run's
measurements to the bound engine. Alignment profiles are always taken
against the *original* eigenbasis (the ideal directions), not per-step
oracles, because that is what the figure traces plot.

An inequality check returns its margin, the bound plus slack minus the
measured value, which is >= 0 iff the inequality holds, or None where its
precondition fails, so property tests never count vacuous cases as passes.
The slack is 1e-10 absolute: the bounds have at least O(1) analytic slack at
the dimensions this package targets, so roundoff cannot flip a genuine
verdict, while measured quantities never sit more than ~1e-13 from truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInputs, BoundRow, build_bound_report, eigengaps
from .deflate import DeflationRun, deflate_step
from .errors import DegenerateGapError, DimensionMismatchError
from .linalg import Spectrum, SymMatrix, jacobi_eigendecomposition, spectral_norm

__all__ = [
    "CHECK_SLACK",
    "StepDiagnostics",
    "alignment_lower_bound_check",
    "bound_report",
    "diagnose_run",
    "eigvec_inner_identity_check",
    "inputs_from_run",
    "matrix_gap_recurrence_check",
]

CHECK_SLACK = 1e-10


@dataclass(frozen=True)
class StepDiagnostics:
    """Every measured quantity for one deflation step (1-based index ``k``).

    * ``sub_err`` - size of the sub-routine error at this step.
    * ``matrix_gap_fro`` / ``matrix_gap_spec`` - Frobenius / spectral norm of
      the gap between the actual and ideal deflated matrices.
    * ``output_err`` - distance of the output vector from the ideal
      eigenvector; ``drift`` - distance of the running top eigenvector from
      the ideal one. The triangle inequality output_err <= sub_err + drift
      holds by construction and is asserted.
    * ``directional_gaps[j-1]`` - norm of the matrix gap applied to the j-th
      ideal eigenvector; ``output_alignments`` / ``top_alignments`` - absolute
      inner products of the output / running top eigenvector with every ideal
      eigenvector; ``inner_gap`` - |u_k . gap . ideal_k|.
    """

    k: int
    sub_err: float
    matrix_gap_fro: float
    matrix_gap_spec: float
    output_err: float
    drift: float
    directional_gaps: np.ndarray
    output_alignments: np.ndarray
    top_alignments: np.ndarray
    inner_gap: float


def diagnose_run(run: DeflationRun) -> list[StepDiagnostics]:
    """Compute the full per-step diagnostic table of a run.

    In the reference eigenbasis U the input is M_1 = diag(lambda) and the
    ideal sigma*_k is diag(0, ..., 0, lambda_k, ..., lambda_d); the run's own
    update M_{k+1} = deflate_step(M_k, U^T v_k) replays sigma_k there. The
    columns of G_k = M_k - sigma*_k are the directional gaps, and G_k keeps
    M_k's mirrored triangles, so it is wrapped unvalidated.
    """
    spectrum = run.spectrum
    basis = spectrum.basis
    lam = spectrum.eigenvalues
    sub_norms = _sub_error_norms(run)
    out = []
    m_k = SymMatrix._trusted(np.diag(lam))
    for k in range(1, run.K + 1):
        v = run.components[:, k - 1]
        u = run.exact_tops[:, k - 1]
        u_star = spectrum.eigenvector(k - 1)
        w = basis.T @ v
        a = basis.T @ u
        gap = m_k.array.copy()
        # einsum returns a writeable view of the copy's diagonal
        np.einsum("ii->i", gap)[k - 1:] -= lam[k - 1:]
        sub_err = float(sub_norms[k - 1])
        # the differences are contiguous, where this is np.linalg.norm's value
        e = v - u_star
        output_err = math.sqrt(e.dot(e))
        e = u - u_star
        drift = math.sqrt(e.dot(e))
        if output_err > sub_err + drift + 1e-12:
            raise AssertionError("triangle decomposition violated; diagnostics are inconsistent")
        out.append(
            StepDiagnostics(
                k=k,
                sub_err=sub_err,
                matrix_gap_fro=float(np.linalg.norm(gap)),
                matrix_gap_spec=spectral_norm(SymMatrix._trusted(gap)),
                output_err=output_err,
                drift=drift,
                directional_gaps=np.linalg.norm(gap, axis=0),
                output_alignments=np.abs(w),
                top_alignments=np.abs(a),
                inner_gap=float(abs(a @ gap[:, k - 1])),
            )
        )
        m_k = deflate_step(m_k, w)
    return out


def _sub_error_norms(run: DeflationRun) -> np.ndarray:
    """||v_k - u_k|| for every step k, as np.linalg.norm takes it of the
    column: the dot of a contiguous copy with itself."""
    rows = np.ascontiguousarray((run.components - run.exact_tops).T)
    return np.array([math.sqrt(r.dot(r)) for r in rows])


def inputs_from_run(run: DeflationRun, epsilon: float | None = None) -> BoundInputs:
    """Bundle a finished run's measurements for the bound formulas; the
    sub-routine error sizes are the ``sub_err`` values of
    :func:`diagnose_run`."""
    sub_norms = _sub_error_norms(run)
    worst_alignment = float(run.init_alignments.min())
    if worst_alignment <= 1e-12:
        raise ValueError("a start vector was (numerically) orthogonal to its target")
    return BoundInputs(
        lambdas=run.spectrum.eigenvalues,
        sub_error_norms=sub_norms,
        init_constant=max(1.0, 1.0 / worst_alignment),
        t=run.t,
        K=run.K,
        epsilon=epsilon,
    )


def bound_report(
    run: DeflationRun,
    epsilon: float | None = None,
    diags: list[StepDiagnostics] | None = None,
) -> list[BoundRow]:
    """The run's bound report (the rows of ``bounds.csv``): both families'
    flags and bounds, and with ``epsilon`` both budgets, next to each step's
    measured output error against the ideal eigenvector. Given the run's
    ``diags`` from :func:`diagnose_run`, the errors are their ``output_err``
    values, which are the same numbers, rather than computed again."""
    inputs = inputs_from_run(run, epsilon)
    spectrum = run.spectrum
    if diags is not None:
        errors = [dg.output_err for dg in diags]
    else:
        errors = [
            float(np.linalg.norm(run.components[:, k - 1] - spectrum.eigenvector(k - 1)))
            for k in range(1, run.K + 1)
        ]
    return build_bound_report(inputs, eigengaps(spectrum.eigenvalues), errors)


def matrix_gap_recurrence_check(
    diags: list[StepDiagnostics], ideal_eigenvalues
) -> list[float | None]:
    """One-step growth law of the matrix gap.

    For each step k with the next step available, the margin of

        gap_fro(k+1) <= 3 gap_fro(k) + 5 lam_k sub_err(k) + 2 lam_k drift(k)

    provided the sub-routine error is at most 1/6 (None above that: skipped,
    not failed).
    """
    lam = np.asarray(ideal_eigenvalues, dtype=float)
    margins = []
    for cur, nxt in zip(diags, diags[1:]):
        if cur.sub_err > 1.0 / 6.0:
            margins.append(None)
            continue
        lam_k = float(lam[cur.k - 1])
        rhs = 3.0 * cur.matrix_gap_fro + 5.0 * lam_k * cur.sub_err + 2.0 * lam_k * cur.drift
        margins.append(rhs + CHECK_SLACK - nxt.matrix_gap_fro)
    return margins


def eigvec_inner_identity_check(
    m: SymMatrix, m_star: SymMatrix, i: int, j: int
) -> tuple[float, float, float]:
    """Exact identity a_i . a_j* = (a_i . H a_j*) / (sigma_i - sigma_j*).

    ``i`` and ``j`` are 0-based eigenvector indices into the perturbed and
    unperturbed matrices respectively; H is their difference. Eigenvalue
    pairs closer than 1e-8 are degenerate for this purpose and raise.
    Returns (lhs, rhs, relative error).
    """
    if m.dim != m_star.dim:
        raise DimensionMismatchError("matrices must have equal dimension")
    spec = jacobi_eigendecomposition(m)
    spec_star = jacobi_eigendecomposition(m_star)
    sigma_i = float(spec.eigenvalues[i])
    sigma_j = float(spec_star.eigenvalues[j])
    if abs(sigma_i - sigma_j) < 1e-8:
        raise DegenerateGapError("eigenvalue pair is degenerate; the identity divides by it")
    a_i = spec.eigenvector(i)
    a_j = spec_star.eigenvector(j)
    h = m.array - m_star.array
    lhs = float(a_i @ a_j)
    rhs = float(a_i @ (h @ a_j)) / (sigma_i - sigma_j)
    rel_err = abs(lhs - rhs) / max(1e-12, abs(lhs))
    return lhs, rhs, rel_err


def alignment_lower_bound_check(
    gap_fro: float, u: np.ndarray, spectrum: Spectrum, k: int
) -> float | None:
    """Alignment floor for the running top eigenvector.

    ``gap_fro`` is the step's measured Frobenius matrix gap and ``u`` the
    oracle top eigenvector of sigma_k (``run.exact_tops[:, k-1]``). When the
    gap is at most an eighth of the ideal eigenvalue, the squared alignment
    with the ideal eigenvector is bounded below by one minus a gap term minus
    the leaked alignment onto later eigenvectors; the margin is the squared
    alignment minus that floor plus slack. Above the gate it is None.
    """
    lam_k = float(spectrum.eigenvalues[k - 1])
    if gap_fro > lam_k / 8.0:
        return None
    lhs = float(u @ spectrum.eigenvector(k - 1)) ** 2
    later = spectrum.basis[:, k:].T @ u
    rhs = 1.0 - 2.4 / lam_k**2 * gap_fro**2 - float(later @ later)
    return lhs - rhs + CHECK_SLACK
