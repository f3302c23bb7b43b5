"""Independent checkers for the benchmark's outputs.

Nothing here imports deflatrix: every expected value is recomputed with plain
numpy from the generated inputs, so a fault in the program cannot hide in the
check. Each ``check_*`` function returns a list of problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FIGURE_TOL = 1e-10
BOUND_RTOL = 1e-9
# bound-engine values below this are compared as zero: a product of
# accumulation factors near the float64 limit leaves a subnormal quotient
# whose relative digits are not meaningful
BOUND_ATOL = 1e-300
MI_TOL = 1e-12
FAILED = "precondition-failed"

# The CLI draws its basis from RandomSource(seed).substream(0): Philox keyed
# by SeedSequence(seed, spawn_key=(0,)).
_BASIS_SPAWN_KEY = (0,)


def read_schema_csv(path) -> list[dict[str, str]]:
    """Rows of a ``# schema=1`` CSV as dicts keyed by its header."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
        if first != "# schema=1":
            raise ValueError(f"{path}: unexpected first line {first!r}")
        return list(csv.DictReader(fh))


def read_vectors_csv(path) -> np.ndarray:
    """(d, K) matrix from ``v.csv`` / ``u.csv``: one column per step."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def power_law_eigenvalues(d: int, gamma: float = 1.0) -> np.ndarray:
    return np.arange(1, d + 1, dtype=float) ** (-gamma)


def orthogonal_basis(seed: int, d: int) -> np.ndarray:
    """The basis the CLI draws for ``seed``: QR of a Philox Gaussian draw,
    signs fixed so that R has a positive diagonal."""
    ss = np.random.SeedSequence(seed, spawn_key=_BASIS_SPAWN_KEY)
    gen = np.random.Generator(np.random.Philox(ss))
    q, r = np.linalg.qr(gen.standard_normal((d, d)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


def deflation_sequence(sigma: np.ndarray, vectors: np.ndarray) -> list[np.ndarray]:
    """sigma_1 .. sigma_{K+1} by the paper's recurrence
    sigma_{k+1} = sigma_k - (v_k . sigma_k v_k) v_k v_k^T."""
    mats = [np.asarray(sigma, dtype=float)]
    for k in range(vectors.shape[1]):
        v = vectors[:, k]
        s = mats[-1]
        mats.append(s - float(v @ s @ v) * np.outer(v, v))
    return mats


def check_figure_outputs(out_dir, seed: int, d: int, K: int, t: int) -> list[str]:
    """Check a power-law ``deflate`` run directory against numpy.

    sigma is rebuilt from the seed and each sigma_k from it and the program's
    own ``v.csv``; ``np.linalg.eigh`` of each sigma_k then gives every column
    of ``run.csv`` and each ``u.csv`` vector up to sign. No ``bounds.csv``
    row may report a numeric bound below its measured error.
    """
    out = Path(out_dir)
    problems: list[str] = []
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    for key, want in (("d", d), ("K", K), ("t", t), ("seed", seed)):
        if meta.get(key) != want:
            problems.append(f"meta.json {key}={meta.get(key)!r}, expected {want!r}")
    rows = read_schema_csv(out / "run.csv")
    v = read_vectors_csv(out / "v.csv")
    u = read_vectors_csv(out / "u.csv")
    if len(rows) != K or v.shape != (d, K) or u.shape != (d, K):
        return problems + [f"shape mismatch: {len(rows)} rows, v {v.shape}, u {u.shape}"]

    lam = power_law_eigenvalues(d)
    basis = orthogonal_basis(seed, d)
    sigmas = deflation_sequence((basis * lam) @ basis.T, v)
    for k in range(1, K + 1):
        row = rows[k - 1]
        if int(row["k"]) != k:
            problems.append(f"run.csv row {k} has k={row['k']}")
            continue
        w, vecs = np.linalg.eigh(sigmas[k - 1])
        vk = v[:, k - 1]
        top = vecs[:, -1] if vecs[:, -1] @ vk >= 0 else -vecs[:, -1]
        ideal = (basis[:, k - 1:] * lam[k - 1:]) @ basis[:, k - 1:].T
        expected = {
            "lambda_k": float(w[-1]),
            "delta_norm": float(np.linalg.norm(vk - top)),
            "eig_err": float(np.linalg.norm(vk - basis[:, k - 1])),
            "matrix_gap_fro": float(np.linalg.norm(sigmas[k - 1] - ideal)),
        }
        for col, want in expected.items():
            got = float(row[col])
            if not abs(got - want) <= FIGURE_TOL:
                problems.append(f"run.csv k={k} {col}={got!r}, recomputed {want!r}")
        uk = u[:, k - 1]
        u_err = min(np.linalg.norm(uk - top), np.linalg.norm(uk + top))
        if not u_err <= FIGURE_TOL:
            problems.append(f"u.csv column {k} is {u_err:.3e} from the recomputed eigenvector")

    for row in read_schema_csv(out / "bounds.csv"):
        emp = float(row["empirical_err"])
        for col in ("thm1_bound", "thm2_bound"):
            if row[col] != FAILED and not emp <= float(row[col]):
                problems.append(f"bounds.csv k={row['k']}: empirical {emp!r} above {col} {row[col]}")
    return problems


# --------------------------------------------------------------------------
# bound engine


def evaluate_bounds(lambdas, sub_errors, c0: float, t: int, K: int, epsilon=None) -> dict:
    """Vectorised evaluation of both bound families, their admissibility
    flags and, with ``epsilon``, the per-step budgets.

    Arrays are indexed by step k-1; NaN marks a bound whose admissibility
    conditions fail. Products of accumulation factors are exponentials of
    differences of prefix sums of their logarithms, so a product beyond the
    float64 range stays finite until the final comparison.
    """
    lam = np.asarray(lambdas, dtype=float)
    delta = np.asarray(sub_errors, dtype=float)[:K]
    d = lam.size
    lam_next = np.append(lam[1:], 0.0)
    gaps = np.append(lam[:-1] - lam[1:], lam[-1])
    min_gap = float(gaps[:K].min())
    ks = np.arange(1, K + 1)
    k_col, kp_row = ks[:, None], ks[None, :]

    # agnostic family; acc(lo, hi) = prod_{j=lo}^{hi} (3 + 2 lam_j / T_j)
    prefix = np.concatenate([[0.0], np.cumsum(np.log(3.0 + 2.0 * lam / gaps))])

    def log_acc(lo, hi):
        return prefix[np.maximum(hi, lo - 1)] - prefix[lo - 1]

    with np.errstate(divide="ignore", over="ignore"):
        log_weight = np.log(lam[None, :K] * delta[None, :])
        cond_terms = np.where(kp_row < k_col, log_weight + log_acc(kp_row + 1, k_col - 1), -np.inf)
        cond_agnostic = np.logaddexp.reduce(cond_terms, axis=1) <= math.log(min_gap / 20.0)
        bound_terms = np.where(
            kp_row <= k_col, log_weight - np.log(lam[:K, None]) + log_acc(kp_row + 1, k_col), -np.inf
        )
        agnostic = 5.0 * np.exp(np.logaddexp.reduce(bound_terms, axis=1))
    agnostic[~np.logical_and.accumulate(cond_agnostic)] = np.nan

    # power-iteration family
    last = lam_next == 0.0
    safe_next = np.where(last, 1.0, lam_next)
    ratio = (7.0 * lam + lam_next) / (7.0 * lam_next + lam)
    log_ratio = np.log(ratio)
    decay_floor = float((1.0 / (np.log(lam[:-1]) - np.log(lam[1:]))).max()) if d > 1 else 0.0
    growth = np.where(last, 1.0, 1.0 + c0 * lam * lam_next / (lam - np.where(last, -1.0, lam_next)))[:K]
    # max over kp < k of log(2 G_k) / log r_kp; no kp at k = 1
    min_log_ratio = np.concatenate([[np.inf], np.minimum.accumulate(log_ratio[: K - 1])])
    step_floor = np.log(2.0 * growth) / min_log_ratio
    cond_step = (t >= step_floor) & (t >= decay_floor)
    kps = np.arange(1, K)
    tail = float(np.sum(8.0 ** (K - kps) * lam[kps - 1] / gaps[kps - 1] * (1.0 / ratio[kps - 1]) ** t))
    cond_tail = bool(tail <= min_gap / (140.0 * c0))
    with np.errstate(under="ignore"):
        leak = 7.0 * c0 / gaps[:K] * (lam_next[:K] / lam[:K]) ** t
    pi_terms = np.where(
        kp_row <= k_col,
        8.0 ** np.maximum(k_col - kp_row, 0) * lam[None, :K] / lam[:K, None] * (5.0 * delta + leak)[None, :],
        0.0,
    )
    power_iter = 3.0 * pi_terms.sum(axis=1)
    if not (cond_tail and cond_step.all()):
        power_iter[:] = np.nan

    out = {
        "agnostic": agnostic,
        "power_iter": power_iter,
        "cond_agnostic": cond_agnostic,
        "cond_step_floor": cond_step,
        "cond_tail": np.full(K, cond_tail),
    }
    if epsilon is not None:
        head = min(epsilon * lam[K - 1], min_gap) / (20.0 * K)
        with np.errstate(over="ignore"):
            out["error_budget"] = head / np.exp(log_acc(ks + 1, np.full(K, K)))
        g_max = float(growth.max())
        numerator = np.maximum(
            math.log(g_max) if g_max > 1 else 0.0,
            (K - ks) + math.log(c0 * K / (epsilon * min_gap)),
        )
        decay = np.where(last, 0.0, 1.0 / (np.log(lam) - np.log(safe_next)))[:K]
        out["iteration_budget"] = np.maximum(numerator / log_ratio[:K], decay)
    return out


_ROW_FIELDS = {
    "agnostic": "agnostic",
    "power_iter": "power_iter",
    "condition_agnostic": "cond_agnostic",
    "condition_step_floor": "cond_step_floor",
    "condition_tail": "cond_tail",
    "error_budget": "error_budget",
    "iteration_budget": "iteration_budget",
}


def check_bound_rows(rows, expected: dict, empirical) -> list[str]:
    """Compare ``BoundRow``-like objects with :func:`evaluate_bounds` output:
    flags exactly, values to ``BOUND_RTOL`` relative, None exactly where the
    recomputation has NaN."""
    problems: list[str] = []
    K = len(expected["agnostic"])
    if len(rows) != K:
        return [f"{len(rows)} bound rows, expected {K}"]
    for i, row in enumerate(rows):
        if row.k != i + 1 or row.empirical != float(empirical[i]):
            problems.append(f"row {i + 1}: k={row.k}, empirical={row.empirical!r}")
        for attr, key in _ROW_FIELDS.items():
            if key not in expected:
                if getattr(row, attr) is not None:
                    problems.append(f"row {i + 1}: {attr} set without epsilon")
                continue
            got, want = getattr(row, attr), expected[key][i]
            if key.startswith("cond_"):
                ok = bool(got) == bool(want)
            elif np.isnan(want) or got is None:
                ok = got is None and np.isnan(want)
            else:
                ok = abs(got - want) <= BOUND_RTOL * max(abs(got), abs(want)) + BOUND_ATOL
            if not ok:
                problems.append(f"row {i + 1}: {attr}={got!r}, recomputed {want!r}")
    return problems


# --------------------------------------------------------------------------
# clustering sweep


def label_entropy(counts) -> float:
    """Entropy (natural log) of a partition with the given class sizes."""
    p = np.asarray(counts, dtype=float)
    p = p[p > 0] / p.sum()
    return float(-(p * np.log(p)).sum())


def check_cluster_outputs(out_dir, t_values, seeds, label_counts) -> list[str]:
    """``mi_vs_t.csv`` has one row per (t, seed) with MI in [0, H(labels)];
    ``mi_summary.csv`` holds their mean and population std; mean MI at the
    largest t is at least that at the smallest t."""
    out = Path(out_dir)
    problems: list[str] = []
    cells = read_schema_csv(out / "mi_vs_t.csv")
    keys = sorted((int(c["t"]), int(c["seed"])) for c in cells)
    want_keys = sorted((t, s) for t in t_values for s in seeds)
    if keys != want_keys:
        return [f"mi_vs_t.csv cells {keys}, expected {want_keys}"]
    ceiling = label_entropy(label_counts)
    for c in cells:
        mi = float(c["mi"])
        if not -MI_TOL <= mi <= ceiling + MI_TOL:
            problems.append(f"t={c['t']} seed={c['seed']}: MI {mi!r} outside [0, {ceiling!r}]")
    summary = {int(r["t"]): r for r in read_schema_csv(out / "mi_summary.csv")}
    if sorted(summary) != sorted(set(t_values)):
        return problems + [f"mi_summary.csv t values {sorted(summary)}"]
    means = {}
    for t, row in summary.items():
        scores = np.array([float(c["mi"]) for c in cells if int(c["t"]) == t])
        means[t] = float(scores.mean())
        for col, want in (("mean_mi", means[t]), ("std_mi", float(scores.std()))):
            if not abs(float(row[col]) - want) <= MI_TOL:
                problems.append(f"mi_summary.csv t={t} {col}={row[col]}, recomputed {want!r}")
    lo, hi = min(means), max(means)
    if means[hi] < means[lo]:
        problems.append(f"mean MI falls from {means[lo]!r} at t={lo} to {means[hi]!r} at t={hi}")
    return problems


# --------------------------------------------------------------------------
# selftest


def parse_selftest_table(text: str) -> dict[str, tuple[int, int, int]]:
    """``check -> (holds, violated, skipped)`` from the selftest table."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != ["check", "holds", "violated", "skipped"]:
        raise ValueError("selftest output lacks its table header")
    return {name: (int(h), int(v), int(s)) for name, h, v, s in lines[1:]}


def check_selftest_output(exit_code: int, text: str) -> list[str]:
    """Exit code 0, a nonempty table, zero in every ``violated`` cell, and at
    least one ``holds`` in every row: a check whose every trial is skipped
    verified nothing, and would otherwise read as a speed-up."""
    problems = [] if exit_code == 0 else [f"selftest exited with {exit_code}"]
    try:
        table = parse_selftest_table(text)
    except ValueError as exc:
        return problems + [str(exc)]
    if not table:
        problems.append("selftest table is empty")
    for name, (holds, violated, skipped) in table.items():
        if violated:
            problems.append(f"{name}: {violated} violated")
        if not holds:
            problems.append(f"{name}: no trial holds ({skipped} skipped)")
    return problems
