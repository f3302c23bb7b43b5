"""CSV and JSON serialization for every on-disk artifact.

All CSV files start with a ``# schema=1`` comment line; readers reject
unknown versions. Floats are written with ``repr`` (shortest round-trip
form), which together with LF line endings makes every writer byte-
deterministic for identical inputs.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .bounds import BoundRow
from .clustering import ClusteringCell, ClusteringSummary, Dataset
from .deflate import DeflationRun
from .diagnostics import StepDiagnostics
from .errors import SchemaError

__all__ = [
    "SCHEMA_VERSION",
    "read_dataset_csv",
    "write_bounds_csv",
    "write_dataset_csv",
    "write_figure_csvs",
    "write_mi_csvs",
    "write_run_dir",
]

SCHEMA_VERSION = 1
_SCHEMA_LINE = f"# schema={SCHEMA_VERSION}"


def _fmt(x) -> str:
    if x is None:
        return "precondition-failed"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_lines(path, lines) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_csv(path, header: str, rows) -> None:
    """The schema line, the header, then each row's cells through _fmt."""
    _write_lines(path, [_SCHEMA_LINE, header, *(",".join(map(_fmt, row)) for row in rows)])


def _check_schema(line: str, path) -> None:
    if line.strip() != _SCHEMA_LINE:
        raise SchemaError(f"{path}: expected first line '{_SCHEMA_LINE}', got {line.strip()!r}")


def _vectors_csv(mat: np.ndarray, label: str) -> list[str]:
    # one column per step; rows are coordinates. tolist() yields Python
    # floats, whose repr is what _fmt writes for a float, without its
    # per-entry type checks.
    lines = [_SCHEMA_LINE, f"# {label} d={mat.shape[0]} K={mat.shape[1]}"]
    lines += [",".join(map(repr, row)) for row in mat.tolist()]
    return lines


def write_run_dir(
    run: DeflationRun,
    diags: list[StepDiagnostics],
    out_dir,
    *,
    spectrum_label: str = "",
) -> None:
    """Serialize a run: per-step summary, output/top eigenvector columns, meta.

    ``run.csv`` columns: step index, top eigenvalue of the running matrix,
    and, from the run's diagnostics, the sub-routine error size, the output
    error against the ideal eigenvector and the Frobenius matrix gap.
    """
    if [dg.k for dg in diags] != list(range(1, run.K + 1)):
        raise ValueError("serialization needs one diagnostic row per step")
    out = Path(out_dir)
    rows = (
        (dg.k, run.top_eigenvalues[dg.k - 1], dg.sub_err, dg.output_err, dg.matrix_gap_fro)
        for dg in diags
    )
    _write_csv(out / "run.csv", "k,lambda_k,delta_norm,eig_err,matrix_gap_fro", rows)
    _write_lines(out / "v.csv", _vectors_csv(run.components, "vectors"))
    _write_lines(out / "u.csv", _vectors_csv(run.exact_tops, "vectors"))
    meta = {
        "schema": SCHEMA_VERSION,
        "d": run.d,
        "K": run.K,
        "t": run.t,
        "seed": run.seed,
        "spectrum": spectrum_label,
    }
    with open(out / "meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _check_j_slice(j_slice, d: int) -> None:
    """Figure directions are the ideal eigenvectors 1..d."""
    bad = [j for j in j_slice if not 1 <= j <= d]
    if bad:
        raise ValueError(f"--j-slice entries out of range: {bad}")


def write_figure_csvs(diags: list[StepDiagnostics], j_slice, out_dir) -> None:
    """Emit the three figure-trace CSVs for the requested ideal directions.

    fig2.csv: directional matrix-gap norms; fig3.csv: alignment profiles of
    the output and running-top eigenvectors; fig4.csv: the step-k inner
    product next to the directional gap. A direction outside 1..d raises
    ValueError before anything is written.
    """
    out = Path(out_dir)
    # a repeated direction is written once, where it first appears
    j_slice = list(dict.fromkeys(int(j) for j in j_slice))
    if diags:
        _check_j_slice(j_slice, diags[0].directional_gaps.size)
    cols = [j - 1 for j in j_slice]
    fig2 = [_SCHEMA_LINE, "k,j,directional_gap"]
    fig3 = [_SCHEMA_LINE, "k,j,v_align,u_align"]
    fig4 = [_SCHEMA_LINE, "k,j,inner_gap,directional_gap"]
    for d in diags:
        # values read once per step; tolist() yields Python floats, whose
        # repr is what _fmt writes for a float
        inner = _fmt(d.inner_gap)
        for j, gap, v_align, u_align in zip(
            j_slice,
            d.directional_gaps[cols].tolist(),
            d.output_alignments[cols].tolist(),
            d.top_alignments[cols].tolist(),
        ):
            fig2.append(f"{d.k},{j},{gap!r}")
            fig3.append(f"{d.k},{j},{v_align!r},{u_align!r}")
            fig4.append(f"{d.k},{j},{inner},{gap!r}")
    _write_lines(out / "fig2.csv", fig2)
    _write_lines(out / "fig3.csv", fig3)
    _write_lines(out / "fig4.csv", fig4)


def write_bounds_csv(rows: list[BoundRow], path) -> None:
    """Side-by-side bound report.

    Columns ``thm1_*`` carry the sub-routine-agnostic family and ``thm2_*``
    the power-iteration family; ``cond7`` / ``cond12`` / ``cond13`` are their
    admissibility flags (sum condition, per-step floor, geometric tail).
    Rows from a report with a target accuracy add the ``delta_budget`` and
    ``t_budget`` columns.
    """
    budgets = bool(rows) and rows[0].error_budget is not None
    header = "k,thm1_bound,thm2_bound,empirical_err,slack_thm1,slack_thm2,cond7,cond12,cond13"
    if budgets:
        header += ",delta_budget,t_budget"
    cells = (
        (row.k, row.agnostic, row.power_iter, row.empirical, row.slack_agnostic,
         row.slack_power_iter, row.condition_agnostic, row.condition_step_floor,
         row.condition_tail, *((row.error_budget, row.iteration_budget) if budgets else ()))
        for row in rows
    )
    _write_csv(path, header, cells)


def write_mi_csvs(cells: list[ClusteringCell], summary: list[ClusteringSummary], out_dir) -> None:
    out = Path(out_dir)
    _write_csv(out / "mi_vs_t.csv", "t,seed,mi", ((c.t, c.seed, c.mi) for c in cells))
    rows = ((s.t, s.mean_mi, s.std_mi) for s in summary)
    _write_csv(out / "mi_summary.csv", "t,mean_mi,std_mi", rows)


def write_dataset_csv(data: Dataset, path) -> None:
    p = data.features.shape[1]
    header = ",".join([f"f{i}" for i in range(p)] + ["label"])
    _write_csv(path, header, ([*row, label] for row, label in zip(data.features, data.labels)))


def read_dataset_csv(path) -> Dataset:
    """Read a feature CSV whose label column is named ``label``.

    The header may or may not be preceded by a schema comment; plain
    user-supplied CSVs are accepted as long as the label column exists. A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8-sig") as fh:
        # (line number in the file, text) of every non-blank line
        lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty dataset")
    if lines[0][1].startswith("# schema="):
        _check_schema(lines[0][1], path)
        lines = lines[1:]
    if not lines:
        raise SchemaError(f"{path}: missing header")
    header = [c.strip() for c in lines[0][1].split(",")]
    if "label" not in header:
        raise SchemaError(f"{path}: no 'label' column in header {header}")
    if len(header) == 1:
        raise SchemaError(f"{path}: no feature columns")
    label_idx = header.index("label")
    feats = []
    labels = []
    for lineno, line in lines[1:]:
        where = f"{path}:{lineno}"
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(f"{where}: row has {len(cells)} cells, header has {len(header)}")
        row = []
        for i, (name, cell) in enumerate(zip(header, cells)):
            try:
                row.append(float(cell))
            except ValueError:
                raise SchemaError(f"{where}: {name} {cell.strip()!r} is not a number") from None
            if i != label_idx and not math.isfinite(row[-1]):
                raise SchemaError(f"{where}: {name} {cell.strip()!r} is not finite")
        label = row.pop(label_idx)
        if not label.is_integer():
            raise SchemaError(f"{where}: label {cells[label_idx].strip()!r} is not an integer")
        feats.append(row)
        labels.append(int(label))
    if not feats:
        raise SchemaError(f"{path}: no data rows")
    try:
        return Dataset(features=np.array(feats), labels=np.array(labels))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
