"""Per-layer tracing from outside the program.

The tracer wraps deflatrix's public functions in every module namespace that
binds them (Python binds imported names per module, so patching only the
defining module would miss callers elsewhere) and records one span per call:
key, thread, start, end, parent span and operation index. A layer's self
time is its spans' durations minus the time their child spans cover. Counts
and computed sizes are taken at the same wrappers, from argument shapes.

Wrappers stay installed for the whole traced run; they record only while an
operation is marked as traced, so untraced operations in the same process
pay one attribute check per wrapped call.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time

# (module, attribute, layer key). ``Class.method`` patches the method on the
# class itself, so every binding of the class sees it.
_BOUND_FORMULAS = (
    "eigengaps",
    "agnostic_bound_condition",
    "agnostic_bound",
    "per_step_error_budget",
    "linear_rate_iteration_budget",
    "power_iter_bound_conditions",
    "power_iter_bound",
    "power_iter_iteration_budget",
    "directional_gap_bound",
    "eigvec_drift_bound",
    "sum_recurrence_closed_form",
    "affine_recurrence_closed_form",
    "geometric_tail_bound",
)
WRAPPED = (
    ("linalg", "jacobi_eigendecomposition", "linalg.oracle"),
    ("linalg", "spectral_norm", "linalg.oracle"),
    ("linalg", "SymMatrix.__init__", "linalg.symmatrix"),
    ("powerit", "power_iterate", "powerit.power_iterate"),
    ("deflate", "deflate_step", "deflate.deflate_step"),
    ("deflate", "ideal_deflation", "deflate.ideal_deflation"),
    ("deflate", "run_inexact_deflation", "deflate.run"),
    ("diagnostics", "diagnose_run", "diagnostics.diagnose_run"),
    ("diagnostics", "matrix_gap_recurrence_check", "diagnostics.checks"),
    ("diagnostics", "eigvec_inner_identity_check", "diagnostics.checks"),
    ("diagnostics", "alignment_lower_bound_check", "diagnostics.checks"),
    ("bounds", "build_bound_report", "bounds.report"),
    *(("bounds", name, "bounds.formula") for name in _BOUND_FORMULAS),
    ("clustering", "build_rnn_graph", "clustering.graph"),
    ("clustering", "normalized_laplacian", "clustering.graph"),
    ("clustering", "spectral_embed", "clustering.embed"),
    ("clustering", "kmeans", "clustering.kmeans"),
    ("clustering", "mutual_information", "clustering.score"),
    ("clustering", "run_clustering_experiment", "clustering.sweep"),
    ("io", "write_run_dir", "io.write"),
    ("io", "write_figure_csvs", "io.write"),
    ("io", "write_bounds_csv", "io.write"),
    ("io", "write_mi_csvs", "io.write"),
    ("cli", "main", "cli.self"),
)
# every public function of the selftest module is harness code
HARNESS_MODULE = "selftest"
HARNESS_KEY = "selftest.harness"

# A bounds call made inside a bounds span is part of that span: the report's
# time includes its formula calls, and a formula's includes its helpers.
_ABSORBING = {"bounds.report": "bounds.", "bounds.formula": "bounds."}
_CELL_KEYS = ("clustering.embed", "clustering.kmeans", "clustering.score")


def _measure(target, key, args, kwargs, result) -> dict | None:
    """Counts and computed sizes for one call, from its arguments."""
    if key == "linalg.oracle":
        return {"d3": args[0].dim ** 3}
    if key == "linalg.symmatrix":
        return {"bytes": 8 * args[0].dim ** 2}
    if key == "powerit.power_iterate":
        t = kwargs["t"] if "t" in kwargs else args[2]
        return {"matvecs": t, "flop": 2 * args[0].dim ** 2 * t}
    if key == "bounds.report":
        return {"rows": len(result)}
    if key == "clustering.sweep":
        return {"cells": len(result[0]), "jobs": kwargs.get("jobs", 1)}
    if target == "selftest.run_selftest":
        return {"verdicts": sum(t.holds + t.violated + t.skipped for t in result.values())}
    return None


class Tracer:
    """Span recorder. Spans are lists
    ``[id, key, thread, start, end, parent_id, op, child_s, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, target, key):
        tracer = self
        absorbs = key.split(".", 1)[0] + "."

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and _ABSORBING.get(parent[1]) == absorbs:
                return fn(*args, **kwargs)
            span = [next(tracer._ids), key, threading.get_ident(), 0.0, 0.0,
                    parent[0] if parent else None, op, 0.0, None]
            stack.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[7] += span[4] - span[3]
                tracer.spans.append(span)
            span[8] = _measure(target, key, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "deflatrix") -> None:
        """Wrap every listed function in every ``package`` module binding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        targets = list(WRAPPED)
        harness = sys.modules.get(f"{package}.{HARNESS_MODULE}")
        if harness is None:
            self.absent.append(f"{HARNESS_MODULE}.*")
        else:
            targets += [
                (HARNESS_MODULE, name, HARNESS_KEY)
                for name, obj in sorted(vars(harness).items())
                if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == harness.__name__
            ]
        for module_name, attr, key in targets:
            owner = sys.modules.get(f"{package}.{module_name}")
            cls_name, _, method = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{attr}", key)
            if cls_name:
                self._patch(owner, method, original, wrapper)
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
            self.wrapped.append(f"{module_name}.{attr}")

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for span in spans:
        key = span[1]
        self_s[key] = self_s.get(key, 0.0) + (span[4] - span[3] - span[7])
        calls[key] = calls.get(key, 0) + 1
        for name, value in (span[8] or {}).items():
            attrs[f"{key}.{name}"] = attrs.get(f"{key}.{name}", 0) + value

    # the sweep's pool phase is its span minus the graph build it waits on;
    # a cell is the embed, k-means and scoring calls it makes
    by_id = {span[0]: span for span in spans}
    sweep_wall = 0.0
    cell_s = 0.0
    for span in spans:
        parent = by_id.get(span[5])
        if span[1] == "clustering.sweep":
            sweep_wall += span[4] - span[3]
        elif span[1] == "clustering.graph" and parent is not None and parent[1] == "clustering.sweep":
            sweep_wall -= span[4] - span[3]
        if span[1] in _CELL_KEYS and (parent is None or parent[1] == "clustering.sweep"):
            cell_s += span[4] - span[3]
    jobs = attrs.get("clustering.sweep.jobs", 0)

    def s(key):
        return self_s.get(key, 0.0)

    return {
        "linalg.oracle_s": s("linalg.oracle"),
        "linalg.oracle_calls": calls.get("linalg.oracle", 0),
        "linalg.oracle_d3": attrs.get("linalg.oracle.d3", 0),
        "linalg.symmatrix_s": s("linalg.symmatrix"),
        "linalg.symmatrix_mb": attrs.get("linalg.symmatrix.bytes", 0) / 1e6,
        "powerit.power_iterate_s": s("powerit.power_iterate"),
        "powerit.matvecs": attrs.get("powerit.power_iterate.matvecs", 0),
        "powerit.matvec_gflop": attrs.get("powerit.power_iterate.flop", 0) / 1e9,
        "deflate.deflate_step_s": s("deflate.deflate_step"),
        "deflate.steps": calls.get("deflate.deflate_step", 0),
        "deflate.ideal_deflation_s": s("deflate.ideal_deflation"),
        "deflate.run_s": s("deflate.run"),
        "diagnostics.diagnose_run_s": s("diagnostics.diagnose_run"),
        "diagnostics.checks_s": s("diagnostics.checks"),
        "bounds.report_s": s("bounds.report"),
        "bounds.rows": attrs.get("bounds.report.rows", 0),
        "bounds.formula_s": s("bounds.formula"),
        "clustering.graph_s": s("clustering.graph"),
        "clustering.embed_s": s("clustering.embed"),
        "clustering.kmeans_s": s("clustering.kmeans"),
        "clustering.score_s": s("clustering.score"),
        "clustering.cells": attrs.get("clustering.sweep.cells", 0),
        "clustering.cell_s": cell_s,
        "clustering.sweep_wall_s": sweep_wall,
        "clustering.pool_jobs": jobs,
        "clustering.pool_efficiency": cell_s / (jobs * sweep_wall) if jobs and sweep_wall > 0 else 0.0,
        "io.write_s": s("io.write"),
        "selftest.harness_s": s(HARNESS_KEY),
        "selftest.verdicts": attrs.get(f"{HARNESS_KEY}.verdicts", 0),
        "cli.self_s": s("cli.self"),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric across the traced operations."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
