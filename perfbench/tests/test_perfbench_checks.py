"""Tests of the benchmark's independent checkers, its tracer and its loop.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import math

import numpy as np
import pytest

import checks
from run import run_loop
from tracing import Tracer, layer_metrics

import deflatrix.cli
import deflatrix.linalg
from deflatrix.bounds import BoundInputs, build_bound_report, eigengaps


def test_bound_evaluator_reproduces_frozen_hand_values():
    # the two hand-computed values frozen in selftest._formula_oracle_checks
    got = checks.evaluate_bounds([1.0, 0.5], [0.01, 0.01], c0=1.0, t=10, K=2)
    assert got["agnostic"][1] == pytest.approx(0.55, rel=1e-12)  # 5*(2*0.01*(3+2*1)+0.01)

    got = checks.evaluate_bounds([1.0, 0.5, 1.0 / 3.0], [1e-6, 1e-6], c0=2.0, t=20, K=2)
    expected = 3.0 * (
        8.0 * 2.0 * (5e-6 + 7.0 * 2.0 / 0.5 * 0.5**20)
        + (5e-6 + 7.0 * 2.0 / (1.0 / 6.0) * (2.0 / 3.0) ** 20)
    )
    assert got["power_iter"][1] == pytest.approx(expected, rel=1e-12)


def _report(seed, K=30, t=4000, epsilon=1e-2):
    gen = np.random.default_rng(seed)
    lam = checks.power_law_eigenvalues(K)
    delta = 10.0 ** gen.uniform(-15.0, -13.0, K)
    c0 = 40.0
    rows = build_bound_report(
        BoundInputs(lambdas=lam, sub_error_norms=delta, init_constant=c0, t=t, K=K, epsilon=epsilon),
        eigengaps(lam),
        delta,
    )
    return rows, checks.evaluate_bounds(lam, delta, c0, t, K, epsilon), delta


def test_bound_evaluator_agrees_with_the_engine_and_catches_a_changed_row():
    rows, expected, emp = _report(seed=3)
    assert any(r.agnostic is None for r in rows) and any(r.agnostic is not None for r in rows)
    assert checks.check_bound_rows(rows, expected, emp) == []

    scaled = list(rows)
    scaled[4] = type(rows[4])(**{**vars(rows[4]), "power_iter": rows[4].power_iter * (1 + 1e-6)})
    assert checks.check_bound_rows(scaled, expected, emp) == [
        f"row 5: power_iter={scaled[4].power_iter!r}, recomputed {expected['power_iter'][4]!r}"
    ]
    flipped = list(rows)
    flipped[-1] = type(rows[-1])(**{**vars(rows[-1]), "agnostic": 1.0})
    assert len(checks.check_bound_rows(flipped, expected, emp)) == 1


def test_recurrence_reproduces_hand_worked_3x3_deflation():
    sigma = np.diag([3.0, 2.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    vectors = np.array([[1.0, 0.0], [0.0, s], [0.0, s]])
    mats = checks.deflation_sequence(sigma, vectors)
    # step 1 removes 3 e1 e1^T exactly
    np.testing.assert_allclose(mats[1], np.diag([0.0, 2.0, 1.0]), atol=1e-15)
    # step 2: v = (e2 + e3)/sqrt2, v.sigma_2 v = (2 + 1)/2 = 1.5, v v^T has 0.5 in the e2/e3 block
    want = np.array([[0.0, 0.0, 0.0], [0.0, 1.25, -0.75], [0.0, -0.75, 0.25]])
    np.testing.assert_allclose(mats[2], want, atol=1e-15)


@pytest.fixture(scope="module")
def figure_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure")
    argv = ["deflate", "--d", "8", "--K", "8", "--t", "200", "--spectrum", "power-law:1",
            "--seed", "5", "--out", str(out)]
    assert deflatrix.cli.main(argv) == 0
    return out


def test_figure_check_passes_on_program_output(figure_run):
    assert checks.check_figure_outputs(figure_run, seed=5, d=8, K=8, t=200) == []


def test_figure_check_fails_on_one_altered_lambda(figure_run, tmp_path):
    for path in figure_run.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    lines = (tmp_path / "run.csv").read_text().splitlines()
    cells = lines[4].split(",")  # schema line, header, then k = 1, 2, 3
    assert cells[0] == "3"
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[4] = ",".join(cells)
    (tmp_path / "run.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_figure_outputs(tmp_path, seed=5, d=8, K=8, t=200)
    assert len(problems) == 1 and problems[0].startswith("run.csv k=3 lambda_k=")


def test_figure_check_fails_for_another_seed(figure_run):
    assert checks.check_figure_outputs(figure_run, seed=6, d=8, K=8, t=200)


def _write(path, header, rows):
    path.write_text("# schema=1\n" + header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))


def test_cluster_check_recomputes_summary_and_trend(tmp_path):
    counts = (2, 2)  # H = log 2
    _write(tmp_path / "mi_vs_t.csv", "t,seed,mi", [(5, 0, 0.1), (5, 1, 0.3), (100, 0, 0.5), (100, 1, 0.6)])
    _write(tmp_path / "mi_summary.csv", "t,mean_mi,std_mi", [(5, 0.2, 0.1), (100, 0.55, 0.05)])
    assert checks.check_cluster_outputs(tmp_path, (5, 100), (0, 1), counts) == []

    _write(tmp_path / "mi_summary.csv", "t,mean_mi,std_mi", [(5, 0.2, 0.1), (100, 0.56, 0.05)])
    assert len(checks.check_cluster_outputs(tmp_path, (5, 100), (0, 1), counts)) == 1

    _write(tmp_path / "mi_vs_t.csv", "t,seed,mi", [(5, 0, 0.5), (5, 1, 0.6), (100, 0, 0.1), (100, 1, 0.3)])
    _write(tmp_path / "mi_summary.csv", "t,mean_mi,std_mi", [(5, 0.55, 0.05), (100, 0.2, 0.1)])
    assert checks.check_cluster_outputs(tmp_path, (5, 100), (0, 1), counts)[-1].startswith("mean MI falls")

    _write(tmp_path / "mi_vs_t.csv", "t,seed,mi", [(5, 0, 0.1), (5, 1, 0.9), (100, 0, 0.5), (100, 1, 0.6)])
    _write(tmp_path / "mi_summary.csv", "t,mean_mi,std_mi", [(5, 0.5, 0.4), (100, 0.55, 0.05)])
    assert checks.check_cluster_outputs(tmp_path, (5, 100), (0, 1), counts) == [
        f"t=5 seed=1: MI 0.9 outside [0, {math.log(2)!r}]"
    ]


def test_selftest_check_flags_violations():
    table = "check  holds  violated  skipped\nalpha  3  0  1\nbeta  2  1  0\n"
    assert checks.check_selftest_output(0, table) == ["beta: 1 violated"]
    assert checks.check_selftest_output(1, table.replace("  1  0\n", "  0  0\n")) == [
        "selftest exited with 1"
    ]


def test_selftest_check_fails_a_row_whose_trials_are_all_skipped():
    table = "check  holds  violated  skipped\nalpha  3  0  1\ninner_identity  0  0  40\n"
    assert checks.check_selftest_output(0, table) == ["inner_identity: no trial holds (40 skipped)"]


def test_tracer_attributes_each_call_to_its_layer(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        argv = ["deflate", "--d", "6", "--K", "6", "--t", "50", "--seed", "1", "--out", str(tmp_path)]
        assert deflatrix.cli.main(argv) == 0
        tracer.op = None
    finally:
        tracer.uninstall()
    assert deflatrix.cli.main.__module__ == "deflatrix.cli"  # wrappers removed
    m = layer_metrics(tracer.spans)
    assert m["linalg.oracle_calls"] == 12  # one decomposition per step plus one spectral norm per step
    assert m["linalg.oracle_d3"] == 12 * 6**3
    assert m["deflate.steps"] == 12  # the inexact run and the ideal trace
    assert m["powerit.matvecs"] == 6 * 50
    assert m["bounds.rows"] == 6
    roots = [s for s in tracer.spans if s[5] is None]
    assert [s[1] for s in roots] == ["cli.self"]
    self_total = sum(s[4] - s[3] - s[7] for s in tracer.spans)
    assert self_total == pytest.approx(roots[0][4] - roots[0][3], rel=1e-9)


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    monkeypatch.delattr(deflatrix.linalg, "spectral_norm")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "linalg.spectral_norm" in tracer.absent
    assert "linalg.jacobi_eigendecomposition" in tracer.wrapped


class _FlakyWorkload:
    """Every third operation fails; the others return the same output."""

    threads = 1

    def __init__(self):
        self.calls = 0

    def clear(self):
        pass

    def run(self):
        self.calls += 1
        return self.calls % 3 != 0

    def succeeded(self, result):
        return result

    def fingerprint(self, result):
        return "same"

    def check(self, result):
        return []


def test_loop_times_only_the_operations_that_succeed():
    stats = run_loop(_FlakyWorkload(), seconds=0.5)
    timed = stats["attempted"] - 1  # the warm-up is never timed
    assert stats["failed"] == stats["attempted"] // 3 > 0
    assert len(stats["walls"]) == len(stats["ratios"]) == timed - stats["failed"]
    assert len(stats["failures"]) == stats["failed"] and not stats["problems"]
