"""The A/B script's pairing, statistics and output, on canned result lines:
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = {"op_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def result_line(op_s, setup_s=0.2, peak_rss_mb=45.0, failed=0):
    """The last line ``perfbench/run.py --trace 0`` prints."""
    metrics = {"op_s": {"value": op_s, "unit": "s"}, "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return json.dumps({"correct": failed == 0, "attempted": 50, "failed": failed,
                       "metrics": metrics})


def record(op_s, **kwargs):
    return bench_ab.parse_result("op_s = ...\n" + result_line(op_s, **kwargs) + "\n", METRICS)


def test_parse_result_reads_the_last_line():
    assert record(0.1, failed=2) == {"op_s": 0.1, "setup_s": 0.2, "peak_rss_mb": 45.0,
                                     "correct": False, "attempted": 50, "failed": 2}
    with pytest.raises(ValueError):
        bench_ab.parse_result("", METRICS)


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side):
        calls.append(side)
        return {"n": len(calls)}

    pairs = bench_ab.run_pairs(run, 4)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert [p["first"] for p in pairs] == ["parent", "change"] * 2
    assert [p["pair"] for p in pairs] == [0, 1, 2, 3]
    # each pair keeps the BENCH files' key order whichever side ran first
    assert all(list(p) == ["pair", "first", "parent", "change"] for p in pairs)
    assert pairs[1]["change"] == {"n": 3} and pairs[1]["parent"] == {"n": 4}


@pytest.mark.parametrize("values", [[3.0], [1.0, 4.0], [5.0, 1.0, 2.0, 9.0, 7.0], list(range(10))])
def test_percentile_is_numpys_linear_percentile(values):
    for q in (25, 50, 75):
        assert bench_ab.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-15)


def pairs_of(parent_op, change_op):
    return [{"pair": i, "first": "parent", "parent": record(p), "change": record(c)}
            for i, (p, c) in enumerate(zip(parent_op, change_op))]


def test_summary_counts_wins_losses_and_ties():
    pairs = pairs_of([1.0, 1.0, 1.0, 1.0], [0.5, 2.0, 1.0, 0.9])
    s = bench_ab.summarize(pairs, METRICS, claim="op_s")["op_s"]
    assert (s["pairs"], s["change_wins"], s["change_losses"]) == (4, 2, 1)
    assert s["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert s["change"]["median"] == pytest.approx(0.95)
    assert s["median_change_ratio"] == pytest.approx(-0.05)
    assert s["claim_met"] is False  # two wins in four pairs
    # equal values tie, and only the claimed metric carries claim_met
    rss = bench_ab.summarize(pairs, METRICS, claim="op_s")["peak_rss_mb"]
    assert (rss["change_wins"], rss["change_losses"]) == (0, 0) and "claim_met" not in rss


def test_claim_needs_nine_tenths_of_wins_and_a_gain_beyond_the_parent_spread():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    iqr = np.percentile(parent, 75) - np.percentile(parent, 25)
    met = bench_ab.summarize(pairs_of(parent, [p - 0.1 for p in parent]), METRICS, "op_s")
    assert met["op_s"]["claim_met"] is True
    assert met["op_s"]["parent_iqr"] == pytest.approx(iqr)
    # nine wins in ten pairs still meet it; eight do not
    nine = [p - 0.1 for p in parent[:9]] + [parent[9] + 0.1]
    assert bench_ab.summarize(pairs_of(parent, nine), METRICS, "op_s")["op_s"]["claim_met"] is True
    eight = [p - 0.1 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert bench_ab.summarize(pairs_of(parent, eight), METRICS, "op_s")["op_s"]["claim_met"] is False
    # winning every pair by less than the parent's spread is not a claim
    small = [p - iqr / 4 for p in parent]
    summary = bench_ab.summarize(pairs_of(parent, small), METRICS, "op_s")["op_s"]
    assert summary["change_wins"] == 10 and summary["claim_met"] is False
    # a metric where higher is better counts the other way
    up = bench_ab.summarize(pairs_of(parent, [p + 0.1 for p in parent]), {"op_s": "higher"}, "op_s")
    assert up["op_s"]["change_wins"] == 10 and up["op_s"]["claim_met"] is True


def test_entries_merge_into_one_file_keyed_by_seed():
    env = {"cores": 2}
    first = bench_ab.workload_entry(pairs_of([1.0, 1.0], [0.5, 0.5]), METRICS, 1, "op_s")
    doc = bench_ab.merge(None, base="abc", head="def", seed=1, seconds=25.0,
                         entries={"selftest": first}, environment=env)
    assert doc["workloads"]["selftest"]["failed_operations"] == {"parent": 0, "change": 0}
    again = bench_ab.workload_entry(pairs_of([1.0], [0.5]), METRICS, 2, "op_s")
    doc = bench_ab.merge(json.loads(json.dumps(doc)), base="abc", head="def", seed=2,
                         seconds=25.0, entries={"selftest": again}, environment=env)
    assert list(doc["workloads"]) == ["selftest", "selftest --seed 2"]
    assert (doc["seed"], doc["parent_commit"], doc["change"]) == (1, "abc", "def")
    assert doc["workloads"]["selftest --seed 2"]["seed"] == 2
    with pytest.raises(ValueError, match="another base"):
        bench_ab.merge(doc, base="xyz", head="def", seed=1, seconds=25.0, entries={},
                       environment=env)


def test_failed_operations_are_summed_per_side():
    pairs = [{"pair": 0, "first": "parent", "parent": record(1.0, failed=1),
              "change": record(1.0, failed=0)},
             {"pair": 1, "first": "change", "parent": record(1.0, failed=2),
              "change": record(1.0, failed=3)}]
    entry = bench_ab.workload_entry(pairs, METRICS, 1, None)
    assert entry["failed_operations"] == {"parent": 3, "change": 3}
