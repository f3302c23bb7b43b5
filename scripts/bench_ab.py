#!/usr/bin/env python3
"""A/B the unchanged benchmark on two revisions in alternated (ABBA) pairs.

    python3 scripts/bench_ab.py --base HEAD~1 --head WORKTREE --workload selftest \\
        --seed 1 --pairs 10 --seconds 25 --claim op_s --out BENCH_3.json

Each side is a fresh tree: ``git archive`` of a revision, or, for
``WORKTREE``, a copy of the working tree's files that git tracks or would
track. Each tree gets its bytecode compiled (``python3 -m compileall -q src
perfbench``), so that no run pays for compiling. Pair i runs ``python3
perfbench/run.py --workload W --seed N --seconds S --trace 0`` in the base
tree first when i is even and in the head tree first when i is odd, and
reads the JSON result on the run's last line.

The output file follows the BENCH files' schema: per-pair metrics, each
side's median and quartiles (numpy's linear percentiles), the head's wins
and losses (ties count for neither), the median's relative change, the
base's interquartile range, failed operations and the head run's
environment. With ``--claim METRIC`` the entry also says whether the claim
is met: the head wins at least nine tenths of the pairs, and its median
beats the base's by more than the base's interquartile range. An existing
output file keeps its other entries; an entry at a seed other than the
file's is keyed ``"<workload> --seed <n>"``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SIDES = ("parent", "change")  # base and head, as the BENCH files name them
RUN_FIELDS = ("correct", "attempted", "failed")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def resolve(rev: str) -> str:
    """The commit a revision names, or ``WORKTREE`` for the working tree."""
    return rev if rev == WORKTREE else git("rev-parse", "--verify", rev + "^{commit}").decode().strip()


def make_tree(rev: str, dest: Path) -> Path:
    """A fresh tree of ``rev`` at ``dest``, with compiled bytecode."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            source = ROOT / name
            if source.is_file():  # a tracked file deleted in the working tree is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
    else:
        archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=dest, check=True,
                   stdout=subprocess.DEVNULL)
    return dest


def parse_result(stdout: str, metrics) -> dict:
    """One run's record in the BENCH schema, from the JSON on its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    record = {name: result["metrics"][name]["value"] for name in metrics}
    record.update({field: result[field] for field in RUN_FIELDS})
    return record


def run_side(tree: Path, workload: str, seed: int, seconds: float, metrics) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout, metrics)
    except (ValueError, KeyError) as exc:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode} without a result: "
                           f"{exc}\n{proc.stderr[-2000:]}") from exc


def run_pairs(run, pairs: int) -> list[dict]:
    """``pairs`` alternated pairs of ``run(side)``; pair i runs the parent
    first when i is even and the change first when i is odd."""
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        record = {"pair": i, "first": order[0]}
        for side in order:
            record[side] = run(side)
        out.append({key: record[key] for key in ("pair", "first", *SIDES)})
    return out


def percentile(values, q: float) -> float:
    """numpy's default (linear) percentile of ``values``, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(pairs: list[dict], metrics: dict, claim: str | None = None) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and
    losses, the median's relative change and the parent's interquartile
    range; ``claim_met`` on the claimed metric. ``metrics`` maps each name
    to ``"lower"`` or ``"higher"``, the direction that is better."""
    summary = {}
    for name, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        entry = {}
        for side in SIDES:
            values = [p[side][name] for p in pairs]
            entry[side] = {"median": percentile(values, 50), "q1": percentile(values, 25),
                           "q3": percentile(values, 75)}
        gains = [sign * (p["parent"][name] - p["change"][name]) for p in pairs]
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry.update(
            pairs=len(pairs),
            change_wins=sum(g > 0 for g in gains),
            change_losses=sum(g < 0 for g in gains),
            median_change_ratio=(change - parent) / parent,
            parent_iqr=entry["parent"]["q3"] - entry["parent"]["q1"],
        )
        if name == claim:
            entry["claim_met"] = bool(
                10 * entry["change_wins"] >= 9 * len(pairs)
                and sign * (parent - change) > entry["parent_iqr"]
            )
        summary[name] = entry
    return summary


def workload_entry(pairs: list[dict], metrics: dict, seed: int, claim: str | None) -> dict:
    return {
        "seed": seed,
        "pairs": pairs,
        "summary": summarize(pairs, metrics, claim),
        "failed_operations": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
    }


def entry_key(workload: str, seed: int, file_seed: int) -> str:
    return workload if seed == file_seed else f"{workload} --seed {seed}"


DESCRIPTION = (
    "Alternated (ABBA) parent/change pairs of the unchanged perfbench/run.py --workload W "
    "--seed N --seconds S --trace 0, made by scripts/bench_ab.py. Each run used a fresh tree of "
    "its side (`git archive`, or a copy of the working tree) with bytecode compiled by "
    "`python3 -m compileall -q src perfbench`. Pair i runs the parent first when i is even and "
    "the change first when i is odd. A win is a pair whose change value is better; ties count "
    "for neither side. Quartiles are numpy's linear percentiles. claim_met, on a claimed "
    "metric, requires wins in at least nine tenths of the pairs and a median gain larger than "
    "the parent's interquartile range."
)


def merge(doc: dict | None, *, base: str, head: str, seed: int, seconds: float,
          entries: dict, environment: dict) -> dict:
    """The output document: ``doc`` (or a new one) with ``entries`` added."""
    if doc is None:
        doc = {"description": DESCRIPTION, "parent_commit": base,
               "change": head if head != WORKTREE else (
                   "the commit that adds this file; its src/ and perfbench/ trees are the "
                   "ones measured"),
               "seed": seed, "seconds": seconds, "workloads": {}}
    elif (doc["parent_commit"], doc["seconds"]) != (base, seconds):
        raise ValueError("the output file holds runs of another base or run length")
    for workload, entry in entries.items():
        doc["workloads"][entry_key(workload, seed, doc["seed"])] = entry
    doc["environment"] = environment
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--head", required=True, help=f"revision of the change side, or {WORKTREE}")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--claim", help="the end-to-end metric whose gain is claimed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = spec()
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {', '.join(metrics)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    base, head = resolve(args.base), resolve(args.head)

    entries = {}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {"parent": make_tree(base, Path(tmp) / "parent"),
                 "change": make_tree(head, Path(tmp) / "change")}
        for workload in args.workload:
            def run(side, workload=workload):
                record = run_side(trees[side], workload, args.seed, seconds, metrics)
                print(f"{workload} {side}: " + ", ".join(f"{m}={record[m]:.6g}" for m in metrics),
                      file=sys.stderr, flush=True)
                return record

            pairs = run_pairs(run, args.pairs)
            entries[workload] = workload_entry(pairs, metrics, args.seed, args.claim)
            result = trees["change"] / ".perfbench_out" / "results" / f"{workload}-seed{args.seed}-trace0.json"
            environment = json.loads(result.read_text(encoding="utf-8"))["environment"]

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else None
    doc = merge(doc, base=base, head=head, seed=args.seed, seconds=seconds, entries=entries,
                environment=environment)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in entries.items():
        for name, s in entry["summary"].items():
            claim = f", claim_met={s['claim_met']}" if "claim_met" in s else ""
            print(f"{workload} {name}: parent {s['parent']['median']:.6g}, change "
                  f"{s['change']['median']:.6g} ({s['median_change_ratio']:+.2%}), "
                  f"wins {s['change_wins']}/{s['pairs']}{claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
