"""Closed-loop benchmark of deflatrix: one client, one operation in flight.

    python3 perfbench/run.py --workload figure-trace --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it): the program is
imported from ``src/`` next to this directory. After set-up and one untimed
warm-up, the workload's operation repeats until ``--seconds`` have passed.
Every operation's output must repeat the warm-up's exactly, and one output
is checked against an independent numpy recomputation (checks.py).

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median wall time of
one operation), ``setup_s`` (median over fresh processes of the time from
process start until the inputs are ready) and ``peak_rss_mb``. Both times
are divided by the time of reference.py's fixed work measured next to them
and scaled by ``REF_S``, so that the machine's changing speed cancels; the
raw times stay in the record. ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of tracing.py, with the tracing overhead. The last line of standard output is
the result as one JSON object; the full record, with the environment, goes
to ``.perfbench_out/results/`` and the spans to ``.perfbench_out/traces/``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, so the process never runs
# more threads than the sweep's two workers on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import REF_S, reference_seconds  # noqa: E402
from tracing import Tracer, layer_metrics, median_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# metric names and units, and the workloads' reasons, come from here
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Import deflatrix from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import deflatrix
    import deflatrix.cli  # noqa: F401  (binds every module the CLI uses)

    if Path(deflatrix.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"deflatrix imported from {deflatrix.__file__}, not from {src}")
    return deflatrix


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return ready - start


def run_loop(wl, seconds: float, tracer=None, probe=None) -> dict:
    """Warm-up, then operations until ``seconds`` pass.

    The reference work runs between operations, on as many threads as the
    operation uses, and each operation's wall time is divided by the mean of
    the reference times just before and just after it; only operations that
    succeed give a time. With a tracer, odd
    operations are traced and even ones not.
    ``probe`` runs between operations, ``SETUP_PROBES`` times spread evenly
    over the run, and is normalised by single-threaded reference work run
    just before and just after it.
    """
    stats = {"attempted": 0, "failed": 0, "walls": [], "ratios": [], "traced_walls": [],
             "traced_ratios": [], "layers": [], "setup": [], "setup_ratios": [],
             "refs": [], "failures": [], "problems": []}

    def ref_after(before: float) -> tuple[float, float]:
        after = reference_seconds(wl.threads)
        stats["refs"].append(after)
        return after, (before + after) / 2.0

    reference = None
    deadline = None
    last_ref = reference_seconds(wl.threads)
    i = 0
    while True:
        warm = deadline is None
        traced = tracer is not None and not warm and i % 2 == 1
        wl.clear()
        gc.collect()
        if traced:
            tracer.op = i
        start = time.perf_counter()
        try:
            result = wl.run()
        except Exception as exc:  # an operation that raises counts as failed
            result, ok = exc, False
        else:
            ok = wl.succeeded(result)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        last_ref, adjacent = ref_after(last_ref)
        stats["attempted"] += 1
        if not ok:
            stats["failed"] += 1
            stats["failures"].append(f"operation {i} failed: {result!r}"[:500])
        else:
            fp = wl.fingerprint(result)
            if reference is None:
                reference = fp
                stats["problems"] += wl.check(result)
            elif fp != reference:
                stats["problems"].append(f"operation {i} output differs from the first")
        if warm:
            deadline = time.perf_counter() + seconds
        else:
            if ok:
                kind = "traced_" if traced else ""
                stats[kind + "walls"].append(wall)
                stats[kind + "ratios"].append(wall / adjacent)
            if ok and traced:
                metrics = layer_metrics([s for s in tracer.spans if s[6] == i])
                metrics["io.bytes_written"] = wl.bytes_written()
                stats["layers"].append(metrics)
            now = time.perf_counter()
            due = SETUP_PROBES * (1.0 - (deadline - now) / seconds)
            if probe is not None and len(stats["setup"]) < min(due, SETUP_PROBES):
                run_probe(probe, stats)
                last_ref, _ = ref_after(last_ref)
            # a traced run ends after at least one traced and one untraced operation
            if now >= deadline and (tracer is None or i >= 2):
                break
        i += 1
    while probe is not None and len(stats["setup"]) < SETUP_PROBES:
        run_probe(probe, stats)
    stats["checked"] = reference is not None
    return stats


def run_probe(probe, stats) -> None:
    before = reference_seconds()
    seconds = probe()
    after = reference_seconds()
    stats["setup"].append(seconds)
    stats["setup_ratios"].append(seconds / ((before + after) / 2.0))


def blas_info(numpy) -> dict:
    """OpenBLAS version and the thread count it runs with, read from the
    loaded library."""
    import ctypes

    info = {"threads": None, "config": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except Exception as exc:  # the record is best effort; say why it is empty
        info["error"] = repr(exc)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                info["threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                return info
    return info


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(deflatrix, numpy) -> dict:
    import platform

    return {
        "package": "deflatrix",
        "package_version": getattr(deflatrix, "__version__", None),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(numpy),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")

    try:
        deflatrix = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work)
    wl.setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import numpy

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    probe = None if args.trace else (lambda: setup_probe_seconds(args.workload, args.seed))
    try:
        stats = run_loop(wl, args.seconds, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for problem in stats["failures"] + stats["problems"]:
        print(problem, file=sys.stderr)
    walls = stats["walls"]
    if not walls or (args.trace and not stats["traced_walls"]):
        print("no timed operation succeeded, so there is no result", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "inputs": wl.inputs(),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(deflatrix, numpy),
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "failures": stats["failures"],
        "problems": stats["problems"],
        "op_samples": len(walls),
        "op_walls_s": walls,
        "op_wall_median_s": statistics.median(walls),
        "op_ref_ratios": stats["ratios"],
        "setup_samples_s": stats["setup"],
        "setup_ref_ratios": stats["setup_ratios"],
        "reference_s": stats["refs"],
        "reference_threads": wl.threads,
        "reference_median_s": statistics.median(stats["refs"]),
        "REF_S": REF_S,
    }
    if args.trace:
        values = median_metrics(stats["layers"])
        values["trace.op_s"] = REF_S * statistics.median(stats["traced_ratios"])
        values["trace.overhead_s"] = values["trace.op_s"] - REF_S * statistics.median(stats["ratios"])
        record["traced_op_walls_s"] = stats["traced_walls"]
        record["absent"] = tracer.absent
        spec = SPEC["per_layer"]
    else:
        values = {
            "op_s": REF_S * statistics.median(stats["ratios"]),
            "setup_s": REF_S * statistics.median(stats["setup_ratios"]),
            "peak_rss_mb": peak_rss_mb,
        }
        spec = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    record["metrics"] = metrics
    correct = stats["checked"] and not stats["problems"] and stats["failed"] == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        traces = OUT / "traces"
        traces.mkdir(exist_ok=True)
        keys = ["id", "key", "thread", "start", "end", "parent", "op", "child_s", "attrs"]
        (traces / f"{stem}.json").write_text(json.dumps({"fields": keys, "absent": tracer.absent,
                                                         "spans": tracer.spans}) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"op_s is the median of {len(walls)} operations; {stats['attempted']} attempted "
          f"(warm-up included), {stats['failed']} failed; median wall {statistics.median(walls):.4g} s, "
          f"median reference {statistics.median(stats['refs']):.4g} s against REF_S = {REF_S} s")
    print(json.dumps({"correct": bool(correct), "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
