"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed (``setup``), runs one
operation through a public entry point of the program (``run``), reduces the
operation's output to a fingerprint that every later operation must repeat
exactly (``fingerprint``), and checks one output against checks.py's
independent recomputation (``check``).

The program is reached only through ``deflatrix.cli.main`` and
``deflatrix.bounds.build_bound_report``, looked up at call time so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

import checks


class Workload:
    name = ""  # as in BENCHMARK.json
    threads = 1  # threads the operation runs on; the reference work runs on as many

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Generate the inputs; everything up to here is set-up time."""

    def inputs(self) -> dict:
        """What the operation runs on, seeds included, for the result record."""
        raise NotImplementedError

    def run(self):
        """One operation. Returns its result, or raises."""
        raise NotImplementedError

    def succeeded(self, result) -> bool:
        return True

    def fingerprint(self, result) -> str:
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def bytes_written(self) -> int:
        if not self.out_dir.exists():
            return 0
        return sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())

    def clear(self) -> None:
        """Remove the previous operation's files so each check sees fresh output."""
        shutil.rmtree(self.out_dir, ignore_errors=True)


class CliWorkload(Workload):
    """An operation is one ``deflatrix.cli.main(argv)`` call."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        import deflatrix.cli

        self._cli = deflatrix.cli
        self._argv = self.argv()

    def inputs(self) -> dict:
        return {"argv": self._argv}

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main(self._argv)
        return code, out.getvalue(), err.getvalue()

    def succeeded(self, result) -> bool:
        return result[0] == 0

    def fingerprint(self, result) -> str:
        digest = hashlib.sha256(repr(result).encode())
        for path in sorted(self.out_dir.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()


class FigureTrace(CliWorkload):
    """The paper's full-sweep figure protocol (K = d) at reduced size; the
    Jacobi oracle dominates."""

    name = "figure-trace"
    D = 32
    T = 200

    def argv(self) -> list[str]:
        return ["deflate", "--d", str(self.D), "--K", str(self.D), "--t", str(self.T),
                "--spectrum", "power-law:1", "--seed", str(self.seed), "--out", str(self.out_dir)]

    def check(self, result) -> list[str]:
        return checks.check_figure_outputs(self.out_dir, self.seed, self.D, self.D, self.T)


class ClusterSweep(CliWorkload):
    """The clustering sweep on the 500-point blob fixture drawn from the
    seed, with the CLI's default t values and sweep seeds; no oracle runs."""

    name = "cluster-sweep"
    threads = 2
    T_VALUES = (5, 20, 100)
    SWEEP_SEEDS = (0, 1, 2, 3, 4)
    LABEL_COUNTS = (50,) * 10  # synthetic_blobs(n=500, clusters=10)

    def argv(self) -> list[str]:
        return ["cluster", "--data", "blobs", "--jobs", str(self.threads), "--seed", str(self.seed),
                "--out", str(self.out_dir)]

    def inputs(self) -> dict:
        return {"argv": self._argv, "t_values": self.T_VALUES, "sweep_seeds": self.SWEEP_SEEDS}

    def check(self, result) -> list[str]:
        return checks.check_cluster_outputs(self.out_dir, self.T_VALUES, self.SWEEP_SEEDS, self.LABEL_COUNTS)


class SelfTest(CliWorkload):
    """The reduced-scale verification table: ~460 oracle calls on d <= 20,
    where per-call overhead outweighs flops. Its trial loops retry and double
    t until instances calibrate, so the work depends on the selftest seed;
    the seed is fixed so every run does the same work."""

    name = "selftest"
    SELFTEST_SEED = 0

    def argv(self) -> list[str]:
        return ["selftest", "--seed", str(self.SELFTEST_SEED)]

    def check(self, result) -> list[str]:
        code, out, _ = result
        return checks.check_selftest_output(code, out)


class BoundReport(Workload):
    """One bound report on a power-law spectrum, K = d = 110.

    Sub-routine errors sit at the float64 floor (1e-15..1e-13), as power
    iteration leaves them after t = 20000 steps; the start-vector constant
    is the reciprocal of the worst of K random alignments. With these the
    power-iteration family is admissible at every step and the agnostic one
    only at the first few, so both branches of the engine run.
    """

    name = "bound-report"
    K = 110
    T = 20000
    EPSILON = 1e-2

    def setup(self) -> None:
        import deflatrix.bounds

        self._bounds = deflatrix.bounds
        gen = np.random.Generator(np.random.Philox(self.seed))
        self.lambdas = checks.power_law_eigenvalues(self.K)
        self.sub_errors = 10.0 ** gen.uniform(-15.0, -13.0, self.K)
        alignments = np.abs(gen.standard_normal(self.K)) / np.sqrt(self.K)
        self.c0 = max(1.0, 1.0 / float(alignments.min()))
        self.empirical = self.sub_errors * 10.0 ** gen.uniform(0.0, 1.0, self.K)
        self.bound_inputs = deflatrix.bounds.BoundInputs(
            lambdas=self.lambdas, sub_error_norms=self.sub_errors, init_constant=self.c0,
            t=self.T, K=self.K, epsilon=self.EPSILON,
        )
        self.gaps = deflatrix.bounds.eigengaps(self.lambdas)

    def inputs(self) -> dict:
        return {"generator": f"Philox({self.seed})", "K": self.K, "t": self.T,
                "epsilon": self.EPSILON, "init_constant": self.c0}

    def run(self):
        return self._bounds.build_bound_report(self.bound_inputs, self.gaps, self.empirical)

    def fingerprint(self, result) -> str:
        return repr([vars(row) for row in result])

    def check(self, result) -> list[str]:
        expected = checks.evaluate_bounds(
            self.lambdas, self.sub_errors, self.c0, self.T, self.K, self.EPSILON
        )
        return checks.check_bound_rows(result, expected, self.empirical)


WORKLOADS = {w.name: w for w in (FigureTrace, ClusterSweep, BoundReport, SelfTest)}
