"""Command-line front end.

Subcommands: ``deflate`` (run + diagnostics + figure traces + bound report),
``bounds`` (bound report only), ``cluster`` (spectral-clustering sweep), and
``selftest`` (reduced-scale verification table).

Configuration precedence is flags > config file > defaults; the config file
is flat ``key=value`` lines with ``#`` comments, keys spelled like the long
flags. The ``DEFLATRIX_OUT`` environment variable overrides the default
output directory. Exit codes: 0 success, 1 usage or I/O error, 2 math
precondition abort.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import io as dio
from .bounds import _check_epsilon
from .clustering import run_clustering_experiment, synthetic_blobs
from .deflate import reference_run
from .diagnostics import bound_report, diagnose_run
from .errors import PreconditionError, SchemaError
from .linalg import ExplicitSpectrum, ExponentialSpectrum, PowerLawSpectrum
from .selftest import Tally, run_selftest


def parse_spectrum(text: str):
    """Parse ``power-law:g``, ``exponential:r`` or ``explicit:v1,v2,...``."""
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("power-law", "power_law", "powerlaw"):
        return PowerLawSpectrum(gamma=float(arg) if arg else 1.0)
    if kind in ("exponential", "exp"):
        if not arg:
            raise ValueError("exponential spectrum needs a decay rate, e.g. exponential:0.8")
        return ExponentialSpectrum(rho=float(arg))
    if kind == "explicit":
        if not arg:
            raise ValueError("explicit spectrum needs values, e.g. explicit:1,0.5,0.25")
        return ExplicitSpectrum(values=tuple(float(x) for x in arg.split(",")))
    raise ValueError(f"unknown spectrum kind {text!r}")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            # keys are spelled like the long flags, and --K stores to `k`
            values["k" if key == "K" else key] = value.strip()
    return values


_CONFIG_KEYS = {
    "d": int,
    "k": int,
    "t": int,
    "seed": int,
    "spectrum": str,
    "out": str,
    "j_slice": str,
    "epsilon": float,
    "data": str,
    "r": int,
    "clusters": int,
    "t_values": str,
    "seeds": str,
    "spectrum_end": str,
    "row_normalize": lambda s: s.lower() in ("1", "true", "yes"),
    "jobs": int,
}


def _apply_config(args: argparse.Namespace, path: str) -> None:
    # config fills only values the flags left at None; a key of another
    # command is skipped with a warning, a misspelled one is an error
    unused = []
    for key, raw in _read_config_file(path).items():
        if key not in _CONFIG_KEYS:
            raise SchemaError(f"{path}: unknown config key {key!r}")
        if not hasattr(args, key):
            unused.append(key.replace("_", "-"))
        elif getattr(args, key) is None:
            setattr(args, key, _CONFIG_KEYS[key](raw))
    if unused:
        print(
            f"warning: ignoring config keys {args.command} does not use: {', '.join(unused)}",
            file=sys.stderr,
        )


def _resolve_out(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("DEFLATRIX_OUT") or "out"
    return Path(out)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _spectrum_label(args) -> str:
    return args.spectrum if args.spectrum is not None else "power-law:1"


def _run_from_args(args):
    d = args.d if args.d is not None else 100
    K = args.k if args.k is not None else d
    t = args.t if args.t is not None else 200
    seed = args.seed if args.seed is not None else 0
    kind = parse_spectrum(_spectrum_label(args))
    if not 1 <= K <= d:
        raise ValueError(f"--K must lie in [1, {d}]")
    return reference_run(d, K, t, seed, kind)


def _check_epsilon_flag(args) -> None:
    # reject a bad --epsilon before the run, not after it
    if args.epsilon is not None:
        _check_epsilon(args.epsilon)


def cmd_deflate(args) -> int:
    _check_epsilon_flag(args)
    run = _run_from_args(args)
    d = run.d
    if args.j_slice is not None:
        j_slice = _int_list(args.j_slice)
    else:
        j_slice = sorted({max(1, (d * q) // 4) for q in (1, 2, 3, 4)})
    bad = [j for j in j_slice if not 1 <= j <= d]
    if bad:
        raise ValueError(f"--j-slice entries out of range: {bad}")
    diags = diagnose_run(run)
    report = bound_report(run, args.epsilon)
    out = _resolve_out(args)
    dio.write_run_dir(run, diags, out, spectrum_label=_spectrum_label(args))
    dio.write_figure_csvs(diags, j_slice, out)
    dio.write_bounds_csv(report, out / "bounds.csv")
    print(f"wrote run, figure and bound CSVs to {out}")
    return 0


def cmd_bounds(args) -> int:
    _check_epsilon_flag(args)
    report = bound_report(_run_from_args(args), args.epsilon)
    out = _resolve_out(args)
    dio.write_bounds_csv(report, out / "bounds.csv")
    print(f"wrote {out / 'bounds.csv'}")
    return 0


def cmd_cluster(args) -> int:
    data_arg = args.data if args.data is not None else "blobs"
    if data_arg == "blobs":
        data = synthetic_blobs(seed=args.seed if args.seed is not None else 0)
    else:
        data = dio.read_dataset_csv(data_arg)
    r = args.r if args.r is not None else 10
    clusters = args.clusters if args.clusters is not None else int(data.labels.max()) + 1
    k = args.k if args.k is not None else clusters
    t_values = _int_list(args.t_values) if args.t_values is not None else [5, 20, 100]
    seeds = _int_list(args.seeds) if args.seeds is not None else [0, 1, 2, 3, 4]
    cells, summary = run_clustering_experiment(
        data,
        r,
        k,
        clusters,
        t_values,
        seeds,
        spectrum_end=args.spectrum_end if args.spectrum_end is not None else "top",
        row_normalize=bool(args.row_normalize),
        jobs=args.jobs if args.jobs is not None else 1,
    )
    out = _resolve_out(args)
    dio.write_mi_csvs(cells, summary, out)
    for s in summary:
        print(f"t={s.t}: mean MI {s.mean_mi:.4f} (std {s.std_mi:.4f})")
    means = [s.mean_mi for s in summary]
    drops = sum(1 for a, b in zip(means, means[1:]) if b < a)
    print(f"MI trend across t: {'non-decreasing' if drops == 0 else f'{drops} inversion(s)'}")
    print(f"wrote {out / 'mi_vs_t.csv'} and {out / 'mi_summary.csv'}")
    return 0


def cmd_selftest(args) -> int:
    report = run_selftest(seed=args.seed if args.seed is not None else 0)
    width = max(len(name) for name in report)
    print(f"{'check'.ljust(width)}  holds  violated  skipped")
    bad = 0
    for name in sorted(report):
        tally: Tally = report[name]
        bad += tally.violated
        print(f"{name.ljust(width)}  {tally.holds:5d}  {tally.violated:8d}  {tally.skipped:7d}")
    if bad:
        print(f"{bad} violation(s) detected", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflatrix",
        description="Deflation-based top-K PCA with error-propagation instrumentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default $DEFLATRIX_OUT or ./out)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")

    p = sub.add_parser("deflate", help="run deflation, write run/figure/bound CSVs")
    common(p)
    p.add_argument("--d", type=int, help="matrix dimension (default 100)")
    p.add_argument("--K", dest="k", type=int, help="number of components (default d)")
    p.add_argument("--t", type=int, help="power-iteration steps per component (default 200)")
    p.add_argument("--spectrum", help="power-law:G | exponential:R | explicit:v1,v2,...")
    p.add_argument("--j-slice", dest="j_slice", help="comma list of directions for figure CSVs")
    p.add_argument("--epsilon", type=float, help="target accuracy; adds budget columns")
    p.set_defaults(func=cmd_deflate)

    p = sub.add_parser("bounds", help="run deflation, write only the bound report")
    common(p)
    p.add_argument("--d", type=int)
    p.add_argument("--K", dest="k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--spectrum", help="power-law:G | exponential:R | explicit:v1,v2,...")
    p.add_argument("--epsilon", type=float, help="target accuracy; adds budget columns")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cluster", help="spectral clustering sweep over t and seeds")
    common(p)
    p.add_argument("--data", help="dataset CSV with a 'label' column, or 'blobs'")
    p.add_argument("--r", type=int, help="nearest-neighbor count (default 10)")
    p.add_argument("--k", type=int, help="embedding eigenvectors (default: cluster count)")
    p.add_argument("--clusters", type=int, help="cluster count (default: label count)")
    p.add_argument("--t-values", dest="t_values", help="comma list (default 5,20,100)")
    p.add_argument("--seeds", help="comma list of seeds (default 0,1,2,3,4)")
    p.add_argument(
        "--spectrum-end",
        dest="spectrum_end",
        choices=("top", "bottom"),
        help="which end of the Laplacian spectrum to embed from (default top)",
    )
    p.add_argument("--row-normalize", dest="row_normalize", action="store_const", const=True,
                   help="normalize embedding rows before k-means")
    p.add_argument("--jobs", type=int, help="worker processes for the (t, seed) cells (default 1)")
    p.set_defaults(func=cmd_cluster, row_normalize=None)

    p = sub.add_parser("selftest", help="reduced-scale verification table")
    common(p)
    p.set_defaults(func=cmd_selftest)
    return parser


# Built on the first call and shared by later ones: parse_args leaves the
# parser unchanged and returns a fresh namespace each time.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is the precondition-abort code
        return 1 if exc.code == 2 else exc.code
    try:
        if getattr(args, "config", None):
            _apply_config(args, args.config)
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
