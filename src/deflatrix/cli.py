"""Command-line front end.

Subcommands: ``deflate`` (run + diagnostics + figure traces + bound report),
``bounds`` (bound report only), ``cluster`` (spectral-clustering sweep), and
``selftest`` (reduced-scale verification table).

Configuration precedence is flags > config file > defaults; every default
lives in ``build_parser``. The config file is flat ``key=value`` lines with
``#`` comments; each key names a long flag and is read as that flag. The
``DEFLATRIX_OUT`` environment variable overrides the default output
directory. Exit codes: 0 success, 1 usage or I/O error, 2 math precondition
abort.
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
    # utf-8-sig drops a leading byte-order mark, which would join the first key
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")
    return values


def _run_from_args(args):
    # reject a bad --epsilon before the run, not after it
    if args.epsilon is not None:
        _check_epsilon(args.epsilon)
    K = args.k if args.k is not None else args.d
    return reference_run(args.d, K, args.t, args.seed, parse_spectrum(args.spectrum))


def _resolve_out(args) -> Path:
    # read per call: the parser, and so any default it holds, is shared
    return Path(args.out or os.environ.get("DEFLATRIX_OUT") or "out")


def cmd_deflate(args) -> int:
    d = args.d
    # an explicit slice is checked before the run; below d = 1 the run's own
    # "d must be >= 1" is the message, and the default slice is always in range
    if args.j_slice and d >= 1:
        dio._check_j_slice(args.j_slice, d)
    run = _run_from_args(args)
    j_slice = args.j_slice or sorted({max(1, (d * q) // 4) for q in (1, 2, 3, 4)})
    diags = diagnose_run(run)
    report = bound_report(run, args.epsilon)
    out = _resolve_out(args)
    dio.write_run_dir(run, diags, out, spectrum_label=args.spectrum)
    dio.write_figure_csvs(diags, j_slice, out)
    dio.write_bounds_csv(report, out / "bounds.csv")
    print(f"wrote run, figure and bound CSVs to {out}")
    return 0


def cmd_bounds(args) -> int:
    report = bound_report(_run_from_args(args), args.epsilon)
    out = _resolve_out(args)
    dio.write_bounds_csv(report, out / "bounds.csv")
    print(f"wrote {out / 'bounds.csv'}")
    return 0


def cmd_cluster(args) -> int:
    if args.data == "blobs":
        data = synthetic_blobs(seed=args.seed)
    else:
        data = dio.read_dataset_csv(args.data)
    clusters = args.clusters if args.clusters is not None else len(set(data.labels.tolist()))
    cells, summary = run_clustering_experiment(
        data,
        args.r,
        args.k if args.k is not None else clusters,
        clusters,
        args.t_values,
        args.seeds,
        spectrum_end=args.spectrum_end,
        row_normalize=args.row_normalize,
        jobs=args.jobs,
    )
    out = _resolve_out(args)
    dio.write_mi_csvs(cells, summary, out)
    for s in summary:
        print(f"t={s.t}: mean MI {s.mean_mi:.4f} (std {s.std_mi:.4f})")
    means = [s.mean_mi for s in summary]
    drops = [b < a for a, b in zip(means, means[1:])].count(True)
    print(f"MI trend across t: {'non-decreasing' if drops == 0 else f'{drops} inversion(s)'}")
    print(f"wrote {out / 'mi_vs_t.csv'} and {out / 'mi_summary.csv'}")
    return 0


def cmd_selftest(args) -> int:
    report = run_selftest(seed=args.seed)
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output directory (default $DEFLATRIX_OUT or ./out)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--d", type=int, default=100, help="matrix dimension (default %(default)s)")
    run.add_argument("--K", dest="k", type=int, help="number of components (default d)")
    run.add_argument("--t", type=int, default=200,
                     help="power-iteration steps per component (default %(default)s)")
    run.add_argument("--spectrum", default="power-law:1",
                     help="power-law:G | exponential:R | explicit:v1,v2,... (default %(default)s)")
    run.add_argument("--epsilon", type=float, help="target accuracy; adds budget columns")

    p = sub.add_parser("deflate", parents=[common, run],
                       help="run deflation, write run/figure/bound CSVs")
    p.add_argument("--j-slice", dest="j_slice", type=_int_list,
                   help="comma list of directions for figure CSVs (default: the quartiles of d)")
    p.set_defaults(func=cmd_deflate)

    p = sub.add_parser("bounds", parents=[common, run],
                       help="run deflation, write only the bound report")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cluster", parents=[common],
                       help="spectral clustering sweep over t and seeds")
    p.add_argument("--data", default="blobs",
                   help="dataset CSV with a 'label' column, or 'blobs' (default %(default)s)")
    p.add_argument("--r", type=int, default=10, help="nearest-neighbor count (default %(default)s)")
    p.add_argument("--k", type=int, help="embedding eigenvectors (default: cluster count)")
    p.add_argument("--clusters", type=int, help="cluster count (default: label count)")
    p.add_argument("--t-values", dest="t_values", type=_int_list, default="5,20,100",
                   help="comma list (default %(default)s)")
    p.add_argument("--seeds", type=_int_list, default="0,1,2,3,4",
                   help="comma list of seeds (default %(default)s)")
    p.add_argument(
        "--spectrum-end",
        dest="spectrum_end",
        choices=("top", "bottom"),
        default="top",
        help="which end of the Laplacian spectrum to embed from (default %(default)s)",
    )
    p.add_argument("--row-normalize", dest="row_normalize", action="store_true",
                   help="normalize embedding rows before k-means")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the (t, seed) cells (default %(default)s)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("selftest", parents=[common], help="reduced-scale verification table")
    p.set_defaults(func=cmd_selftest)
    return parser


# Built on the first call and shared by later ones: parse_args leaves the
# parser unchanged and returns a fresh namespace each time.
_parser = functools.cache(build_parser)


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv``; each key of a ``--config`` file names a long flag and
    becomes a ``--flag=value`` token ahead of the command line's own flags,
    so its flag's ``type`` parses it and a flag on the command line wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    if not args.config:
        return args
    (sub,) = _parser()._subparsers._group_actions
    # a key of another command is skipped with a warning, a misspelled one
    # is an error
    known = {o for p in sub.choices.values() for o in p._option_string_actions}
    known -= {"--help", "--config"}
    options = sub.choices[args.command]._option_string_actions
    config = _read_config_file(args.config)
    tokens, unused = [], []
    for key, raw in config.items():
        flag = "--" + key.replace("_", "-")
        if flag == "--k" and "--K" in options and "K" not in config:
            flag = "--K"  # the old spelling of --K
        if flag not in known:
            raise SchemaError(f"{args.config}: unknown config key {key!r}")
        if flag not in options:
            unused.append(flag[2:])
        elif options[flag].nargs == 0:  # a store_true flag takes no value
            if raw.lower() not in ("1", "true", "yes", "0", "false", "no", ""):
                raise SchemaError(f"{args.config}: {flag[2:]}={raw!r} is not a boolean")
            tokens += [flag] if raw.lower() in ("1", "true", "yes") else []
        else:
            tokens.append(f"{flag}={raw}")
    if unused:
        print(
            f"warning: ignoring config keys {args.command} does not use: {', '.join(unused)}",
            file=sys.stderr,
        )
    at = argv.index(args.command) + 1
    return _parser().parse_args([*argv[:at], *tokens, *argv[at:]])


def main(argv=None) -> int:
    try:
        try:
            args = _parse(argv)
        except SystemExit as exc:
            # argparse exits 2 on a usage error; 2 is the precondition-abort code
            return 1 if exc.code == 2 else exc.code
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
