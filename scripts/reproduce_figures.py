#!/usr/bin/env python3
"""Regenerate the reference figure traces: full 100-component sweep on the
power-law spectrum with 200 power-iteration steps per component.

Writes run.csv, v.csv, u.csv, meta.json, fig2/fig3/fig4.csv and bounds.csv
into --out (default out/figures). Takes under a second (about 0.7 s on a
2-core machine, interpreter start-up included).
"""

import argparse
import sys

from deflatrix.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figures")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--d", type=int, default=100)
    parser.add_argument("--t", type=int, default=200)
    args = parser.parse_args()
    return cli_main(
        [
            "deflate",
            "--d", str(args.d),
            "--K", str(args.d),
            "--t", str(args.t),
            "--spectrum", "power-law:1",
            "--seed", str(args.seed),
            "--out", args.out,
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
