#!/usr/bin/env python3
"""Scaling experiment: cluster seeded mixtures on growing grids.

Prints the timing table. Writes machine-readable rows next to the table when
--json-out is given.
"""
import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from densitycluster.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="250,500,1000")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--points", type=int, default=100_000)
    ap.add_argument("--json-out", default=None)
    args = ap.parse_args()

    argv = ["bench", "--sizes", args.sizes, "--repeats", str(args.repeats),
            "--seed", str(args.seed), "--points", str(args.points)]
    if args.json_out:
        argv += ["--json-out", args.json_out]
    raise SystemExit(cli_main(argv))


if __name__ == "__main__":
    main()
