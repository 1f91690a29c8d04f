#!/usr/bin/env python3
"""End-to-end demo on synthetic data.

Samples a seeded Gaussian mixture with planted topic words, then runs the
full CLI pipeline: cluster -> render (with density underlay) -> label ->
one SQL predicate. Outputs land in ./demo_out by default.
"""
import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from densitycluster.cli import main as cli_main
from densitycluster.io import read_cluster_document
from densitycluster.synth import random_mixture, sample_mixture

WORDS = ["harbor", "violin", "basalt", "nebula", "sonnet", "glacier",
         "maple", "cipher", "lagoon", "ember"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("--points", type=int, default=200_000)
    ap.add_argument("--blobs", type=int, default=10)
    ap.add_argument("--size", type=int, default=512)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    mix = random_mixture(float(args.size), args.blobs, rng)
    texts = [f"{WORDS[i % len(WORDS)]} note {i}" for i in range(args.blobs)]
    batch = sample_mixture(mix, args.points, rng, texts=texts)

    csv_path = out / "points.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("x,y,text\n")
        for i in range(len(batch)):
            fh.write(f"{batch.xs[i]:.5f},{batch.ys[i]:.5f},{batch.texts[i]}\n")

    clusters = out / "clusters.json"
    density = out / "density.bin"
    svg = out / "clusters.svg"
    labels = out / "labels.json"
    for argv in (
        ["cluster", "--input", str(csv_path), "--width", str(args.size),
         "--height", str(args.size), "--output", str(clusters),
         "--density-out", str(density)],
        ["render", "--cluster-json", str(clusters), "--output", str(svg),
         "--underlay", str(density)],
        ["label", "--input", str(csv_path), "--text-col", "text",
         "--cluster-json", str(clusters), "--output", str(labels)],
    ):
        rc = cli_main(argv)
        if rc != 0:
            raise SystemExit(rc)

    first = read_cluster_document(clusters).clusters[0].id
    print(f"\nSQL predicate for cluster {first}:")
    cli_main(["sql", "--cluster-json", str(clusters),
              "--cluster-id", str(first)])
    print(f"\noutputs in {out}/")


if __name__ == "__main__":
    main()
