#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Writes tests/data/two_gaussians.csv (10k points from two clipped Gaussians
whose peaks sit ~60 px apart on a 128x128 grid), its cluster JSON, and the
frozen golden SVG and labels (plain and --merge) produced by running render
and label on them. Rerun after any intentional change to the pipeline output
and commit the results.
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from densitycluster.cli import main
from densitycluster.synth import GaussianMixture, sample_mixture

DATA = ROOT / "tests" / "data"


def write_two_gaussians_csv(path):
    rng = np.random.default_rng(101)
    mix = GaussianMixture(centers=np.array([[34.0, 64.0], [94.0, 64.0]]),
                          sigmas=np.array([9.0, 9.0]),
                          weights=np.array([0.5, 0.5]))
    batch = sample_mixture(mix, 10_000, rng, clip_sigmas=3.0,
                           texts=["alpha", "bravo"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,text\n")
        for i in range(len(batch)):
            fh.write(f"{float(batch.xs[i])!r},{float(batch.ys[i])!r},{batch.texts[i]}\n")


def main_():
    DATA.mkdir(parents=True, exist_ok=True)
    csv_path = DATA / "two_gaussians.csv"
    write_two_gaussians_csv(csv_path)
    print(f"wrote {csv_path}")

    cluster_json = DATA / "two_gaussians_clusters.json"
    rc = main(["cluster", "--input", str(csv_path), "--width", "128",
               "--height", "128", "--output", str(cluster_json)])
    assert rc == 0, rc
    golden = DATA / "two_gaussians_golden.svg"
    rc = main(["render", "--cluster-json", str(cluster_json),
               "--output", str(golden)])
    assert rc == 0, rc
    print(f"wrote {cluster_json}")
    print(f"wrote {golden}")
    for flags, name in (([], "labels"), (["--merge"], "merged")):
        golden = DATA / f"two_gaussians_golden_{name}.json"
        rc = main(["label", "--input", str(csv_path), "--text-col", "text",
                   "--cluster-json", str(cluster_json), "--output", str(golden),
                   *flags])
        assert rc == 0, rc
        print(f"wrote {golden}")


if __name__ == "__main__":
    main_()
