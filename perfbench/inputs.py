"""Seeded benchmark inputs and the per-workload clustering settings.

Run as a script (``python3 perfbench/inputs.py <workload> <seed> <out_dir>``
with ``src`` on ``PYTHONPATH``) so that generating inputs stays out of the
measuring process and its peak memory. Writes:

- ``points.csv``: header ``x,y,text``; floats written with ``repr(float)``,
  which round-trips exactly, so the CLI parses the same values as
  ``points.npz`` holds;
- ``points.npz``: the ``xs`` and ``ys`` arrays, for the library path and the
  SQL check.

The same workload and seed always give the same bytes.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

WORDS = ["harbor", "violin", "basalt", "nebula", "sonnet", "glacier",
         "maple", "cipher", "lagoon", "ember"]


@dataclass(frozen=True)
class Workload:
    """Grid and clustering settings shared by the library path and `cluster`.

    None keeps the package default (bandwidth: 1% of the grid side; merge
    distance: 8 px).
    """

    grid: int
    bandwidth: float | None = None
    merge_distance: float | None = None

    def cluster_flags(self) -> list[str]:
        flags = ["--width", str(self.grid), "--height", str(self.grid)]
        if self.bandwidth is not None:
            flags += ["--bandwidth", str(self.bandwidth)]
        if self.merge_distance is not None:
            flags += ["--merge-distance", str(self.merge_distance)]
        return flags


WORKLOADS = {
    "mixture-1000": Workload(1000),
    "many-clusters": Workload(250, bandwidth=1.0, merge_distance=0.0),
}


def lattice_mixture(size: float, side: int, rng: np.random.Generator):
    """side x side Gaussians on a lattice over [0, size]^2, each center
    jittered by up to 8% of the lattice step.

    Sigmas (10-26% of the step) and weights follow a fixed pattern over the
    lattice, so that every seed gives the same clusters and merges up to the
    jitter, and the work per run hardly depends on the seed. Uniformly random
    centers and sigmas gave 42 to 58 clusters over five seeds.
    """
    from densitycluster.synth import GaussianMixture
    step = size / side
    i, j = np.divmod(np.arange(side * side), side)
    centers = np.stack([(j + 0.5) * step, (i + 0.5) * step], axis=1)
    centers += rng.uniform(-0.08 * step, 0.08 * step, size=centers.shape)
    sigmas = step * (0.10 + 0.04 * ((3 * i + 7 * j) % 5))
    weights = 1.0 + 0.5 * ((i + 2 * j) % 3)
    return GaussianMixture(centers, sigmas, weights / weights.sum())


def make_points(workload: str, seed: int):
    """(xs, ys, texts) for a workload; the same seed gives the same points."""
    rng = np.random.default_rng(seed)
    if workload == "mixture-1000":
        from densitycluster.synth import sample_mixture
        mix = lattice_mixture(1000.0, 8, rng)
        texts = [f"{WORDS[i % len(WORDS)]} note {i}" for i in range(mix.k)]
        batch = sample_mixture(mix, 100_000, rng, clip_sigmas=4.0, texts=texts)
        return batch.xs, batch.ys, batch.texts
    if workload == "many-clusters":
        xs = rng.uniform(0.0, 250.0, 12_500)
        ys = rng.uniform(0.0, 250.0, 12_500)
        picks = rng.integers(0, len(WORDS), size=(xs.size, 2)).tolist()
        return xs, ys, [f"{WORDS[a]} {WORDS[b]}" for a, b in picks]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, out_dir: str) -> None:
    xs, ys, texts = make_points(workload, seed)
    np.savez(f"{out_dir}/points.npz", xs=xs, ys=ys)
    with open(f"{out_dir}/points.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,text\n")
        # tolist() yields Python floats; repr of an np.float64 would print
        # "np.float64(...)" under numpy 2 and make every row malformed
        fh.writelines(f"{repr(float(x))},{repr(float(y))},{t}\n"
                      for x, y, t in zip(xs.tolist(), ys.tolist(), texts))


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
