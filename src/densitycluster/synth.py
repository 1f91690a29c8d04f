"""Seeded synthetic data: Gaussian mixtures for fixtures and benchmarks."""
from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from .clustering import ClusterParams, cluster_density_map
from .density import DensityMap, PointBatch, Viewport, bin_points, smooth
from .errors import ParameterError


@dataclass(frozen=True)
class GaussianMixture:
    """Component centers/sigmas in data units, weights normalized to sum 1."""

    centers: np.ndarray   # (k, 2)
    sigmas: np.ndarray    # (k,)
    weights: np.ndarray   # (k,)

    @property
    def k(self) -> int:
        return int(self.centers.shape[0])


def random_mixture(size: float, k: int, rng: np.random.Generator) -> GaussianMixture:
    """k components inside [0.1 size, 0.9 size]^2, sigmas 0.02-0.05 of size."""
    centers = rng.uniform(0.1 * size, 0.9 * size, size=(k, 2))
    sigmas = rng.uniform(0.02 * size, 0.05 * size, size=k)
    weights = rng.uniform(0.5, 1.5, size=k)
    return GaussianMixture(centers, sigmas, weights / weights.sum())


def sample_mixture(mix: GaussianMixture, n: int, rng: np.random.Generator,
                   clip_sigmas: float | None = None,
                   texts: list[str] | None = None) -> PointBatch:
    """Draw n points; optional radial clipping keeps samples within
    clip_sigmas of their component center. texts, when given, supplies one
    label per component."""
    counts = rng.multinomial(n, mix.weights)
    xs_parts, ys_parts, text_parts = [], [], []
    for i in range(mix.k):
        c = counts[i]
        offsets = rng.normal(0.0, mix.sigmas[i], size=(c, 2))
        if clip_sigmas is not None:
            lim = clip_sigmas * mix.sigmas[i]
            for _ in range(16):
                bad = np.hypot(offsets[:, 0], offsets[:, 1]) > lim
                if not bad.any():
                    break
                offsets[bad] = rng.normal(0.0, mix.sigmas[i], size=(int(bad.sum()), 2))
            np.clip(offsets, -lim, lim, out=offsets)
        xs_parts.append(mix.centers[i, 0] + offsets[:, 0])
        ys_parts.append(mix.centers[i, 1] + offsets[:, 1])
        if texts is not None:
            text_parts.extend([texts[i]] * c)
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    return PointBatch(xs, ys, np.ones(xs.shape[0]),
                      text_parts if texts is not None else None)


def density_for_grid(batch: PointBatch, size: int,
                     bandwidth_px: float | None = None) -> DensityMap:
    """Bin a [0, size]^2 point batch on a size x size grid and smooth it."""
    vp = Viewport(0.0, float(size), 0.0, float(size), size, size)
    if bandwidth_px is None:
        bandwidth_px = 0.01 * size
    return smooth(bin_points(batch, vp), bandwidth_px)


def mixture_density(mix: GaussianMixture, viewport: Viewport,
                    amplitudes: np.ndarray | None = None) -> DensityMap:
    """Evaluate the mixture analytically at pixel centers (noise-free maps)."""
    xs = viewport.x_min + (np.arange(viewport.width) + 0.5) * viewport.sx
    ys = viewport.y_min + (np.arange(viewport.height) + 0.5) * viewport.sy
    gx, gy = np.meshgrid(xs, ys)
    out = np.zeros((viewport.height, viewport.width))
    amps = mix.weights if amplitudes is None else amplitudes
    for i in range(mix.k):
        dx = gx - mix.centers[i, 0]
        dy = gy - mix.centers[i, 1]
        out += amps[i] * np.exp(-(dx * dx + dy * dy) / (2.0 * mix.sigmas[i] ** 2))
    return DensityMap(viewport, out)


def bench_run(sizes, repeats: int = 3, seed: int = 0,
              n_points: int = 100_000) -> list[dict]:
    """Time KDE and clustering on seeded mixtures of ceil(size/10) Gaussians.

    Returns one row per size with median timings in milliseconds plus the
    resulting cluster count. Cluster counts are deterministic per seed.
    """
    # smooth imports scipy on first use; import it first so that kde_ms
    # times the KDE alone
    import scipy.ndimage  # noqa: F401
    rows = []
    for size in sizes:
        size = int(size)
        if size < 64:
            raise ParameterError("bench sizes must be >= 64")
        k = -(-size // 10)  # ceil
        rng = np.random.default_rng(seed)
        mix = random_mixture(size, k, rng)
        batch = sample_mixture(mix, n_points, rng)
        kde_ms, cluster_ms = [], []
        n_clusters = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            dm = density_for_grid(batch, size)
            t1 = time.perf_counter()
            cmap, graph = cluster_density_map(dm, ClusterParams())
            t2 = time.perf_counter()
            kde_ms.append((t1 - t0) * 1000.0)
            cluster_ms.append((t2 - t1) * 1000.0)
            n_clusters = len(graph.nodes)
        rows.append({
            "size": size,
            "gaussians": k,
            "points": n_points,
            "kde_ms_median": median(kde_ms),
            "cluster_ms_median": median(cluster_ms),
            "kde_ms": kde_ms,
            "cluster_ms": cluster_ms,
            "clusters": n_clusters,
        })
    return rows
