"""Shared fixtures and brute-force helpers for the test suite."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from densitycluster import density
from densitycluster.clustering import (NEIGHBOR_OFFSETS, ClusterMap,
                                       ClusterNode, ClusterParams)
from densitycluster.density import (DensityMap, PointBatch, Viewport,
                                    bin_points, smooth)
from densitycluster.synth import (GaussianMixture, mixture_density,
                                  random_mixture, sample_mixture)


def gaussian_map(centers, sigmas, amps, size) -> DensityMap:
    """Noise-free mixture of isotropic Gaussians evaluated on a square grid."""
    vp = Viewport(0.0, float(size), 0.0, float(size), size, size)
    mix = GaussianMixture(np.array(centers, float), np.array(sigmas, float),
                          np.ones(len(sigmas)) / len(sigmas))
    return mixture_density(mix, vp, np.array(amps, float))


def two_gauss_near() -> DensityMap:
    # bimodal pair 6 px apart; the weaker peak sits ~1 px from the watershed
    return gaussian_map([[13.0, 16.0], [19.0, 16.0]], [2.0, 2.0], [1.0, 0.7], 32)


def two_gauss_far() -> DensityMap:
    # 60 px apart; both peaks are ~30 px from the shared boundary
    return gaussian_map([[34.0, 64.0], [94.0, 64.0]], [8.0, 8.0], [1.0, 0.9], 128)


def three_blob() -> DensityMap:
    # three well-separated modes plus one shallow satellite near the first
    return gaussian_map(
        [[16.0, 16.0], [46.0, 22.0], [28.0, 46.0], [24.0, 14.0]],
        [5.0, 6.0, 6.0, 2.5], [1.0, 0.8, 0.9, 0.5], 64)


def dumbbell() -> DensityMap:
    # tall and short lobe; merged into one cluster, the neck between them
    # falls below 0.1 * tall peak
    return gaussian_map([[12.0, 16.0], [32.0, 16.0]], [4.0, 4.0], [1.0, 0.3], 44)


def noisy_map(seed: int, size: int, zero_frac: float = 0.3,
              quantize: int = 0, bandwidth: float = 0.0) -> DensityMap:
    rng = np.random.default_rng(seed)
    vals = rng.random((size, size))
    vals[vals < zero_frac] = 0.0
    dm = DensityMap(Viewport(0, size, 0, size, size, size), vals)
    if bandwidth > 0:
        dm = smooth(dm, bandwidth)
    if quantize:
        dm = DensityMap(dm.viewport, np.round(dm.values * quantize) / quantize)
    return dm


def sampled_map(seed: int, size: int, n_points: int = 20000,
                k: int = 6) -> DensityMap:
    rng = np.random.default_rng(seed)
    mix = random_mixture(size, k, rng)
    batch = sample_mixture(mix, n_points, rng)
    vp = Viewport(0.0, float(size), 0.0, float(size), size, size)
    return smooth(bin_points(batch, vp), 0.01 * size)


def uniform_map(seed: int, size: int, per_pixel: float,
                bandwidth: float) -> DensityMap:
    # uniform points under a narrow kernel: many small clusters sharing
    # boundaries, adversarial for per-cluster and per-edge work
    rng = np.random.default_rng(seed)
    n = int(per_pixel * size * size)
    batch = PointBatch(rng.uniform(0, size, n), rng.uniform(0, size, n), np.ones(n))
    vp = Viewport(0.0, float(size), 0.0, float(size), size, size)
    return smooth(bin_points(batch, vp), bandwidth)


def plateau_map(seed: int, h: int, w: int, levels: int = 3) -> DensityMap:
    """Densities 0..levels drawn per pixel: plateaus, background holes and
    equally dense neighbors that are each other's densest (two-cycles)."""
    vals = np.random.default_rng(seed).integers(0, levels + 1, (h, w)).astype(float)
    return DensityMap(Viewport(0, w, 0, h, w, h), vals)


# grid shapes for band tests: fewer rows or columns than 7 bands, and maps
# whose bands are a few rows wide
BAND_SHAPES = ((1, 9), (6, 1), (2, 30), (5, 13), (41, 37), (64, 23))


@pytest.fixture
def band_count(monkeypatch):
    """Sets how many bands run_in_bands splits its work into, however little
    work there is; a shortened switch interval makes the band threads
    interleave often. Above one band, run_in_blocks splits each band into
    blocks of 64 elements (at least one row), so that a map's blocks are one
    to a few rows tall; one band keeps the default, one block on small maps."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    whole = density._BLOCK_ELEMENTS

    def set_count(count: int) -> None:
        monkeypatch.setattr(density, "usable_cpus", lambda: count)
        monkeypatch.setattr(density, "_MIN_BAND_ELEMENTS", 1)
        monkeypatch.setattr(density, "_BLOCK_ELEMENTS", 64 if count > 1 else whole)

    try:
        yield set_count
    finally:
        sys.setswitchinterval(interval)


def reference_runs(ids2: np.ndarray):
    """ClusterMap.runs by one whole-map 2D np.nonzero scan; the reference for
    the banded row-run scanner."""
    h, w = ids2.shape
    change_y, change_x = np.nonzero(ids2[:, 1:] != ids2[:, :-1])
    runs_per_row = np.bincount(change_y, minlength=h) + 1
    bounds = np.zeros(h + 1, dtype=np.int64)
    np.cumsum(runs_per_row, out=bounds[1:])
    x0 = np.zeros(bounds[-1], dtype=np.int64)
    is_first = np.zeros(bounds[-1], dtype=bool)
    is_first[bounds[:-1]] = True
    x0[~is_first] = change_x + 1
    row = np.repeat(np.arange(h, dtype=np.int64), runs_per_row)
    x1 = np.empty_like(x0)
    x1[:-1] = x0[1:]
    x1[bounds[1:] - 1] = w
    val = ids2[row, x0].astype(np.int64)
    keep = np.flatnonzero(val >= 0)
    order = keep[np.argsort(val[keep], kind="stable")]
    return val[order], row[order], x0[order], x1[order]


def reference_side_runs(ids2: np.ndarray, dx: int, dy: int):
    """The runs of the pixels whose neighbour at (x + dx, y + dy), -1 beyond
    the border, holds another id, from a whole-map np.where over a padded
    copy. Sides across a column (dx != 0) run down the columns, as rows of
    the transposed side map."""
    h, w = ids2.shape
    pad = np.pad(ids2, 1, constant_values=-1)
    side = np.where(ids2 != pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w], ids2, -1)
    return reference_runs(side.T if dx else side)


def reference_boundary(ids2: np.ndarray):
    """ClusterMap.boundary from the runs of four whole-map side maps: the
    bottom, right, top and left sides of the pixels, the reference for the
    boundary built from the map's runs."""
    h, w = ids2.shape
    v0, r0, a0, b0 = reference_side_runs(ids2, 0, -1)  # bottom sides, +x
    v1, c1, a1, b1 = reference_side_runs(ids2, 1, 0)   # right sides, +y
    v2, r2, a2, b2 = reference_side_runs(ids2, 0, 1)   # top sides, -x
    v3, c3, a3, b3 = reference_side_runs(ids2, -1, 0)  # left sides, -y
    val = np.concatenate((v0, v1, v2, v3))
    direction = np.repeat(np.arange(4, dtype=np.int8),
                          (v0.size, v1.size, v2.size, v3.size))
    sx = np.concatenate((a0, c1 + 1, b2, c3))
    sy = np.concatenate((r0, a1, r2 + 1, b3))
    ex = np.concatenate((b0, c1 + 1, a2, c3))
    ey = np.concatenate((r0, b1, r2 + 1, a3))
    start = (val * (h + 1) + sy) * (w + 1) + sx
    order = np.lexsort((direction, start))
    start = start[order]
    succ = np.searchsorted(start, ((val * (h + 1) + ey) * (w + 1) + ex)[order])
    pinch = np.append(start[1:] == start[:-1], False)[succ]
    return val[order], sx[order], sy[order], direction[order], succ, pinch


@pytest.fixture(scope="session")
def fixture_corpus():
    """(name, DensityMap, ClusterParams) triples exercised by corpus-wide checks."""
    return [
        ("two_gauss_near", two_gauss_near(), ClusterParams()),
        ("two_gauss_near_nomerge", two_gauss_near(),
         ClusterParams(merge_distance_px=0.0)),
        ("two_gauss_far", two_gauss_far(), ClusterParams()),
        ("three_blob", three_blob(), ClusterParams()),
        ("dumbbell", dumbbell(), ClusterParams(merge_distance_px=100.0)),
        ("plateaus", noisy_map(3, 24, zero_frac=0.4, quantize=4),
         ClusterParams()),
        ("noise_smoothed", noisy_map(5, 48, bandwidth=1.5), ClusterParams()),
        ("noise_4conn", noisy_map(9, 64, bandwidth=2.0),
         ClusterParams(connectivity=4, truncation_ratio=0.25)),
        ("sampled", sampled_map(13, 96), ClusterParams()),
        # 98 clusters and 221 edges
        ("many_clusters", uniform_map(17, 64, 0.2, 1.0),
         ClusterParams(merge_distance_px=0.0)),
    ]


def brute_boundary_stats(density: DensityMap, cmap: ClusterMap,
                         connectivity: int):
    """Slow per-pixel adjacency scan; the oracle for edge summaries.

    Returns {(a, b): (count, max_density, {cid: (distance, pixel)})} using
    the same peak definition as the fast path (max density, then smallest
    linear index). distance is the smallest distance from a side's peak to
    one of its own pixels on the boundary, and pixel the linear index
    y * width + x of the nearest such pixel, the smallest on ties.
    """
    d = density.values
    ids = cmap.ids
    h, w = ids.shape
    peaks = {}
    for y in range(h):
        for x in range(w):
            cid = int(ids[y, x])
            if cid < 0:
                continue
            key = (-d[y, x], y * w + x)
            if cid not in peaks or key < peaks[cid][0]:
                peaks[cid] = (key, (x, y))
    edges = {}
    for y in range(h):
        for x in range(w):
            c1 = int(ids[y, x])
            if c1 < 0:
                continue
            for dx, dy in NEIGHBOR_OFFSETS[connectivity]:
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h):
                    continue
                if (ny, nx) < (y, x):
                    continue  # count each unordered pair once
                c2 = int(ids[ny, nx])
                if c2 < 0 or c1 == c2:
                    continue
                key = (min(c1, c2), max(c1, c2))
                cnt, mxd, dists = edges.get(key, (0, -np.inf, {}))
                cnt += 1
                mxd = max(mxd, d[y, x], d[ny, nx])
                for cid, (bx, by) in ((c1, (x, y)), (c2, (nx, ny))):
                    px, py = peaks[cid][1]
                    near = (float(np.hypot(bx - px, by - py)), by * w + bx)
                    dists[cid] = min(dists.get(cid, (np.inf, 0)), near)
                edges[key] = (cnt, mxd, dists)
    return edges


def naive_union(graph, merge_distance: float):
    """Slow greedy merge; the oracle for union_clusters.

    Each step rescans every row for the smallest (score, a, b) with score,
    the row's smaller distance, at most merge_distance. The taller peak
    survives (ties: smaller id) and takes the gone cluster's area. Each
    other row of the gone cluster folds into the survivor's row with that
    neighbour: counts add, the larger max density stays, and each side keeps
    its nearest (distance, pixel), the gone side's pixel re-measured from the
    surviving peak. Returns the nodes, {(a, b): [count, max_density, dist,
    pixel]} sorted by (a, b), and {gone id: surviving id} of every merge.
    """
    w = graph.width
    nodes = {cid: replace(node) for cid, node in graph.nodes.items()}
    e = graph.edges
    rows = {(a, b): [n, m, d, p] for a, b, n, m, d, p in zip(
        e.a.tolist(), e.b.tolist(), e.count.tolist(), e.max_density.tolist(),
        e.dist.tolist(), e.pixel.tolist())}
    into = {}
    while True:
        ready = [(min(r[2]), a, b) for (a, b), r in rows.items()
                 if min(r[2]) <= merge_distance]
        if not ready:
            return nodes, dict(sorted(rows.items())), into
        _, a, b = min(ready)
        surv, gone = sorted((a, b), key=lambda c: (-nodes[c].peak_density, c))
        del rows[a, b]
        nodes[surv].area_px += nodes.pop(gone).area_px
        into[gone] = surv
        sx, sy = nodes[surv].peak_xy
        for key in sorted(k for k in rows if gone in k):
            count, maxd, dist, pix = rows.pop(key)
            g = key.index(gone)
            other = key[1 - g]
            near = {surv: (math.hypot(pix[g] % w - sx, pix[g] // w - sy), pix[g]),
                    other: (dist[1 - g], pix[1 - g])}
            new = (min(surv, other), max(surv, other))
            row = rows.setdefault(new, [0, -math.inf, [math.inf, math.inf], [0, 0]])
            row[0] += count
            row[1] = max(row[1], maxd)
            for side, cid in enumerate(new):
                if near[cid] < (row[2][side], row[3][side]):
                    row[2][side], row[3][side] = near[cid]


def typed_nodes(nodes: dict) -> list:
    """A graph's nodes with the type of every field, for exact comparison."""
    return [(cid, type(cid), node, type(node.id), tuple(map(type, node.peak_xy)),
             type(node.peak_density), type(node.area_px))
            for cid, node in nodes.items()]


def assert_columns_match_nodes(graph) -> None:
    """graph.nodes holds exactly the ids whose peak column is set, in
    ascending order, with the column values; other ids hold 0."""
    assert graph.peak.size >= 1
    assert graph.peak.dtype == graph.area.dtype == np.int64
    assert graph.peak_density.dtype == np.float64
    expect = {}
    for cid, (peak, density, area) in enumerate(zip(
            graph.peak.tolist(), graph.peak_density.tolist(), graph.area.tolist())):
        if peak < 0:
            assert density == 0 and area == 0
        else:
            expect[cid] = ClusterNode(cid, (peak % graph.width, peak // graph.width),
                                      density, area)
    assert typed_nodes(graph.nodes) == typed_nodes(expect)


def region_pixels(cmap: ClusterMap, cluster_id: int) -> set:
    ys, xs = np.nonzero(cmap.ids == cluster_id)
    return {(int(x), int(y)) for x, y in zip(xs, ys)}


def one_component(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Restrict a boolean mask to the component of its first true pixel."""
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    out = np.zeros_like(mask)
    stack = [(int(ys[0]), int(xs[0]))]
    out[stack[0]] = True
    while stack:
        y, x = stack.pop()
        for dx, dy in NEIGHBOR_OFFSETS[connectivity]:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not out[ny, nx]:
                out[ny, nx] = True
                stack.append((ny, nx))
    return out


def dict_greedy_colors(graph, palette_size: int) -> dict:
    """Greedy colouring over a dict adjacency built from the edge rows; the
    reference for color_clusters. Nodes go by (-degree, id); each takes the
    smallest colour no coloured neighbour holds, or else the colour fewest
    coloured neighbours hold (the smallest on ties)."""
    adj = {cid: [] for cid in graph.nodes}
    for a, b in zip(graph.edges.a.tolist(), graph.edges.b.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    colors = {}
    for cid in sorted(adj, key=lambda c: (-len(adj[c]), c)):
        taken = [colors[n] for n in adj[cid] if n in colors]
        free = [c for c in range(palette_size) if c not in taken]
        colors[cid] = free[0] if free else min(
            range(palette_size), key=lambda c: (taken.count(c), c))
    return colors
