"""Deliberately naive reference implementations used by the test suite.

These pin the semantics of the fast paths: per-pixel path following instead of
vectorized set union, a direct dense 2D convolution instead of separable
passes, flood fill for connectivity, a scanline rasterizer for traced
rings, and c-TF-IDF scored one term at a time. They share the tie-break and
kernel constants with the fast paths (NEIGHBOR_OFFSETS, gaussian_kernel) and
the tokenizer with the labels, so that any divergence in definitions shows
up as a test failure. Do not use them for real workloads.
"""
from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from .clustering import NEIGHBOR_OFFSETS, ClusterMap
from .density import DensityMap, gaussian_kernel
from .errors import ClusterNotFoundError, ParameterError
from .labeling import LabelResult, tokenize

_ORACLE_MAX_SIDE = 128


def steepest_ascent_oracle(density: DensityMap, connectivity: int = 8) -> ClusterMap:
    """Label each positive pixel by the pixel its uphill walk terminates at.

    From a pixel, repeatedly step to the densest neighbor (ties: smallest
    linear index) while that neighbor is at least as dense. A strict local
    maximum is its own terminal. On plateaus the walk can bounce between two
    mutually-pointing pixels; that pair is the terminal and the smaller index
    represents it. Longer bounces are impossible under the tie-break and
    raise if ever observed.
    """
    if connectivity not in NEIGHBOR_OFFSETS:
        raise ParameterError("connectivity must be 4 or 8")
    d = density.values
    h, w = d.shape
    offsets = NEIGHBOR_OFFSETS[connectivity]

    def next_pixel(i: int) -> int:
        y, x = divmod(i, w)
        best_d = -np.inf
        best = i
        for dx, dy in offsets:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and d[ny, nx] > best_d:
                best_d = d[ny, nx]
                best = ny * w + nx
        return best if best_d >= d[y, x] else i

    terminal = {}
    for start in range(h * w):
        if d.flat[start] <= 0 or start in terminal:
            continue
        path = []
        on_path = {}
        cur = start
        while True:
            if cur in terminal:
                t = terminal[cur]
                break
            if cur in on_path:
                # revisit: must be the immediate 2-bounce, anything longer
                # would violate the smallest-index tie-break
                if on_path[cur] != len(path) - 2:
                    raise AssertionError("unexpected cycle in uphill walk")
                t = min(cur, path[-1])
                break
            on_path[cur] = len(path)
            path.append(cur)
            nxt = next_pixel(cur)
            if nxt == cur:
                t = cur
                break
            cur = nxt
        for p in path:
            terminal[p] = t

    ids = np.full(h * w, -1, dtype=np.int32)
    if terminal:
        roots = sorted(set(terminal.values()))
        rank = {r: i for i, r in enumerate(roots)}
        for p, t in terminal.items():
            ids[p] = rank[t]
    return ClusterMap(ids.reshape(h, w))


def dense_convolution_oracle(counts: DensityMap, sigma: float) -> DensityMap:
    """Direct 2D convolution with the outer product of the shared 1D kernel."""
    h, w = counts.values.shape
    if h > _ORACLE_MAX_SIDE or w > _ORACLE_MAX_SIDE:
        raise ParameterError(
            f"dense oracle refuses grids larger than {_ORACLE_MAX_SIDE} per side")
    if sigma < 0:
        raise ParameterError("sigma must be >= 0")
    if sigma == 0:
        return DensityMap(counts.viewport, counts.values.copy())
    k1 = gaussian_kernel(sigma)
    k2 = np.outer(k1, k1)
    r = len(k1) // 2
    padded = np.zeros((h + 2 * r, w + 2 * r))
    padded[r:r + h, r:r + w] = counts.values
    out = np.zeros((h, w))
    for ky in range(2 * r + 1):
        for kx in range(2 * r + 1):
            out += k2[ky, kx] * padded[ky:ky + h, kx:kx + w]
    return DensityMap(counts.viewport, out)


def flood_fill_components(cmap: ClusterMap, cluster_id: int,
                          connectivity: int = 8) -> int:
    """Count connected components of one cluster's pixel region."""
    mask = cmap.ids == cluster_id
    if not mask.any():
        raise ClusterNotFoundError(cluster_id)
    h, w = mask.shape
    offsets = NEIGHBOR_OFFSETS[connectivity]
    seen = np.zeros_like(mask)
    components = 0
    for sy, sx in zip(*np.nonzero(mask)):
        if seen[sy, sx]:
            continue
        components += 1
        queue = deque([(int(sy), int(sx))])
        seen[sy, sx] = True
        while queue:
            y, x = queue.popleft()
            for dx, dy in offsets:
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    queue.append((ny, nx))
    return components


def rasterize_rings(outer, holes) -> set[tuple[int, int]]:
    """Even-odd scanline fill of axis-aligned rings, in pixel coordinates.

    Returns the set of (x, y) pixels covered; the independent check for
    boundary tracing round trips.
    """
    rings = [outer] + list(holes)
    verts = [v for ring in rings for v in ring.vertices]
    ys = [v[1] for v in verts]
    y_lo, y_hi = int(min(ys)), int(max(ys))
    pixels: set[tuple[int, int]] = set()
    for y in range(y_lo, y_hi):
        mid = y + 0.5
        crossings = []
        for ring in rings:
            v = ring.vertices
            for i in range(len(v)):
                x0, y0 = v[i]
                x1, y1 = v[(i + 1) % len(v)]
                if x0 == x1 and min(y0, y1) <= mid < max(y0, y1):
                    crossings.append(x0)
        crossings.sort()
        for i in range(0, len(crossings) - 1, 2):
            for x in range(int(crossings[i]), int(crossings[i + 1])):
                pixels.add((x, y))
    return pixels


def ctfidf_oracle(assignment, documents, k: int) -> list[LabelResult]:
    """c-TF-IDF labels as ctfidf_labels' docstring defines them, one text,
    one cluster and one term at a time, in cluster id order."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    counts = {cid: Counter() for cid in sorted(assignment)}
    corpus: Counter = Counter()
    for cid, idx in assignment.items():
        for i in idx:
            counts[cid].update(tokenize(documents[i] or ""))
    for text in documents:
        corpus.update(tokenize(text or ""))
    mean_tokens = (sum(sum(c.values()) for c in counts.values()) / len(counts)
                   if counts else 0.0)
    results = []
    for cid, cluster in counts.items():
        total = sum(cluster.values())
        scored = []
        for term, n in cluster.items():
            score = n / total * math.log(1.0 + mean_tokens / corpus[term])
            if score > 0:
                scored.append((-score, term))
        scored.sort()
        results.append(LabelResult(cid, [(term, -neg) for neg, term in scored[:k]]))
    return results
