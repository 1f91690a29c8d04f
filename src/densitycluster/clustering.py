"""Density-map clustering in four phases.

1. initial_clusters: assign every positive-density pixel to the local maximum
   it hill-climbs to, computed as disjoint sets over "point at your densest
   neighbor" links.
2. build_neighborhood_graph: summarize shared boundaries between adjacent
   clusters (pixel counts, densities, peak-to-boundary distances).
3. union_clusters: greedily merge a cluster into its neighbor while some peak
   sits within merge_distance_px of a shared boundary.
4. truncate_clusters: drop pixels below truncation_ratio * peak density and
   keep only the connected component containing each peak.

The hot paths are vectorized; a full pipeline over a 1000x1000 grid runs in a
few hundred milliseconds. Identical inputs produce bit-identical outputs.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .density import DensityMap
from .errors import DataError, ParameterError

# Neighbor offsets (dx, dy) in increasing linear-index order (dy*width + dx).
# The scan order IS the tie-break: among equally dense neighbors the first one
# scanned (smallest linear index) wins. reference oracles reuse this constant.
NEIGHBOR_OFFSETS = {
    4: ((0, -1), (-1, 0), (1, 0), (0, 1)),
    8: ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)),
}

# Forward half of each offset set: enumerates every unordered pixel adjacency
# exactly once.
_FORWARD_OFFSETS = {
    4: ((1, 0), (0, 1)),
    8: ((1, 0), (-1, 1), (0, 1), (1, 1)),
}


@dataclass(frozen=True)
class ClusterParams:
    """Tunables for the clustering pipeline.

    truncation_ratio: per-cluster density floor as a fraction of the peak.
    merge_distance_px: merge while a peak lies this close to a shared boundary.
    connectivity: 4 or 8 pixel neighborhood.
    min_peak_density: clusters whose peak is <= this are removed outright
        (0 means any strictly positive peak survives).
    """

    truncation_ratio: float = 0.1
    merge_distance_px: float = 8.0
    connectivity: int = 8
    min_peak_density: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.truncation_ratio < 1.0):
            raise ParameterError("truncation_ratio must be in [0, 1)")
        if not (self.merge_distance_px >= 0):
            raise ParameterError("merge_distance_px must be >= 0")
        if self.connectivity not in (4, 8):
            raise ParameterError("connectivity must be 4 or 8")
        if not (self.min_peak_density >= 0):
            raise ParameterError("min_peak_density must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClusterMap:
    """Per-pixel cluster identifiers, -1 for background.

    peak_hint caches the linear pixel index of each cluster's peak, indexed by
    cluster id. Only initial_clusters sets it, for build_neighborhood_graph
    to read; the maps of union_clusters, truncate_clusters and maps built by
    hand have none.

    ids must not be modified after construction: runs, boundary, rects and
    rings are computed from them once and cached.
    """

    ids: np.ndarray
    peak_hint: np.ndarray | None = None
    _rings: dict[int, RingTable] = field(default_factory=dict, init=False,
                                         repr=False, compare=False)

    def __post_init__(self):
        self.ids = np.asarray(self.ids)
        if self.ids.ndim != 2:
            raise DataError("cluster map must be a 2D array")
        if self.ids.dtype != np.int32:
            self.ids = self.ids.astype(np.int32)

    @property
    def width(self) -> int:
        return int(self.ids.shape[1])

    @property
    def height(self) -> int:
        return int(self.ids.shape[0])

    def cluster_ids(self) -> np.ndarray:
        """Sorted ids present in the map."""
        present = self.ids[self.ids >= 0]
        return np.unique(present)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(val, row, x0, x1) of every maximal same-id run [x0, x1) in a row.

        Background runs are excluded. Runs are sorted by (val, row, x0), so
        the runs of one cluster form one contiguous slice.
        """
        return _runs(self.ids)

    @cached_property
    def boundary(self) -> tuple[np.ndarray, ...]:
        """(val, x, y, dir, succ, pinch) of every maximal straight boundary
        segment of every cluster.

        A segment starts at pixel corner (x, y) and runs in direction dir
        (0 +x, 1 +y, 2 -x, 3 -y) with its cluster's interior on the left.
        Segments are sorted by (val, y, x, dir), so the segments of one
        cluster form one contiguous slice. succ is the index of the first
        segment leaving the segment's end corner; pinch marks end corners
        (two diagonal pixels in, two out) where segment succ + 1 leaves too.
        """
        ids2 = self.ids
        h, w = ids2.shape
        pad = np.pad(ids2, 1, constant_values=-1)

        def side_runs(other, transpose):
            # runs of ids where the neighbour across the side differs; the
            # vertical sides run down the columns of the transposed map
            side = np.where(ids2 != other, ids2, -1)
            return _runs(side.T if transpose else side)

        v0, r0, a0, b0 = side_runs(pad[:-2, 1:-1], False)  # bottom sides, +x
        v1, c1, a1, b1 = side_runs(pad[1:-1, 2:], True)    # right sides, +y
        v2, r2, a2, b2 = side_runs(pad[2:, 1:-1], False)   # top sides, -x
        v3, c3, a3, b3 = side_runs(pad[1:-1, :-2], True)   # left sides, -y
        val = np.concatenate((v0, v1, v2, v3))
        direction = np.repeat(np.arange(4, dtype=np.int8),
                              (v0.size, v1.size, v2.size, v3.size))
        sx = np.concatenate((a0, c1 + 1, b2, c3))
        sy = np.concatenate((r0, a1, r2 + 1, b3))
        ex = np.concatenate((b0, c1 + 1, a2, c3))
        ey = np.concatenate((r0, b1, r2 + 1, a3))

        # corner keys (val*(h+1) + y)*(w+1) + x increase with (val, y, x)
        start = (val * (h + 1) + sy) * (w + 1) + sx
        order = np.lexsort((direction, start))
        start = start[order]
        succ = np.searchsorted(start, ((val * (h + 1) + ey) * (w + 1) + ex)[order])
        pinch = np.append(start[1:] == start[:-1], False)[succ]
        return val[order], sx[order], sy[order], direction[order], succ, pinch

    @cached_property
    def rects(self) -> RectTable:
        """Every cluster's exact disjoint rectangle cover.

        Runs with the same cluster and x-extent in consecutive rows merge into
        one rectangle.
        """
        val, row, x0, x1 = self.runs
        order = np.lexsort((row, x1, x0, val))
        v, r, a, b = val[order], row[order], x0[order], x1[order]
        # sorted so, a rect starts where the cluster or span changes or a row
        # is missing; marking each rect's height at its first run leaves the
        # rects in the runs' own (val, row, x0) order, which is (val, y0, x0)
        start = np.ones(val.size, dtype=bool)
        start[1:] = ((v[1:] != v[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
                     | (r[1:] != r[:-1] + 1))
        first = np.flatnonzero(start)
        height = np.zeros_like(row)
        height[order[first]] = np.diff(np.append(first, val.size))
        head = np.flatnonzero(height)
        y0 = row[head]
        bounds = np.stack((x0[head], y0, x1[head], y0 + height[head]))
        return RectTable(_spans(val[head]),
                         list(zip(*bounds.tolist())),
                         list(zip(*bounds.astype(float).tolist())))

    def rings(self, connectivity: int) -> RingTable:
        """Every cluster's boundary rings under one connectivity (cached).

        Each boundary segment continues with segment succ, or at a pinch
        corner with whichever of succ and succ + 1 the turn rule picks: right
        for 8-connectivity (keeping a diagonally linked region on one ring),
        left for 4-connectivity. Each ring is one cycle of that successor,
        listed from its smallest segment index, which leaves the ring's
        smallest (y, x) corner; rings are sorted by that index, so the rings
        of one cluster are contiguous.
        """
        if connectivity not in (4, 8):
            raise ParameterError("connectivity must be 4 or 8")
        if connectivity not in self._rings:
            self._rings[connectivity] = self._trace_rings(connectivity)
        return self._rings[connectivity]

    def _trace_rings(self, connectivity: int) -> RingTable:
        val, x, y, direction, succ, pinch = self.boundary
        turn = -1 if connectivity == 8 else 1
        # at a pinch corner the two leaving segments are in direction order
        nxt = succ + (pinch & (direction[succ] != (direction + turn) % 4))
        index = np.arange(val.size)
        # the rings are the components of the successor graph, each labelled
        # by its smallest segment index
        first = _components(val.size, index, nxt)
        is_first = first == index
        ring = (np.cumsum(is_first) - 1)[first]
        # list ranking: cut each ring before its first segment and count
        # every segment's steps to the cut by pointer doubling
        last = is_first[nxt]
        jump = np.where(last, index, nxt)
        togo = (~last).astype(np.int64)
        while True:
            ahead = jump[jump]
            if np.array_equal(ahead, jump):
                break
            togo, jump = togo + togo[jump], ahead
        sizes = np.bincount(ring)
        stop = np.cumsum(sizes)
        order = np.empty_like(index)
        order[stop[ring] - 1 - togo] = index
        # twice the shoelace area of each ring; holes wind clockwise
        cross = x * y[nxt] - x[nxt] * y
        holes = np.bincount(ring, weights=cross) < 0
        corners = tuple(zip(x[order].astype(float).tolist(),
                            y[order].astype(float).tolist()))
        bounds = [0] + stop.tolist()
        vertices = [corners[a:b] for a, b in zip(bounds, bounds[1:])]
        return RingTable(_spans(val[is_first]), vertices, holes.tolist())


class RectTable(NamedTuple):
    """Rectangle covers of every cluster of a map (ClusterMap.rects).

    rows[i] is the half-open pixel box [x0, x1) x [y0, y1) of one cluster's
    rect as (x0, y0, x1, y1), and float_rows[i] the same as floats; rects
    are sorted by (cluster id, y0, x0), and span maps each cluster id to its
    (start, stop) range of rects.
    """

    span: dict[int, tuple[int, int]]
    rows: list[tuple[int, int, int, int]]
    float_rows: list[tuple[float, float, float, float]]


class RingTable(NamedTuple):
    """Boundary rings of every cluster of a map under one connectivity.

    vertices[i] are ring i's pixel corners as float pairs, and hole[i] tells
    whether it winds clockwise; span maps each cluster id to its
    (start, stop) range of rings.
    """

    span: dict[int, tuple[int, int]]
    vertices: list[tuple[tuple[float, float], ...]]
    hole: list[bool]


def _spans(val: np.ndarray) -> dict[int, tuple[int, int]]:
    """{v: (start, stop)} of each value's run in a sorted array."""
    if val.size == 0:
        return {}
    cut = (np.flatnonzero(val[1:] != val[:-1]) + 1).tolist()
    starts = [0] + cut
    return dict(zip(val[starts].tolist(), zip(starts, cut + [val.size])))


def _runs(ids2: np.ndarray):
    """ClusterMap.runs of a 2D id array."""
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


def run_pixels(row: np.ndarray, x0: np.ndarray, x1: np.ndarray,
               width: int) -> np.ndarray:
    """Linear indices row * width + x of every pixel covered by the runs."""
    lengths = x1 - x0
    skip = np.cumsum(lengths) - lengths
    return (np.repeat(row * width + x0 - skip, lengths)
            + np.arange(int(lengths.sum()), dtype=np.int64))


def _group_min(group: np.ndarray, n: int, key: np.ndarray,
               tie: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per group g < n: the smallest key among entries with group == g, and
    the smallest tie among that group's entries at that key (for an empty
    group, +inf and the largest int64)."""
    best = np.full(n, np.inf)
    np.minimum.at(best, group, key)
    at = key == best[group]
    pick = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(pick, group[at], tie[at])
    return best, pick


def _roots(parent: np.ndarray) -> np.ndarray:
    """The root of every node of a forest whose roots are their own parent,
    by pointer jumping: each round halves every remaining path."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of nodes 0..n-1 under the edges (a[i], b[i]).

    Each node's label is the smallest node of its component. Every round
    hooks each root to the smallest root across its edges, then shortcuts
    every node to its root (Shiloach & Vishkin, J. Algorithms 1982); a root
    only ever hooks to a smaller one, so the pointers stay a forest. The
    edges are carried as edges between roots, and those inside one
    component are dropped.
    """
    label = np.arange(n)
    while True:
        cross = a != b
        if not cross.any():
            return label
        a, b = a[cross], b[cross]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        label = _roots(label)
        a, b = label[a], label[b]


@dataclass
class ClusterNode:
    id: int
    peak_xy: tuple[int, int]
    peak_density: float
    area_px: int


@dataclass(eq=False)
class ClusterEdges:
    """Shared-boundary summaries of adjacent cluster pairs, as numpy columns.

    One row per pair of clusters that touch under the map's connectivity,
    sorted by (a, b) with a < b. count is the number of neighbor-pixel pairs
    spanning the two clusters and max_density the highest density among
    those pixels. dist and pixel have shape (m, 2); side 0 is cluster a and
    side 1 is cluster b. dist[i, s] is the smallest Euclidean distance from
    that side's peak to one of its own pixels on this boundary, and
    pixel[i, s] is the pixel realizing it (the smallest on ties) as the
    linear index y * width + x.
    """

    a: np.ndarray
    b: np.ndarray
    count: np.ndarray
    max_density: np.ndarray
    dist: np.ndarray
    pixel: np.ndarray

    def __len__(self) -> int:
        return int(self.a.shape[0])

    @classmethod
    def empty(cls) -> ClusterEdges:
        ints = np.empty(0, dtype=np.int64)
        return cls(ints, ints, ints, np.empty(0), np.empty((0, 2)),
                   np.empty((0, 2), dtype=np.int64))


@dataclass(eq=False)
class ClusterGraph:
    """Clusters as numpy columns indexed by id, and their shared boundaries.

    The columns cover every id of the map the graph was built from, and at
    least one. peak is the peak pixel's linear index y * width + x, or -1
    where an id is no node; peak_density and area hold 0 there.
    """

    width: int
    peak: np.ndarray
    peak_density: np.ndarray
    area: np.ndarray
    edges: ClusterEdges

    @cached_property
    def nodes(self) -> dict[int, ClusterNode]:
        """{id: ClusterNode} of every node, in ascending id order."""
        ids = np.flatnonzero(self.peak >= 0)
        y, x = np.divmod(self.peak[ids], self.width)
        return {cid: ClusterNode(cid, (px, py), pd, a) for cid, px, py, pd, a in zip(
            ids.tolist(), x.tolist(), y.tolist(), self.peak_density[ids].tolist(),
            self.area[ids].tolist())}

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {cid: [] for cid in self.nodes}
        for a, b in zip(self.edges.a.tolist(), self.edges.b.tolist()):
            adj[a].append(b)
            adj[b].append(a)
        return adj


def initial_clusters(density: DensityMap, connectivity: int = 8) -> ClusterMap:
    """Group positive-density pixels by the local maximum they climb to.

    Each pixel links to its densest neighbor when that neighbor is at least as
    dense (ties broken by smallest linear index); the resulting sets become
    clusters. Zero-density pixels are background. Fresh ids are assigned in
    scan order of each set's representative pixel.
    """
    if connectivity not in NEIGHBOR_OFFSETS:
        raise ParameterError("connectivity must be 4 or 8")
    d = density.values
    h, w = d.shape
    n = h * w
    offsets = NEIGHBOR_OFFSETS[connectivity]
    deltas = np.array([dy * w + dx for dx, dy in offsets], dtype=np.int64)

    # densest neighbor per pixel, first (= smallest linear index) on ties;
    # beyond the border the padded density is -inf, which never wins
    pad = np.pad(d, 1, constant_values=-np.inf)
    best_d = np.full((h, w), -np.inf)
    best_k = np.zeros((h, w), dtype=np.int8)
    for k, (dx, dy) in enumerate(offsets):
        nb = pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        better = nb > best_d
        np.copyto(best_d, nb, where=better)
        np.copyto(best_k, np.int8(k), where=better)

    flat_d = d.ravel()
    self_idx = np.arange(n, dtype=np.int64)
    par = self_idx.copy()
    link = np.flatnonzero((flat_d > 0) & (best_d.ravel() >= flat_d))
    par[link] = link + deltas[best_k.ravel()[link]]

    # Mutual links only occur between two equal-density pixels; promote the
    # smaller index to root so every set becomes a rooted tree.
    two_cycle = (par[par] == self_idx) & (par != self_idx)
    promote = two_cycle & (self_idx < par)
    par[promote] = self_idx[promote]

    # The links now form a forest: a longer cycle would have equal densities
    # throughout, where two steps always lead to a smaller index because
    # each pixel picks its smallest densest neighbor. Pointer jumping takes
    # log2 of the longest uphill chain rounds, plus one.
    par = _roots(par)

    fg = np.flatnonzero(flat_d > 0)
    roots = par[fg]
    mark = np.zeros(n, dtype=bool)
    mark[roots] = True
    uniq = np.flatnonzero(mark)
    lut = np.full(n, -1, dtype=np.int32)
    lut[uniq] = np.arange(uniq.size, dtype=np.int32)
    ids = np.full(n, -1, dtype=np.int32)
    ids[fg] = lut[roots]
    return ClusterMap(ids.reshape(h, w), peak_hint=uniq)


def _boundary_edges(d: np.ndarray, ids2: np.ndarray, peak_lin: np.ndarray,
                    connectivity: int) -> ClusterEdges:
    """Scan every unordered neighbor-pixel pair spanning two clusters."""
    h, w = ids2.shape
    flat_d = d.ravel()
    n_ids = peak_lin.shape[0]
    # beyond the border the padded ids are -1, which matches no cluster
    pad = np.pad(ids2, 1, constant_values=-1)

    la_l, lb_l = [], []
    for dx, dy in _FORWARD_OFFSETS[connectivity]:
        nb = pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        lin_a = np.flatnonzero((ids2 != nb) & (ids2 >= 0) & (nb >= 0))
        la_l.append(lin_a)
        lb_l.append(lin_a + (dy * w + dx))
    lin_a = np.concatenate(la_l)
    if lin_a.size == 0:
        return ClusterEdges.empty()
    lin_b = np.concatenate(lb_l)
    ai = ids2.ravel()[lin_a].astype(np.int64)
    bi = ids2.ravel()[lin_b].astype(np.int64)
    dmax = np.maximum(flat_d[lin_a], flat_d[lin_b])

    swap = ai > bi
    lo = np.where(swap, bi, ai)
    hi = np.where(swap, ai, bi)
    pix_lo = np.where(swap, lin_b, lin_a)
    pix_hi = np.where(swap, lin_a, lin_b)

    key = lo * n_ids + hi
    uk, inv = np.unique(key, return_inverse=True)
    counts = np.bincount(inv)
    edge_maxd = np.full(uk.shape[0], -np.inf)
    np.maximum.at(edge_maxd, inv, dmax)

    def _nearest(cids: np.ndarray, pix: np.ndarray):
        ppx = peak_lin[cids] % w
        ppy = peak_lin[cids] // w
        dist = np.hypot(pix % w - ppx, pix // w - ppy)
        return _group_min(inv, uk.shape[0], dist, pix)

    lo_dist, lo_pix = _nearest(lo, pix_lo)
    hi_dist, hi_pix = _nearest(hi, pix_hi)
    return ClusterEdges(uk // n_ids, uk % n_ids, counts, edge_maxd,
                        np.column_stack((lo_dist, hi_dist)),
                        np.column_stack((lo_pix, hi_pix)))


def build_neighborhood_graph(density: DensityMap, cmap: ClusterMap,
                             connectivity: int = 8) -> ClusterGraph:
    """Nodes for every cluster in cmap plus shared-boundary edge summaries."""
    d = density.values
    if cmap.ids.shape != d.shape:
        raise DataError(
            f"cluster map shape {cmap.ids.shape} does not match density {d.shape}"
        )
    if connectivity not in NEIGHBOR_OFFSETS:
        raise ParameterError("connectivity must be 4 or 8")

    # each id's area and peak pixel: its densest, smallest linear index on
    # ties, unless a peak_hint gives one for every id
    flat_ids = cmap.ids.ravel()
    fg = np.flatnonzero(flat_ids >= 0)
    area = np.bincount(flat_ids[fg], minlength=1)
    hint = cmap.peak_hint
    if hint is not None and hint.shape[0] == area.size:
        peak = hint.astype(np.int64)
    else:
        _, peak = _group_min(flat_ids[fg], area.size, -d.ravel()[fg], fg)
    peak = np.where(area > 0, peak, -1)
    peak_density = np.where(area > 0, d.ravel()[peak], 0.0)
    edges = _boundary_edges(d, cmap.ids, peak, connectivity)
    return ClusterGraph(cmap.width, peak, peak_density, area, edges)


def union_clusters(graph: ClusterGraph, cmap: ClusterMap,
                   params: ClusterParams) -> tuple[ClusterGraph, ClusterMap]:
    """Greedily merge clusters whose peak sits near a shared boundary.

    A priority queue keyed by the edge score (the smaller of the two
    peak-to-boundary distances) drains every edge with score <=
    merge_distance_px. The endpoint with the higher peak survives (ties:
    smaller id); coalesced edges sum boundary counts, keep the max boundary
    density, and re-measure distances against the surviving peak using each
    edge's retained nearest boundary pixels.
    """
    w = graph.width
    peaks, densities = graph.peak.tolist(), graph.peak_density.tolist()
    # the edge columns as lists; a merge kills rows and appends new ones
    e = graph.edges
    ea, eb = e.a.tolist(), e.b.tolist()
    count, maxd = e.count.tolist(), e.max_density.tolist()
    dist, pix = e.dist.tolist(), e.pixel.tolist()
    alive = [True] * len(ea)
    # id -> {neighbor id: row of the pair}
    adj: dict[int, dict[int, int]] = {
        cid: {} for cid in np.flatnonzero(graph.peak >= 0).tolist()}
    for r, (a, b) in enumerate(zip(ea, eb)):
        adj[a][b] = adj[b][a] = r

    # entries (score, a, b, row) of the rows that can merge; one is stale
    # once its row is dead or its score is no longer the row's. A row's
    # score never rises, so rows above the limit never need an entry.
    limit = params.merge_distance_px
    heap = [(min(dist[r]), ea[r], eb[r], r)
            for r in np.flatnonzero(e.dist.min(axis=1) <= limit).tolist()]
    heapq.heapify(heap)

    # each id's parent in the merge forest, whose roots are the survivors
    lut = np.arange(graph.peak.size, dtype=np.int32)
    while heap:
        score, a, b, r = heapq.heappop(heap)
        if not alive[r] or score != min(dist[r]):
            continue
        alive[r] = False

        # higher peak wins, tie -> smaller id
        if (densities[a], -a) > (densities[b], -b):
            surv, gone = a, b
        else:
            surv, gone = b, a
        lut[gone] = surv
        del adj[surv][gone]
        gone_adj = adj.pop(gone)
        del gone_adj[surv]

        speak = peaks[surv]
        spx, spy = speak % w, speak // w
        for c in sorted(gone_adj):
            old = gone_adj[c]
            alive[old] = False
            del adj[c][gone]
            g = int(c < gone)  # the side of gone in the old row; c is 1 - g
            # the absorbed side's boundary pixel, re-measured from the
            # surviving peak
            g_pix = pix[old][g]
            cand_surv = (math.hypot(g_pix % w - spx, g_pix // w - spy), g_pix)
            cand_other = (dist[old][1 - g], pix[old][1 - g])

            new = adj[surv].get(c)
            if new is None:  # no (surv, c) row yet: start an empty one
                new = len(ea)
                ea.append(min(surv, c))
                eb.append(max(surv, c))
                count.append(0)
                maxd.append(-math.inf)
                dist.append([math.inf, math.inf])
                pix.append([0, 0])
                alive.append(True)
                adj[surv][c] = adj[c][surv] = new
            count[new] += count[old]
            maxd[new] = max(maxd[new], maxd[old])
            s = int(c < surv)
            for side, cand in ((s, cand_surv), (1 - s, cand_other)):
                if cand < (dist[new][side], pix[new][side]):
                    dist[new][side], pix[new][side] = cand
            if min(dist[new]) <= limit:
                heapq.heappush(heap, (min(dist[new]), ea[new], eb[new], new))

    lut = _roots(lut)

    # a survivor takes the area of every node merged into it
    area = np.bincount(lut, weights=graph.area, minlength=lut.size).astype(np.int64)
    out = lut == np.arange(lut.size)
    peak = np.where(out, graph.peak, -1)
    peak_density = np.where(out, graph.peak_density, 0.0)
    live = np.flatnonzero(alive)
    a_col = np.array(ea, dtype=np.int64)
    b_col = np.array(eb, dtype=np.int64)
    rows = live[np.lexsort((b_col[live], a_col[live]))]
    out_edges = ClusterEdges(
        a_col[rows], b_col[rows], np.array(count, dtype=np.int64)[rows],
        np.array(maxd, dtype=np.float64)[rows],
        np.array(dist, dtype=np.float64).reshape(-1, 2)[rows],
        np.array(pix, dtype=np.int64).reshape(-1, 2)[rows])
    new_cmap = ClusterMap(np.where(cmap.ids >= 0, lut[cmap.ids], -1))
    return ClusterGraph(w, peak, peak_density, area, out_edges), new_cmap


def truncate_clusters(density: DensityMap, cmap: ClusterMap, graph: ClusterGraph,
                      params: ClusterParams) -> tuple[ClusterGraph, ClusterMap]:
    """Apply the per-cluster density floor and keep only each peak's component.

    Pixels below truncation_ratio * peak_density(cluster) become background;
    any surviving fragment not connected to the peak is dropped; clusters with
    peak_density <= min_peak_density are removed entirely. Node areas are
    updated and edges rebuilt from the truncated map.
    """
    d = density.values
    ids2 = cmap.ids
    if ids2.shape != d.shape:
        raise DataError("cluster map shape does not match density")
    h, w = d.shape

    n_ids = graph.peak.size
    # a killed cluster's threshold is +inf, which wipes its region; ids that
    # are no node have density 0, so they are killed too
    killed = graph.peak_density <= params.min_peak_density
    peak = np.where(killed, -1, graph.peak)
    peak_density = np.where(killed, 0.0, graph.peak_density)
    thr = np.where(killed, np.inf, params.truncation_ratio * graph.peak_density)

    # background stays -1 whatever threshold its -1 picks
    new2d = np.where(d >= thr[ids2], ids2, -1)
    val, row, x0, x1 = _runs(new2d)

    # Same-cluster runs that touch in consecutive rows. Composite keys
    # (val*(h+1) + row)*(w+2) + x increase strictly over the run table, and
    # the row above row 0 maps to no row at all, so one global searchsorted
    # finds, for each run, the candidate range among its own cluster's runs
    # in the row above: x1 > x0[j] - pad and x0 < x1[j] + pad.
    pad = 1 if params.connectivity == 8 else 0
    base = np.int64(w + 2)
    line = val * (h + 1) + row
    tgt = (line - 1) * base
    first = np.searchsorted(line * base + x1, tgt + x0 - pad, side="right")
    last = np.searchsorted(line * base + x0, tgt + x1 + pad, side="left")
    n_cand = last - first
    below = np.repeat(np.arange(val.shape[0]), n_cand)
    above = (np.repeat(first - (np.cumsum(n_cand) - n_cand), n_cand)
             + np.arange(below.shape[0]))

    root = _components(val.shape[0], above, below)

    # the run holding each surviving peak
    live = np.flatnonzero(peak >= 0)
    py, px = np.divmod(peak[live], w)
    at = np.searchsorted(line * base + x0, (live * (h + 1) + py) * base + px,
                         side="right") - 1
    found = at >= 0
    a = at[found]
    found[found] = (val[a] == live[found]) & (row[a] == py[found]) & (x1[a] > px[found])
    if not found.all():
        raise AssertionError("peak pixel lost during truncation")
    keep_root = np.full(n_ids, -1, dtype=np.int64)
    keep_root[live] = root[at]

    # clear fragments that are not the peak's component
    kept = root == keep_root[val]
    new2d.flat[run_pixels(row[~kept], x0[~kept], x1[~kept], w)] = -1
    # every surviving peak's run is kept, so only killed ids have no area
    area = np.bincount(val[kept], weights=x1[kept] - x0[kept],
                       minlength=n_ids).astype(np.int64)
    out_edges = _boundary_edges(d, new2d, peak, params.connectivity)
    return ClusterGraph(w, peak, peak_density, area, out_edges), ClusterMap(new2d)


def cluster_density_map(density: DensityMap,
                        params: ClusterParams | None = None
                        ) -> tuple[ClusterMap, ClusterGraph]:
    """Full pipeline: initial clusters, neighborhood graph, merge, truncate."""
    if params is None:
        params = ClusterParams()
    cmap = initial_clusters(density, params.connectivity)
    graph = build_neighborhood_graph(density, cmap, params.connectivity)
    graph, cmap = union_clusters(graph, cmap, params)
    graph, cmap = truncate_clusters(density, cmap, graph, params)
    return cmap, graph
