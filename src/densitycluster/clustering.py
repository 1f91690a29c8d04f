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

from .density import DensityMap, run_in_blocks
from .errors import DataError, ParameterError

# Neighbor offsets (dx, dy) in increasing linear-index order (dy*width + dx).
# The scan order IS the tie-break: among equally dense neighbors the first one
# scanned (smallest linear index) wins. reference oracles reuse this constant.
# The second half of each set, the forward offsets, enumerates every
# unordered pixel adjacency exactly once.
NEIGHBOR_OFFSETS = {
    4: ((0, -1), (-1, 0), (1, 0), (0, 1)),
    8: ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)),
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
        ids2 = self.ids
        return _scan_runs(*ids2.shape, lambda rows: ids2[rows])

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

        Built from the runs: a run's sides towards the rows before and after
        it are its parts that no run of its cluster there covers, and its
        first and last pixels have its left and right sides.
        """
        h, w = self.ids.shape
        runs = val, row, x0, x1 = self.runs
        # lo[k] is a run in the row before run hi[k]'s that overlaps it
        hi, lo, n = _touching_runs(runs, h, w)
        v0, r0, a0, b0 = _row_sides(runs, hi, lo, n)  # bottom sides, +x
        v1, c1, a1, b1 = _column_sides(val, x1, row, h, w)  # right sides, +y
        # top sides, -x
        v2, r2, a2, b2 = _row_sides(runs, lo, hi, np.bincount(lo, minlength=val.size))
        v3, c3, a3, b3 = _column_sides(val, x0, row, h, w)  # left sides, -y
        val = np.concatenate((v0, v1, v2, v3))
        direction = np.repeat(np.arange(4, dtype=np.int8),
                              (v0.size, v1.size, v2.size, v3.size))
        sx = np.concatenate((a0, c1, b2, c3))
        sy = np.concatenate((r0, a1, r2 + 1, b3))
        ex = np.concatenate((b0, c1, a2, c3))
        ey = np.concatenate((r0, b1, r2 + 1, a3))

        # corner keys (val*(h+1) + y)*(w+1) + x increase with (val, y, x);
        # the sides are listed by direction, and a stable sort keeps the
        # segments that leave one corner in that order
        start = (val * (h + 1) + sy) * (w + 1) + sx
        order = np.argsort(start, kind="stable")
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
        return RectTable(_spans(val[head]), np.stack(
            (x0[head], y0, x1[head], y0 + height[head]), axis=1))

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
        return RingTable(_spans(val[is_first]), np.stack((x[order], y[order]), axis=1),
                         np.append(0, stop), holes)


class RectTable(NamedTuple):
    """Rectangle covers of every cluster of a map (ClusterMap.rects).

    bounds is an int (m, 4) array: row i is the half-open pixel box
    [x0, x1) x [y0, y1) of one rect as (x0, y0, x1, y1). Rects are sorted by
    (cluster id, y0, x0), and span maps each cluster id to its (start, stop)
    range of rows.
    """

    span: dict[int, tuple[int, int]]
    bounds: np.ndarray


@dataclass(frozen=True, eq=False)
class RingTable:
    """Boundary rings of every cluster of a map under one connectivity.

    vertices is an int (n, 2) array of pixel corners (x, y): ring i is
    vertices[offsets[i]:offsets[i + 1]], and hole[i] tells whether it winds
    clockwise. span maps each cluster id to its (start, stop) range of
    rings; a cluster's first ring is an outer ring, as it leaves the
    cluster's smallest (y, x) corner.
    """

    span: dict[int, tuple[int, int]]
    vertices: np.ndarray
    offsets: np.ndarray
    hole: np.ndarray

    @cached_property
    def corners(self) -> list[tuple[tuple[float, float], ...]]:
        """Each ring's corners as float pairs, built on first read: the view
        of the per-cluster functions (geometry.trace_boundary)."""
        pairs = tuple(zip(*self.vertices.T.astype(float).tolist()))
        cut = self.offsets.tolist()
        return [pairs[a:b] for a, b in zip(cut, cut[1:])]


def _spans(val: np.ndarray) -> dict[int, tuple[int, int]]:
    """{v: (start, stop)} of each value's run in a sorted array."""
    if val.size == 0:
        return {}
    cut = (np.flatnonzero(val[1:] != val[:-1]) + 1).tolist()
    starts = [0] + cut
    return dict(zip(val[starts].tolist(), zip(starts, cut + [val.size])))


def _scan_runs(h: int, w: int, block_ids) -> tuple[np.ndarray, ...]:
    """ClusterMap.runs of an (h, w) id map whose rows block_ids(rows) returns
    for a slice of rows; each block of rows is scanned on its own."""

    def scan(rows: slice) -> tuple[np.ndarray, ...]:
        flat = block_ids(rows).ravel()
        # a run starts at the first pixel of each row and wherever the id
        # changes, and ends where the next run starts
        start = np.empty(flat.size, dtype=bool)
        start[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=start[1:])
        start[::max(w, 1)] = True
        first = np.flatnonzero(start)
        row, x0 = np.divmod(first, w)
        return flat[first], row + rows.start, x0, np.diff(first, append=flat.size)

    val, row, x0, length = (np.concatenate(c) for c in zip(*run_in_blocks(h, scan, w)))
    keep = np.flatnonzero(val >= 0)
    order = keep[np.argsort(val[keep], kind="stable")]
    x0 = x0[order]
    return val[order].astype(np.int64), row[order], x0, x0 + length[order]


def _touching_runs(runs: tuple[np.ndarray, ...], h: int, w: int,
                   pad: int = 0) -> tuple[np.ndarray, ...]:
    """(i, j, n) for the runs (val, row, x0, x1) of a map (h, w): the pairs
    (i[k], j[k]) of same-cluster runs, j in the row before i's, whose spans
    widened by pad pixels overlap, sorted by i; and n, the count of pairs
    of each run i. With pad 0 the pairs are sorted by j alike, as the spans
    of one row are disjoint."""
    val, row, x0, x1 = runs
    # Composite keys (val*(h+1) + row)*(w+2) + x increase strictly over the
    # run table, and the row before row 0 maps to no row at all, so one
    # searchsorted each way finds, for each run, the candidate range among
    # its own cluster's runs in the row before: x1 > x0[i] - pad and
    # x0 < x1[i] + pad.
    base = np.int64(w + 2)
    line = (val * (h + 1) + row) * base
    first = np.searchsorted(line + x1, line - base + x0 - pad, side="right")
    n = np.searchsorted(line + x0, line - base + x1 + pad, side="left") - first
    i = np.repeat(np.arange(val.size), n)
    return i, np.repeat(first - (np.cumsum(n) - n), n) + np.arange(i.size), n


def _row_sides(runs: tuple[np.ndarray, ...], run: np.ndarray, cover: np.ndarray,
               n: np.ndarray) -> tuple[np.ndarray, ...]:
    """(val, row, a, b) of every maximal side that the runs (val, row, x0, x1)
    show towards a neighbouring row: the parts [a, b) of each run that no run
    of its cluster there covers. The runs cover[k] of that row overlap the
    runs run[k], sorted by run and then by x; n counts them per run."""
    val, row, x0, x1 = runs
    # a run with n covering runs leaves n + 1 gaps: from x0 or the end of a
    # covering run to the start of the next or x1; the empty ones are dropped
    owner = np.repeat(np.arange(val.size), n + 1)
    a, b = x0[owner], x1[owner]
    slot = run + np.arange(run.size)  # the gap before each covering run
    b[slot], a[slot + 1] = x0[cover], x1[cover]
    keep = np.flatnonzero(a < b)
    owner = owner[keep]
    return val[owner], row[owner], a[keep], b[keep]


def _column_sides(val: np.ndarray, x: np.ndarray, row: np.ndarray,
                  h: int, w: int) -> tuple[np.ndarray, ...]:
    """(val, x, y0, y1) of every maximal vertical side at corner column x of
    a map (h, w), given the (val, x, row) of one end of every run: a run's
    first pixel has a left side and its last pixel a right side."""
    # keys (val*(w+1) + x)*(h+1) + row increase with (val, x, row), and the
    # side of the next row in one column is one key on
    key = (val * (w + 1) + x) * (h + 1) + row
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1] + 1, out=start[1:])
    head = np.flatnonzero(start)
    first = order[head]
    y0 = row[first]
    return val[first], x[first], y0, y0 + np.diff(head, append=key.size)


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
    by pointer jumping: each round halves every remaining path. Rounds run
    in blocks and alternate between two arrays, so parent may be overwritten."""
    grand = np.empty_like(parent)

    def jump(block: slice) -> bool:
        # every index is in range; "clip" spares the buffered copy of "raise"
        np.take(parent, parent[block], out=grand[block], mode="clip")
        return np.array_equal(grand[block], parent[block])

    while not all(run_in_blocks(parent.size, jump)):
        parent, grand = grand, parent
    return parent


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

    def neighbors(self, n_ids: int) -> tuple[np.ndarray, np.ndarray]:
        """(nbr, cut): every id's neighbours as one CSR over ids 0..n_ids-1.
        Id i's are nbr[cut[i]:cut[i + 1]]: the other ends of the rows where
        i is a, then of those where it is b, each in row order."""
        ends = np.concatenate((self.a, self.b))
        nbr = np.concatenate((self.b, self.a))[np.argsort(ends, kind="stable")]
        return nbr, np.append(0, np.cumsum(np.bincount(ends, minlength=n_ids)))

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
    # links in the narrowest int that indexes every pixel
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    deltas = np.array([dy * w + dx for dx, dy in offsets], dtype=index)
    root = np.empty(n, dtype=bool)
    par = np.empty(n, dtype=index)

    def link(rows: slice) -> np.ndarray:
        """Point each pixel of the rows at its densest neighbor, first (=
        smallest linear index) on ties, if that is at least as dense; return
        the pixels whose densest neighbor is exactly as dense."""
        # the rows and one more on each side, bordered by -inf, which never wins
        m = rows.stop - rows.start
        lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, h)
        slab = np.full((m + 2, w + 2), -np.inf)
        slab[1 + lo - rows.start:1 + hi - rows.start, 1:-1] = d[lo:hi]
        nbs = [slab[1 + dy:1 + dy + m, 1 + dx:1 + dx + w] for dx, dy in offsets]
        best_d = nbs[0].copy()
        best_k = np.zeros(best_d.shape, dtype=np.int8)
        better = np.empty(best_d.shape, dtype=bool)
        for k in range(1, len(nbs)):
            np.greater(nbs[k], best_d, out=better)
            np.maximum(best_d, nbs[k], out=best_d)
            # best_k = k where better: arithmetic, as masked copies branch on
            # every pixel of a rough map
            best_k *= ~better
            best_k += better * np.int8(k)
        own = d[rows]
        pos = own > 0
        up = pos & (best_d >= own)
        block = slice(rows.start * w, rows.stop * w)
        root[block] = (pos & ~up).ravel()
        step = np.take(deltas, best_k.ravel())
        step *= up.ravel()
        np.add(step, np.arange(block.start, block.stop, dtype=index), out=par[block])
        return np.flatnonzero(pos & (best_d == own)) + block.start

    ties = np.concatenate(run_in_blocks(h, link, w))
    # Mutual links need equal densities, as each pixel is at least as dense
    # as the other, so only pixels whose densest neighbor is exactly as dense
    # can be in a two-cycle. Promote the smaller index of each to root so
    # every set becomes a rooted tree.
    to = par[ties]
    promote = ties[(par[to] == ties) & (ties < to)]
    par[promote] = promote
    root[promote] = True

    # The links now form a forest: a longer cycle would have equal densities
    # throughout, where two steps always lead to a smaller index because
    # each pixel picks its smallest densest neighbor. Pointer jumping takes
    # log2 of the longest uphill chain rounds, plus one.
    par = _roots(par)

    # the roots numbered in scan order; background pixels are their own
    # parent and keep -1
    peaks = np.flatnonzero(root)
    rank = np.full(n, -1, dtype=np.int32)
    rank[peaks] = np.arange(peaks.size, dtype=np.int32)

    def label(rows: slice) -> None:
        """Write each pixel's id over its rank. Only roots and background
        pixels are read, and each is written with its own rank, so blocks
        may run in any order."""
        block = slice(rows.start * w, rows.stop * w)
        # every link is in range, so "clip" only skips the bounds check
        np.take(rank, par[block], out=rank[block], mode="clip")

    run_in_blocks(h, label, w)
    return ClusterMap(rank.reshape(h, w), peak_hint=peaks)


def _boundary_edges(d: np.ndarray, ids2: np.ndarray, peak_lin: np.ndarray,
                    connectivity: int) -> ClusterEdges:
    """Scan every unordered neighbor-pixel pair spanning two clusters."""
    h, w = ids2.shape
    flat_d = d.ravel()
    n_ids = peak_lin.shape[0]
    offsets = NEIGHBOR_OFFSETS[connectivity][connectivity // 2:]

    def pairs(rows: slice) -> list[np.ndarray]:
        # the block and the row below it, padded with -1, which matches no
        # cluster; every forward offset looks at most one row down
        below = min(rows.stop + 1, h)
        pad = np.full((rows.stop - rows.start + 1, w + 2), -1, dtype=ids2.dtype)
        pad[:below - rows.start, 1:-1] = ids2[rows.start:below]
        own = pad[:-1, 1:-1]
        fg = own >= 0
        found = []
        for dx, dy in offsets:
            nb = pad[dy:dy + own.shape[0], 1 + dx:1 + dx + w]
            found.append(np.flatnonzero((own != nb) & fg & (nb >= 0)) + rows.start * w)
        return found

    # each offset's pixels in row order, as one whole-map scan lists them
    blocks = run_in_blocks(h, pairs, w)
    lin_a = np.concatenate([block[k] for k in range(len(offsets)) for block in blocks])
    if lin_a.size == 0:
        return ClusterEdges.empty()
    lin_b = np.concatenate([block[k] + (dy * w + dx) for k, (dx, dy) in enumerate(offsets)
                            for block in blocks])
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
    def count(rows: slice) -> np.ndarray:
        own = cmap.ids[rows]
        return np.bincount(own[own >= 0], minlength=1)

    counts = run_in_blocks(d.shape[0], count, d.shape[1])
    area = np.zeros(max(c.size for c in counts), dtype=np.int64)
    for c in counts:
        area[:c.size] += c
    hint = cmap.peak_hint
    if hint is not None and hint.shape[0] == area.size:
        peak = hint.astype(np.int64)
    else:
        flat_ids = cmap.ids.ravel()
        fg = np.flatnonzero(flat_ids >= 0)
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

    The output columns start as copies of the input's, and one table maps
    each live pair (a, b) to its row. A merge drops the merged pair and
    rewrites only the rows it reaches: each other row of the absorbed
    cluster either becomes the survivor's row with that neighbour, in place,
    or folds into the row the survivor already has with it, adding its
    count and keeping the larger max density there and then. The output
    rows are the table's rows in key order.
    """
    w = graph.width
    e = graph.edges
    m, n_ids = len(e), graph.peak.size
    limit = params.merge_distance_px
    count, max_density = e.count.astype(np.int64), e.max_density.astype(np.float64)
    dist = e.dist.astype(np.float64, order="C")
    pixel = e.pixel.astype(np.int64, order="C")
    score = np.minimum(dist[:, 0], dist[:, 1])
    ready = np.flatnonzero(score <= limit)
    # each live pair's row by the key a * n_ids + b
    row_of = dict(zip((e.a.astype(np.int64) * n_ids + e.b).tolist(), range(m)))
    # each id's parent in the merge forest: an id has merged away iff it is
    # not its own parent, and the roots are the survivors
    parent = list(range(n_ids))
    if ready.size:
        peaks, densities = memoryview(graph.peak), memoryview(graph.peak_density)
        # row r's side s at 2r + s, written straight into the columns
        d, p = memoryview(dist.reshape(-1)), memoryview(pixel.reshape(-1))
        cnt, mx = memoryview(count), memoryview(max_density)
        # every id's neighbours
        nbr, cut = (col.tolist() for col in e.neighbors(n_ids))
        near = [nbr[s:t] for s, t in zip(cut, cut[1:])]

        # entries (score, a, b) of the pairs that can merge: those that can
        # now, sorted to pop from the end, and a heap of those that get
        # there later. A pair's score only falls, and each fall to the limit
        # or below adds an entry, so a pair's lowest entry comes first: an
        # entry is stale once one of its clusters has merged away.
        ready = ready[np.lexsort((e.b[ready], e.a[ready], score[ready]))[::-1]]
        queue = list(zip(score[ready].tolist(), e.a[ready].tolist(), e.b[ready].tolist()))
        heap: list[tuple[float, int, int]] = []
        while queue or heap:
            if heap and (not queue or heap[0] < queue[-1]):
                _, a, b = heapq.heappop(heap)
            else:
                _, a, b = queue.pop()
            if parent[a] != a or parent[b] != b:
                continue
            del row_of[a * n_ids + b]
            # higher peak wins, tie -> smaller id
            da, db = densities[a], densities[b]
            surv, gone = (a, b) if da > db or (da == db and a < b) else (b, a)
            parent[gone] = surv
            near_surv = near[surv]
            near_surv.remove(gone)
            spy, spx = divmod(peaks[surv], w)
            # distinct neighbours have distinct rows, so their order does not
            # matter
            for c in near[gone]:
                if c == surv:
                    continue
                # gone's boundary pixel, re-measured from the surviving
                # peak, and the neighbour's nearest (distance, pixel)
                if c < gone:
                    old = row_of.pop(c * n_ids + gone)
                    k = 2 * old
                    g_pix, c_dist, c_pix = p[k + 1], d[k], p[k]
                else:
                    old = row_of.pop(gone * n_ids + c)
                    k = 2 * old
                    g_pix, c_dist, c_pix = p[k], d[k + 1], p[k + 1]
                gy, gx = divmod(g_pix, w)
                g_dist = math.hypot(gx - spx, gy - spy)
                # the (surv, c) pair's key, and the sides of surv and c
                if surv < c:
                    key, s, t = surv * n_ids + c, 0, 1
                else:
                    key, s, t = c * n_ids + surv, 1, 0

                new = row_of.get(key)
                if new is None:  # gone's row becomes the (surv, c) row
                    row_of[key] = new = old
                    near_c = near[c]
                    near_c[near_c.index(gone)] = surv
                    near_surv.append(c)
                    d[k + s], p[k + s], d[k + t], p[k + t] = g_dist, g_pix, c_dist, c_pix
                    best = min(g_dist, c_dist)
                else:  # gone's row folds into it; each side keeps its nearest
                    near[c].remove(gone)
                    cnt[new] += cnt[old]
                    if mx[old] > mx[new]:
                        mx[new] = mx[old]
                    k = 2 * new
                    i, j = k + s, k + t
                    i_dist, j_dist = d[i], d[j]
                    if g_dist < i_dist or (g_dist == i_dist and g_pix < p[i]):
                        d[i], p[i] = g_dist, g_pix
                    if c_dist < j_dist or (c_dist == j_dist and c_pix < p[j]):
                        d[j], p[j] = c_dist, c_pix
                    # only a fall in score needs a new entry
                    fell = g_dist < i_dist or c_dist < j_dist
                    best = min(d[k], d[k + 1]) if fell else math.inf
                if best <= limit:
                    heapq.heappush(heap, (best, *divmod(key, n_ids)))
    lut = _roots(np.array(parent, dtype=np.int32))

    # a survivor takes the area of every node merged into it
    area = np.bincount(lut, weights=graph.area, minlength=n_ids).astype(np.int64)
    out = lut == np.arange(n_ids)
    peak = np.where(out, graph.peak, -1)
    peak_density = np.where(out, graph.peak_density, 0.0)
    # the live pairs in key order, and their rows
    key, rows = (np.fromiter(col, dtype=np.int64, count=len(row_of))
                 for col in (row_of.keys(), row_of.values()))
    order = np.argsort(key)
    key, rows = key[order], rows[order]
    out_edges = ClusterEdges(key // n_ids, key % n_ids, count[rows], max_density[rows],
                             dist[rows], pixel[rows])
    ids = cmap.ids  # without merges every id maps to itself
    if ready.size:
        ids = np.empty_like(ids)
        # background -1 picks the appended -1
        relabel = np.append(lut, np.int32(-1))

        def remap(rows: slice) -> None:
            ids[rows] = relabel[cmap.ids[rows]]

        run_in_blocks(ids.shape[0], remap, ids.shape[1])
    new_cmap = ClusterMap(ids)
    return ClusterGraph(w, peak, peak_density, area, out_edges), new_cmap


def truncate_clusters(density: DensityMap, cmap: ClusterMap, graph: ClusterGraph,
                      params: ClusterParams) -> tuple[ClusterGraph, ClusterMap]:
    """Apply the per-cluster density floor and keep only each peak's component.

    Pixels below truncation_ratio * peak_density(cluster) become background;
    any surviving fragment not connected to the peak is dropped; clusters with
    peak_density <= min_peak_density are removed entirely. Node areas are
    updated and edges rebuilt from the truncated map, which carries the runs
    that truncation found, so its tables need no scan of its ids.
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

    new2d = np.empty((h, w), dtype=ids2.dtype)

    def threshold(rows: slice) -> np.ndarray:
        # background stays -1 whatever threshold its -1 picks
        own = ids2[rows]
        new2d[rows] = np.where(d[rows] >= thr[own], own, -1)
        return new2d[rows]

    val, row, x0, x1 = _scan_runs(h, w, threshold)

    # same-cluster runs that touch in consecutive rows
    pad = 1 if params.connectivity == 8 else 0
    below, above, _ = _touching_runs((val, row, x0, x1), h, w, pad)
    root = _components(val.shape[0], above, below)

    # the run holding each surviving peak
    live = np.flatnonzero(peak >= 0)
    py, px = np.divmod(peak[live], w)
    at = np.searchsorted((val * (h + 1) + row) * w + x0, (live * (h + 1) + py) * w + px,
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
    out = ClusterMap(new2d)
    # clearing a run leaves its row neighbours, all other ids, maximal: the
    # kept runs are the runs of the new map
    out.runs = val[kept], row[kept], x0[kept], x1[kept]
    return ClusterGraph(w, peak, peak_density, area, out_edges), out


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
