"""Cluster regions as polygons, rectangle covers, and display colors.

Boundaries are traced along pixel-cell edges ("cracks"), with vertices at
integer pixel corners, so rasterizing the rings reproduces the pixel region
exactly. Outer rings wind counterclockwise (positive shoelace area, y up),
hole rings clockwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterGraph, ClusterMap, run_pixels
from .density import Viewport
from .errors import ClusterNotFoundError, DataError, ParameterError

# direction codes: 0 = +x, 1 = +y, 2 = -x, 3 = -y
_DIR_STEP = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class PolygonRing:
    """Closed axis-aligned ring; the first vertex is not repeated at the end.

    Rings never cross themselves; at pinch corners (two diagonal pixels in,
    two out) a ring may touch itself at a single vertex.
    """

    vertices: tuple[tuple[float, float], ...]

    def signed_area(self) -> float:
        v = self.vertices
        s = 0.0
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            s += x0 * y1 - x1 * y0
        return 0.5 * s

    @property
    def is_hole(self) -> bool:
        return self.signed_area() < 0


@dataclass
class ClusterShape:
    """Traced boundary of one cluster region plus its rectangle cover.

    rects are (x0, y0, x1, y1) half-open bounds; in pixel space they are a
    disjoint exact cover of the region.
    """

    cluster_id: int
    outer: PolygonRing
    holes: list[PolygonRing] = field(default_factory=list)
    rects: list[tuple[float, float, float, float]] = field(default_factory=list)


def _region_runs(cmap: ClusterMap, cluster_id: int):
    """(row, x0, x1) of the cluster's runs, sorted by (row, x0)."""
    val, row, x0, x1 = cmap.runs
    a, b = np.searchsorted(val, (cluster_id, cluster_id + 1))
    if a == b:
        raise ClusterNotFoundError(cluster_id)
    return row[a:b], x0[a:b], x1[a:b]


def _region_mask(cmap: ClusterMap, cluster_id: int):
    """The region painted into its bounding-box crop, plus the crop origin."""
    row, x0, x1 = _region_runs(cmap, cluster_id)
    oy, ox = int(row[0]), int(x0.min())
    w = int(x1.max()) - ox
    mask = np.zeros((int(row[-1]) + 1 - oy, w), dtype=bool)
    mask.ravel()[run_pixels(row - oy, x0 - ox, x1 - ox, w)] = True
    return mask, ox, oy


def trace_boundary(cmap: ClusterMap, cluster_id: int,
                   connectivity: int = 8) -> ClusterShape:
    """Trace the outer ring and hole rings of one cluster's pixel region.

    The region must be connected under the given connectivity. At pinch
    corners (two diagonal pixels in, two out) the walk turns right for
    8-connectivity (keeping a diagonally linked region on one ring) and left
    for 4-connectivity.
    """
    if connectivity not in (4, 8):
        raise ParameterError("connectivity must be 4 or 8")
    mask, ox, oy = _region_mask(cmap, cluster_id)
    h, w = mask.shape
    pad = np.zeros((h + 2, w + 2), dtype=bool)
    pad[1:-1, 1:-1] = mask

    # directed cracks with the region interior on the left
    out_edges: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}

    def _collect(absent, start_of, direction):
        yy, xx = np.nonzero(mask & ~absent)
        for y, x in zip(yy.tolist(), xx.tolist()):
            sv = start_of(x, y)
            dx, dy = _DIR_STEP[direction]
            out_edges.setdefault(sv, []).append((direction, (sv[0] + dx, sv[1] + dy)))

    below = pad[:-2, 1:-1]
    right = pad[1:-1, 2:]
    above = pad[2:, 1:-1]
    left = pad[1:-1, :-2]
    _collect(below, lambda x, y: (x, y), 0)          # bottom side, walk +x
    _collect(right, lambda x, y: (x + 1, y), 1)      # right side, walk +y
    _collect(above, lambda x, y: (x + 1, y + 1), 2)  # top side, walk -x
    _collect(left, lambda x, y: (x, y + 1), 3)       # left side, walk -y

    # deterministic walk order: smallest start vertex (y, x), then direction
    starts = sorted(out_edges, key=lambda v: (v[1], v[0]))
    prefer_right = connectivity == 8

    rings: list[PolygonRing] = []
    for sv in starts:
        while out_edges.get(sv):
            direction, cur = _take(out_edges, sv, incoming=None,
                                   prefer_right=prefer_right)
            path = [(sv, direction)]
            while cur != sv:
                direction, nxt = _take(out_edges, cur, incoming=direction,
                                       prefer_right=prefer_right)
                path.append((cur, direction))
                cur = nxt
            rings.append(PolygonRing(tuple((float(x + ox), float(y + oy))
                                           for x, y in _corners(path))))

    outer = [r for r in rings if not r.is_hole]
    if len(outer) != 1:
        raise DataError(
            f"cluster {cluster_id} region is not connected under "
            f"{connectivity}-connectivity ({len(outer)} outer rings)"
        )
    return ClusterShape(cluster_id, outer[0], [r for r in rings if r.is_hole])


def _take(out_edges, vertex, incoming, prefer_right):
    """Pop the next directed crack at a vertex, resolving pinch corners."""
    cands = out_edges[vertex]
    if len(cands) == 1 or incoming is None:
        choice = 0
    else:
        # relative turn: right = (incoming - 1) % 4, left = (incoming + 1) % 4
        want = (incoming - 1) % 4 if prefer_right else (incoming + 1) % 4
        choice = next((i for i, (d, _) in enumerate(cands) if d == want), 0)
    direction, end = cands.pop(choice)
    if not cands:
        del out_edges[vertex]
    return direction, end


def _corners(path):
    """Collapse a walked crack path to its direction-change corners."""
    n = len(path)
    corners = []
    for i in range(n):
        prev_dir = path[i - 1][1]
        vertex, cur_dir = path[i]
        if cur_dir != prev_dir:
            corners.append(vertex)
    k = min(range(len(corners)), key=lambda i: (corners[i][1], corners[i][0]))
    return corners[k:] + corners[:k]


def decompose_rectangles(cmap: ClusterMap, cluster_id: int
                         ) -> list[tuple[int, int, int, int]]:
    """Exact disjoint rectangle cover of a cluster region.

    Maximal horizontal runs per row; vertically adjacent runs with the same
    x-extent merge into one rectangle. Rectangles are (x0, y0, x1, y1)
    half-open pixel bounds, listed by (y0, x0).
    """
    row, x0, x1 = _region_runs(cmap, cluster_id)
    order = np.lexsort((row, x1, x0))
    row, x0, x1 = row[order], x0[order], x1[order]
    # a rect starts where the span changes or the previous row is missing
    start = np.ones(row.shape[0], dtype=bool)
    start[1:] = (x0[1:] != x0[:-1]) | (x1[1:] != x1[:-1]) | (row[1:] != row[:-1] + 1)
    first = np.flatnonzero(start)
    last = np.append(first[1:], row.shape[0]) - 1
    rects = np.stack([x0[first], row[first], x1[first], row[last] + 1], axis=1)
    rects = rects[np.lexsort((rects[:, 0], rects[:, 1]))]
    return [tuple(r) for r in rects.tolist()]


def to_data_space(shape: ClusterShape, viewport: Viewport) -> ClusterShape:
    """Affine-map a pixel-space shape into viewport data coordinates."""
    sx, sy = viewport.sx, viewport.sy
    x0, y0 = viewport.x_min, viewport.y_min

    def _pt(p):
        return (x0 + p[0] * sx, y0 + p[1] * sy)

    def _ring(ring: PolygonRing) -> PolygonRing:
        return PolygonRing(tuple(_pt(v) for v in ring.vertices))

    rects = [(x0 + r[0] * sx, y0 + r[1] * sy, x0 + r[2] * sx, y0 + r[3] * sy)
             for r in shape.rects]
    return ClusterShape(shape.cluster_id, _ring(shape.outer),
                        [_ring(hl) for hl in shape.holes], rects)


def shape_for_cluster(cmap: ClusterMap, cluster_id: int,
                      connectivity: int = 8) -> ClusterShape:
    """trace_boundary plus decompose_rectangles in one call (pixel space)."""
    shape = trace_boundary(cmap, cluster_id, connectivity)
    shape.rects = [tuple(float(v) for v in r)
                   for r in decompose_rectangles(cmap, cluster_id)]
    return shape


def color_clusters(graph: ClusterGraph, palette_size: int = 10) -> dict[int, int]:
    """Greedy coloring in descending-degree order.

    Adjacent clusters get distinct indices whenever palette_size exceeds the
    maximum degree; with smaller palettes the least-conflicting color is
    chosen. Count leftover conflicts with count_color_conflicts.
    """
    if palette_size < 1:
        raise ParameterError("palette_size must be >= 1")
    adj = graph.adjacency()
    order = sorted(graph.nodes, key=lambda cid: (-len(adj[cid]), cid))
    colors: dict[int, int] = {}
    for cid in order:
        neighbor_colors = [colors[n] for n in adj[cid] if n in colors]
        used = set(neighbor_colors)
        free = next((c for c in range(palette_size) if c not in used), None)
        if free is not None:
            colors[cid] = free
        else:
            counts = [neighbor_colors.count(c) for c in range(palette_size)]
            colors[cid] = counts.index(min(counts))
    return colors


def count_color_conflicts(graph: ClusterGraph, colors: dict[int, int]) -> int:
    return sum(1 for a, b in graph.edges if colors[a] == colors[b])
