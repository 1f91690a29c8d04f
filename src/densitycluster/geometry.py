"""Cluster regions as polygons, rectangle covers, and display colors.

Boundaries are traced along pixel-cell edges ("cracks"), with vertices at
integer pixel corners, so rasterizing the rings reproduces the pixel region
exactly. Outer rings wind counterclockwise (positive shoelace area, y up),
hole rings clockwise.

Every cluster's rings and rects are built at once per map, as the cached
whole-map arrays ClusterMap.rings(connectivity) (an int vertex array cut by
ring offsets) and ClusterMap.rects (an int (m, 4) array), each with a span
per cluster id. io.cluster_document writes the cluster JSON straight from
them; trace_boundary and decompose_rectangles return one cluster's slice of
them as tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterGraph, ClusterMap
from .density import Viewport
from .errors import ClusterNotFoundError, DataError, ParameterError


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


def trace_boundary(cmap: ClusterMap, cluster_id: int,
                   connectivity: int = 8) -> ClusterShape:
    """Trace the outer ring and hole rings of one cluster's pixel region.

    The region must be connected under the given connectivity. At pinch
    corners (two diagonal pixels in, two out) the walk turns right for
    8-connectivity (keeping a diagonally linked region on one ring) and left
    for 4-connectivity. The rings are the cluster's slice of
    cmap.rings(connectivity).
    """
    table = cmap.rings(connectivity)
    a, b = _span(table.span, cluster_id)
    rings = list(map(PolygonRing, table.corners[a:b]))
    hole = table.hole[a:b].tolist()
    if hole.count(False) != 1:
        raise DataError(
            f"cluster {cluster_id} region is not connected under "
            f"{connectivity}-connectivity ({hole.count(False)} outer rings)"
        )
    return ClusterShape(cluster_id, rings[0], rings[1:])


def decompose_rectangles(cmap: ClusterMap, cluster_id: int
                         ) -> list[tuple[int, int, int, int]]:
    """Exact disjoint rectangle cover of a cluster region.

    Maximal horizontal runs per row; vertically adjacent runs with the same
    x-extent merge into one rectangle. Rectangles are (x0, y0, x1, y1)
    half-open pixel bounds, listed by (y0, x0): the cluster's slice of
    cmap.rects.
    """
    a, b = _span(cmap.rects.span, cluster_id)
    return list(map(tuple, cmap.rects.bounds[a:b].tolist()))


def _span(span: dict[int, tuple[int, int]], cluster_id: int) -> tuple[int, int]:
    """The (start, stop) rows of one cluster in a map table."""
    try:
        return span[cluster_id]
    except KeyError:
        raise ClusterNotFoundError(cluster_id) from None


def to_data_space(shape: ClusterShape, viewport: Viewport) -> ClusterShape:
    """Affine-map a pixel-space shape into viewport data coordinates."""
    sx, sy = viewport.sx, viewport.sy
    x0, y0 = viewport.x_min, viewport.y_min

    def _ring(ring: PolygonRing) -> PolygonRing:
        return PolygonRing(tuple([(x0 + x * sx, y0 + y * sy) for x, y in ring.vertices]))

    rects = [(x0 + r[0] * sx, y0 + r[1] * sy, x0 + r[2] * sx, y0 + r[3] * sy)
             for r in shape.rects]
    return ClusterShape(shape.cluster_id, _ring(shape.outer),
                        [_ring(hl) for hl in shape.holes], rects)


def shape_for_cluster(cmap: ClusterMap, cluster_id: int,
                      connectivity: int = 8) -> ClusterShape:
    """trace_boundary plus decompose_rectangles in one call (pixel space)."""
    shape = trace_boundary(cmap, cluster_id, connectivity)
    a, b = _span(cmap.rects.span, cluster_id)
    shape.rects = list(map(tuple, cmap.rects.bounds[a:b].astype(float).tolist()))
    return shape


def color_clusters(graph: ClusterGraph, palette_size: int = 10) -> dict[int, int]:
    """Greedy coloring in descending-degree order, ties by ascending id.

    Adjacent clusters get distinct indices whenever palette_size exceeds the
    maximum degree; with smaller palettes the least-conflicting color is
    chosen. Count leftover conflicts with count_color_conflicts. Degrees and
    neighbours are read from the edge columns.
    """
    if palette_size < 1:
        raise ParameterError("palette_size must be >= 1")
    ids = np.flatnonzero(graph.peak >= 0)
    neighbors, cut = graph.edges.neighbors(graph.peak.size)
    degree = np.diff(cut)
    neighbors, cut = neighbors.tolist(), cut.tolist()
    color = [-1] * graph.peak.size
    colors: dict[int, int] = {}
    for cid in ids[np.lexsort((ids, -degree[ids]))].tolist():
        taken = [color[n] for n in neighbors[cut[cid]:cut[cid + 1]]]
        free = next((c for c in range(palette_size) if c not in taken), None)
        if free is None:  # the colour fewest neighbours hold, the smallest on ties
            free = min(range(palette_size), key=taken.count)
        color[cid] = colors[cid] = free
    return colors


def count_color_conflicts(graph: ClusterGraph, colors: dict[int, int]) -> int:
    color = np.zeros(graph.peak.size, dtype=np.int64)
    color[list(colors)] = list(colors.values())
    return int(np.count_nonzero(color[graph.edges.a] == color[graph.edges.b]))
