import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitycluster.clustering import (ClusterEdges, ClusterGraph, ClusterMap,
                                       cluster_density_map)
from densitycluster.density import Viewport
from densitycluster.errors import (ClusterNotFoundError, DataError,
                                   ParameterError)
from densitycluster.geometry import (color_clusters, count_color_conflicts,
                                     decompose_rectangles, shape_for_cluster,
                                     to_data_space, trace_boundary)
from densitycluster.oracles import rasterize_rings

from conftest import one_component, region_pixels


def _cmap_from_mask(mask) -> ClusterMap:
    ids = np.where(np.asarray(mask, dtype=bool), 0, -1).astype(np.int32)
    return ClusterMap(ids)


# ------------------------------------------------------------------ tracing

def test_trace_single_pixel():
    ids = np.full((8, 8), -1, dtype=np.int32)
    ids[5, 3] = 0
    shape = trace_boundary(ClusterMap(ids), 0)
    assert shape.outer.vertices == ((3.0, 5.0), (4.0, 5.0), (4.0, 6.0), (3.0, 6.0))
    assert shape.holes == []
    assert shape.outer.signed_area() == 1.0


def test_trace_solid_block():
    ids = np.full((6, 6), -1, dtype=np.int32)
    ids[1:4, 2:5] = 0
    shape = trace_boundary(ClusterMap(ids), 0)
    assert shape.outer.vertices == ((2.0, 1.0), (5.0, 1.0), (5.0, 4.0), (2.0, 4.0))
    assert shape.holes == []


def test_trace_ring_with_hole():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    mask[2, 2] = False
    shape = trace_boundary(_cmap_from_mask(mask), 0)
    assert shape.outer.vertices == ((1.0, 1.0), (4.0, 1.0), (4.0, 4.0), (1.0, 4.0))
    assert len(shape.holes) == 1
    hole = shape.holes[0]
    assert set(hole.vertices) == {(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0)}
    assert hole.signed_area() == -1.0
    assert hole.is_hole and not shape.outer.is_hole
    # rasterization round trip
    pixels = rasterize_rings(shape.outer, shape.holes)
    assert pixels == region_pixels(_cmap_from_mask(mask), 0)


def test_trace_unknown_cluster():
    with pytest.raises(ClusterNotFoundError):
        trace_boundary(_cmap_from_mask(np.ones((2, 2), dtype=bool)), 7)


def test_trace_diagonal_pair_8conn_single_ring():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = mask[2, 2] = True
    shape = trace_boundary(_cmap_from_mask(mask), 0, connectivity=8)
    assert rasterize_rings(shape.outer, shape.holes) == {(1, 1), (2, 2)}


def test_trace_pinch_with_cavity_round_trips():
    # region whose boundary touches a one-pixel cavity at a corner: under
    # 8-connectivity the cavity is an enclosed hole (4-connected background),
    # under 4-connectivity it leaks out through the diagonal gap and the
    # outer ring carves it instead
    mask = np.zeros((4, 5), dtype=bool)
    for x, y in [(1, 1), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2)]:
        mask[y, x] = True
    for conn, n_holes in ((4, 0), (8, 1)):
        shape = trace_boundary(_cmap_from_mask(mask), 0, connectivity=conn)
        assert len(shape.holes) == n_holes
        assert rasterize_rings(shape.outer, shape.holes) == \
            region_pixels(_cmap_from_mask(mask), 0)


def test_trace_checkerboard_round_trip():
    # every pixel touches its neighbors only diagonally: one 8-connected
    # region full of pinch corners
    yy, xx = np.mgrid[0:6, 0:6]
    mask = (yy + xx) % 2 == 0
    cmap = _cmap_from_mask(mask)
    shape = trace_boundary(cmap, 0, connectivity=8)
    assert rasterize_rings(shape.outer, shape.holes) == region_pixels(cmap, 0)
    area = shape.outer.signed_area() + sum(h.signed_area() for h in shape.holes)
    assert area == float(mask.sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([4, 8]), st.booleans())
def test_trace_round_trip_random_blobs(seed, conn, crowded):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 14)), int(rng.integers(1, 14))
    mask = rng.random((h, w)) < 0.55
    if not mask.any():
        mask[0, 0] = True
    mask = one_component(mask, conn)
    cmap = _cmap_from_mask(mask)
    if crowded:
        # the blob's surroundings and holes hold other clusters' ids
        others = rng.integers(-1, 4, size=(h, w))
        cmap = ClusterMap(np.where(mask, 0, np.where(others == 0, 4, others)))
    shape = trace_boundary(cmap, 0, connectivity=conn)
    assert rasterize_rings(shape.outer, shape.holes) == region_pixels(cmap, 0)
    # region area equals outer area minus hole areas
    area = shape.outer.signed_area() + sum(h.signed_area() for h in shape.holes)
    assert area == float(mask.sum())


# ------------------------------------------------------------------ rects

def test_rects_square_merges_to_one():
    ids = np.full((4, 4), -1, dtype=np.int32)
    ids[1:3, 1:3] = 0
    assert decompose_rectangles(ClusterMap(ids), 0) == [(1, 1, 3, 3)]


def test_rects_l_tromino_two_rects():
    ids = np.full((3, 3), -1, dtype=np.int32)
    ids[0, 0] = 0   # (x=0, y=0)
    ids[1, 0] = 0   # (x=0, y=1)
    ids[1, 1] = 0   # (x=1, y=1)
    rects = decompose_rectangles(ClusterMap(ids), 0)
    assert len(rects) == 2
    covered = {(x, y) for x0, y0, x1, y1 in rects
               for y in range(y0, y1) for x in range(x0, x1)}
    assert covered == {(0, 0), (0, 1), (1, 1)}


def test_rects_unknown_cluster():
    with pytest.raises(ClusterNotFoundError):
        decompose_rectangles(_cmap_from_mask(np.ones((2, 2), dtype=bool)), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_rects_exact_disjoint_cover(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 32)), int(rng.integers(1, 32))
    mask = rng.random((h, w)) < 0.5
    if not mask.any():
        mask[h // 2, w // 2] = True
    cmap = _cmap_from_mask(mask)
    rects = decompose_rectangles(cmap, 0)
    covered = set()
    total = 0
    for x0, y0, x1, y1 in rects:
        assert x0 < x1 and y0 < y1
        cells = {(x, y) for y in range(y0, y1) for x in range(x0, x1)}
        assert not (covered & cells)  # pairwise disjoint
        covered |= cells
        total += (x1 - x0) * (y1 - y0)
    assert covered == region_pixels(cmap, 0)
    assert total == int(mask.sum())


# ------------------------------------------------------------------ map tables

def _shape_or_error(cmap, cluster_id, connectivity):
    try:
        shape = shape_for_cluster(cmap, cluster_id, connectivity)
    except DataError as exc:
        return str(exc)
    return shape.outer, shape.holes, shape.rects


def test_ring_tables_independent_of_cache_order(fixture_corpus):
    # rings under 4 and under 8 are cached side by side on one map object
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        shared = ClusterMap(cmap.ids)
        for conn in (4, 8):
            for cid in sorted(graph.nodes):
                assert _shape_or_error(shared, cid, conn) == \
                    _shape_or_error(ClusterMap(cmap.ids), cid, conn), (name, conn, cid)


def test_disconnected_cluster_fails_alone():
    # cluster 1 is a diagonal pair: one region under 8-connectivity only
    ids = np.full((6, 7), -1, dtype=np.int32)
    ids[0:2, 0:3] = 0
    ids[3, 1] = ids[4, 2] = 1
    ids[1:6, 4:7] = 2
    ids[3, 5] = 3
    cmap = ClusterMap(ids)
    with pytest.raises(DataError, match="4-connectivity \\(2 outer rings\\)"):
        trace_boundary(cmap, 1, 4)
    for cid in (0, 2, 3):
        shape = trace_boundary(cmap, cid, 4)
        assert rasterize_rings(shape.outer, shape.holes) == region_pixels(cmap, cid)
    assert len(trace_boundary(cmap, 2, 4).holes) == 1
    shape = trace_boundary(cmap, 1, 8)
    assert rasterize_rings(shape.outer, shape.holes) == {(1, 3), (2, 4)}


def test_rect_table_slices_cover_every_corpus_cluster(fixture_corpus):
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        for cid in sorted(graph.nodes):
            rects = decompose_rectangles(cmap, cid)
            assert rects == sorted(rects, key=lambda r: (r[1], r[0])), (name, cid)
            cells = [(x, y) for x0, y0, x1, y1 in rects
                     for y in range(y0, y1) for x in range(x0, x1)]
            assert all(x0 < x1 and y0 < y1 for x0, y0, x1, y1 in rects)
            assert len(cells) == len(set(cells)), (name, cid)  # disjoint
            assert set(cells) == region_pixels(cmap, cid), (name, cid)


# ------------------------------------------------------------------ transform

def test_to_data_space_identity_grid():
    vp = Viewport(0, 10, 0, 10, 10, 10)
    ids = np.full((10, 10), -1, dtype=np.int32)
    ids[0, 0] = 0
    shape = shape_for_cluster(ClusterMap(ids), 0)
    data = to_data_space(shape, vp)
    assert data.rects == [(0.0, 0.0, 1.0, 1.0)]
    assert data.outer.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_to_data_space_last_pixel():
    vp = Viewport(0, 10, 0, 10, 10, 10)
    ids = np.full((10, 10), -1, dtype=np.int32)
    ids[9, 9] = 0
    data = to_data_space(shape_for_cluster(ClusterMap(ids), 0), vp)
    assert data.rects == [(9.0, 9.0, 10.0, 10.0)]


def test_to_data_space_round_trip():
    vp = Viewport(-3.5, 12.25, 100.0, 108.0, 64, 32)
    ids = np.full((32, 64), -1, dtype=np.int32)
    ids[4:9, 10:30] = 0
    ids[6, 15] = -1
    shape = shape_for_cluster(ClusterMap(ids), 0)
    data = to_data_space(shape, vp)
    inv = Viewport(0, vp.width, 0, vp.height, vp.width, vp.height)
    for ring_px, ring_data in [(shape.outer, data.outer)] + \
            list(zip(shape.holes, data.holes)):
        for (px, py), (dx, dy) in zip(ring_px.vertices, ring_data.vertices):
            assert abs((dx - vp.x_min) / vp.sx - px) < 1e-12
            assert abs((dy - vp.y_min) / vp.sy - py) < 1e-12


# ------------------------------------------------------------------ coloring

def _graph_with_edges(n, pairs) -> ClusterGraph:
    # n nodes, each of one pixel at (0, 0) with density 1
    m = len(pairs)
    a, b = np.array(pairs, dtype=np.int64).reshape(m, 2).T
    edges = ClusterEdges(a, b, np.ones(m, dtype=np.int64), np.ones(m),
                         np.ones((m, 2)), np.zeros((m, 2), dtype=np.int64))
    return ClusterGraph(1, np.zeros(n, dtype=np.int64), np.ones(n),
                        np.ones(n, dtype=np.int64), edges)


def test_color_adjacent_distinct():
    g = _graph_with_edges(2, [(0, 1)])
    colors = color_clusters(g, 10)
    assert colors[0] != colors[1]


def test_color_no_edges_all_same():
    g = _graph_with_edges(4, [])
    colors = color_clusters(g, 10)
    assert set(colors.values()) == {0}


def test_color_path_two_colors():
    g = _graph_with_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    colors = color_clusters(g, 2)
    assert count_color_conflicts(g, colors) == 0
    assert set(colors.values()) <= {0, 1}


def test_color_degenerate_palette_counts_conflicts():
    g = _graph_with_edges(3, [(0, 1), (1, 2), (0, 2)])
    colors = color_clusters(g, 1)
    assert set(colors.values()) == {0}
    assert count_color_conflicts(g, colors) == 3
    with pytest.raises(ParameterError):
        color_clusters(g, 0)


def test_color_corpus_no_conflicts_with_big_palette(fixture_corpus):
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        if not graph.nodes:
            continue
        max_degree = max(map(len, graph.adjacency().values()), default=0)
        colors = color_clusters(graph, max(max_degree + 1, 1))
        assert count_color_conflicts(graph, colors) == 0, name
        colors10 = color_clusters(graph, 10)
        if max_degree < 10:
            assert count_color_conflicts(graph, colors10) == 0, name
