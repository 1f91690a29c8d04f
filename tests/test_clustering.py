import concurrent.futures
import itertools
import math
import threading
import tracemalloc
from collections import deque
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from densitycluster.clustering import (NEIGHBOR_OFFSETS, ClusterMap,
                                       ClusterParams, _components, _roots,
                                       build_neighborhood_graph,
                                       cluster_density_map, initial_clusters,
                                       truncate_clusters, union_clusters)
from densitycluster import density
from densitycluster.density import (DensityMap, Viewport, bin_points,
                                    run_in_bands, smooth)
from densitycluster.errors import DataError, ParameterError
from densitycluster.geometry import color_clusters
from densitycluster.io import cluster_document
from densitycluster.oracles import flood_fill_components, steepest_ascent_oracle
from densitycluster.synth import random_mixture, sample_mixture

from conftest import (BAND_SHAPES, assert_columns_match_nodes, brute_boundary_stats,
                      dumbbell, gaussian_map, naive_union, noisy_map, plateau_map,
                      reference_boundary, reference_runs, three_blob,
                      two_gauss_far, two_gauss_near, typed_nodes, uniform_map)


def _dm(vals) -> DensityMap:
    vals = np.asarray(vals, dtype=float)
    h, w = vals.shape
    return DensityMap(Viewport(0, w, 0, h, w, h), vals)


def _pairs(edges) -> list[tuple[int, int]]:
    return list(zip(edges.a.tolist(), edges.b.tolist()))


def _row(edges, a, b) -> int:
    return _pairs(edges).index((a, b))


def test_params_validation():
    with pytest.raises(ParameterError):
        ClusterParams(truncation_ratio=1.0)
    with pytest.raises(ParameterError):
        ClusterParams(merge_distance_px=-1)
    with pytest.raises(ParameterError):
        ClusterParams(connectivity=6)
    with pytest.raises(ParameterError):
        ClusterParams(min_peak_density=-0.1)
    for nan_field in ("truncation_ratio", "merge_distance_px", "min_peak_density"):
        with pytest.raises(ParameterError):
            ClusterParams(**{nan_field: float("nan")})
    ClusterParams(merge_distance_px=float("inf"))  # merges everything touching


# ---------------------------------------------------------------- initial

def test_initial_all_zero_map_is_background():
    cm = initial_clusters(_dm(np.zeros((8, 8))))
    assert (cm.ids == -1).all()
    assert cm.cluster_ids().size == 0


def test_initial_single_bump_single_cluster():
    dm = gaussian_map([[2.5, 2.5]], [1.2], [1.0], 5)
    cm = initial_clusters(dm)
    assert cm.cluster_ids().tolist() == [0]
    assert ((cm.ids == 0) == (dm.values > 0)).all()
    graph = build_neighborhood_graph(dm, cm)
    assert graph.nodes[0].peak_xy == (2, 2)


def test_initial_matches_oracle_two_gaussians():
    dm = gaussian_map([[8.0, 16.0], [24.0, 16.0]], [3.0, 3.0], [1.0, 0.8], 32)
    for conn in (4, 8):
        fast = initial_clusters(dm, conn)
        slow = steepest_ascent_oracle(dm, conn)
        assert np.array_equal(fast.ids, slow.ids)


def test_initial_deterministic():
    dm = noisy_map(17, 32, bandwidth=1.0)
    a = initial_clusters(dm)
    b = initial_clusters(dm)
    assert np.array_equal(a.ids, b.ids)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_initial_band_count_invariant(band_count, connectivity):
    # plateaus put two-cycles and tie pixels on both sides of band edges
    for seed, shape in enumerate(BAND_SHAPES):
        dm = plateau_map(seed, *shape)
        band_count(1)
        ref = initial_clusters(dm, connectivity)
        for count in (2, 3, 7):
            band_count(count)
            got = initial_clusters(dm, connectivity)
            assert got.ids.tobytes() == ref.ids.tobytes(), (shape, count)
            assert got.peak_hint.tobytes() == ref.peak_hint.tobytes(), (shape, count)


def test_pipeline_band_count_invariant_at_default_band_size(monkeypatch):
    # 400 x 400 pixels is large enough for two bands of the default size
    dm = smooth(plateau_map(7, 400, 400, levels=1), 1.0)
    results = []
    for count in (1, 2, 3):
        monkeypatch.setattr(density, "usable_cpus", lambda: count)
        cmap, graph = cluster_density_map(dm)
        results.append((cmap.ids.tobytes(), typed_nodes(graph.nodes)))
    assert results[1] == results[0] and results[2] == results[0]


def test_band_errors_reach_caller_and_no_thread_outlives_a_call(band_count):
    band_count(3)
    before = threading.active_count()

    def fail_in(stop):
        def fn(band):
            if band.stop == stop:
                raise ValueError(f"band ending at {stop}")
        return fn

    for stop in (3, 6, 9):  # the first band runs on the calling thread
        with pytest.raises(ValueError, match=f"band ending at {stop}"):
            run_in_bands(9, fail_in(stop))
        assert threading.active_count() == before
    dm = plateau_map(3, 64, 23)
    smooth(dm, 2.0)
    assert threading.active_count() == before
    cluster_density_map(dm)
    assert threading.active_count() == before


def _exact(value):
    """Every array in a value as (dtype, shape, bytes), with the types of
    the other leaves, for byte-for-byte comparison."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        return _exact([getattr(value, f.name) for f in fields(value)
                       if not f.name.startswith("_")])
    if isinstance(value, (tuple, list)):
        return type(value), [_exact(v) for v in value]
    if isinstance(value, dict):
        return [(type(k), k, _exact(v)) for k, v in value.items()]
    return type(value), value


def _band_maps():
    """(density, ids) pairs over BAND_SHAPES: plateau clusters, and ids
    drawn per pixel, whose clusters are scattered and full of holes."""
    for seed, shape in enumerate(BAND_SHAPES):
        dm = plateau_map(seed, *shape)
        yield dm, initial_clusters(dm, 4).ids
        yield dm, np.random.default_rng(seed).integers(-1, 4, shape).astype(np.int32)


def test_map_tables_band_count_invariant(band_count):
    def tables(ids):
        cmap = ClusterMap(ids)  # a fresh map: the tables are cached per map
        return _exact((cmap.runs, cmap.boundary, cmap.rings(4), cmap.rings(8),
                       cmap.rects))

    for _, ids in _band_maps():
        band_count(1)
        ref = tables(ids)
        for count in (2, 3, 7):
            band_count(count)
            assert tables(ids) == ref, (ids.shape, count)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_graph_band_count_invariant(band_count, connectivity):
    for dm, _ in _band_maps():
        band_count(1)
        hinted = initial_clusters(dm, connectivity)
        # with the hint, without one, and with one that does not fit the ids
        maps = (hinted, ClusterMap(hinted.ids),
                ClusterMap(hinted.ids, peak_hint=np.append(hinted.peak_hint, 0)))
        ref = [_exact(build_neighborhood_graph(dm, cmap, connectivity)) for cmap in maps]
        for count in (2, 3, 7):
            band_count(count)
            got = [_exact(build_neighborhood_graph(dm, cmap, connectivity)) for cmap in maps]
            assert got == ref, (dm.values.shape, count)


@pytest.mark.parametrize("params", [
    ClusterParams(connectivity=4, truncation_ratio=0.5, merge_distance_px=2.0),
    ClusterParams(truncation_ratio=0.4, merge_distance_px=0.0, min_peak_density=2.0)])
def test_union_and_truncate_band_count_invariant(band_count, params):
    merges = kills = 0
    for dm, _ in _band_maps():
        band_count(1)
        cmap = initial_clusters(dm, params.connectivity)
        graph = build_neighborhood_graph(dm, cmap, params.connectivity)
        merged = union_clusters(graph, cmap, params)
        ref = [_exact((g, m.ids)) for g, m in
               (merged, truncate_clusters(dm, merged[1], merged[0], params))]
        merges += len(merged[0].nodes) < len(graph.nodes)
        kills += bool((merged[0].peak_density[merged[0].peak >= 0]
                       <= params.min_peak_density).any())
        for count in (2, 3, 7):
            band_count(count)
            again = union_clusters(graph, cmap, params)
            got = [_exact((g, m.ids)) for g, m in
                   (again, truncate_clusters(dm, merged[1], merged[0], params))]
            assert got == ref, (dm.values.shape, count)
    assert merges and (kills or params.min_peak_density == 0)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_truncated_map_carries_the_runs_of_its_ids(fixture_corpus, connectivity):
    maps = [dm for dm, _ in _band_maps()][::2] + [dm for _, dm, _ in fixture_corpus]
    merges = kills = 0
    for dm in maps:
        params = ClusterParams(connectivity=connectivity, truncation_ratio=0.4,
                               merge_distance_px=2.0)
        cmap = initial_clusters(dm, connectivity)
        graph = build_neighborhood_graph(dm, cmap, connectivity)
        merged, merged_map = union_clusters(graph, cmap, params)
        # remove the clusters whose peak is at most the median peak
        peaks = merged.peak_density[merged.peak >= 0]
        params = replace(params, min_peak_density=float(np.median(peaks)))
        _, out = truncate_clusters(dm, merged_map, merged, params)
        assert "runs" in vars(out)  # handed over, not scanned again
        assert _exact(out.runs) == _exact(ClusterMap(out.ids).runs), dm.values.shape
        merges += len(merged.nodes) < len(graph.nodes)
        kills += len(out.cluster_ids()) < len(merged.nodes)
    assert merges and kills


@st.composite
def _id_maps(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["mixed", "background", "one id", "few ids"]))
    if kind == "background":
        return np.full((h, w), -1, dtype=np.int32)
    if kind == "one id":
        return np.full((h, w), draw(st.integers(0, 5)), dtype=np.int32)
    top = 1 if kind == "few ids" else 6
    cells = draw(st.lists(st.integers(-1, top), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=np.int32).reshape(h, w)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_id_maps(), st.sampled_from([1, 2, 3, 7]))
def test_row_runs_match_whole_map_reference(band_count, ids, count):
    band_count(count)
    cmap = ClusterMap(ids)
    assert _exact(cmap.runs) == _exact(reference_runs(ids))
    # the boundary read from the runs, against four whole-map side scans
    assert _exact(cmap.boundary) == _exact(reference_boundary(ids))


@pytest.mark.parametrize("cpus", [2, 8])
def test_many_cluster_grid_starts_no_thread(monkeypatch, cpus):
    # 250 x 250, as the many-clusters benchmark map, is below two bands of
    # the smallest band size, so every pass runs on the calling thread
    dm = uniform_map(3, 250, 0.2, 1.0)
    monkeypatch.setattr(density, "usable_cpus", lambda: cpus)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    with pytest.raises(AssertionError, match="thread pool"):
        run_in_bands(512, lambda band: None, 256)  # two bands of 65,536
    before = threading.active_count()
    params = ClusterParams(merge_distance_px=0.0)
    cmap, graph = cluster_density_map(dm, params)
    assert len(graph.nodes) > 500
    cmap.rings(4), cmap.rings(8), cmap.rects
    cluster_document(dm.viewport, params, 1.0, cmap, graph, color_clusters(graph))
    assert threading.active_count() == before


@pytest.mark.parametrize("conn", [4, 8])
@pytest.mark.parametrize("count", [1, 3])
def test_initial_signed_zero_pixels_are_background(band_count, conn, count):
    # pixels of 0.0 and -0.0 inside and between clusters link to themselves,
    # so their ids stay -1 however the map is split into bands
    band_count(count)
    rng = np.random.default_rng(5)
    vals = rng.random((21, 17)) + 0.5
    vals[rng.random(vals.shape) < 0.15] = 0.0     # inside clusters
    vals[rng.random(vals.shape) < 0.15] = -0.0
    vals[4:6, 2:4] = -0.0
    vals[:, 8] = -0.0                             # between clusters
    vals[10, :] = 0.0
    vals[14:17, 11:14] = -0.0                     # around a lone peak
    vals[15, 12] = 2.0
    zero = vals == 0
    assert np.signbit(vals[zero]).any() and not np.signbit(vals[zero]).all()
    dm = _dm(vals)
    got = initial_clusters(dm, conn)
    assert (got.ids[zero] == -1).all() and (got.ids[~zero] >= 0).all()
    assert (got.ids == got.ids[15, 12]).sum() == 1
    assert np.array_equal(got.ids, steepest_ascent_oracle(dm, conn).ids)
    assert (dm.values.ravel()[got.peak_hint] > 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([4, 8]))
def test_initial_matches_oracle_property(seed, conn):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 18)), int(rng.integers(1, 18))
    vals = rng.random((h, w))
    vals[vals < 0.35] = 0.0
    if seed % 2:
        vals = np.round(vals * 4) / 4  # plateaus
    dm = DensityMap(Viewport(0, w, 0, h, w, h), vals)
    assert np.array_equal(initial_clusters(dm, conn).ids,
                          steepest_ascent_oracle(dm, conn).ids)


@pytest.mark.parametrize("conn", [4, 8])
@pytest.mark.parametrize("shape", [(1, 4096), (4096, 1)])
@pytest.mark.parametrize("uphill", [1, -1])
def test_initial_monotone_ramp_is_one_chain(conn, shape, uphill):
    # every pixel's uphill chain runs to the far end of the map
    vals = np.arange(1.0, 4097.0)[::uphill].reshape(shape)
    dm = _dm(vals)
    fast = initial_clusters(dm, conn)
    assert np.array_equal(fast.ids, steepest_ascent_oracle(dm, conn).ids)
    assert (fast.ids == 0).all()
    assert fast.peak_hint.tolist() == [4095 if uphill == 1 else 0]


# ---------------------------------------------------------------- components

def _bfs_components(n, pairs):
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    for start in range(n):  # the first node reached is its component's smallest
        if label[start] >= 0:
            continue
        label[start] = start
        queue = deque([start])
        while queue:
            for v in adj[queue.popleft()]:
                if label[v] < 0:
                    label[v] = start
                    queue.append(v)
    return label


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_components_match_bfs(data):
    n = data.draw(st.integers(0, 80), label="n")
    pairs = []
    if n:
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=2 * n),
                          label="edges")  # self-loops included
        if data.draw(st.booleans(), label="path"):
            # a long path whose labels are in shuffled order
            order = data.draw(st.permutations(range(n)), label="order")
            pairs += list(zip(order, order[1:]))
        if data.draw(st.booleans(), label="duplicates"):
            pairs += [(b, a) for a, b in pairs[::2]] + pairs[1::3]
        pairs = data.draw(st.permutations(pairs), label="edge order")
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    assert _components(n, a, b).tolist() == _bfs_components(n, pairs)


def _loop_roots(parent):
    roots = []
    for node in parent:
        while parent[node] != node:
            node = parent[node]
        roots.append(node)
    return roots


def _forests(n, rng):
    """Forests on n nodes whose roots are their own parent."""
    nodes = np.arange(n)
    order = rng.permutation(n)
    shuffled = nodes.copy()  # one chain through the nodes in shuffled order
    shuffled[order[1:]] = order[:-1]
    yield "roots only", nodes
    yield "chain down", np.maximum(nodes - 1, 0)
    yield "chain up", np.minimum(nodes + 1, n - 1)
    yield "shuffled chain", shuffled
    yield "star", np.full(n, n // 2)
    yield "random", rng.integers(0, nodes + 1)  # parent <= node


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_roots_match_loop_oracle(band_count, dtype):
    rng = np.random.default_rng(0)
    for n in (1, 2, 63, 64, 65, 1000):
        for name, parent in _forests(n, rng):
            expect = _loop_roots(parent.tolist())
            for count in (1, 2, 3, 7):
                band_count(count)
                got = _roots(parent.astype(dtype))
                assert got.dtype == dtype
                assert got.tolist() == expect, (n, name, count)


def test_one_band_grid_memory_per_pixel(monkeypatch):
    # smoothing keeps one working grid beside its input, and initial
    # clustering a root flag, 32-bit links and their double buffer, and
    # the ids written over the ranks; block temporaries add a little
    monkeypatch.setattr(density, "usable_cpus", lambda: 1)
    size = 1000
    rng = np.random.default_rng(0)
    batch = sample_mixture(random_mixture(size, 64, rng), 100_000, rng)
    vp = Viewport(0.0, float(size), 0.0, float(size), size, size)
    counts = bin_points(batch, vp)
    dm = smooth(counts, 0.01 * size)  # also imports scipy outside the trace

    def bytes_per_pixel(fn) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / (size * size)
        finally:
            tracemalloc.stop()

    assert bytes_per_pixel(lambda: smooth(counts, 0.01 * size)) <= 11
    assert bytes_per_pixel(lambda: initial_clusters(dm)) <= 17


# ---------------------------------------------------------------- graph

def _two_region_map():
    # two clusters on a 10x10 grid sharing a 1 px wide straight border of
    # length 5 (columns 0-4 vs 5-9, rows 0-4 only)
    ids = np.full((10, 10), -1, dtype=np.int32)
    ids[0:5, 0:5] = 0
    ids[0:5, 5:10] = 1
    vals = np.zeros((10, 10))
    vals[0:5, 0:5] = np.linspace(1.0, 2.0, 25).reshape(5, 5)
    vals[0:5, 5:10] = np.linspace(1.0, 1.8, 25).reshape(5, 5)
    return _dm(vals), ClusterMap(ids)


@pytest.mark.parametrize("conn,expected_count", [(4, 5), (8, 13)])
def test_graph_straight_border(conn, expected_count):
    dm, cm = _two_region_map()
    graph = build_neighborhood_graph(dm, cm, conn)
    assert set(graph.nodes) == {0, 1}
    assert _pairs(graph.edges) == [(0, 1)]
    assert graph.edges.count[0] == expected_count
    brute = brute_boundary_stats(dm, cm, conn)
    assert brute[(0, 1)][0] == expected_count


def test_graph_single_cluster_no_edges():
    ids = np.zeros((4, 4), dtype=np.int32)
    graph = build_neighborhood_graph(_dm(np.ones((4, 4))), ClusterMap(ids))
    assert set(graph.nodes) == {0}
    assert len(graph.edges) == 0


def test_graph_three_in_a_row_is_path():
    ids = np.full((6, 9), -1, dtype=np.int32)
    ids[:, 0:3] = 0
    ids[:, 3:6] = 1
    ids[:, 6:9] = 2
    dm = _dm(np.ones((6, 9)))
    graph = build_neighborhood_graph(dm, ClusterMap(ids))
    assert _pairs(graph.edges) == [(0, 1), (1, 2)]
    brute = brute_boundary_stats(dm, ClusterMap(ids), 8)
    assert sorted(brute) == [(0, 1), (1, 2)]


def test_graph_mismatched_dims_error():
    with pytest.raises(DataError):
        build_neighborhood_graph(_dm(np.ones((4, 4))),
                                 ClusterMap(np.zeros((5, 4), dtype=np.int32)))


def test_graph_fields_match_brute_oracle():
    rng = np.random.default_rng(29)
    yy, xx = np.mgrid[0:9, 0:11]
    # one bump on the middle of every border, so clusters meet on all four
    borders = sum(np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 6.0)
                  for cx, cy in ((5, 0), (5, 8), (0, 4), (10, 4)))
    maps = [noisy_map(23, 20, bandwidth=1.0),
            _dm(np.round(rng.random((1, 23)), 1)),   # 1xN
            _dm(np.round(rng.random((23, 1)), 1)),   # Nx1
            _dm([[1.0, 0.2], [0.3, 0.9]]),           # 2x2
            _dm(borders)]
    for dm, conn in itertools.product(maps, (4, 8)):
        cm = initial_clusters(dm, conn)
        cm_nohint = ClusterMap(cm.ids.copy())  # exercise the generic peak path
        for m in (cm, cm_nohint):
            graph = build_neighborhood_graph(dm, m, conn)
            brute = brute_boundary_stats(dm, m, conn)
            e = graph.edges
            assert _pairs(e) == sorted(brute)
            for i, key in enumerate(_pairs(e)):
                cnt, mxd, dists = brute[key]
                assert e.count[i] == cnt
                assert e.max_density[i] == pytest.approx(mxd)
                for side, cid in enumerate(key):
                    assert e.dist[i, side] == pytest.approx(dists[cid][0])
                    assert e.pixel[i, side] == dists[cid][1]
            areas = np.bincount(m.ids[m.ids >= 0].ravel())
            for cid, node in graph.nodes.items():
                assert node.area_px == areas[cid]
                region = dm.values[m.ids == cid]
                assert node.peak_density == region.max()


# ---------------------------------------------------------------- union

def test_union_merges_near_peak_and_keeps_taller():
    dm = two_gauss_near()
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    assert len(graph.nodes) == 2
    g2, cm2 = union_clusters(graph, cm, ClusterParams(merge_distance_px=8.0))
    assert len(g2.nodes) == 1
    survivor = next(iter(g2.nodes.values()))
    assert survivor.peak_xy == (13, 15)  # the taller peak
    assert survivor.area_px == sum(n.area_px for n in graph.nodes.values())
    assert set(np.unique(cm2.ids[cm2.ids >= 0])) == {survivor.id}


def test_union_zero_threshold_keeps_both():
    dm = two_gauss_near()
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    g2, _ = union_clusters(graph, cm, ClusterParams(merge_distance_px=0.0))
    assert len(g2.nodes) == 2


def test_union_far_peaks_never_merge():
    dm = two_gauss_far()
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    assert (graph.edges.dist.min(axis=1) > 8.0).all()
    g2, _ = union_clusters(graph, cm, ClusterParams(merge_distance_px=8.0))
    assert len(g2.nodes) == 2


def test_union_single_cluster_unchanged():
    dm = gaussian_map([[8.0, 8.0]], [2.0], [1.0], 16)
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    g2, cm2 = union_clusters(graph, cm, ClusterParams())
    assert len(g2.nodes) == len(graph.nodes) == 1
    assert np.array_equal(cm2.ids, cm.ids)


def test_union_chain_cascade_and_coalesce():
    # tall A, weak B between A and C: at threshold 3 only B merges into A
    # (the B-C edge coalesces with the existing A-C edge); at threshold 8 the
    # coalesced edge's re-measured score triggers a cascading second merge
    dm = gaussian_map([[14.0, 16.0], [22.0, 16.0], [34.0, 16.0]],
                      [2.0, 2.0, 2.5], [1.0, 0.5, 0.8], 48)
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    assert len(graph.nodes) == 3
    assert _pairs(graph.edges) == [(0, 1), (0, 2), (1, 2)]

    g0, _ = union_clusters(graph, cm, ClusterParams(merge_distance_px=0.0))
    assert sorted(g0.nodes) == [0, 1, 2]
    g3, _ = union_clusters(graph, cm, ClusterParams(merge_distance_px=3.0))
    assert sorted(g3.nodes) == [0, 2]
    assert _pairs(g3.edges) == [(0, 2)]
    # the coalesced edge keeps C's closest boundary summary from the old B-C edge
    ac, bc = _row(graph.edges, 0, 2), _row(graph.edges, 1, 2)
    assert g3.edges.dist[0, 1] == \
        min(graph.edges.dist[bc, 1], graph.edges.dist[ac, 1])
    assert g3.edges.count[0] == \
        graph.edges.count[ac] + graph.edges.count[bc]
    g8, _ = union_clusters(graph, cm, ClusterParams(merge_distance_px=8.0))
    assert sorted(g8.nodes) == [0]
    assert g8.nodes[0].area_px == sum(n.area_px for n in graph.nodes.values())


def test_union_postconditions_random_maps():
    for seed in (3, 19, 57):
        dm = noisy_map(seed, 36, bandwidth=1.0)
        cm = initial_clusters(dm)
        graph = build_neighborhood_graph(dm, cm)
        total_area = sum(n.area_px for n in graph.nodes.values())
        initial_peaks = {cid: n.peak_density for cid, n in graph.nodes.items()}
        for md in (0.5, 2.0, 6.0):
            g2, cm2 = union_clusters(graph, cm, ClusterParams(merge_distance_px=md))
            # termination: no remaining edge satisfies the merge criterion
            for score in g2.edges.dist.min(axis=1):
                assert score > md
            assert sum(n.area_px for n in g2.nodes.values()) == total_area
            for cid, node in g2.nodes.items():
                assert node.peak_density == initial_peaks[cid]
            ids_present = set(np.unique(cm2.ids[cm2.ids >= 0]).tolist())
            assert ids_present == set(g2.nodes)


def test_union_threshold_monotonicity():
    dm = noisy_map(31, 40, bandwidth=1.2)
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    counts = []
    for md in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 1e9):
        g2, _ = union_clusters(graph, cm, ClusterParams(merge_distance_px=md))
        counts.append(len(g2.nodes))
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] >= 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 32),
       quantize=st.sampled_from([0, 4]), bandwidth=st.sampled_from([0.0, 1.0]),
       conn=st.sampled_from([4, 8]), hinted=st.booleans())
def test_union_matches_naive_reference(seed, size, quantize, bandwidth, conn,
                                       hinted):
    dm = noisy_map(seed, size, zero_frac=0.2, quantize=quantize, bandwidth=bandwidth)
    cm = initial_clusters(dm, conn)
    if not hinted:
        cm = ClusterMap(cm.ids.copy())
    graph = build_neighborhood_graph(dm, cm, conn)
    assert_columns_match_nodes(graph)
    for md in (0.0, 1.5, 4.0):
        params = ClusterParams(merge_distance_px=md, connectivity=conn)
        g2, cm2 = union_clusters(graph, cm, params)
        assert_columns_match_nodes(g2)
        assert cm2.peak_hint is None
        nodes, rows, into = naive_union(graph, md)
        assert typed_nodes(g2.nodes) == typed_nodes(nodes)
        e = g2.edges
        assert _pairs(e) == list(rows)
        assert [e.a.dtype, e.b.dtype, e.count.dtype, e.max_density.dtype,
                e.dist.dtype, e.pixel.dtype] == [np.int64] * 3 + [np.float64] * 2 + [np.int64]
        assert list(zip(e.count.tolist(), e.max_density.tolist(), e.dist.tolist(),
                        e.pixel.tolist())) == [tuple(r) for r in rows.values()]
        relabel = list(range(graph.peak.size))
        for cid in range(len(relabel)):
            while relabel[cid] in into:
                relabel[cid] = into[relabel[cid]]
        expect = np.where(cm.ids >= 0, np.array(relabel)[cm.ids], -1)
        assert np.array_equal(cm2.ids, expect)
        g3, cm3 = truncate_clusters(dm, cm2, g2, params)
        assert_columns_match_nodes(g3)
        assert cm3.peak_hint is None


@pytest.mark.parametrize("connectivity", [8, 4])
def test_union_matches_naive_reference_through_cascades(connectivity):
    # a 96x96 uniform map at bandwidth 1: hundreds of merges, survivors that
    # merge away in turn, rows folded more than once and pairs that no input
    # row has
    dm = uniform_map(5, 96, 0.2, 1.0)
    cm = initial_clusters(dm, connectivity)
    graph = build_neighborhood_graph(dm, cm, connectivity)
    pairs_in = set(_pairs(graph.edges))
    for md in (0.0, 1.5, 8.0):
        params = ClusterParams(merge_distance_px=md, connectivity=connectivity)
        g2, cm2 = union_clusters(graph, cm, params)
        nodes, rows, into = naive_union(graph, md)
        assert typed_nodes(g2.nodes) == typed_nodes(nodes)
        e = g2.edges
        assert [e.a.dtype, e.b.dtype, e.count.dtype, e.max_density.dtype,
                e.dist.dtype, e.pixel.dtype] == [np.int64] * 3 + [np.float64] * 2 + [np.int64]
        assert list(zip(_pairs(e), e.count.tolist(), e.max_density.tolist(),
                        e.dist.tolist(), e.pixel.tolist())) == [
            (pair, *row) for pair, row in rows.items()]
        relabel = np.arange(graph.peak.size)
        for gone in into:
            while relabel[gone] in into:
                relabel[gone] = into[relabel[gone]]
        assert np.array_equal(cm2.ids, np.where(cm.ids >= 0, relabel[cm.ids], -1))
        assert set(rows) - pairs_in
        assert any(surv in into for surv in into.values())
    assert len(into) > 300


def test_union_takes_int32_edge_ends():
    # every id moved up by `pad`, so that keys a * n_ids + b formed in int32
    # would wrap; the output a and b columns are int64 whatever the input's
    dm = uniform_map(5, 96, 0.2, 1.0)
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    e = graph.edges
    n_ids = 50_000
    pad = n_ids - graph.peak.size
    assert pad * n_ids >= 2**31
    moved = ClusterMap(np.where(cm.ids >= 0, cm.ids + pad, -1).astype(cm.ids.dtype))
    wide = replace(graph, peak=np.append(np.full(pad, -1), graph.peak),
                   peak_density=np.append(np.zeros(pad), graph.peak_density),
                   area=np.append(np.zeros(pad, dtype=np.int64), graph.area),
                   edges=replace(e, a=e.a + pad, b=e.b + pad))
    narrow = replace(wide, edges=replace(wide.edges, a=wide.edges.a.astype(np.int32),
                                         b=wide.edges.b.astype(np.int32)))
    for md in (0.0, 8.0):
        params = ClusterParams(merge_distance_px=md)
        want, got = (union_clusters(g, moved, params) for g in (wide, narrow))
        assert len(want[0].nodes) < len(graph.nodes)
        assert want[0].edges.a.dtype == np.int64
        assert _same_arrays(_columns(*got), _columns(*want))


def _columns(graph, cmap) -> list[np.ndarray]:
    e = graph.edges
    return [graph.peak, graph.peak_density, graph.area, e.a, e.b, e.count,
            e.max_density, e.dist, e.pixel, cmap.ids]


def _same_arrays(got, want) -> bool:
    return all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("dm, md, merges", [
    (uniform_map(5, 64, 0.2, 1.0), 0.0, True),
    (uniform_map(5, 64, 0.2, 1.0), 8.0, True),
    (two_gauss_far(), 8.0, False),
])
def test_union_and_truncate_never_write_into_their_inputs(dm, md, merges):
    params = ClusterParams(merge_distance_px=md)
    cm = initial_clusters(dm)
    graph = build_neighborhood_graph(dm, cm)
    before = [c.copy() for c in _columns(graph, cm)]
    g2, cm2 = union_clusters(graph, cm, params)
    assert _same_arrays(_columns(graph, cm), before)
    assert (len(g2.nodes) < len(graph.nodes)) == merges
    if not merges:
        # the map shares its input's ids; the columns equal the input's
        assert cm2.ids is cm.ids
        assert _same_arrays(_columns(g2, cm2), before)
    between = [c.copy() for c in _columns(g2, cm2)]
    values = dm.values.copy()
    truncate_clusters(dm, cm2, g2, params)
    assert _same_arrays(_columns(g2, cm2), between)
    assert np.array_equal(dm.values, values)


# ---------------------------------------------------------------- truncate

def _pipeline_totruncate(dm, params):
    cm = initial_clusters(dm, params.connectivity)
    graph = build_neighborhood_graph(dm, cm, params.connectivity)
    graph, cm = union_clusters(graph, cm, params)
    return graph, cm


def test_truncate_density_floor():
    dm = two_gauss_far()
    params = ClusterParams()
    graph, cm = _pipeline_totruncate(dm, params)
    g3, cm3 = truncate_clusters(dm, cm, graph, params)
    for cid, node in g3.nodes.items():
        region = dm.values[cm3.ids == cid]
        assert (region >= 0.1 * node.peak_density).all()
        assert region.max() == node.peak_density


def test_truncate_ratio_zero_removes_nothing():
    dm = three_blob()
    params = ClusterParams(truncation_ratio=0.0)
    graph, cm = _pipeline_totruncate(dm, params)
    g3, cm3 = truncate_clusters(dm, cm, graph, params)
    assert np.array_equal(cm3.ids, cm.ids)
    assert {c: n.area_px for c, n in g3.nodes.items()} == \
           {c: n.area_px for c, n in graph.nodes.items()}


def test_truncate_dumbbell_keeps_peak_lobe_only():
    dm = dumbbell()
    params = ClusterParams(merge_distance_px=100.0)  # force the two lobes together
    graph, cm = _pipeline_totruncate(dm, params)
    assert len(graph.nodes) == 1
    g3, cm3 = truncate_clusters(dm, cm, graph, params)
    assert len(g3.nodes) == 1
    node = next(iter(g3.nodes.values()))
    assert flood_fill_components(cm3, node.id, params.connectivity) == 1
    ys, xs = np.nonzero(cm3.ids == node.id)
    assert xs.max() <= 22  # the weak right lobe is gone
    assert cm3.ids[node.peak_xy[1], node.peak_xy[0]] == node.id


def test_truncate_never_grows_area():
    dm = noisy_map(41, 40, bandwidth=1.0)
    params = ClusterParams()
    graph, cm = _pipeline_totruncate(dm, params)
    g3, _ = truncate_clusters(dm, cm, graph, params)
    for cid, node in g3.nodes.items():
        assert node.area_px <= graph.nodes[cid].area_px


def test_truncate_min_peak_density_removes_cluster():
    dm = two_gauss_far()  # peaks 1.0 and 0.9 (roughly)
    params = ClusterParams(min_peak_density=0.95)
    graph, cm = _pipeline_totruncate(dm, params)
    assert len(graph.nodes) == 2
    g3, cm3 = truncate_clusters(dm, cm, graph, params)
    assert len(g3.nodes) == 1
    assert next(iter(g3.nodes.values())).peak_density > 0.95
    assert set(np.unique(cm3.ids[cm3.ids >= 0])) == set(g3.nodes)


def _spiral_path(turns):
    # a 4-connected square spiral from the outside in, its arms one
    # background pixel apart; steps 2, 2, 4, 4, ... from the center outward
    x = y = 0
    path = [(x, y)]
    for i in range(2 * turns):
        dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[i % 4]
        for _ in range(2 * (i // 2 + 1)):
            x, y = x + dx, y + dy
            path.append((x, y))
    return path[::-1]


def _serpentine_path(rows, width):
    # full-width rows two apart, linked at alternating ends
    path = []
    for r in range(rows):
        xs = range(width) if r % 2 == 0 else range(width - 1, -1, -1)
        path += [(x, 2 * r) for x in xs]
        if r < rows - 1:
            path.append((width - 1 if r % 2 == 0 else 0, 2 * r + 1))
    return path


@pytest.mark.parametrize("conn", [4, 8])
@pytest.mark.parametrize("path", [_spiral_path(9), _serpentine_path(13, 30)],
                         ids=["spiral", "serpentine"])
def test_truncate_long_winding_cluster(conn, path):
    # one cluster: a winding path of dense pixels starting at the peak, cut
    # at its middle by one weak pixel, over a weak background; the peak's
    # side of the path is all that survives truncation
    margin = 3
    xs, ys = zip(*path)
    x_min, y_min = min(xs), min(ys)
    path = [(x - x_min + margin, y - y_min + margin) for x, y in path]
    h, w = max(ys) - y_min + 1 + 2 * margin, max(xs) - x_min + 1 + 2 * margin
    vals = np.full((h, w), 0.05)
    for x, y in path:
        vals[y, x] = 1.0
    vals[path[0][1], path[0][0]] = 2.0
    # cut within a straight stretch, where no diagonal bridges the gap
    cut = next(i for i in range(len(path) // 2, len(path) - 1)
               if path[i - 1][0] == path[i + 1][0] or path[i - 1][1] == path[i + 1][1])
    vals[path[cut][1], path[cut][0]] = 0.05
    kept = set(path[:cut])
    on_path = set(path)

    def near(p, offsets):
        return {(p[0] + dx, p[1] + dy) for dx, dy in offsets}

    # dense pixels off the path: one touching a kept pixel only diagonally
    # (kept under 8-connectivity), one touching nothing (always dropped)
    diag = next(q for p in path[:cut]
                for q in sorted(near(p, NEIGHBOR_OFFSETS[8]) - on_path)
                if not near(q, NEIGHBOR_OFFSETS[4]) & on_path
                and not near(q, NEIGHBOR_OFFSETS[8]) & set(path[cut:]))
    vals[diag[1], diag[0]] = 1.0
    vals[0, 0] = 1.0
    if conn == 8:
        kept.add(diag)

    dm = _dm(vals)
    cmap = ClusterMap(np.zeros((h, w), dtype=np.int32))
    params = ClusterParams(truncation_ratio=0.1, connectivity=conn)
    graph = build_neighborhood_graph(dm, cmap, conn)
    g3, cm3 = truncate_clusters(dm, cmap, graph, params)
    ys3, xs3 = np.nonzero(cm3.ids == 0)
    assert set(zip(xs3.tolist(), ys3.tolist())) == kept
    assert flood_fill_components(cm3, 0, conn) == 1
    assert g3.nodes[0].area_px == len(kept)
    assert g3.nodes[0].peak_xy == path[0]


# ---------------------------------------------------------------- pipeline

def test_pipeline_three_blob_phase_counts():
    dm = three_blob()
    params = ClusterParams()
    cm = initial_clusters(dm)
    g1 = build_neighborhood_graph(dm, cm)
    assert len(g1.nodes) == 4      # three modes plus the shallow satellite
    g2, cm2 = union_clusters(g1, cm, params)
    assert len(g2.nodes) == 3      # satellite merged into its neighbor
    g3, cm3 = truncate_clusters(dm, cm2, g2, params)
    assert len(g3.nodes) == 3
    assert len(g3.edges) == 0      # truncated islands are disjoint


def test_pipeline_all_zero():
    cmap, graph = cluster_density_map(_dm(np.zeros((16, 16))))
    assert graph.nodes == {}
    assert (cmap.ids == -1).all()


def test_pipeline_deterministic():
    dm = noisy_map(47, 48, bandwidth=1.5)
    a_map, a_graph = cluster_density_map(dm)
    b_map, b_graph = cluster_density_map(dm)
    assert np.array_equal(a_map.ids, b_map.ids)
    assert list(a_graph.nodes) == list(b_graph.nodes)
    assert _pairs(a_graph.edges) == _pairs(b_graph.edges)


def test_pipeline_degenerate_strip_grids():
    # 1-pixel-tall and 1-pixel-wide maps run the whole pipeline
    ramp = np.linspace(0.1, 1.0, 24)
    for vals in (ramp.reshape(1, 24), ramp.reshape(24, 1)):
        cmap, graph = cluster_density_map(_dm(vals))
        assert len(graph.nodes) == 1
        node = next(iter(graph.nodes.values()))
        assert (cmap.ids == node.id).any()
    two_peaks = np.array([[1.0, 0.2, 0.01, 0.2, 0.9]])
    cmap, graph = cluster_density_map(_dm(two_peaks),
                                      ClusterParams(merge_distance_px=0.0))
    assert len(graph.nodes) == 2
    # a single positive pixel survives the whole pipeline as an area-1 cluster
    lone = np.zeros((5, 5))
    lone[2, 3] = 1.0
    cmap, graph = cluster_density_map(_dm(lone))
    assert [n.area_px for n in graph.nodes.values()] == [1]
    assert next(iter(graph.nodes.values())).peak_xy == (3, 2)


def test_pipeline_monotone_phase_counts_corpus(fixture_corpus):
    for name, dm, params in fixture_corpus:
        cm = initial_clusters(dm, params.connectivity)
        g1 = build_neighborhood_graph(dm, cm, params.connectivity)
        g2, cm2 = union_clusters(g1, cm, params)
        g3, cm3 = truncate_clusters(dm, cm2, g2, params)
        assert len(g2.nodes) <= len(g1.nodes), name
        assert len(g3.nodes) <= len(g2.nodes), name
        for cid, node in g3.nodes.items():
            assert node.area_px <= g2.nodes[cid].area_px, name


def test_edge_pixels_corpus(fixture_corpus):
    # every edge side's pixel lies in its own cluster, touches the other
    # cluster and is dist away from its own peak; union re-measures the
    # absorbed sides, so its output is checked as well as build's
    sides = 0
    for (name, dm, base), conn, md in itertools.product(
            fixture_corpus, (4, 8), (0.0, 1.5, 8.0)):
        params = replace(base, connectivity=conn, merge_distance_px=md)
        cm = initial_clusters(dm, conn)
        g1 = build_neighborhood_graph(dm, cm, conn)
        g2, cm2 = union_clusters(g1, cm, params)
        g3, cm3 = truncate_clusters(dm, cm2, g2, params)
        for graph, m in ((g1, cm), (g2, cm2), (g3, cm3)):
            e = graph.edges
            h, w = m.ids.shape
            for i, pair in enumerate(_pairs(e)):
                for side, (own, other) in enumerate((pair, pair[::-1])):
                    y, x = divmod(int(e.pixel[i, side]), w)
                    assert m.ids[y, x] == own, name
                    assert any(0 <= x + dx < w and 0 <= y + dy < h
                               and m.ids[y + dy, x + dx] == other
                               for dx, dy in NEIGHBOR_OFFSETS[conn]), name
                    px, py = graph.nodes[own].peak_xy
                    assert e.dist[i, side] == math.hypot(x - px, y - py), name
                    sides += 1
    assert sides > 10000


def test_pipeline_region_validity_corpus(fixture_corpus):
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        ids_present = set(np.unique(cmap.ids[cmap.ids >= 0]).tolist())
        assert ids_present == set(graph.nodes), name
        for cid, node in graph.nodes.items():
            region = cmap.ids == cid
            assert region.any(), name
            px, py = node.peak_xy
            assert region[py, px], name
            vals = dm.values[region]
            assert vals.max() == node.peak_density, name
            assert (vals >= params.truncation_ratio * node.peak_density).all(), name
            # peak is a weak local maximum of the full density map
            h, w = dm.values.shape
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nx, ny = px + dx, py + dy
                    if 0 <= nx < w and 0 <= ny < h:
                        assert dm.values[ny, nx] <= node.peak_density, name
