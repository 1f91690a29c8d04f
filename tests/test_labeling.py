import math
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitycluster.clustering import ClusterParams, cluster_density_map
from densitycluster.density import DensityMap, PointBatch, Viewport
from densitycluster.errors import ParameterError
from densitycluster.geometry import (ClusterShape, PolygonRing,
                                     shape_for_cluster, to_data_space)
from densitycluster.labeling import (STOPWORDS, assign_documents,
                                     ctfidf_labels, emit_sql_predicate,
                                     format_number, tokenize)

from conftest import noisy_map, three_blob


def _shape(cid, rects):
    ring = PolygonRing(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    return ClusterShape(cid, ring, [], [tuple(map(float, r)) for r in rects])


# ----------------------------------------------------------------- tokenize

def test_tokenize_case_fold_and_stopwords():
    assert tokenize("The quick, QUICK fox!") == ["quick", "quick", "fox"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_hyphen():
    assert tokenize("a1-b2") == ["a1", "b2"]


def test_tokenize_drops_short_tokens():
    assert tokenize("a x yz") == ["yz"]


def test_stopword_list_size_documented():
    assert 110 <= len(STOPWORDS) <= 140


# ----------------------------------------------------------------- assign

def test_assign_half_open_corners():
    vp = Viewport(0, 4, 0, 4, 4, 4)
    shapes = [_shape(0, [(1.0, 1.0, 2.0, 2.0)])]
    batch = PointBatch(np.array([1.0, 2.0, 1.5]), np.array([1.0, 2.0, 1.999]),
                       np.ones(3))
    out = assign_documents(batch, shapes, vp)
    assert out[0].tolist() == [0, 2]  # lower-left corner in, upper-right out


def test_assign_unique_and_unmatched():
    vp = Viewport(0, 4, 0, 4, 4, 4)
    # shape 1's first rect is empty (x0 == x1): it holds nothing and hides nothing
    shapes = [_shape(0, [(0.0, 0.0, 1.0, 1.0)]),
              _shape(1, [(0.5, 0.0, 0.5, 1.0), (2.0, 2.0, 3.0, 3.0)])]
    batch = PointBatch(np.array([0.5, 2.5, 3.7]), np.array([0.5, 2.5, 3.7]),
                       np.ones(3))
    out = assign_documents(batch, shapes, vp)
    assert out[0].tolist() == [0]
    assert out[1].tolist() == [1]  # the third point matches nothing


def _point_in_rings(x, y, outer, holes):
    def inside(ring):
        crossings = 0
        v = ring.vertices
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            if x0 == x1 and min(y0, y1) <= y < max(y0, y1) and x < x0:
                crossings += 1
        return crossings % 2 == 1

    return inside(outer) and not any(inside(h) for h in holes)


def test_assign_matches_polygon_oracle():
    dm = three_blob()
    params_cmap, graph = cluster_density_map(dm)
    vp = dm.viewport
    shapes = [to_data_space(shape_for_cluster(params_cmap, cid), vp)
              for cid in sorted(graph.nodes)]
    rng = np.random.default_rng(77)
    xs = rng.uniform(0, 64, 600)
    ys = rng.uniform(0, 64, 600)
    batch = PointBatch(xs, ys, np.ones(600))
    fast = assign_documents(batch, shapes, vp)
    for shape in shapes:
        expect = {i for i in range(600)
                  if _point_in_rings(xs[i], ys[i], shape.outer, shape.holes)}
        assert set(fast[shape.cluster_id].tolist()) == expect
    # no document lands in two clusters
    all_idx = np.concatenate([fast[s.cluster_id] for s in shapes])
    assert len(all_idx) == len(set(all_idx.tolist()))


def test_assign_nonfinite_points_unassigned():
    vp = Viewport(0, 4, 0, 4, 4, 4)
    shapes = [_shape(0, [(0.0, 0.0, 4.0, 4.0)])]
    batch = PointBatch(np.array([np.nan, 1.0]), np.array([1.0, np.inf]),
                       np.ones(2))
    out = assign_documents(batch, shapes, vp)
    assert out[0].size == 0


def _first_hit_scan(xs, ys, shapes):
    """Brute force: each point against every rect, first containing rect wins."""
    rects = [(s.cluster_id, r) for s in shapes for r in s.rects]
    out = {s.cluster_id: [] for s in shapes}
    for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        for cid, (x0, y0, x1, y1) in rects:
            if x0 <= x < x1 and y0 <= y < y1:
                out[cid].append(i)
                break
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(6, 28),
       merge=st.sampled_from([0.0, 8.0]), pixel_space=st.booleans())
def test_assign_matches_first_hit_scan(seed, size, merge, pixel_space):
    rng = np.random.default_rng(seed)
    x_min, y_min = rng.uniform(-100, 100, 2)
    sx, sy = rng.uniform(0.001, 10, 2)
    vp = Viewport(x_min, x_min + sx * size, y_min, y_min + sy * size, size, size)
    noise = noisy_map(seed % 1000, size, bandwidth=1.0)
    cmap, graph = cluster_density_map(DensityMap(vp, noise.values),
                                      ClusterParams(merge_distance_px=merge))
    shapes = [shape_for_cluster(cmap, cid) for cid in sorted(graph.nodes)]
    if pixel_space:  # pass the viewport of the shapes' own space
        vp = Viewport(0, size, 0, size, size, size)
    else:
        shapes = [to_data_space(s, vp) for s in shapes]
    rects = np.array([r for s in shapes for r in s.rects])
    lo, hi = rects.min(axis=0), rects.max(axis=0)
    # random points over and beyond the cover's box ...
    xs = rng.uniform(lo[0] - (hi[2] - lo[0]), hi[2] + (hi[2] - lo[0]), 300)
    ys = rng.uniform(lo[1] - (hi[3] - lo[1]), hi[3] + (hi[3] - lo[1]), 300)
    # ... exact corners of many rects, and non-finite coordinates
    pick = rng.integers(0, len(rects), 200)
    xs[:200] = rects[pick, rng.choice([0, 2], 200)]
    ys[:200] = rects[pick, rng.choice([1, 3], 200)]
    xs[200:206] = [np.nan, np.inf, -np.inf, lo[0], np.nan, hi[2]]
    ys[200:206] = [lo[1], lo[1], lo[1], np.nan, np.inf, -np.inf]
    got = assign_documents(PointBatch(xs, ys, np.ones(len(xs))), shapes, vp)
    want = _first_hit_scan(xs, ys, shapes)
    assert {cid: idx.tolist() for cid, idx in got.items()} == want


# ----------------------------------------------------------------- c-TF-IDF

def test_ctfidf_two_cluster_example():
    docs = ["alpha alpha beta", "beta gamma"]
    assignment = {1: np.array([0]), 2: np.array([1])}
    labels = {lr.cluster_id: lr for lr in ctfidf_labels(assignment, docs, k=3)}
    assert labels[1].top_terms[0][0] == "alpha"
    assert labels[2].top_terms[0][0] == "gamma"
    # frozen expected scores: A = (3 + 2) / 2 = 2.5
    a = 2.5
    assert labels[1].top_terms[0][1] == pytest.approx((2 / 3) * math.log(1 + a / 2))
    assert labels[2].top_terms[0][1] == pytest.approx((1 / 2) * math.log(1 + a / 1))
    scores = [s for _, s in labels[1].top_terms]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_ctfidf_shared_term_scores_below_exclusive():
    docs = ["common alpha", "common beta"]
    assignment = {0: np.array([0]), 1: np.array([1])}
    labels = {lr.cluster_id: lr for lr in ctfidf_labels(assignment, docs, k=2)}
    assert labels[0].top_terms[0][0] == "alpha"
    assert labels[1].top_terms[0][0] == "beta"
    terms0 = dict(labels[0].top_terms)
    assert terms0["alpha"] > terms0["common"]


def test_ctfidf_k_larger_than_vocabulary():
    docs = ["alpha beta"]
    labels = ctfidf_labels({0: np.array([0])}, docs, k=10)
    terms = [t for t, _ in labels[0].top_terms]
    assert sorted(terms) == ["alpha", "beta"]
    assert len(set(terms)) == len(terms)


def test_ctfidf_empty_cluster_and_bad_k():
    docs = ["alpha"]
    labels = ctfidf_labels({0: np.array([0]), 1: np.array([], dtype=int)}, docs, k=2)
    by_id = {lr.cluster_id: lr.top_terms for lr in labels}
    assert by_id[1] == []
    with pytest.raises(ParameterError):
        ctfidf_labels({0: np.array([0])}, docs, k=0)


def test_ctfidf_terms_absent_from_cluster_never_labeled():
    docs = ["alpha alpha", "beta beta beta"]
    assignment = {0: np.array([0]), 1: np.array([1])}
    labels = {lr.cluster_id: [t for t, _ in lr.top_terms]
              for lr in ctfidf_labels(assignment, docs, k=5)}
    assert "beta" not in labels[0]
    assert "alpha" not in labels[1]


def test_ctfidf_deterministic_tie_order():
    docs = ["zeta alpha", "zeta alpha"]
    assignment = {0: np.array([0, 1])}
    labels = ctfidf_labels(assignment, docs, k=2)
    assert [t for t, _ in labels[0].top_terms] == ["alpha", "zeta"]  # tie -> lexicographic
    again = ctfidf_labels(assignment, docs, k=2)
    assert labels[0].top_terms == again[0].top_terms


# ----------------------------------------------------------------- SQL

def test_sql_single_rect_template():
    shape = _shape(0, [(0.0, 2.0, 1.0, 3.0)])
    assert emit_sql_predicate(shape, "x", "y") == \
        "(x >= 0 AND x < 1 AND y >= 2 AND y < 3)"


def test_sql_two_rects_or_joined():
    shape = _shape(0, [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.5, 1.0)])
    sql = emit_sql_predicate(shape, "px", "py")
    assert sql == ("(px >= 0 AND px < 1 AND py >= 0 AND py < 1)"
                   " OR (px >= 1 AND px < 2.5 AND py >= 0 AND py < 1)")


def test_sql_identifier_validation():
    shape = _shape(0, [(0.0, 0.0, 1.0, 1.0)])
    for bad in ("x;drop", "1x", "a b", ""):
        with pytest.raises(ParameterError):
            emit_sql_predicate(shape, bad, "y")
    with pytest.raises(ParameterError):
        emit_sql_predicate(_shape(0, []), "x", "y")


def test_format_number_round_trip():
    for v in (0.0, 1.0, -2.5, 1e300, 0.1, 123456.789, -1e-12):
        assert float(format_number(v)) == v
    assert format_number(0.0) == "0"
    assert format_number(1.0) == "1"
    assert format_number(0.1) == "0.1"


@settings(max_examples=30, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_format_number_round_trip_property(v):
    assert float(format_number(v)) == v


def _sqlite_select(points, predicate):
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE pts (i INTEGER, x REAL, y REAL)")
    con.executemany("INSERT INTO pts VALUES (?, ?, ?)",
                    [(i, float(x), float(y)) for i, (x, y) in enumerate(points)])
    rows = con.execute(f"SELECT i FROM pts WHERE {predicate}").fetchall()
    con.close()
    return {r[0] for r in rows}


def _three_blob_case():
    dm = three_blob()
    cmap, graph = cluster_density_map(dm)
    vp = dm.viewport
    shapes = [to_data_space(shape_for_cluster(cmap, cid), vp)
              for cid in sorted(graph.nodes)]
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2, 66, 800)
    ys = rng.uniform(-2, 66, 800)
    # place some points exactly on rect corners to pin the half-open contract
    corner_rects = shapes[0].rects[:3]
    for j, r in enumerate(corner_rects):
        xs[j], ys[j] = r[0], r[1]          # lower-left corner: inside
        xs[10 + j], ys[10 + j] = r[2], r[3]  # upper-right corner: outside this rect
    return shapes, vp, xs, ys


def _outside_viewport_case():
    # rects beyond the document's viewport, as a hand-edited document may hold
    vp = Viewport(0, 10, 0, 10, 10, 10)
    shapes = [_shape(0, [(1, 1, 3, 3), (11, 2, 15, 4)]), _shape(1, [(30, 30, 31, 31)])]
    xs = np.array([2.0, 12.0, 30.5, 15.0, 31.0, 5.0])
    ys = np.array([2.0, 3.0, 30.5, 3.0, 30.5, 5.0])
    return shapes, vp, xs, ys


def test_sql_matches_assignment_via_sqlite():
    for shapes, vp, xs, ys in (_three_blob_case(), _outside_viewport_case()):
        batch = PointBatch(xs, ys, np.ones(len(xs)))
        assignment = assign_documents(batch, shapes, vp)
        for shape in shapes:
            sql_rows = _sqlite_select(zip(xs, ys),
                                      emit_sql_predicate(shape, "x", "y"))
            assert sql_rows == set(assignment[shape.cluster_id].tolist())
