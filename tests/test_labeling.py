import concurrent.futures
import math
import re
import sqlite3
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densitycluster import density
from densitycluster.clustering import ClusterParams, cluster_density_map
from densitycluster.density import DensityMap, PointBatch, Viewport
from densitycluster.errors import ParameterError
from densitycluster.geometry import (ClusterShape, PolygonRing,
                                     shape_for_cluster, to_data_space)
from densitycluster.io import format_number
from densitycluster.labeling import (SQL_KEYWORDS, STOPWORDS, _count_tokens,
                                     assign_documents, ctfidf_labels,
                                     emit_sql_predicate, tokenize)
from densitycluster.oracles import ctfidf_oracle

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


def _regex_tokenize(text):
    return [t for t in re.findall(r"[a-z0-9]+", text.lower())
            if len(t) >= 2 and t not in STOPWORDS]


# code points whose lowercase form, or lack of one, could move a word edge:
# the Kelvin sign lowers to ASCII "k", "İ" to "i" plus a combining dot; "ß",
# fullwidth and Arabic-Indic digits and combining marks stay non-ASCII; NUL,
# \x0b, \x85 and \u2028 are separators; JSON lines can carry lone surrogates
_ODD_CHARS = ["\u212a", "\u0130", "\u00df", "\uff11", "\u0661", "\u0669", "\u0301",
              "\u00e9", "\x00", "\x0b", "\x85", "\u2028", "\ud800", "\udfff", "?", " "]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(_ODD_CHARS),
    st.sampled_from(sorted(STOPWORDS) + ["Ab", "zZ9", "K", "x"]),
    st.characters(codec=None, exclude_categories=()),   # any code point
    st.text(st.characters(min_codepoint=0, max_codepoint=0x7F), max_size=4),
)).map("".join))
def test_tokenize_matches_regex_reference(text):
    assert tokenize(text) == _regex_tokenize(text)


def test_tokenize_odd_code_points():
    assert tokenize("\u212aelvin caf\u00e9 \u0130stanbul stra\u00dfe a\uff11b\u0661c1") == \
        ["kelvin", "caf", "stanbul", "stra", "c1"]
    assert tokenize("ab\ud800cd\x00ef\u2028gh") == ["ab", "cd", "ef", "gh"]


def _assert_counts_per_text(texts):
    want = Counter()
    for t in texts:
        if t:
            want.update(tokenize(t))
    got = _count_tokens(texts)
    assert got == want and list(got.items()) == list(want.items())


def test_count_tokens_over_chunks_equals_per_text_counts():
    # more than 1 MiB of text, so the counts span several joined slices, with
    # words at both ends of each text and empty texts mixed in
    texts = []
    for i in range(80_000):
        texts.append(None if i % 11 == 0 else "" if i % 13 == 0 else
                     f"w{i % 97} The Alpha{i % 13} x \u212a{i % 7} caf\u00e9 notes end{i % 5}")
    assert sum(len(t) for t in texts if t) > 2 << 20
    _assert_counts_per_text(texts)
    # a text's own "\n" right at, just before and just after the 1 MiB cut
    head = "ab " * ((1 << 20) // 3)
    for pad in range(len(head) - 1, len(head) + 4):
        text = (head + "z" * (1 << 20))[:pad] + "\nfoxtrot qq golf\n\nhotel"
        assert "\n" in text[(1 << 20) - 2:(1 << 20) + 3]
        _assert_counts_per_text([None, text, "", "india foxtrot", None, "juliet"])
    # one text longer than 1 MiB, without a "\n", among short ones
    _assert_counts_per_text(["kilo lima", "mike " * 300_000 + "november", "", "oscar",
                             None, "papa\nquebec"])
    _assert_counts_per_text([None, "", None])
    _assert_counts_per_text([])


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


def _lattice_documents(seed: int, n: int):
    """Disjoint rects on a random lattice, zero-width ones and a shape with
    no rects, and n points: inside, outside, on rect edges, non-finite."""
    rng = np.random.default_rng(seed)
    xe = np.unique(rng.uniform(-50, 50, 14).round(1))
    ye = np.unique(rng.uniform(-50, 50, 11).round(1))
    owner = rng.integers(-1, 6, (len(ye) - 1, len(xe) - 1))  # -1: no cluster
    rects = {cid: [] for cid in range(6)}
    for (j, i), cid in np.ndenumerate(owner):
        if cid >= 0:
            rects[cid].append((xe[i], ye[j], xe[i + 1], ye[j + 1]))
        if rng.random() < 0.2:  # zero width on a lattice line
            rects[int(rng.integers(0, 6))].append((xe[i], ye[j], xe[i], ye[j + 1]))
    shapes = [_shape(cid, r) for cid, r in rects.items()] + [_shape(9, [])]
    xs = rng.uniform(-60, 60, n)
    ys = rng.uniform(-60, 60, n)
    # on lattice lines, where rects meet: in x, in y, or at corners
    for axis, lines in ((xs, xe), (ys, ye)):
        on = rng.random(n) < 0.4
        axis[on] = rng.choice(lines, on.sum())
    odd = rng.choice(n, min(n, 12), replace=False)
    xs[odd] = rng.choice([np.nan, np.inf, -np.inf, 0.0], len(odd))
    ys[odd] = rng.choice([np.nan, np.inf, -np.inf, 0.0], len(odd))
    return PointBatch(xs, ys, np.ones(n)), shapes


@pytest.mark.parametrize("seed, n", [(0, 5), (1, 400), (2, 1500), (3, 2000)])
def test_assign_in_bands_matches_one_band(band_count, seed, n):
    batch, shapes = _lattice_documents(seed, n)
    vp = Viewport(-60, 60, -60, 60, 12, 12)
    outs = []
    for count in (1, 2, 3, 7):
        band_count(count)
        outs.append(assign_documents(batch, shapes, vp))
    for out in outs[1:]:
        assert list(out) == list(outs[0]) == [0, 1, 2, 3, 4, 5, 9]
        for cid, idx in out.items():
            assert idx.dtype == outs[0][cid].dtype
            assert np.array_equal(idx, outs[0][cid]), cid
    assert {cid: idx.tolist() for cid, idx in outs[0].items()} == \
        _first_hit_scan(batch.xs, batch.ys, shapes)


@pytest.mark.parametrize("cpus", [2, 8])
def test_many_cluster_documents_start_no_thread(monkeypatch, cpus):
    # 12.5k points, as the many-clusters benchmark reads, are too few for
    # two bands: they are located on the calling thread
    monkeypatch.setattr(density, "usable_cpus", lambda: cpus)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    batch, shapes = _lattice_documents(4, 12_500)
    vp = Viewport(-60, 60, -60, 60, 12, 12)
    before = threading.active_count()
    assert sum(map(len, assign_documents(batch, shapes, vp).values())) > 0
    assert threading.active_count() == before
    batch, shapes = _lattice_documents(4, 2 * 16_384)  # two bands
    with pytest.raises(AssertionError, match="thread pool"):
        assign_documents(batch, shapes, vp)


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


# few words, so that clusters share terms and scores tie; None, "", a short
# token, stopword-only texts and a non-ASCII separator among them
_LABEL_TEXTS = st.sampled_from(
    [None, "", "a", "the and", "alpha", "alpha beta", "Beta-gamma gamma",
     "delta alpha alpha", "zeta", "gamma\u00e9delta the", "beta beta zeta"])


@st.composite
def _labelled_documents(draw):
    """(assignment, documents) as assign_documents gives them: each
    document in at most one cluster, indices ascending, and clusters that
    hold no document."""
    documents = draw(st.lists(_LABEL_TEXTS, max_size=30))
    cids = draw(st.lists(st.integers(-5, 40), unique=True, max_size=6))
    slots = draw(st.lists(st.integers(-1, len(cids) - 1),
                          min_size=len(documents), max_size=len(documents)))
    slots = np.array(slots, dtype=np.int64)
    return {cid: np.flatnonzero(slots == i) for i, cid in enumerate(cids)}, documents


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_labelled_documents(), k=st.sampled_from([1, 3, 10]))
# log(1 + 1/20), where numpy's array log is one ulp off math.log's on some
# hosts: the scores take math.log's
@example(case=({0: np.array([0])}, ["alpha", "alpha " * 19]), k=1)
def test_ctfidf_matches_per_term_oracle(case, k):
    # the array scoring gives the per-term loop's terms, order and float bits
    assignment, documents = case

    def exact(labels):
        return [(lr.cluster_id, [(t, s.hex()) for t, s in lr.top_terms])
                for lr in labels]

    assert exact(ctfidf_labels(assignment, documents, k)) \
        == exact(ctfidf_oracle(assignment, documents, k))


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
    for bad in ("x;drop", "1x", "a b", "", "select", "SELECT", "null"):
        with pytest.raises(ParameterError):
            emit_sql_predicate(shape, bad, "y")
        with pytest.raises(ParameterError):
            emit_sql_predicate(shape, "x", bad)
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


def _bare_column_rows(word, predicate):
    """The rows of a one-column table named `word` that the predicate selects
    in SQLite, or None if SQLite rejects it."""
    con = sqlite3.connect(":memory:")
    con.execute(f'CREATE TABLE t (i INTEGER, "{word}" REAL)')
    con.executemany("INSERT INTO t VALUES (?, ?)", enumerate([-1.0, 0.0, 0.5, 1.0, 2.0]))
    try:
        return {r[0] for r in con.execute(f"SELECT i FROM t WHERE {predicate}")}
    except sqlite3.OperationalError:
        return None
    finally:
        con.close()


def test_sql_keywords_are_the_words_sqlite_reads_as_no_column():
    # a listed keyword is a syntax error as a bare column, or reads as a
    # value (null, current_date) and selects other rows than the rect's
    assert len(SQL_KEYWORDS) == 64
    for word in sorted(SQL_KEYWORDS):
        assert _bare_column_rows(word, f"({word} >= 0 AND {word} < 1)") != {1, 2}, word
    shape = _shape(0, [(0.0, 0.0, 1.0, 1.0)])
    for word in ("x", "y", "date", "value", "key"):
        predicate = emit_sql_predicate(shape, word, word)
        assert _bare_column_rows(word, predicate) == {1, 2}, word


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
