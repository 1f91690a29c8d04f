"""Number text of the cluster JSON, the SVG paths and the SQL predicates.

Each of them formats every distinct coordinate once, and the reader decodes
every distinct number text once; these tests pin the result to the
per-value formatting and decoding they replace.
"""
import json
import pathlib
import re
import struct

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from densitycluster.clustering import cluster_density_map
from densitycluster.density import Viewport
from densitycluster.errors import ParameterError
from densitycluster.geometry import ClusterShape, PolygonRing, color_clusters
from densitycluster.io import (ClusterDocument, ClusterRecord, cluster_document,
                               format_number, read_cluster_document, write_json)
from densitycluster.labeling import emit_sql_predicate
from densitycluster.render import render_svg

# -0.0, integer-valued floats, exponent forms and subnormals; drawing from a
# short list makes repeats likely. Ints stand for hand-edited documents.
_SPECIAL = [0.0, -0.0, 1.0, -2.0, 64.0, 0.5, 0.1, 1 / 3, 1e16, -1e16, 1e-7,
            2.5e-8, 5e-324, 2.2250738585072014e-308, 1.5e300]
_FLOATS = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = _FLOATS | st.sampled_from([0, 3, -7]) | st.integers(-10**6, 10**6)
# "\x00", a control character the encoder escapes, stays as an adversarial
# string for a writer that joins its own text with the encoder's
_TEXT = st.sampled_from(["", "ab", 'q"\\', "é"] * 5 + ["\x00"])


# labels of another form than `label` writes, as a hand-edited document may
# hold them
_ODD_LABELS = ["x", {"t": 0.5}, [["t"]], [["t", 0.5, 1]], [[0.5, "t"]],
               [["t", True]], [["t", None]], [[["t"], 0.5]], ["t", 0.5]]


def _rings(numbers):
    return st.lists(st.lists(numbers, min_size=2, max_size=2)
                    | st.tuples(numbers, numbers), min_size=3, max_size=6)


@st.composite
def _documents(draw):
    x_min = draw(st.sampled_from([0.0, -0.0, -3.5, 1e-7, 1e15]))
    y_min = draw(st.sampled_from([0.0, 2.5, -1e-7]))
    bounds = (x_min, x_min + draw(st.sampled_from([1.0, 0.3, 250.0, 1e17])),
              y_min, y_min + draw(st.sampled_from([1.0, 7.0, 1e-5])),
              draw(st.integers(1, 300)), draw(st.integers(1, 300)))
    try:
        viewport = Viewport(*bounds)
    except ParameterError:  # pixel edges that collapse: no document holds them
        reject()
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=5))
    numbers = draw(st.sampled_from([_FLOATS, _NUMBERS]))  # what `cluster` writes, or not
    clusters = [ClusterRecord(
        cid,
        {"x": draw(_NUMBERS), "y": draw(_NUMBERS), "density": draw(_NUMBERS)},
        draw(st.integers(0, 10**4)),
        draw(_rings(numbers)),
        draw(st.lists(_rings(numbers), max_size=2)),
        draw(st.lists(st.lists(numbers, min_size=4, max_size=4), max_size=4)),
        draw(st.integers(0, 20)),
        draw(st.none() | st.lists(st.tuples(_TEXT, numbers).map(list), max_size=3)
             | st.sampled_from(_ODD_LABELS)))
        for cid in ids]
    params = draw(st.dictionaries(_TEXT, _NUMBERS | _TEXT, max_size=3))
    return ClusterDocument(draw(st.sampled_from(["data", "pixel"])), viewport,
                           params, clusters)


def _reference_paths(doc):
    """The `d` attribute of each path, one coordinate at a time."""
    vp = doc.viewport
    flip = vp.y_min + vp.y_max
    paths = []
    for c in sorted(doc.clusters, key=lambda c: c.id):
        parts = []
        for ring in (c.outer, *c.holes):
            pts = []
            for x, y in ring:
                if doc.space == "pixel":  # as to_data_space maps a vertex
                    x, y = vp.x_min + x * vp.sx, vp.y_min + y * vp.sy
                pts.append(f"{format_number(x)},{format_number(flip - y)}")
            parts.append("M" + "L".join(pts) + "Z")
        paths.append("".join(parts))
    return paths


# 0.0 and -0.0 in one column: equal as values, different as text
_SIGNED_ZEROS = ClusterDocument(
    "data", Viewport(-1.0, 1.0, -1.0, 1.0, 2, 2), {}, [ClusterRecord(
        1, {"x": 0.0, "y": -0.0, "density": 1.0}, 4,
        [[0.0, -0.0], [-0.0, 0.0], [1e16, 1e-7], [0.0, 1.0]], [[[-0.0, 2.0]], []],
        [[0.0, -0.0, -0.0, 0.0]], 0)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=_documents())
@example(doc=_SIGNED_ZEROS)
def test_document_text_matches_per_value_formatting(doc):
    assert doc.to_json() == json.dumps(doc.to_dict(), separators=(",", ":"))
    svg = render_svg(doc).decode("utf-8")
    assert re.findall(r' d="([^"]*)"', svg) == _reference_paths(doc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rects=st.lists(st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS),
                      min_size=1, max_size=5))
def test_sql_predicate_matches_per_value_formatting(rects):
    expected = " OR ".join(
        f"(x >= {format_number(x0)} AND x < {format_number(x1)}"
        f" AND y >= {format_number(y0)} AND y < {format_number(y1)})"
        for x0, y0, x1, y1 in rects)
    shape = ClusterShape(1, PolygonRing(()), [], rects)
    assert emit_sql_predicate(shape, "x", "y") == expected


@pytest.mark.parametrize("space", ["data", "pixel"])
def test_cluster_documents_rewrite_byte_identically(tmp_path, fixture_corpus, space):
    # documents built as `cluster` builds them, written, read back and
    # written again
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        text = cluster_document(dm.viewport, params, 1.0, cmap, graph,
                                color_clusters(graph, 10), space)
        assert text == json.dumps(json.loads(text), separators=(",", ":")), name
        first, second = tmp_path / f"{name}.json", tmp_path / f"{name}.again.json"
        write_json(first, text)
        assert first.read_text() == text + "\n"
        write_json(second, read_cluster_document(first))
        assert second.read_bytes() == first.read_bytes(), name


_FIXTURE_TEXT = (pathlib.Path(__file__).parent / "data"
                 / "two_gaussians_clusters.json").read_text()
_GEOMETRY = ("outer", "holes", "rects")
# signed zeros, an int, two spellings of 100, an underflow to 0.0, the
# smallest subnormal and two plain decimals
_RAW = ["-0.0", "0.0", "0", "1E2", "100.0", "1e-400", "5e-324", "0.1", "2.5"]


def _geometry_numbers(clusters):
    """Every geometry number of the clusters, in document text order."""
    out = []

    def walk(v):
        if isinstance(v, list):
            for item in v:
                walk(item)
        else:
            out.append(v)
    for c in clusters:
        for field in _GEOMETRY:
            walk(c[field] if isinstance(c, dict) else getattr(c, field))
    return out


def _same(a, b):
    """Equal, with equal types, and floats equal bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pattern=st.lists(st.sampled_from(_RAW), min_size=1, max_size=12))
def test_read_decodes_number_text_as_json_does(tmp_path_factory, pattern):
    # the fixture's geometry numbers respelled by cycling through `pattern`,
    # so that every text in it repeats
    doc = json.loads(_FIXTURE_TEXT)
    n = len(_geometry_numbers(doc["clusters"]))
    texts = (pattern * (n // len(pattern) + 1))[:n]
    for c in doc["clusters"]:  # every geometry number becomes a placeholder
        for field in _GEOMETRY:
            c[field] = json.loads(json.dumps(c[field]), parse_float=lambda _: "\x01")
    spelled = iter(texts)
    text = re.sub(r'"\\u0001"', lambda _: next(spelled), json.dumps(doc))
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(text)

    got = read_cluster_document(path)
    want = json.loads(text)
    assert got.space == want["space"] and _same(got.params, want["params"])
    for record, c in zip(got.clusters, want["clusters"], strict=True):
        assert _same([record.id, record.peak, record.area_px, record.color],
                     [c["id"], c["peak"], c["area_px"], c["color"]])
    numbers = _geometry_numbers(got.clusters)
    assert _same(numbers, _geometry_numbers(want["clusters"]))
    first = {}
    for t, v in zip(texts, numbers, strict=True):
        if isinstance(v, float):  # one float object per distinct text
            assert first.setdefault(t, v) is v
