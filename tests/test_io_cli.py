import contextlib
import gc
import io
import json
import math
import os
import pathlib
import re
import socket
import sqlite3
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import densitycluster
import densitycluster.cli as dcli
import densitycluster.io as dio
from densitycluster.cli import main
from densitycluster.clustering import ClusterParams
from densitycluster.density import DensityMap, Viewport
from densitycluster.errors import DataError, NoDataError, ParameterError
from densitycluster.io import (collector_paused, load_points,
                               read_cluster_document, read_density_dump,
                               write_density_dump)
from densitycluster.labeling import assign_documents, ctfidf_labels

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE_CSV = DATA / "two_gaussians.csv"
GOLDEN_SVG = DATA / "two_gaussians_golden.svg"


# ------------------------------------------------------------------ loading

def test_load_csv_with_weight_and_text(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y,w,label\n1.0,2.0,3.0,hello\n4.0,5.0,,world\n")
    batch = load_points(p, "csv", weight_col="w", text_col="label")
    assert batch.xs.tolist() == [1.0, 4.0]
    assert batch.weights.tolist() == [3.0, 1.0]  # empty weight defaults to 1
    assert batch.texts == ["hello", "world"]


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ParameterError, match="'t'"):
        load_points(p, "csv", text_col="t")


def test_load_csv_malformed_over_threshold(tmp_path):
    p = tmp_path / "pts.csv"
    rows = ["x,y"] + ["1.0,2.0"] * 50 + ["oops,2.0", "nan,1.0"]
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="row 52"):
        load_points(p, "csv")


def test_load_csv_malformed_under_threshold_warns(tmp_path):
    p = tmp_path / "pts.csv"
    rows = ["x,y"] + ["1.0,2.0"] * 200 + ["bad,1.0"]
    p.write_text("\n".join(rows) + "\n")
    with pytest.warns(UserWarning, match="row 202"):
        batch = load_points(p, "csv")
    assert len(batch) == 200


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y\n")
    with pytest.raises(NoDataError, match="no data"):
        load_points(p, "csv")


def test_load_jsonl(tmp_path):
    p = tmp_path / "pts.jsonl"
    p.write_text('{"x": 1, "y": 2, "t": "alpha"}\n'
                 '{"x": 3, "y": 4}\n')
    batch = load_points(p, "jsonl", text_col="t")
    assert batch.xs.tolist() == [1.0, 3.0]
    assert batch.texts == ["alpha", None]


def test_load_jsonl_with_byte_order_mark(tmp_path):
    p = tmp_path / "pts.jsonl"
    p.write_bytes(b'\xef\xbb\xbf{"x": 1, "y": 2, "t": "alpha"}\n{"x": 3, "y": 4}\n')
    batch = load_points(p, "jsonl", text_col="t")
    assert batch.xs.tolist() == [1.0, 3.0]
    assert batch.texts == ["alpha", None]


def test_load_jsonl_bad_lines(tmp_path):
    p = tmp_path / "pts.jsonl"
    for text, cols in (('{"x": 1, "y": 2}\nnot json\n{"y": 3}\n', {}),
                       # bools are not numbers, though float(True) is 1.0
                       ('{"x": true, "y": 2, "w": false}\n', {"weight_col": "w"}),
                       # integers too large for a float
                       ('{"x": 1, "y": 2}\n{"x": 1' + "0" * 400 + ', "y": 2}\n', {}),
                       ('{"x": 1, "y": 2, "w": 1' + "0" * 400 + '}\n',
                        {"weight_col": "w"})):
        p.write_text(text)
        with pytest.raises(DataError):
            load_points(p, "jsonl", **cols)


def test_load_bad_format():
    with pytest.raises(ParameterError):
        load_points("whatever", "parquet")


def test_load_negative_weight_is_malformed(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y,w\n1,2,-5\n")
    with pytest.raises(DataError):
        load_points(p, "csv", weight_col="w")


def _load_outcome(path, per_row, **cols):
    """Everything load_points returns, warns or raises, as comparable data;
    `per_row` turns the column-wise CSV reader off."""
    column_wise_off = mock.patch.object(dio, "_read_csv_columns", lambda *args: None)
    with warnings.catch_warnings(record=True) as caught, \
            (column_wise_off if per_row else contextlib.nullcontext()):
        warnings.simplefilter("always")
        try:
            b = load_points(path, "csv", **cols)
            result = ("batch", [(a.dtype, a.tobytes()) for a in (b.xs, b.ys, b.weights)],
                      b.texts)
        except Exception as exc:  # the exception is part of the compared outcome
            result = ("raised", type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _assert_same_as_per_row(path, **cols):
    outcome = _load_outcome(path, False, **cols)
    assert outcome == _load_outcome(path, True, **cols)
    return outcome


_NUMBERS = st.one_of(st.integers(-999, 999).map(str), st.floats().map(repr))  # nan, inf too
_WEIGHTS = st.one_of(st.integers(0, 999).map(str), st.floats(0).map(repr),
                     st.sampled_from(["-1", "-0.0", "0"]))
_TEXTS = st.sampled_from(["", "alpha", "a b", "1.5", " ", "\talpha\t", "#", "\x00",
                         "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
_CSV_TOKENS = list("0123456789.e-_, #") + ['"', "\n", "\r", "nan", "inf", "\uff11"]
# one field replacing a valid one; None cuts the row short there
_ODD_FIELDS = st.one_of(
    st.lists(st.sampled_from(_CSV_TOKENS), max_size=4).map("".join),
    st.sampled_from(["", " 1 ", "-0", "-5", "nan", "-inf", "1e999", "1_0", "\uff11",
                     '"1,2"', None]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_NUMBERS, _NUMBERS, _WEIGHTS, _TEXTS).map(list),
                    max_size=6),
       edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), _ODD_FIELDS),
                      max_size=2),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", ""]), min_size=7, max_size=7),
       cols=st.sampled_from([{}, {"weight_col": "w"}, {"text_col": "t"},
                             {"weight_col": "w", "text_col": "t"}, {"text_col": "x"},
                             {"x_col": "w", "text_col": "x"}]))
def test_load_csv_matches_per_row_path(tmp_path_factory, rows, edits, ends, cols):
    """Valid rows with at most two odd fields or cut rows, under any line ends."""
    for i, j, field in edits:
        if rows:
            row = rows[i % len(rows)]
            if field is None:
                del row[j:]
            else:
                row[j:j + 1] = [field]
    lines = ["x,y,w,t", *map(",".join, rows)]
    text = "".join(line + end for line, end in zip(lines, ends))
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_as_per_row(path, **cols)


_VALID_ROWS = "1,2,1\n" * 200   # one bad row after these is under the 1% limit


@pytest.mark.parametrize("text, cols, xs, ws, texts, bad_row", [
    # loadtxt does not know quotes: it would read x=5, y=6 here
    ('t,x,y\n"a,5,6,b",7,8\n', {"text_col": "t"}, [7.0], [1.0], ["a,5,6,b"], None),
    ("x,y\n1_000,2\n\uff11,2\n", {}, [1000.0, 1.0], [1.0] * 2, None, None),  # float() only
    ("x,y,w\n1,2,\n", {"weight_col": "w"}, [1.0], [1.0], None, None),  # empty weight
    ("x,y\r1,2\n3,4\n", {}, [1.0, 3.0], [1.0] * 2, None, None),  # lone CR ends the header
    ("x,y,w\n" + _VALID_ROWS + "3\n", {}, [1.0] * 200, [1.0] * 200, None, 202),  # short
    ("x,y,w\n" + _VALID_ROWS + "3,4\n", {"text_col": "w"},
     [1.0] * 200, [1.0] * 200, ["1"] * 200, 202),   # short of the text column only
    ("x,y,w\n" + _VALID_ROWS + "3,4,-1\n", {"weight_col": "w"},
     [1.0] * 200, [1.0] * 200, None, 202),
    ("x,y,w\n" + _VALID_ROWS + "nan,4,1\n", {}, [1.0] * 200, [1.0] * 200, None, 202),
    ("x,y,w\n" + _VALID_ROWS + " \t \n", {"text_col": "w"},
     [1.0] * 200, [1.0] * 200, ["1"] * 200, 202),   # whitespace-only line
    ("x,y,w,t\n" + "1,2,1,a\n" * 200 + "3,4,1\n", {"weight_col": "w", "text_col": "t"},
     [1.0] * 200, [1.0] * 200, ["a"] * 200, 202),   # cut short of the text column
    ("x,y\n1,2\n", {}, [1.0], [1.0], None, None),   # one row, no text
    ("x,y,w\n" + _VALID_ROWS + " \t \n", {}, [1.0] * 200, [1.0] * 200, None, 202),
], ids=["quoted-delimiter", "float-only-syntax", "empty-weight", "lone-cr-header",
        "short-row", "short-text-row", "negative-weight", "non-finite",
        "whitespace-only-line", "cut-before-text", "one-row-no-text",
        "whitespace-only-line-no-text"])
def test_load_csv_per_row_fallback_regressions(tmp_path, text, cols, xs, ws, texts,
                                               bad_row):
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    (kind, arrays, got_texts), caught = _assert_same_as_per_row(path, **cols)
    assert kind == "batch" and got_texts == texts
    assert [np.frombuffer(arrays[i][1]).tolist() for i in (0, 2)] == [xs, ws]
    assert caught == ([] if bad_row is None else
                      [f"skipped 1 malformed row(s), first at row {bad_row}"])


def test_load_csv_header_only_matches_per_row(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n")
    # the NoDataError alone: no "input contained no data" warning from loadtxt
    assert _assert_same_as_per_row(path) == (
        ("raised", NoDataError, "no data: input contains no usable rows"), [])


def _loadtxt_sources(monkeypatch):
    """The first argument of each np.loadtxt call load_points makes."""
    sources, loadtxt = [], np.loadtxt

    def spy(fname, *args, **kwargs):
        sources.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(dio.np, "loadtxt", spy)
    return sources


def _label_bytes(tmp_path, points) -> bytes:
    out = tmp_path / "labels.json"
    assert main(["label", "--input", str(points), "--text-col", "text",
                 "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
                 "--output", str(out)]) == 0
    return out.read_bytes()


def test_compressed_suffixes_cover_numpy_openers():
    # names numpy would open through a decompressor are read from their lines
    assert set(np.lib._datasource._file_openers.keys()) - {None} \
        <= set(dio._COMPRESSED_SUFFIXES)


@pytest.mark.parametrize("name", ["pts.csv", "pts.csv.gz", "pts.csv.bz2", "pts.csv.xz",
                                  "pts.csv.lzma"])
def test_load_csv_by_name_or_lines(tmp_path, monkeypatch, name):
    # a plain-text file loads the same whatever its suffix: numpy reads it by
    # its absolute name, or from its lines where numpy would decompress it
    path = tmp_path / name
    path.write_bytes(FIXTURE_CSV.read_bytes())
    sources = _loadtxt_sources(monkeypatch)
    got = load_points(path, "csv", text_col="text")
    assert sources[0] == str(path) if name == "pts.csv" else not isinstance(sources[0], str)
    want = load_points(FIXTURE_CSV, "csv", text_col="text")
    assert [a.tobytes() for a in (got.xs, got.ys, got.weights)] == \
        [a.tobytes() for a in (want.xs, want.ys, want.weights)]
    assert got.texts == want.texts
    assert _label_bytes(tmp_path, path) == \
        (DATA / "two_gaussians_golden_labels.json").read_bytes()


@pytest.mark.parametrize("quote", [False, True], ids=["column_wise", "row_by_row"])
def test_load_csv_with_byte_order_mark(tmp_path, monkeypatch, quote):
    # Excel's "CSV UTF-8" files begin with the byte-order mark EF BB BF
    data = FIXTURE_CSV.read_bytes()
    if quote:  # a quote character sends the file down the row-by-row path
        data = data.replace(b",alpha\n", b',"alpha"\n')
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(data)
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    sources = _loadtxt_sources(monkeypatch)
    assert _load_outcome(marked, False, text_col="text") == \
        _load_outcome(FIXTURE_CSV, False, text_col="text")
    assert (str(marked) in sources) != quote
    for path in (plain, marked):
        assert main(["cluster", "--input", str(path),
                     "--output", str(path.with_suffix(".json"))]) == 0
    assert marked.with_suffix(".json").read_bytes() == plain.with_suffix(".json").read_bytes()


def test_load_csv_url_like_relative_name_stays_local(tmp_path, monkeypatch):
    # `http://h/pts.csv` is a relative path; numpy would fetch the URL
    local = tmp_path / "http:" / "h" / "pts.csv"
    local.parent.mkdir(parents=True)
    local.write_bytes(FIXTURE_CSV.read_bytes())
    monkeypatch.chdir(tmp_path)

    def no_network(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_network)
    sources = _loadtxt_sources(monkeypatch)
    got = load_points("http://h/pts.csv", "csv", text_col="text")
    assert sources == [str(local)]
    assert got.texts == load_points(FIXTURE_CSV, "csv", text_col="text").texts
    assert _label_bytes(tmp_path, "http://h/pts.csv") == \
        (DATA / "two_gaussians_golden_labels.json").read_bytes()


def _per_row_outcome(tmp_path, data, **cols):
    """What load_points gives for `data` on the per-row path alone."""
    path = tmp_path / "first.csv"
    path.write_bytes(data)
    return _load_outcome(path, True, **cols)


_FIRST = b"x,y,t\n1,2,a\n3,4,b\n"


@pytest.mark.parametrize("change", ["stat-size", "rewrite", "same-size-rewrite",
                                    "removed"])
def test_load_csv_file_changed_between_reads(tmp_path, monkeypatch, change):
    # numpy reads the file a second time; if it is not the file the first
    # read saw, the per-row path reads the first bytes
    path = tmp_path / "pts.csv"
    path.write_bytes(_FIRST)
    want = _per_row_outcome(tmp_path, _FIRST, text_col="t")
    loadtxt, stat, per_row = np.loadtxt, os.stat, []

    def change_file(fname, *args, **kwargs):
        if change == "rewrite":
            path.write_bytes(b"x,y,t\n5,6,c\n")
        elif change == "same-size-rewrite":  # the same size, a later mtime
            mtime = path.stat().st_mtime_ns
            path.write_bytes(_FIRST.replace(b"a", b"z"))
            os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        elif change == "removed":
            path.unlink()
        return loadtxt(fname, *args, **kwargs)

    def other_size(name, *args, **kwargs):
        st = stat(name, *args, **kwargs)
        if name != str(path):
            return st
        return os.stat_result((*st[:6], st.st_size + 1, *st[7:]), {
            k: getattr(st, k) for k in ("st_atime_ns", "st_mtime_ns", "st_ctime_ns")})

    def iter_csv(*args):
        per_row.append(args)
        return iter_rows(*args)

    iter_rows = dio._iter_csv
    monkeypatch.setattr(dio.np, "loadtxt", change_file)
    monkeypatch.setattr(dio, "_iter_csv", iter_csv)
    if change == "stat-size":
        monkeypatch.setattr(os, "stat", other_size)
    assert _load_outcome(path, False, text_col="t") == want
    assert len(per_row) == 1


def test_load_csv_from_a_pipe_reads_it_once(tmp_path):
    # a named pipe is read once: numpy opening it again would block or see
    # nothing
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    path = tmp_path / "pts.fifo"
    os.mkfifo(path)
    data = FIXTURE_CSV.read_bytes()
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    result = []
    reader = threading.Thread(daemon=True, target=lambda: result.append(
        load_points(path, "csv", text_col="text")))
    reader.start()
    reader.join(30)
    assert result, "load_points did not return"
    writer.join(30)
    assert not writer.is_alive()
    assert result[0].texts == load_points(FIXTURE_CSV, "csv", text_col="text").texts


# ------------------------------------------------------------------ dumps

def test_density_dump_round_trip(tmp_path):
    vp = Viewport(0, 3, 0, 2, 3, 2)
    dm = DensityMap(vp, np.array([[0.0, 1.5, 2.0], [3.0, 0.25, 5.0]]))
    path = tmp_path / "d.bin"
    write_density_dump(path, dm)
    w, h, vals = read_density_dump(path)
    assert (w, h) == (3, 2)
    assert np.array_equal(vals, dm.values.astype(np.float32))
    assert path.stat().st_size == 8 + 4 * 6


def test_density_dump_truncated(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(b"\x03\x00\x00\x00\x02\x00\x00\x00\x00\x00")
    with pytest.raises(DataError):
        read_density_dump(path)
    for bad in (math.nan, math.inf, -1.0):
        path.write_bytes(_dump_bytes(2, 1, [0.5, bad]))
        with pytest.raises(DataError):
            read_density_dump(path)


def _dump_bytes(w, h, values):
    return np.array([w, h], "<u4").tobytes() + np.array(values, "<f4").tobytes()


def test_cluster_document_validation(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        read_cluster_document(path)
    path.write_text(json.dumps({"viewport": {}}))
    with pytest.raises(DataError, match="viewport.x_min"):
        read_cluster_document(path)
    doc = json.load(open(DATA / "two_gaussians_clusters.json"))
    del doc["clusters"][0]["outer"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=r"clusters\[0\].outer"):
        read_cluster_document(path)


@pytest.mark.parametrize("index, fault, message", [
    pytest.param(2, lambda c: {**c, "color": "1"},
                 "cluster JSON: field clusters[2].color has wrong type", id="color_text"),
    pytest.param(1, lambda c: {k: v for k, v in c.items() if k != "peak"},
                 "cluster JSON: missing field clusters[1].peak", id="no_peak"),
    pytest.param(0, lambda c: [c["id"]],
                 "cluster JSON: missing field clusters[0].id", id="not_an_object")])
def test_cluster_document_names_the_first_bad_field(tmp_path, index, fault, message):
    doc = json.load(open(DATA / "two_gaussians_clusters.json"))
    clusters = doc["clusters"]
    clusters.append({**clusters[0], "id": 1 + max(c["id"] for c in clusters)})
    assert len(clusters) == 3
    clusters[index] = fault(clusters[index])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        read_cluster_document(path)
    assert str(err.value) == message


# ------------------------------------------------------------------ CLI

def test_cli_cluster_fixture_two_clusters(tmp_path, capsys):
    out = tmp_path / "clusters.json"
    rc = main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
               "--height", "128", "--output", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "clusters=2" in summary and "pixels=16384" in summary
    assert re.search(r" load_ms=\d+\.\d kde_ms=", summary)
    doc = read_cluster_document(out)
    assert len(doc.clusters) == 2
    for c in doc.clusters:
        assert c.rects and c.outer
        assert 0 <= c.color < 10


def test_cli_exit_codes(tmp_path):
    assert main(["cluster", "--input", "/does/not/exist.csv",
                 "--output", str(tmp_path / "x.json")]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    assert main(["cluster", "--input", str(empty),
                 "--output", str(tmp_path / "x.json")]) == 3
    assert main(["cluster"]) == 1                       # missing --input
    assert main(["nonsense"]) == 1                      # unknown command
    assert main(["cluster", "--input", str(empty), "--format", "xml",
                 "--output", str(tmp_path / "x.json")]) == 1
    assert main(["sql", "--cluster-json",
                 str(DATA / "two_gaussians_clusters.json"),
                 "--cluster-id", "99999"]) == 3
    assert main(["bench", "--sizes", "32"]) == 1        # sizes must be >= 64
    assert main(["bench", "--sizes", "64", "--points", "-5"]) == 1
    assert main(["bench", "--sizes", "64", "--seed", "-1"]) == 1


_DEEP = b"[" * 200_000
_LONG_INT = b'{"x": ' + b"1" * 5000 + b', "y": 2}'  # beyond int's str limit
_DOC_BYTES = (DATA / "two_gaussians_clusters.json").read_bytes()
_NON_UTF8_DOC = _DOC_BYTES[:1] + b"\xff" + _DOC_BYTES[1:]
_POINTS = ["--input", "{f}", "--output", "{out}"]
_LABEL = ["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
          "--output", "{out}", "--cluster-json", "{f}"]
_CONFIG = ["cluster", "--input", str(FIXTURE_CSV), "--output", "{out}",
           "--config", "{f}"]


@pytest.mark.parametrize("argv, data, rc, message", [
    (["cluster", *_POINTS], b"x,y\n1,2\n\xff,3\n", 3, "not UTF-8 text"),
    (["cluster", "--format", "jsonl", *_POINTS], b'{"x":1,"y":2}\n\xff\n', 3,
     "not UTF-8 text"),
    (["cluster", "--format", "jsonl", *_POINTS], b'{"x":1,"y":2}\n' + _DEEP, 3,
     "1 of 2 rows malformed (first at row 2)"),
    (["cluster", "--format", "jsonl", *_POINTS], b'{"x":1,"y":2}\n' + _LONG_INT,
     3, "1 of 2 rows malformed (first at row 2)"),
    (["cluster", "--format", "jsonl", *_POINTS],
     b'{"x":1,"y":2}\n{"x":1' + b"0" * 400 + b',"y":2}\n', 3,
     "1 of 2 rows malformed (first at row 2)"),
    (["render", "--output", "{out}", "--cluster-json", "{f}"], _NON_UTF8_DOC, 3,
     "not valid JSON"),
    (["sql", "--cluster-id", "92", "--cluster-json", "{f}"], _NON_UTF8_DOC, 3,
     "not valid JSON"),
    (_LABEL, _NON_UTF8_DOC, 3, "not valid JSON"),
    (["sql", "--cluster-id", "92", "--cluster-json", "{f}"], _DEEP, 3,
     "not valid JSON"),
    (["sql", "--cluster-id", "92", "--cluster-json", "{f}"], _LONG_INT, 3,
     "not valid JSON"),
    (_CONFIG, b'{"width": 32\xff}', 1, "not valid JSON"),
    (_CONFIG, _DEEP, 1, "not valid JSON"),
    (_CONFIG, _LONG_INT, 1, "not valid JSON"),
    (["render", "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
      "--output", "{out}", "--underlay", "{f}"], b"\x40\x00\x00\x00\x40", 3,
     "density dump: truncated header"),
], ids=["csv_non_utf8", "jsonl_non_utf8", "jsonl_deep_row", "jsonl_long_int_row",
        "jsonl_huge_int_row", "render_non_utf8", "sql_non_utf8", "label_non_utf8", "sql_deep_doc",
        "sql_long_int_doc", "config_non_utf8", "config_deep", "config_long_int",
        "underlay_short_header"])
def test_cli_bad_input_bytes_exit_without_traceback(tmp_path, capsys, argv, data,
                                                    rc, message):
    bad = tmp_path / "input"
    bad.write_bytes(data)
    argv = [a.format(f=bad, out=tmp_path / "out") for a in argv]
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["label", "--input", str(FIXTURE_CSV), "--text-col", "text", "--top-k", "0",
      "--cluster-json", str(DATA / "two_gaussians_clusters.json"), "--output", "{out}"],
     "--top-k must be >= 1"),
    (["cluster", "--input", str(FIXTURE_CSV)], "--output is required"),
    (["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
      "--cluster-json", str(DATA / "two_gaussians_clusters.json")],
     "--output is required"),
    (["bench", "--sizes", ","], "--sizes must name at least one grid size"),
    (["bench", "--sizes", "x"], "bad --sizes value: 'x'"),
    (["bench", "--repeats", "0"], "--repeats must be >= 1"),
    (["sql", "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
      "--cluster-id", "92", "--x-col", "select"],
     "column identifier is an SQL keyword: 'select'"),
    (["sql", "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
      "--cluster-id", "92", "--y-col", "null"],
     "column identifier is an SQL keyword: 'null'"),
    # the column names are checked before the document is read
    (["sql", "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
      "--cluster-id", "7", "--x-col", "select"],
     "column identifier is an SQL keyword: 'select'"),
    (["sql", "--cluster-json", "{out}", "--cluster-id", "7", "--x-col", "select"],
     "column identifier is an SQL keyword: 'select'"),
], ids=["label_top_k_0", "cluster_no_output", "label_no_output", "bench_no_sizes",
        "bench_bad_sizes", "bench_repeats_0", "sql_x_col_select", "sql_y_col_null",
        "sql_bad_col_unknown_cluster", "sql_bad_col_missing_document"])
def test_cli_usage_errors_exit_1(tmp_path, capsys, argv, message):
    assert main([a.format(out=tmp_path / "out") for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_scipy_out():
    # only smooth needs scipy; render, label and sql must not pay to import it
    src = pathlib.Path(densitycluster.__file__).parents[1]
    code = "import sys, densitycluster.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_cluster_imports_scipy_before_the_kde_clock(tmp_path):
    # kde_ms times smooth; the lazy scipy import must happen before it starts
    src = pathlib.Path(densitycluster.__file__).parents[1]
    code = (
        "import sys, densitycluster.cli as cli\n"
        "inner = cli.smooth\n"
        "def smooth(*args):\n"
        "    assert 'scipy.ndimage' in sys.modules\n"
        "    return inner(*args)\n"
        "cli.smooth = smooth\n"
        f"sys.exit(cli.main(['cluster', '--input', {str(FIXTURE_CSV)!r},"
        f" '--output', {str(tmp_path / 'c.json')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "kde_ms=" in run.stdout


def test_bench_imports_scipy_before_the_first_clock():
    # bench's first kde_ms sample must not include the lazy scipy import
    src = pathlib.Path(densitycluster.__file__).parents[1]
    code = (
        "import sys, time\n"
        "from densitycluster import synth\n"
        "seen = []\n"
        "clock = time.perf_counter\n"
        "def recorder():\n"
        "    seen.append('scipy.ndimage' in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = recorder\n"
        "synth.bench_run([64], 1, 0, 100)\n"
        "sys.exit(0 if seen and seen[0] else 'scipy imported after the first clock')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _invert_viewport(doc):
    vp = doc["viewport"]
    vp["x_min"], vp["x_max"] = vp["x_max"], vp["x_min"]


def _three_number_rect(doc):
    doc["clusters"][0]["rects"][0] = doc["clusters"][0]["rects"][0][:3]


@pytest.mark.parametrize("fault", [_invert_viewport, _three_number_rect],
                         ids=["inverted_viewport", "three_number_rect"])
@pytest.mark.parametrize("command", ["render", "sql", "label"])
def test_cli_bad_cluster_document_is_data_error(tmp_path, command, fault):
    doc = json.load(open(DATA / "two_gaussians_clusters.json"))
    fault(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "render": ["render", "--output", str(tmp_path / "out.svg")],
        "sql": ["sql", "--cluster-id", str(doc["clusters"][0]["id"])],
        "label": ["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
                  "--output", str(tmp_path / "labels.json")],
    }[command]
    assert main(argv + ["--cluster-json", str(bad)]) == 3


_FIXTURE_DOC = json.loads((DATA / "two_gaussians_clusters.json").read_text())


def _mutate(doc, path, value):
    """Replace (or, for "delete", remove) the item at a key/index path of a
    JSON document in place."""
    for key in path[:-1]:
        doc = doc[key]
    if value == "delete":
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("clusters", 0, "outer", 0), [1.0]),          # 1-coordinate vertex
    (("clusters", 0, "color"), "1"),
    (("clusters", 0, "color"), 1.5),
    (("clusters", 0, "id"), "92"),
    (("clusters", 0, "holes"), [[1.0, 2.0]]),      # holes not nested
    (("clusters", 0, "rects", 0, 2), math.nan),
    (("clusters", 1, "id"), 92),                   # duplicate id
    (("space",), "polar"),
    (("clusters", 0, "color"), -1),
    (("viewport", "width"), 512.7),
    (("viewport", "width"), True),
    (("viewport", "width"), "64"),
], ids=["short_vertex", "str_color", "float_color", "str_id", "flat_holes",
        "nan_rect", "duplicate_id", "polar_space", "negative_color",
        "viewport_width_float", "viewport_width_bool", "viewport_width_str"])
@pytest.mark.parametrize("command", ["render", "sql", "label"])
def test_cli_malformed_cluster_fields_are_data_errors(tmp_path, command, path,
                                                      value):
    doc = json.loads(json.dumps(_FIXTURE_DOC))
    _mutate(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_doc_argv(command, tmp_path) + ["--cluster-json", str(bad)]) == 3


@pytest.mark.parametrize("path, value, what", [
    (("clusters", 0, "outer", 0), [False, 44.5], "vertex"),
    (("clusters", 0, "rects", 0, 0), False, "rect"),
    (("clusters", 0, "outer", 0), [10**400, -10**400], "vertex"),
    (("clusters", 0, "rects", 0), [10**400, -10**400, 90.0, 45.0], "rect"),
], ids=["bool_vertex", "bool_rect", "cancelling_huge_ints_vertex",
        "cancelling_huge_ints_rect"])
@pytest.mark.parametrize("command", ["render", "sql", "label"])
def test_cli_coordinates_that_are_no_finite_floats_are_data_errors(
        tmp_path, capsys, command, path, value, what):
    # booleans pass a sum, and so do huge ints that cancel in it; neither
    # converts to a finite float coordinate
    doc = json.loads(json.dumps(_FIXTURE_DOC))
    _mutate(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_doc_argv(command, tmp_path) + ["--cluster-json", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"every {what} must be" in err and "Traceback" not in err


def _write_with_literal(doc, path, literal, out):
    """Write `doc` with the item at `path` spelled as the raw JSON `literal`
    (json.dumps has no spelling for 1e400)."""
    doc = json.loads(json.dumps(doc))
    _mutate(doc, path, "\x01")
    out.write_text(json.dumps(doc).replace('"\\u0001"', literal))


_NON_FINITE = ["1e400", "-1e400", "NaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("literal", _NON_FINITE)
@pytest.mark.parametrize("path, what", [
    (("clusters", 0, "outer", 3, 1), "vertex"),
    (("clusters", 0, "rects", 2, 0), "rect"),
])
@pytest.mark.parametrize("command", ["render", "sql", "label"])
def test_cli_non_finite_coordinates_are_data_errors(tmp_path, capsys, command,
                                                    path, what, literal):
    bad = tmp_path / "bad.json"
    _write_with_literal(_FIXTURE_DOC, path, literal, bad)
    assert main(_doc_argv(command, tmp_path) + ["--cluster-json", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"every {what} must be" in err and "Traceback" not in err


@pytest.mark.parametrize("path, literal", [
    (("clusters", 0, "peak", "density"), "NaN"),
    (("params", "bandwidth_px"), "Infinity"),
    (("params", "bandwidth_px"), "1e400"),
], ids=["nan_peak_density", "infinity_param", "huge_param"])
@pytest.mark.parametrize("command", ["render", "sql", "merge"])
def test_cli_non_finite_outside_geometry_is_accepted(tmp_path, capsys, command,
                                                     path, literal):
    # only the geometry is checked for finite numbers; `label --merge` writes
    # the non-finite value back as it read it
    doc_path = tmp_path / "doc.json"
    _write_with_literal(_FIXTURE_DOC, path, literal, doc_path)
    assert main(_doc_argv(command, tmp_path) + ["--cluster-json", str(doc_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    if command == "merge":
        merged = json.loads((tmp_path / "merged.json").read_text())
        value = merged
        for key in path:
            value = value[key]
        assert math.isnan(value) if literal == "NaN" else value == math.inf
        assert all("label" in c for c in merged["clusters"])


def test_cli_sql_cluster_without_rects_is_data_error(tmp_path, capsys):
    # an empty cover is a fault of the document: exit 3, not the usage code 1
    doc = json.loads(json.dumps(_FIXTURE_DOC))
    _mutate(doc, ("clusters", 0, "rects"), [])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_doc_argv("sql", tmp_path) + ["--cluster-json", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "cluster 92 has no rectangles to emit" in err and "Traceback" not in err


def test_cli_cluster_unallocatable_grid_is_data_error(tmp_path, capsys):
    # each grid or kernel exceeds any address space, so it fails before
    # anything of its size is allocated: a 10**8 x 10**8 grid, grids whose
    # pixel count overflows int64, and a kernel wider than int64 can count
    for flags in (["--width", "100000000", "--height", "100000000"],
                  ["--width", "4294967296", "--height", "4294967296"],
                  ["--width", "99999999999999999999", "--height", "8"],
                  ["--bandwidth", "1e300"]):
        assert main(["cluster", "--input", str(FIXTURE_CSV), *flags,
                     "--output", str(tmp_path / "c.json")]) == 3, flags
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "Traceback" not in err


def _narrow_x_rows():
    # 2,000 x values within 1e-5 of 1e10, where a float's step is about 2e-6
    rng = np.random.default_rng(0)
    return list(zip((1e10 + rng.uniform(0, 1e-5, 2000)).tolist(),
                    rng.uniform(0, 1, 2000).tolist()))


@pytest.mark.parametrize("rows, size, message", [
    ([(-1e308, 0), (1e308, 1), (0, 0.5)], 64, "must be finite"),
    ([(0, 0), (5e-324, 1)], 64, "too narrow"),
    (_narrow_x_rows(), 1000, "too narrow"),
], ids=["extents_overflow", "subnormal_x_range", "narrow_x_at_1e10"])
def test_cli_points_box_without_a_usable_grid_is_data_error(tmp_path, capsys, rows,
                                                            size, message):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    argv = ["cluster", "--input", str(pts), "--output", str(tmp_path / "c.json"),
            "--width", str(size), "--height", "64"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("span, code", [(0.3, 3), (64.0, 3), (72.0, 0)])
@pytest.mark.parametrize("command", ["render", "sql", "label"])
def test_cli_document_viewport_pixel_step_bound(tmp_path, capsys, command, span,
                                                code):
    # near 1e15 an ulp is 0.125, and the bound asks for a step above 8 ulp:
    # over 64 pixels a span of 64 gives a step of 8 ulp, 72 one of 9 ulp
    path = tmp_path / "px.json"
    assert main(["cluster", "--input", str(FIXTURE_CSV), "--width", "64",
                 "--height", "64", "--pixel-space", "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["viewport"].update(x_min=1e15, x_max=1e15 + span)
    path.write_text(json.dumps(doc))
    argv = {
        "render": ["render", "--output", str(tmp_path / "out.svg")],
        "sql": ["sql", "--cluster-id", str(doc["clusters"][0]["id"])],
        "label": ["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
                  "--output", str(tmp_path / "labels.json")],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--cluster-json", str(path)]) == code
    err = capsys.readouterr().err
    assert ("too narrow for the grid" in err) == (code == 3)
    assert "Traceback" not in err


def test_cli_label_huge_viewport_reads_rects_only(tmp_path):
    # label looks documents up among the rects; the viewport's grid size is
    # never allocated, so a 10**8 x 10**8 viewport labels as the fixture does
    doc = json.loads(json.dumps(_FIXTURE_DOC))
    doc["viewport"]["width"] = doc["viewport"]["height"] = 10**8
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    labels = []
    for path in (DATA / "two_gaussians_clusters.json", huge):
        argv = _doc_argv("label", tmp_path) + ["--cluster-json", str(path)]
        assert main(argv) == 0
        labels.append((tmp_path / "labels.json").read_bytes())
    assert labels[0] == labels[1]


def test_cli_label_rect_beyond_float_range_assigns(tmp_path, capsys):
    # a rect bound that passes validation but overflows when mapped to pixels
    doc = json.loads(json.dumps(_FIXTURE_DOC))
    doc["clusters"][0]["rects"][0] = [3.0, -1e308, 4.0, 5.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_doc_argv("label", tmp_path) + ["--cluster-json", str(bad)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def _doc_argv(command, out_dir):
    return {
        "render": ["render", "--output", str(out_dir / "out.svg")],
        "sql": ["sql", "--cluster-id", "92"],
        "label": ["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
                  "--output", str(out_dir / "labels.json")],
        "merge": ["label", "--input", str(FIXTURE_CSV), "--text-col", "text", "--merge",
                  "--output", str(out_dir / "merged.json")],
    }[command]


def _mutation_paths(node, path=()):
    """Key/index paths to every field, plus the first and last vertex, ring
    or rect of each list and their numbers."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node:
        items = {0: node[0], len(node) - 1: node[-1]}.items()
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(path + (key,))
        paths.extend(_mutation_paths(child, path + (key,)))
    return paths


_BAD_VALUES = [None, True, "x", -1, 1.5, math.nan, math.inf, [1.0], {}]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(path=st.sampled_from(_mutation_paths(_FIXTURE_DOC)),
       value=st.sampled_from(["delete"] + _BAD_VALUES))
def test_cli_single_field_mutation_never_raises(tmp_path_factory, path, value):
    doc = json.loads(json.dumps(_FIXTURE_DOC))
    _mutate(doc, path, value)
    out_dir = tmp_path_factory.mktemp("mutation")
    mutated = out_dir / "doc.json"
    mutated.write_text(json.dumps(doc))
    for command in ("render", "sql", "label"):
        argv = _doc_argv(command, out_dir) + ["--cluster-json", str(mutated)]
        assert main(argv) in (0, 3), (command, path, value)


_GRID = ["--width", "32", "--height", "32", "--bandwidth", "1"]


@pytest.fixture(scope="module")
def byte_inputs(tmp_path_factory):
    """One small valid file of each input kind, and the commands reading it;
    '{f}' is the (mutated) file and '{d}' a directory for outputs. Grid size
    and bandwidth are flags, which config values cannot override."""
    d = tmp_path_factory.mktemp("inputs")
    csv_text = "".join(FIXTURE_CSV.read_text().splitlines(True)[::50])  # 200 rows
    (d / "pts.csv").write_text(csv_text)
    rows = [dict(zip(("x", "y", "text"), line.split(",")))
            for line in csv_text.splitlines()[1:]]
    jsonl = "".join(json.dumps({"x": float(r["x"]), "y": float(r["y"]),
                                "text": r["text"]}) + "\n" for r in rows)
    config = json.dumps({"merge_distance": 8.0, "truncation_ratio": 0.1,
                         "connectivity": 8, "palette": 10, "text_col": "text"})
    assert main(["cluster", "--input", str(d / "pts.csv"), *_GRID, "--output",
                 str(d / "c.json"), "--density-out", str(d / "d.bin")]) == 0
    cid = str(read_cluster_document(d / "c.json").clusters[0].id)
    out = ["--output", "{d}/out"]
    points = ["--input", "{f}", "--text-col", "text", *out]
    doc = ["--cluster-json", str(d / "c.json")]
    return {
        "csv": (csv_text.encode(), [["cluster", *points, *_GRID],
                                    ["label", *points, *doc]]),
        "jsonl": (jsonl.encode(), [["cluster", "--format", "jsonl", *points, *_GRID],
                                   ["label", "--format", "jsonl", *points, *doc]]),
        "cluster_json": ((d / "c.json").read_bytes(), [
            ["render", "--cluster-json", "{f}", *out],
            ["render", "--cluster-json", "{f}", "--underlay", str(d / "d.bin"), *out],
            ["sql", "--cluster-json", "{f}", "--cluster-id", cid],
            ["label", "--input", str(d / "pts.csv"), "--text-col", "text",
             "--cluster-json", "{f}", *out]]),
        "config": (config.encode(), [
            ["cluster", "--config", "{f}", "--input", str(d / "pts.csv"), *_GRID, *out],
            ["label", "--config", "{f}", "--input", str(d / "pts.csv"), *doc, *out]]),
        "density_dump": ((d / "d.bin").read_bytes(), [
            ["render", *doc, "--underlay", "{f}", *out]]),
    }


# (operation, position, bit to flip, byte to insert); number bytes are
# inserted often so that many mutants still parse
_BYTE_EDITS = st.lists(st.tuples(
    st.sampled_from(["flip", "insert", "truncate"]), st.integers(0, 2**20),
    st.integers(0, 7), st.one_of(st.sampled_from(b"0123456789-.e"),
                                 st.integers(0, 255))), min_size=1, max_size=3)


@pytest.mark.filterwarnings("ignore:skipped")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(["csv", "jsonl", "cluster_json", "config",
                             "density_dump"]), edits=_BYTE_EDITS)
def test_cli_byte_mutation_never_raises(tmp_path_factory, byte_inputs, kind, edits):
    """Flipped, inserted or cut bytes in any input: an exit code, never a raise."""
    data, commands = byte_inputs[kind]
    data = bytearray(data)
    for op, pos, bit, byte in edits:
        i = pos % (len(data) + 1)
        if op == "flip" and i < len(data):
            data[i] ^= 1 << bit
        elif op == "insert":
            data.insert(i, byte)
        else:
            del data[i:]
    d = tmp_path_factory.mktemp("mutation")
    (d / "input").write_bytes(bytes(data))
    for argv in commands:
        argv = [a.format(f=d / "input", d=d) for a in argv]
        assert main(argv) in (0, 1, 2, 3), (kind, argv)


def test_cli_render_pixel_space_matches_data_space(tmp_path):
    svgs = []
    for flags in ([], ["--pixel-space"]):
        doc = tmp_path / f"c{len(flags)}.json"
        svg = tmp_path / f"c{len(flags)}.svg"
        assert main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
                     "--height", "128", "--output", str(doc)] + flags) == 0
        assert main(["render", "--cluster-json", str(doc),
                     "--output", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]


def test_cli_render_golden_bytes(tmp_path):
    svg = tmp_path / "out.svg"
    rc = main(["render", "--cluster-json",
               str(DATA / "two_gaussians_clusters.json"),
               "--output", str(svg)])
    assert rc == 0
    assert svg.read_bytes() == GOLDEN_SVG.read_bytes()


def test_cli_cluster_golden_bytes(tmp_path):
    out = tmp_path / "c.json"
    assert main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
                 "--height", "128", "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / "two_gaussians_clusters.json").read_bytes()


def _reference_document(dm, params, space) -> str:
    """The cluster JSON of a density map, built one shape at a time through
    shape_for_cluster and to_data_space and encoded by json.dumps."""
    from densitycluster.clustering import cluster_density_map
    from densitycluster.geometry import shape_for_cluster, to_data_space
    from conftest import dict_greedy_colors

    vp = dm.viewport
    cmap, graph = cluster_density_map(dm, params)
    colors = dict_greedy_colors(graph, 10)
    clusters = []
    for cid, node in sorted(graph.nodes.items()):
        shape = shape_for_cluster(cmap, cid, params.connectivity)
        px, py = node.peak_xy
        if space == "data":
            shape = to_data_space(shape, vp)
            peak = {"x": vp.x_min + (px + 0.5) * vp.sx,
                    "y": vp.y_min + (py + 0.5) * vp.sy}
        else:
            peak = {"x": float(px), "y": float(py)}
        clusters.append({
            "id": cid, "peak": {**peak, "density": node.peak_density},
            "area_px": node.area_px,
            "outer": [list(v) for v in shape.outer.vertices],
            "holes": [[list(v) for v in h.vertices] for h in shape.holes],
            "rects": [list(r) for r in shape.rects], "color": colors[cid]})
    doc = {"space": space,
           "viewport": {"x_min": vp.x_min, "x_max": vp.x_max, "y_min": vp.y_min,
                        "y_max": vp.y_max, "width": vp.width, "height": vp.height},
           "params": {"truncation_ratio": params.truncation_ratio,
                      "merge_distance_px": params.merge_distance_px,
                      "connectivity": params.connectivity,
                      "min_peak_density": params.min_peak_density,
                      "bandwidth_px": 0.0},
           "clusters": clusters}
    return json.dumps(doc, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("space", ["data", "pixel"])
def test_cli_cluster_document_matches_per_shape_reference(tmp_path, fixture_corpus,
                                                          space, connectivity):
    # `cluster` on each corpus map: the viewport and the smoothed density are
    # the map's, whatever the (one-point) input file
    from dataclasses import replace

    points = tmp_path / "p.csv"
    points.write_text("x,y\n0.5,0.5\n")
    out = tmp_path / "c.json"
    for name, dm, params in fixture_corpus:
        params = replace(params, connectivity=connectivity)
        flags = ["--width", str(dm.width), "--height", str(dm.height),
                 "--bandwidth", "0", "--connectivity", str(connectivity),
                 "--truncation-ratio", repr(params.truncation_ratio),
                 "--merge-distance", repr(params.merge_distance_px),
                 "--min-peak-density", repr(params.min_peak_density)]
        if space == "pixel":
            flags.append("--pixel-space")
        with mock.patch("densitycluster.cli.auto_viewport", lambda *a: dm.viewport), \
                mock.patch("densitycluster.cli.smooth", lambda *a: dm):
            assert main(["cluster", "--input", str(points), "--output", str(out),
                         *flags]) == 0, name
        assert out.read_text() == _reference_document(dm, params, space), name


def test_cli_render_underlay_and_mismatch(tmp_path, capsys):
    out = tmp_path / "c.json"
    dump = tmp_path / "d.bin"
    main(["cluster", "--input", str(FIXTURE_CSV), "--width", "64",
          "--height", "64", "--output", str(out), "--density-out", str(dump)])
    svg = tmp_path / "u.svg"
    assert main(["render", "--cluster-json", str(out), "--output", str(svg),
                 "--underlay", str(dump)]) == 0
    body = svg.read_text()
    assert "data:image/png;base64," in body
    # mismatched grid is a data error
    assert main(["render", "--cluster-json",
                 str(DATA / "two_gaussians_clusters.json"),
                 "--output", str(svg), "--underlay", str(dump)]) == 3
    # so are non-finite or negative density values
    for bad in (math.nan, math.inf, -1.0):
        dump.write_bytes(_dump_bytes(64, 64, [bad] + [0.0] * (64 * 64 - 1)))
        assert main(["render", "--cluster-json", str(out), "--output", str(svg),
                     "--underlay", str(dump)]) == 3


def test_cli_cluster_warns_of_color_conflicts(tmp_path, capsys):
    # 110 clusters kept apart by merge distance 0 cannot share one color
    assert main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
                 "--height", "128", "--merge-distance", "0", "--palette", "1",
                 "--output", str(tmp_path / "c.json")]) == 0
    err = capsys.readouterr().err
    assert err == "warning: 195 adjacent cluster pair(s) share a color\n"


def test_cli_render_one_path_per_cluster_distinct_adjacent_colors(tmp_path):
    # adjacent clusters: the 6 px pair kept apart with merge distance 0
    from densitycluster.clustering import ClusterParams, cluster_density_map
    from densitycluster.geometry import color_clusters
    from densitycluster.io import cluster_document, write_json
    from conftest import two_gauss_near

    dm = two_gauss_near()
    params = ClusterParams(merge_distance_px=0.0)
    cmap, graph = cluster_density_map(dm, params)
    assert len(graph.nodes) == 2 and graph.edges  # still touching after truncation
    colors = color_clusters(graph, 10)
    cluster_json = tmp_path / "near.json"
    write_json(cluster_json, cluster_document(dm.viewport, params, 0.0, cmap, graph,
                                              colors))

    svg = tmp_path / "g.svg"
    main(["render", "--cluster-json", str(cluster_json), "--output", str(svg)])
    body = svg.read_text()
    assert body.count("<path") == 2
    fills = [seg.split('"')[0] for seg in body.split('fill="')[1:]]
    assert len(set(fills)) == 2

    # one cluster -> exactly one path element
    cmap1, graph1 = cluster_density_map(dm, ClusterParams(merge_distance_px=8.0))
    assert len(graph1.nodes) == 1
    one_json = tmp_path / "one.json"
    write_json(one_json, cluster_document(dm.viewport, ClusterParams(), 0.0, cmap1,
                                          graph1, color_clusters(graph1, 10)))
    svg1 = tmp_path / "one.svg"
    main(["render", "--cluster-json", str(one_json), "--output", str(svg1)])
    assert svg1.read_text().count("<path") == 1


_UNIFORM_FLAGS = ["--width", "250", "--height", "250", "--bandwidth", "1",
                  "--merge-distance", "0"]


@pytest.fixture(scope="module")
def uniform_inputs(tmp_path_factory):
    """Seeded uniform points with a text column, clustered under a one-pixel
    kernel and never merged: over a thousand clusters. Returns the CSV, the
    document and its density dump."""
    d = tmp_path_factory.mktemp("uniform")
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(0.0, 250.0, (2, 12_500)).tolist()
    words = np.array(["harbor", "violin", "basalt", "nebula", "ember"])[
        rng.integers(0, 5, 12_500)].tolist()
    points = d / "points.csv"
    points.write_text("x,y,text\n" + "".join(
        f"{x!r},{y!r},{w}\n" for x, y, w in zip(xs, ys, words)))
    doc, dump = d / "c.json", d / "d.bin"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["cluster", "--input", str(points), *_UNIFORM_FLAGS,
                     "--output", str(doc), "--density-out", str(dump)]) == 0
    assert "Traceback" not in err.getvalue()
    return points, doc, dump


def test_cli_many_clusters_round_trip(tmp_path, capsys, uniform_inputs):
    # over a thousand small clusters, through every document command
    points, doc_path, _ = uniform_inputs
    doc = read_cluster_document(doc_path)
    assert len(doc.clusters) > 1000
    again = tmp_path / "again.json"
    dio.write_json(again, doc)
    assert again.read_bytes() == doc_path.read_bytes()
    vp = doc.viewport
    for c in doc.clusters:
        px = np.rint((np.array(c.rects) - [vp.x_min, vp.y_min] * 2)
                     / ([vp.sx, vp.sy] * 2)).astype(int)
        assert ((px[:, 2] - px[:, 0]) * (px[:, 3] - px[:, 1])).sum() == c.area_px
    assert main(["render", "--cluster-json", str(doc_path),
                 "--output", str(tmp_path / "c.svg")]) == 0
    assert main(["label", "--input", str(points), "--text-col", "text",
                 "--cluster-json", str(doc_path),
                 "--output", str(tmp_path / "labels.json")]) == 0
    assert main(["sql", "--cluster-json", str(doc_path),
                 "--cluster-id", str(doc.clusters[-1].id)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_cluster_command_makes_no_records(tmp_path, monkeypatch, uniform_inputs):
    # `cluster` writes its document from columns, not one record per cluster
    points, doc_path, _ = uniform_inputs

    def no_record(*args, **kwargs):
        raise AssertionError("cluster made a ClusterRecord")

    monkeypatch.setattr(dio, "ClusterRecord", no_record)
    out = tmp_path / "c.json"
    assert main(["cluster", "--input", str(points), *_UNIFORM_FLAGS,
                 "--output", str(out)]) == 0
    assert out.read_bytes() == doc_path.read_bytes()


@pytest.mark.parametrize("space", ["data", "pixel"])
def test_many_cluster_documents_write_byte_identically(tmp_path, capsys,
                                                       uniform_inputs, space):
    # past a thousand clusters (the fixture corpus's largest map has 98), the
    # text `cluster` writes is json's bytes, and read back it writes them
    # again; the printed count is the document's record count
    points, _, _ = uniform_inputs
    first, again = tmp_path / "c.json", tmp_path / "again.json"
    assert main(["cluster", "--input", str(points), *_UNIFORM_FLAGS,
                 *(["--pixel-space"] if space == "pixel" else []),
                 "--output", str(first)]) == 0
    text = first.read_text()
    parsed = json.loads(text)
    assert parsed["space"] == space and len(parsed["clusters"]) > 1000
    assert re.search(r"\bclusters=(\d+) ", capsys.readouterr().out)[1] \
        == str(len(parsed["clusters"]))
    assert text == json.dumps(parsed, separators=(",", ":")) + "\n"
    dio.write_json(again, read_cluster_document(first))
    assert again.read_bytes() == first.read_bytes()


def test_many_cluster_labels_write_json_bytes(tmp_path, capsys, uniform_inputs):
    # past a thousand clusters, some of them holding no token, the labels
    # file is json's text of its rows, and the merged document, read back
    # with one label edited by hand, writes json's text of itself
    points, doc_path, _ = uniform_inputs
    doc = read_cluster_document(doc_path)
    batch = load_points(points, "csv", text_col="text")
    assignment = assign_documents(batch, [doc.rect_shape(c) for c in doc.clusters],
                                  doc.viewport)
    # every document of every seventh cluster says nothing but stopwords
    texts = list(batch.texts)
    for cid in sorted(assignment)[::7]:
        for i in assignment[cid].tolist():
            texts[i] = "the and"
    edited = tmp_path / "points.csv"
    edited.write_text("x,y,text\n" + "".join(
        f"{x!r},{y!r},{t}\n" for x, y, t in zip(batch.xs.tolist(), batch.ys.tolist(), texts)))
    labels, merged = tmp_path / "labels.json", tmp_path / "merged.json"
    argv = ["label", "--input", str(edited), "--text-col", "text",
            "--cluster-json", str(doc_path)]
    assert main([*argv, "--output", str(labels)]) == 0
    rows = [{"id": lr.cluster_id, "label": [[t, s] for t, s in lr.top_terms]}
            for lr in ctfidf_labels(assignment, texts, 5)]
    assert len(rows) > 1000 and sum(not row["label"] for row in rows) > 100
    assert labels.read_text() == json.dumps(rows, separators=(",", ":")) + "\n"

    assert main([*argv, "--merge", "--output", str(merged)]) == 0
    text = merged.read_text()
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    parsed = json.loads(text)
    parsed["clusters"][3]["label"] = [["caf\u00e9", 2], [["nested"], 0.5], "x", 1.25]
    by_hand, again = tmp_path / "by_hand.json", tmp_path / "again.json"
    by_hand.write_text(json.dumps(parsed))
    dio.write_json(again, read_cluster_document(by_hand))
    assert again.read_text() == json.dumps(parsed, separators=(",", ":")) + "\n"
    assert "Traceback" not in capsys.readouterr().err


def test_cluster_document_without_clusters(tmp_path, capsys):
    # a peak threshold above every density leaves no cluster: every command
    # reads and writes the empty list
    doc, again, labels, merged = (tmp_path / n for n in
                                  ("c.json", "again.json", "l.json", "m.json"))
    assert main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
                 "--height", "128", "--min-peak-density", "1e9",
                 "--output", str(doc)]) == 0
    assert capsys.readouterr().out.startswith("clusters=0 ")
    text = doc.read_text()
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    assert json.loads(text)["clusters"] == []
    dio.write_json(again, read_cluster_document(doc))
    assert again.read_bytes() == doc.read_bytes()
    assert main(["render", "--cluster-json", str(doc),
                 "--output", str(tmp_path / "c.svg")]) == 0
    assert capsys.readouterr().out.startswith("paths=0 ")
    label = ["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
             "--cluster-json", str(doc)]
    assert main([*label, "--output", str(labels)]) == 0
    assert labels.read_text() == "[]\n"
    assert main([*label, "--merge", "--output", str(merged)]) == 0
    assert merged.read_bytes() == doc.read_bytes()
    assert main(["sql", "--cluster-json", str(doc), "--cluster-id", "0"]) == 3


def test_cli_label_and_merge(tmp_path):
    clusters = tmp_path / "c.json"
    main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
          "--height", "128", "--output", str(clusters)])
    labels = tmp_path / "labels.json"
    rc = main(["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
               "--cluster-json", str(clusters), "--output", str(labels)])
    assert rc == 0
    rows = json.load(open(labels))
    tops = {row["id"]: row["label"][0][0] for row in rows}
    assert sorted(tops.values()) == ["alpha", "bravo"]
    # reruns are byte-identical
    labels2 = tmp_path / "labels2.json"
    main(["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
          "--cluster-json", str(clusters), "--output", str(labels2)])
    assert labels.read_bytes() == labels2.read_bytes()
    # --merge embeds labels in the cluster document
    merged = tmp_path / "merged.json"
    rc = main(["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
               "--cluster-json", str(clusters), "--output", str(merged),
               "--merge"])
    assert rc == 0
    doc = json.load(open(merged))
    assert all("label" in c for c in doc["clusters"])


@pytest.mark.parametrize("flags, golden", [
    ([], "two_gaussians_golden_labels.json"),
    (["--merge"], "two_gaussians_golden_merged.json"),
])
def test_cli_label_golden_bytes(tmp_path, flags, golden):
    out = tmp_path / "labels.json"
    assert main(["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
                 "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
                 "--output", str(out), *flags]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_cli_label_pixel_space_matches_data_space(tmp_path):
    # label reads a pixel-space document's rects through the viewport, as
    # `cluster` maps them for a data-space one
    labels, docs = [], []
    for flags in ([], ["--pixel-space"]):
        doc = tmp_path / f"c{len(flags)}.json"
        out = tmp_path / f"l{len(flags)}.json"
        assert main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
                     "--height", "128", "--output", str(doc)] + flags) == 0
        assert main(["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
                     "--cluster-json", str(doc), "--output", str(out)]) == 0
        labels.append(out.read_bytes())
        docs.append(read_cluster_document(doc))
    assert labels[0] == labels[1]
    for data, pixel in zip(*(d.clusters for d in docs)):
        shape = docs[1].rect_shape(pixel)
        assert shape.outer.vertices == () and shape.holes == []
        assert shape.rects == [tuple(r) for r in data.rects]


def test_cli_weight_col_changes_density(tmp_path):
    csv = tmp_path / "w.csv"
    csv.write_text("x,y,wt\n0.5,0.5,3\n1.5,0.5,1\n")
    out = tmp_path / "c.json"
    dump = tmp_path / "d.bin"
    rc = main(["cluster", "--input", str(csv), "--weight-col", "wt",
               "--bandwidth", "0", "--width", "8", "--height", "8",
               "--padding", "0", "--output", str(out),
               "--density-out", str(dump)])
    assert rc == 0
    _, _, vals = read_density_dump(dump)
    assert vals.sum() == 4.0
    assert vals.max() == 3.0


def test_cli_label_requires_text_col(tmp_path):
    assert main(["label", "--input", str(FIXTURE_CSV),
                 "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
                 "--output", str(tmp_path / "l.json")]) == 1


def test_cli_sql_predicate_runs_in_sqlite(tmp_path, capsys):
    doc = read_cluster_document(DATA / "two_gaussians_clusters.json")
    cid = doc.clusters[0].id
    rc = main(["sql", "--cluster-json", str(DATA / "two_gaussians_clusters.json"),
               "--cluster-id", str(cid)])
    assert rc == 0
    predicate = capsys.readouterr().out.strip()
    assert predicate.count(" OR ") == len(doc.clusters[0].rects) - 1
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE pts (x REAL, y REAL)")
    peak = doc.clusters[0].peak
    con.execute("INSERT INTO pts VALUES (?, ?)", (peak["x"], peak["y"]))
    con.execute("INSERT INTO pts VALUES (1e9, 1e9)")
    assert con.execute(f"SELECT count(*) FROM pts WHERE {predicate}"
                       ).fetchone()[0] == 1


def test_cli_bench_deterministic_counts(tmp_path, capsys):
    out1 = tmp_path / "b1.json"
    assert main(["bench", "--sizes", "64,96", "--repeats", "1",
                 "--points", "5000", "--seed", "3",
                 "--json-out", str(out1)]) == 0
    table = capsys.readouterr().out
    assert "cluster_ms" in table and len(table.strip().splitlines()) == 3
    out2 = tmp_path / "b2.json"
    assert main(["bench", "--sizes", "64,96", "--repeats", "1",
                 "--points", "5000", "--seed", "3",
                 "--json-out", str(out2)]) == 0
    rows1 = json.load(open(out1))["rows"]
    rows2 = json.load(open(out2))["rows"]
    assert [r["clusters"] for r in rows1] == [r["clusters"] for r in rows2]
    assert [r["size"] for r in rows1] == [64, 96]
    assert all(len(r["cluster_ms"]) == 1 for r in rows1)


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(FIXTURE_CSV), "width": 64,
                               "height": 64, "merge_distance": 8.0}))
    out = tmp_path / "c.json"
    rc = main(["cluster", "--config", str(cfg), "--width", "96",
               "--output", str(out)])
    assert rc == 0
    doc = read_cluster_document(out)
    assert doc.viewport.width == 96   # flag wins
    assert doc.viewport.height == 64  # config fills the rest
    assert main(["cluster", "--config", str(tmp_path / "missing.json"),
                 "--output", str(out)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["cluster", "--config", str(bad), "--output", str(out)]) == 1


@pytest.mark.parametrize("key, value, code", [
    ("width", "abc", 1),
    ("palette", "a", 1),
    ("merge_distance", [1], 1),
    ("bandwidth", "x", 1),
    ("width", True, 1),
    ("width", 64.7, 1),            # an int setting takes no float, as its flag
    ("connectivity", 8.0, 1),
    ("format", "xml", 1),
    ("input", 5, 1),               # not a file name
    ("width", None, 0),            # null means the key is absent
])
def test_cli_config_file_bad_values(tmp_path, key, value, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(FIXTURE_CSV), "width": 64,
                               "height": 64, key: value}))
    assert main(["cluster", "--config", str(cfg),
                 "--output", str(tmp_path / "c.json")]) == code


# Runs main() on each argv of the JSON list in argv[1], in this one process,
# and prints whether build_parser ran once and each call's exit code, stdout
# and stderr.
_MAIN_CALLS = """
import contextlib, io, json, sys
import densitycluster.cli as cli
build, built = cli.build_parser, []
def counted():
    built.append(1)
    return build()
cli.build_parser = counted
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps({"built": len(built), "results": results}))
"""


def test_cli_main_calls_in_one_process_match_separate_runs(tmp_path):
    # main() builds its parser once per process: calls in sequence exit and
    # print as separate processes do, and no config value reaches the next call
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(FIXTURE_CSV), "width": 64, "height": 48,
                               "merge_distance": 2.0, "truncation_ratio": 0.3,
                               "palette": 4}))
    doc = DATA / "two_gaussians_clusters.json"
    cid = read_cluster_document(doc).clusters[0].id
    calls = [["cluster", "--width", "x"],
             ["sql", "--cluster-json", str(doc), "--cluster-id", str(cid)],
             ["cluster", "--config", str(cfg), "--output", "{out}/config.json"],
             ["cluster", "--input", str(FIXTURE_CSV), "--output", "{out}/plain.json"]]
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(densitycluster.__file__).parents[1])}

    def run(out, argvs):
        argvs = [[a.replace("{out}", str(out)) for a in argv] for argv in argvs]
        proc = subprocess.run([sys.executable, "-c", _MAIN_CALLS, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    (tmp_path / "one").mkdir()
    (tmp_path / "each").mkdir()
    one = run(tmp_path / "one", calls)
    each = [run(tmp_path / "each", [argv]) for argv in calls]
    assert one["built"] == 1

    def timeless(result):
        rc, out, err = result
        return rc, re.sub(r"_ms=\d+\.\d", "_ms=", out), err

    assert [timeless(r) for r in one["results"]] == [
        timeless(e["results"][0]) for e in each]
    assert [r[0] for r in one["results"]] == [1, 0, 0, 0]
    assert "invalid int value" in one["results"][0][2]
    for name in ("config.json", "plain.json"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "each" / name).read_bytes())
    config = read_cluster_document(tmp_path / "one" / "config.json")
    plain = read_cluster_document(tmp_path / "one" / "plain.json")
    assert (config.viewport.width, config.viewport.height) == (64, 48)
    assert (plain.viewport.width, plain.viewport.height) == (512, 512)
    assert plain.params == {**ClusterParams().to_dict(), "bandwidth_px": 5.12}


def test_cli_pixel_space_round_trip(tmp_path):
    out = tmp_path / "px.json"
    rc = main(["cluster", "--input", str(FIXTURE_CSV), "--width", "128",
               "--height", "128", "--output", str(out), "--pixel-space"])
    assert rc == 0
    doc = read_cluster_document(out)
    assert doc.space == "pixel"
    for c in doc.clusters:
        for x, y in c.outer:
            assert x == int(x) and y == int(y)
    # labeling converts pixel-space documents internally
    labels = tmp_path / "l.json"
    rc = main(["label", "--input", str(FIXTURE_CSV), "--text-col", "text",
               "--cluster-json", str(out), "--output", str(labels)])
    assert rc == 0
    rows = json.load(open(labels))
    assert sorted(row["label"][0][0] for row in rows) == ["alpha", "bravo"]


# ------------------------------------------------------------------ collector

@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector's state before the test (on or off), restored
    afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _sql_argv(doc, cluster_id=None):
    if cluster_id is None:
        cluster_id = read_cluster_document(doc).clusters[-1].id
    return ["sql", "--cluster-json", str(doc), "--cluster-id", str(cluster_id)]


@pytest.mark.parametrize("argv, rc", [
    (_sql_argv(DATA / "two_gaussians_clusters.json"), 0),
    (["cluster"], 1),
    (["cluster", "--input", "{tmp}/missing.csv", "--output", "{tmp}/x.json"], 2),
    (_sql_argv(DATA / "two_gaussians_clusters.json", 99999), 3),
], ids=["0", "1", "2", "3"])
def test_cli_main_restores_collector_state(tmp_path, capsys, collector, argv, rc):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == rc
    assert gc.isenabled() == collector


def test_cli_main_restores_collector_after_an_exception(monkeypatch, collector):
    inside = []

    def failing(args):
        inside.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(dcli._COMMANDS, "sql", failing)
    with pytest.raises(RuntimeError, match="boom"):
        main(_sql_argv(DATA / "two_gaussians_clusters.json", 1))
    assert inside == [False]
    assert gc.isenabled() == collector


def test_read_cluster_document_restores_collector_state(tmp_path, collector):
    assert read_cluster_document(DATA / "two_gaussians_clusters.json").clusters
    assert gc.isenabled() == collector
    bad = tmp_path / "bad.json"
    bad.write_bytes(_DOC_BYTES[:-10])
    with pytest.raises(DataError, match="not valid JSON"):
        read_cluster_document(bad)
    assert gc.isenabled() == collector


def test_collector_paused_nests(collector):
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the outer block still holds the pause
    assert gc.isenabled() == collector


def test_collector_paused_from_two_threads(collector):
    # a enters, b enters, a leaves, b leaves: the collector stays paused
    # until b, the last one in, leaves
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with collector_paused():
            a_in.set()
            seen["b entered"] = b_in.wait(10)
        a_out.set()

    def b():
        seen["a entered"] = a_in.wait(10)
        with collector_paused():
            b_in.set()
            seen["a left"] = a_out.wait(10)
            seen["paused after a left"] = not gc.isenabled()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"a entered": True, "b entered": True, "a left": True,
                    "paused after a left": True}
    assert gc.isenabled() == collector


def test_cli_commands_leave_no_cyclic_garbage(tmp_path, capsys, uniform_inputs):
    # run with the collector off, each command's garbage is freed by
    # reference counting alone, or gc.collect() finds some; the first call
    # of a command pays one-off cycles (the parser, imports), so each
    # command runs once before the counted call
    points, doc, dump = uniform_inputs
    fixture_doc = DATA / "two_gaussians_clusters.json"
    commands = [_sql_argv(fixture_doc, 99999), ["cluster"],
                ["cluster", "--input", str(tmp_path / "missing.csv"),
                 "--output", str(tmp_path / "x.json")]]
    for csv, flags, out in ((FIXTURE_CSV, ["--width", "128", "--height", "128"],
                             tmp_path / "two"),
                            (points, ["--width", "250", "--height", "250",
                                      "--bandwidth", "1", "--merge-distance", "0"],
                             tmp_path / "uniform")):
        labelled = ["label", "--input", str(csv), "--text-col", "text",
                    "--cluster-json", f"{out}.json"]
        commands += [
            ["cluster", "--input", str(csv), *flags, "--output", f"{out}.json",
             "--density-out", f"{out}.bin"],
            ["render", "--cluster-json", f"{out}.json", "--output", f"{out}.svg",
             "--underlay", f"{out}.bin"],
            [*labelled, "--output", f"{out}.labels.json"],
            [*labelled, "--merge", "--output", f"{out}.merged.json"],
            _sql_argv(fixture_doc if csv == FIXTURE_CSV else doc)]
    was = gc.isenabled()
    gc.disable()
    try:
        found = []
        for argv in commands:
            main(argv)
            gc.collect()
            rc = main(argv)
            found.append((argv, rc, gc.collect()))
    finally:
        if was:
            gc.enable()
    assert [rc for _, rc, _ in found] == [3, 1, 2] + [0] * 10
    assert [(argv, n) for argv, _, n in found if n] == []


def test_many_cluster_document_is_read_without_collections(capsys, uniform_inputs):
    # the decode makes one container per coordinate pair, ring and record,
    # which starts collections unless the collector is paused; paused, only
    # the first allocation after the pause ends starts one, over what the
    # block left in the youngest generation
    _, doc, _ = uniform_inputs
    sql = _sql_argv(doc)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        json.loads(doc.read_text())
        unpaused = len(starts)
        assert len(read_cluster_document(doc).clusters) > 1000
        in_read = len(starts) - unpaused
        assert main(sql) == 0
        in_sql = len(starts) - unpaused - in_read
    finally:
        gc.callbacks.remove(record)
        if not was:
            gc.disable()
    assert unpaused > 20
    assert in_read <= 1 and in_sql <= 1
