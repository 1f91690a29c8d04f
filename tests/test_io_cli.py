import contextlib
import json
import math
import os
import pathlib
import re
import sqlite3
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import densitycluster
import densitycluster.io as dio
from densitycluster.cli import main
from densitycluster.density import DensityMap, Viewport
from densitycluster.errors import DataError, NoDataError, ParameterError
from densitycluster.io import (load_points, read_cluster_document,
                               read_density_dump, write_density_dump)

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
], ids=["label_top_k_0", "cluster_no_output", "label_no_output", "bench_no_sizes",
        "bench_bad_sizes", "bench_repeats_0"])
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
@pytest.mark.parametrize("command", ["render", "sql"])
def test_cli_non_finite_outside_geometry_is_accepted(tmp_path, capsys, command,
                                                     path, literal):
    # only the geometry is checked for finite numbers
    doc_path = tmp_path / "doc.json"
    _write_with_literal(_FIXTURE_DOC, path, literal, doc_path)
    assert main(_doc_argv(command, tmp_path) + ["--cluster-json", str(doc_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


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
    from densitycluster.geometry import color_clusters, shape_for_cluster, to_data_space
    from densitycluster.io import cluster_document, write_json
    from conftest import two_gauss_near

    dm = two_gauss_near()
    params = ClusterParams(merge_distance_px=0.0)
    cmap, graph = cluster_density_map(dm, params)
    assert len(graph.nodes) == 2 and graph.edges  # still touching after truncation
    shapes = [to_data_space(shape_for_cluster(cmap, cid), dm.viewport)
              for cid in sorted(graph.nodes)]
    colors = color_clusters(graph, 10)
    doc = cluster_document(dm.viewport, params, 0.0, shapes, graph, colors)
    cluster_json = tmp_path / "near.json"
    write_json(cluster_json, doc.to_dict())

    svg = tmp_path / "g.svg"
    main(["render", "--cluster-json", str(cluster_json), "--output", str(svg)])
    body = svg.read_text()
    assert body.count("<path") == 2
    fills = [seg.split('"')[0] for seg in body.split('fill="')[1:]]
    assert len(set(fills)) == 2

    # one cluster -> exactly one path element
    cmap1, graph1 = cluster_density_map(dm, ClusterParams(merge_distance_px=8.0))
    assert len(graph1.nodes) == 1
    shapes1 = [to_data_space(shape_for_cluster(cmap1, cid), dm.viewport)
               for cid in graph1.nodes]
    doc1 = cluster_document(dm.viewport, ClusterParams(), 0.0, shapes1, graph1,
                            color_clusters(graph1, 10))
    one_json = tmp_path / "one.json"
    write_json(one_json, doc1.to_dict())
    svg1 = tmp_path / "one.svg"
    main(["render", "--cluster-json", str(one_json), "--output", str(svg1)])
    assert svg1.read_text().count("<path") == 1


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
