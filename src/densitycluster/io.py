"""File formats: point ingestion, density dumps, cluster and label JSON.

The cluster JSON is written as text by `cluster_document`, straight from a
clustering's columns and shape tables. `read_cluster_document` validates a
file into a ClusterDocument, whose `to_json` writes it back. Both fill one
record template, `_document_text`.

Number text is each value's shortest round-trip repr. A document's geometry
lies on pixel corners, so it holds few distinct coordinates: `_number_texts`
formats each distinct value once, for the cluster JSON, the SVG paths, the
SQL predicates and the label scores alike, and `read_cluster_document`
decodes each distinct number text once. `_label_texts` writes every label,
for the labels file (`labels_json`) and for `to_json`.

Density dump layout: little-endian, two uint32 (width, height), then
width*height float32 values row-major.
"""
from __future__ import annotations

import csv
import gc
import json
import math
import os
import struct
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from itertools import accumulate, chain, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .density import DensityMap, PointBatch, Viewport, check_density_values
from .errors import DataError, NoDataError, ParameterError
from .geometry import ClusterShape, PolygonRing, to_data_space, trace_boundary

# loading aborts when more than this fraction of data rows is malformed
MALFORMED_ROW_LIMIT = 0.01

# names that np.loadtxt, given a name, opens through a decompressor
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")
# what tells a file read twice from one rewritten or replaced in between
_file_key = attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")

# the encoder json.dumps(obj, separators=(",", ":")) builds on every call
_JSON = json.JSONEncoder(separators=(",", ":"))


def load_points(path, fmt: str, x_col: str = "x", y_col: str = "y",
                weight_col: str | None = None,
                text_col: str | None = None) -> PointBatch:
    """Read points from CSV (header row) or JSON-lines.

    Rows with unparsable/missing coordinates, non-finite values, or negative
    weights are skipped; more than MALFORMED_ROW_LIMIT of bad rows aborts
    with the first offending row number.

    A CSV without quote characters whose every data row is a valid point is
    read column-wise by numpy's C parser; any other file is read row by row,
    with the same result. A file that is not UTF-8 text is a DataError; a
    leading UTF-8 byte-order mark is ignored.

    The CSV bytes are read once for the header and the quote check. numpy
    then reads the file again by its absolute name, in large chunks; if the
    file has changed by then, the bytes read first decide.
    """
    try:
        return _load_points(path, fmt, x_col, y_col, weight_col, text_col)
    except UnicodeDecodeError as exc:
        raise DataError(f"points file is not UTF-8 text ({exc.reason})") from None


def _load_points(path, fmt, x_col, y_col, weight_col, text_col) -> PointBatch:
    if fmt == "csv":
        with open(path, "rb") as fh:
            data = fh.read()
            st = os.fstat(fh.fileno())
        cols = _csv_header_columns(data, x_col, y_col, weight_col, text_col)
        batch = _read_csv_columns(data, _reread(path, data, st), *cols)
        if batch is not None:
            return batch
        rows = _iter_csv(data, *cols)
    elif fmt == "jsonl":
        rows = _iter_jsonl(path, x_col, y_col, weight_col, text_col)
    else:
        raise ParameterError(f"unknown input format: {fmt!r}")

    xs, ys, ws, texts = [], [], [], []
    total = 0
    bad = 0
    first_bad = None
    for row_no, parsed in rows:
        total += 1
        if parsed is None:
            bad += 1
            if first_bad is None:
                first_bad = row_no
            continue
        x, y, wt, text = parsed
        xs.append(x)
        ys.append(y)
        ws.append(wt)
        texts.append(text)
    if bad > MALFORMED_ROW_LIMIT * total and bad > 0:
        raise DataError(
            f"{bad} of {total} rows malformed (first at row {first_bad}); aborting")
    if total == 0 or not xs:
        raise NoDataError("no data: input contains no usable rows")
    if bad:
        warnings.warn(f"skipped {bad} malformed row(s), first at row {first_bad}")
    batch_texts = texts if text_col is not None else None
    return PointBatch(np.array(xs), np.array(ys), np.array(ws), batch_texts)


def _parse_values(x, y, wt, text):
    try:
        fx, fy = float(x), float(y)
        fw = 1.0 if wt is None or wt == "" else float(wt)
    # OverflowError: a JSON integer too large for a float
    except (TypeError, ValueError, OverflowError):
        return None
    if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(fw)) or fw < 0:
        return None
    return fx, fy, fw, text if text is None else str(text)


def _csv_lines(data: bytes) -> TextIOWrapper:
    """The file's lines, decoded as when it is opened in text mode with
    newline="" (split at CR, LF and CRLF), so that csv.reader and np.loadtxt
    see the same lines. BytesIO shares `data` and the decoding streams; a
    StringIO would hold four bytes per character once it is read. A leading
    UTF-8 byte-order mark is dropped."""
    return TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline="")


def _reread(path, data: bytes, st: os.stat_result) -> tuple[str, tuple] | None:
    """(absolute name, _file_key) under which np.loadtxt may read the file
    of `data` again, or None to hand it `data`'s lines.

    Given a name, numpy reads the file in large chunks; given a file object,
    it builds one str per line. Only a file that still holds len(data)
    bytes is read again (a pipe, which would be empty or block, holds
    none), and never under a name numpy would decompress. The name is
    absolute, as numpy fetches a name that parses as a URL, such as a
    relative `http://h/p.csv`.
    """
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if (not isinstance(name, str) or st.st_size != len(data)
            or os.path.splitext(name)[1] in _COMPRESSED_SUFFIXES):
        return None
    return os.path.abspath(name), _file_key(st)


def _csv_header_columns(data, x_col, y_col, weight_col, text_col):
    """Header indices of the x, y, weight and text columns (None if unused)."""
    try:
        header = next(csv.reader(_csv_lines(data)))
    except StopIteration:
        raise NoDataError("no data: empty file") from None
    idx = {}
    for name in (x_col, y_col, weight_col, text_col):
        if name is None:
            continue
        if name not in header:
            raise ParameterError(f"column {name!r} not found in header {header}")
        idx[name] = header.index(name)
    return (idx[x_col], idx[y_col], idx[weight_col] if weight_col else None,
            idx[text_col] if text_col else None)


def _read_csv_columns(data, reread, xi, yi, wi, ti) -> PointBatch | None:
    """The batch of CSV bytes read column-wise, or None unless they hold no
    quote character and every data row is a valid point (the per-row path
    then decides). With `reread` (see _reread) numpy reads the file by name,
    and None also stands for a file that is no longer the one `data` came
    from."""
    if b'"' in data:  # in UTF-8 this byte is only ever the quote character
        # loadtxt does not know quotes: in `"a,5,6,b",7,8` it finds columns
        # 5 and 6 where csv.reader finds 7 and 8, and raises nothing
        return None
    usecols = [xi, yi] if wi is None else [xi, yi, wi]
    dtype = [(f"f{i}", np.float64) for i in range(len(usecols))]
    if ti is not None:
        # the text is one more field of the same pass, in usecols order; a row
        # short of it, or a whitespace-only line, makes loadtxt raise
        dtype, usecols = dtype + [("text", object)], usecols + [ti]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(_csv_lines(data) if reread is None else reread[0],
                              delimiter=",", skiprows=1, usecols=usecols,
                              comments=None, ndmin=1, dtype=dtype, encoding="utf-8")
        if reread is not None and _file_key(os.stat(reread[0])) != reread[1]:
            return None  # replaced or rewritten since `data` was read
    # OSError: the file is gone or unreadable by the time numpy opens it
    except (ValueError, Warning, OSError):
        return None
    cols = [np.ascontiguousarray(rows[f]) for f, _ in dtype if f != "text"]
    texts = rows["text"].tolist() if ti is not None else None
    if not len(rows) or not all(np.isfinite(c).all() for c in cols) \
            or any((w < 0).any() for w in cols[2:]):
        return None
    xs, ys, *ws = cols
    return PointBatch(xs, ys, ws[0] if ws else np.ones(len(rows)), texts)


def _iter_csv(data, xi, yi, wi, ti):
    reader = csv.reader(_csv_lines(data))
    next(reader)
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            x = row[xi]
            y = row[yi]
            wt = row[wi] if wi is not None else None
            text = row[ti] if ti is not None else None
        except IndexError:
            yield row_no, None
            continue
        yield row_no, _parse_values(x, y, wt, text)


def _iter_jsonl(path, x_col, y_col, weight_col, text_col):
    with open(path, encoding="utf-8-sig") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                x, y = obj[x_col], obj[y_col]
            # ValueError: not JSON, or an integer too long to convert
            except (ValueError, RecursionError, KeyError, TypeError):
                yield row_no, None
                continue
            wt = obj.get(weight_col) if weight_col else None
            text = obj.get(text_col) if text_col else None
            if bool in (type(x), type(y), type(wt)):
                yield row_no, None  # float(True) would read it as 1.0
                continue
            yield row_no, _parse_values(x, y, wt, text)


def write_density_dump(path, dm: DensityMap) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", dm.width, dm.height))
        # written through the buffer protocol: no bytes copy of the grid
        fh.write(dm.values.astype("<f4", order="C"))


def read_density_dump(path) -> tuple[int, int, np.ndarray]:
    """Returns (width, height, float32 array of shape (height, width))."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise DataError("density dump: truncated header")
        w, h = struct.unpack("<II", head)
        payload = fh.read()
    if len(payload) != 4 * w * h:
        raise DataError(
            f"density dump: expected {4 * w * h} payload bytes, found {len(payload)}")
    data = np.frombuffer(payload, dtype="<f4")
    check_density_values(data)
    return w, h, data.reshape(h, w)


@dataclass
class ClusterRecord:
    """One cluster of a cluster document; fields in their JSON order."""

    id: int
    peak: dict
    area_px: int
    outer: list   # [[x, y], ...]
    holes: list   # [[[x, y], ...], ...]
    rects: list   # [[x0, y0, x1, y1], ...]
    color: int
    label: list | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items()
                if k != "label" or v is not None}


@dataclass
class ClusterDocument:
    """A cluster JSON read back: geometry in `space` ("data" or "pixel")
    units, one ClusterRecord per cluster."""

    space: str
    viewport: Viewport
    params: dict
    clusters: list[ClusterRecord]

    def to_dict(self) -> dict:
        return {"space": self.space, "viewport": self.viewport.to_dict(),
                "params": self.params,
                "clusters": [c.to_dict() for c in self.clusters]}

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), separators=(",", ":")), byte for byte.

        The encoder writes each record's id, peak and area_px, which may
        have been edited by hand (ints, non-finite peaks, extra peak keys);
        its geometry lists become text through _number_texts, and its label
        through _label_texts.
        """
        encode = _JSON.encode
        labels = iter(_label_texts([c.label for c in self.clusters
                                    if c.label is not None]))
        return _document_text(
            self.space, self.viewport, self.params,
            [encode({"id": c.id, "peak": c.peak, "area_px": c.area_px})[1:-1]
             for c in self.clusters],
            _list_texts(self.clusters), [c.color for c in self.clusters],
            ["" if c.label is None else ',"label":' + next(labels)
             for c in self.clusters])

    def rect_shape(self, cluster: ClusterRecord) -> ClusterShape:
        """The cluster's rects as a data-space ClusterShape without rings:
        all that `label` and `sql` read."""
        shape = ClusterShape(cluster.id, PolygonRing(()), [], cluster.rects)
        return to_data_space(shape, self.viewport) if self.space == "pixel" else shape


def format_number(v: float) -> str:
    """Shortest decimal that round-trips to the same float; integral values
    drop the trailing '.0'."""
    s = repr(float(v))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _number_texts(values, trim: bool = False) -> list[str]:
    """The text of every value of a float64 column, in order: json's, or
    with `trim` format_number's. Each distinct value is formatted once, keyed
    by its bit pattern, so that 0.0 and -0.0 stay apart."""
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
        return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    texts = (list(map(format_number, distinct)) if trim
             else _JSON.encode(distinct)[1:-1].split(","))
    return np.array(texts, dtype=object)[inverse].tolist()


def _item_texts(items, arity: int) -> list[str]:
    """json's text of each item of `arity` numbers, without its brackets."""
    numbers = list(chain.from_iterable(items))
    if set(map(type, numbers)) <= {float}:  # what `cluster` writes
        texts = _number_texts(numbers)
    else:  # a hand-edited document's ints stay ints
        texts = _JSON.encode(numbers)[1:-1].split(",")
    return list(map(",".join, zip(*[iter(texts)] * arity)))


def _nested_list(items: list[str]) -> str:
    """The JSON list of items given without their brackets."""
    return "[[" + "],[".join(items) + "]]" if items else "[]"


def _label_texts(labels: list) -> list[str]:
    """json's text of each label, in order.

    Labels as `label` makes them, lists of (term, score) pairs of a str and
    a float, are written from the text of each distinct term, encoded once,
    and of each distinct score, formatted once by _number_texts. If any
    label has another form (a hand-edited one: ints, nesting, not a list),
    the encoder writes each label."""
    if set(map(type, labels)) <= {list, tuple}:
        pairs = list(chain.from_iterable(labels))
        if set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}:
            flat = list(chain.from_iterable(pairs))
            terms, scores = flat[0::2], flat[1::2]
            if set(map(type, terms)) <= {str} and set(map(type, scores)) <= {float}:
                term_text = {t: _JSON.encode(t) for t in set(terms)}
                items = list(map(",".join, zip(map(term_text.__getitem__, terms),
                                               _number_texts(scores))))
                cut = list(accumulate(map(len, labels), initial=0))
                return [_nested_list(items[a:b]) for a, b in zip(cut, cut[1:])]
    return list(map(_JSON.encode, labels))


def labels_json(ids: list[int], labels: list) -> str:
    """The labels file's JSON text, `[{"id":…,"label":[[term,score],…]},…]`:
    one row per cluster id and its label (see _label_texts), in order."""
    rows = map('{{"id":{},"label":{}}}'.format, ids, _label_texts(labels))
    return f'[{",".join(rows)}]'


def _geometry_texts(pairs, ring_cut, ring_span, boxes, rect_span
                    ) -> list[tuple[str, str, str]]:
    """The JSON of each cluster's (outer, holes, rects), in order, from the
    text of every vertex (pairs) and rect (boxes) without brackets: ring i
    is pairs[ring_cut[i]:ring_cut[i + 1]], and each cluster spans a
    (start, stop) range of rings, outer ring first, and one of rects."""
    rings = [_nested_list(pairs[i:j]) for i, j in zip(ring_cut, ring_cut[1:])]
    return [(rings[a], f'[{",".join(rings[a + 1:b])}]', _nested_list(boxes[i:j]))
            for (a, b), (i, j) in zip(ring_span, rect_span)]


def _list_texts(clusters: list[ClusterRecord]) -> list[tuple[str, str, str]]:
    """_geometry_texts of records that hold their geometry as lists."""
    rings = [r for c in clusters for r in (c.outer, *c.holes)]
    ring_cut = list(accumulate((1 + len(c.holes) for c in clusters), initial=0))
    rect_cut = list(accumulate((len(c.rects) for c in clusters), initial=0))
    return _geometry_texts(
        _item_texts(chain.from_iterable(rings), 2),
        list(accumulate(map(len, rings), initial=0)), zip(ring_cut, ring_cut[1:]),
        _item_texts(chain.from_iterable(c.rects for c in clusters), 4),
        zip(rect_cut, rect_cut[1:]))


def _document_text(space: str, viewport: Viewport, params: dict, members,
                   geometry, colors, labels) -> str:
    """The cluster JSON, one record template per cluster filled with the
    JSON text of its members: its id, peak and area_px (without braces),
    its (outer, holes, rects), its color, and "" or its `,"label":…`."""
    head = _JSON.encode({"space": space, "viewport": viewport.to_dict(),
                         "params": params})
    records = [f'{{{m},"outer":{o},"holes":{h},"rects":{r},"color":{k}{lb}}}'
               for m, (o, h, r), k, lb in zip(members, geometry, colors, labels)]
    # one join writes the whole text: no copy of the records follows it
    start = f'{head[:-1]},"clusters":['
    if not records:
        return start + "]}"
    records[0] = start + records[0]
    records[-1] += "]}"
    return ",".join(records)


def cluster_document(viewport: Viewport, params, bandwidth_px: float, cmap,
                     graph, colors: dict[int, int], space: str = "data") -> str:
    """The JSON text of every cluster of `graph`, in id order, in `space` units.

    Peaks and areas come from the graph's columns, rings and rects from
    cmap's tables (rings under params.connectivity). A corner's text is its
    pixel edges' text, lo + p*step in data units (to_data_space's
    expression), formatted once per edge; a peak value's is json's, formatted
    once per distinct value, and the ints' is str's. A cluster without
    exactly one outer ring raises trace_boundary's DataError.
    """
    ids = np.flatnonzero(graph.peak >= 0)
    py, px = np.divmod(graph.peak[ids], graph.width)
    if space == "data":
        px = viewport.x_min + (px + 0.5) * viewport.sx
        py = viewport.y_min + (py + 0.5) * viewport.sy
    ids = ids.tolist()
    rings, rects = cmap.rings(params.connectivity), cmap.rects
    ring_span = [rings.span[cid] for cid in ids]
    a, b = np.array(ring_span, dtype=np.int64).reshape(-1, 2).T
    outer = np.append(0, np.cumsum(~rings.hole))
    for k in np.flatnonzero(outer[b] - outer[a] != 1)[:1].tolist():
        trace_boundary(cmap, ids[k], params.connectivity)  # raises

    edges = []  # x edge p at index p, y edge q at width + 1 + q
    for lo, step, n in ((viewport.x_min, viewport.sx, viewport.width),
                        (viewport.y_min, viewport.sy, viewport.height)):
        p = np.arange(n + 1)
        with np.errstate(over="ignore"):  # inf, as the same float arithmetic gives
            edges += _number_texts(lo + p * step if space == "data" else p)
    edges, y0 = np.array(edges, dtype=object), viewport.width + 1
    geometry = _geometry_texts(
        list(map(",".join, zip(*edges[(rings.vertices + [0, y0]).T].tolist()))),
        rings.offsets.tolist(), ring_span,
        list(map(",".join, zip(*edges[(rects.bounds + [0, y0, 0, y0]).T].tolist()))),
        [rects.span[cid] for cid in ids])
    params_dict = params.to_dict()
    params_dict["bandwidth_px"] = bandwidth_px
    peak = _number_texts(np.column_stack(
        (px, py, graph.peak_density[ids])).astype(np.float64).ravel())
    members = [f'"id":{i},"peak":{{"x":{x},"y":{y},"density":{d}}},"area_px":{a}'
               for i, x, y, d, a in zip(ids, peak[0::3], peak[1::3], peak[2::3],
                                        graph.area[ids].tolist())]
    return _document_text(space, viewport, params_dict, members, geometry,
                          [colors[cid] for cid in ids], repeat(""))


def write_json(path, doc) -> None:
    """Write JSON text (a str, such as cluster_document's) as it is, or a
    ClusterDocument or any other JSON data as compact JSON; then a newline."""
    if isinstance(doc, ClusterDocument):
        doc = doc.to_json()
    # encode, not dump: json.dump always takes the pure-Python encoder
    text = doc if isinstance(doc, str) else _JSON.encode(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)  # text + "\n" would copy the whole text first
        fh.write("\n")


# every cluster field but the optional label, in JSON order, with the type
# its value must have (None: any)
_FIELDS = (("id", int), ("peak", dict), ("area_px", None), ("outer", list),
           ("holes", list), ("rects", list), ("color", int))
_field_values = itemgetter(*(name for name, _ in _FIELDS))


def _expect(doc, key, path, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"cluster JSON: missing field {path}{key}")
    val = doc[key]
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise DataError(f"cluster JSON: field {path}{key} has wrong type")
    return val


def _check_numbers(items, arity, what, bools: bool) -> None:
    """Every item is a sequence of `arity` numbers that are finite floats;
    `bools` says whether the document text may hold a boolean."""
    try:
        # a float start keeps every addition in floats, so an int too large
        # for a float raises even where such ints would cancel; the total is
        # finite only if every term is (an overflowing total rejects absurd
        # magnitudes as well); any other non-number raises TypeError
        ok = (set(map(len, items)) <= {arity}
              and math.isfinite(sum(chain.from_iterable(items), 0.0))
              and not (bools and bool in set(map(type, chain.from_iterable(items)))))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise DataError(f"cluster JSON: every {what} must be {arity} finite numbers")


class _FloatMemo(dict):
    """Float of each number text, decoded on its first lookup: a document's
    coordinates repeat, so most lookups find one. Keyed by the text, so that
    "0.0" and "-0.0" stay apart."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


class _Pause:
    """collector_paused()'s state: how many blocks are inside it, and whether
    the collector was enabled when the outermost one entered."""

    lock = threading.Lock()
    depth = 0
    was_enabled = False


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector disabled.

    A decoded document and a command's data hold no reference cycles, so a
    collection during them frees nothing, yet walks every object they hold.
    The collector is process-wide: only the outermost of nested or
    concurrent blocks disables it, and the last to leave restores the state
    that the outermost one found."""
    with _Pause.lock:
        if _Pause.depth == 0:
            _Pause.was_enabled = gc.isenabled()
            gc.disable()
        _Pause.depth += 1
    try:
        yield
    finally:
        with _Pause.lock:
            _Pause.depth -= 1
            if _Pause.depth == 0 and _Pause.was_enabled:
                gc.enable()


def read_cluster_document(path) -> ClusterDocument:
    """Load a cluster JSON document and validate it into a ClusterDocument."""
    with collector_paused():
        try:
            # decoded in one call: JSON needs no newline translation
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8")
            doc = json.loads(text, parse_float=_FloatMemo().__getitem__)
        # ValueError: not JSON, not UTF-8, or an integer too long to convert
        except (ValueError, RecursionError) as exc:
            raise DataError(f"cluster JSON: not valid JSON ({exc})") from exc
        vp = _expect(doc, "viewport", "", dict)
        for k in ("x_min", "x_max", "y_min", "y_max", "width", "height"):
            _expect(vp, k, "viewport.", int if k in ("width", "height") else None)
        try:
            viewport = Viewport.from_dict(vp)
        except (ParameterError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"cluster JSON: bad viewport ({exc})") from exc
        space = _expect(doc, "space", "")
        if space not in ("data", "pixel"):
            raise DataError("cluster JSON: space must be \"data\" or \"pixel\"")
        params = _expect(doc, "params", "", dict)
        raw = _expect(doc, "clusters", "", list)
        try:
            clusters = [ClusterRecord(*_field_values(c), c.get("label")) for c in raw]
        except (KeyError, TypeError):  # not an object, or a field missing
            clusters = None
        # types checked a column at a time: json.loads makes exact types, so
        # type(), unlike isinstance, rejects bool
        if clusters is None or not all(
                set(map(type, map(attrgetter(name), clusters))) <= {kind}
                for name, kind in _FIELDS if kind is not None):
            # name the first missing or mistyped field
            clusters = [ClusterRecord(*(_expect(c, name, f"clusters[{i}].", kind)
                                        for name, kind in _FIELDS), c.get("label"))
                        for i, c in enumerate(raw)]
        if len({c.id for c in clusters}) != len(clusters):
            raise DataError("cluster JSON: cluster ids must be unique")
        if any(c.color < 0 for c in clusters):
            raise DataError("cluster JSON: every color must be >= 0")
        rings = [c.outer for c in clusters]
        rings += chain.from_iterable(c.holes for c in clusters)
        if not set(map(type, rings)) <= {list}:
            raise DataError("cluster JSON: every ring must be a list of vertices")
        if min(map(len, rings), default=3) < 3:
            raise DataError("cluster JSON: every ring must have at least 3 vertices")
        # JSON spells a boolean `true` or `false`, so only a text holding one
        # of them needs a type pass over every number ("f" is one memchr: no
        # key or number that `cluster` writes holds an f)
        bools = "true" in text or ("f" in text and "false" in text)
        _check_numbers(list(chain.from_iterable(rings)), 2, "vertex", bools)
        _check_numbers(list(chain.from_iterable(c.rects for c in clusters)), 4,
                       "rect", bools)
        return ClusterDocument(space, viewport, params, clusters)
