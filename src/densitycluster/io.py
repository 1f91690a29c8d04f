"""File formats: point ingestion, density dumps, cluster and label JSON.

The cluster JSON is owned by ClusterDocument: `cluster_document` builds it,
`read_cluster_document` validates a file into it, and `to_json` writes it.

Number text is each value's shortest round-trip repr. A document's geometry
lies on pixel corners, so it holds few distinct coordinates: `_number_texts`
formats each distinct value once, for the cluster JSON, the SVG paths and
the SQL predicates alike, and `read_cluster_document` decodes each distinct
number text once.

Density dump layout: little-endian, two uint32 (width, height), then
width*height float32 values row-major.
"""
from __future__ import annotations

import csv
import json
import math
import struct
import warnings
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from itertools import chain
from operator import attrgetter

import numpy as np

from .density import DensityMap, PointBatch, Viewport, check_density_values
from .errors import DataError, NoDataError, ParameterError
from .geometry import ClusterShape, PolygonRing, to_data_space

# loading aborts when more than this fraction of data rows is malformed
MALFORMED_ROW_LIMIT = 0.01

# the encoder json.dumps(obj, separators=(",", ":")) builds on every call
_JSON = json.JSONEncoder(separators=(",", ":"))
# stands for a geometry field while ClusterDocument.to_json encodes the rest
_SLOT = "\x00"


def load_points(path, fmt: str, x_col: str = "x", y_col: str = "y",
                weight_col: str | None = None,
                text_col: str | None = None) -> PointBatch:
    """Read points from CSV (header row) or JSON-lines.

    Rows with unparsable/missing coordinates, non-finite values, or negative
    weights are skipped; more than MALFORMED_ROW_LIMIT of bad rows aborts
    with the first offending row number.

    A CSV without quote characters whose every data row is a valid point is
    read column-wise by numpy's C parser; any other file is read row by row,
    with the same result. A file that is not UTF-8 text is a DataError.
    """
    try:
        return _load_points(path, fmt, x_col, y_col, weight_col, text_col)
    except UnicodeDecodeError as exc:
        raise DataError(f"points file is not UTF-8 text ({exc.reason})") from None


def _load_points(path, fmt, x_col, y_col, weight_col, text_col) -> PointBatch:
    if fmt == "csv":
        with open(path, "rb") as fh:
            data = fh.read()
        cols = _csv_header_columns(data, x_col, y_col, weight_col, text_col)
        batch = _read_csv_columns(data, *cols)
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
    StringIO would hold four bytes per character once it is read."""
    return TextIOWrapper(BytesIO(data), encoding="utf-8", newline="")


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


def _read_csv_columns(data, xi, yi, wi, ti) -> PointBatch | None:
    """The batch of CSV bytes read column-wise, or None unless they hold no
    quote character and every data row is a valid point (the per-row path
    then decides)."""
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
            rows = np.loadtxt(_csv_lines(data), delimiter=",", skiprows=1,
                              usecols=usecols, comments=None, ndmin=1,
                              dtype=dtype)
    except (ValueError, Warning):
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
    with open(path, encoding="utf-8") as fh:
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
        fh.write(dm.values.astype("<f4").tobytes())


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
    outer: list        # [[x, y], ...]
    holes: list        # [[[x, y], ...], ...]
    rects: list        # [[x0, y0, x1, y1], ...]
    color: int
    label: list | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items()
                if k != "label" or v is not None}


@dataclass
class ClusterDocument:
    """The cluster JSON: geometry in `space` ("data" or "pixel") units.

    Rings and rects are kept as given (the JSON lists when read, the shapes'
    tuples when built) and are never converted.
    """

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

        The numbers of `outer`, `holes` and `rects` come from _number_texts.
        The json encoder writes the rest once, with a slot string in place of
        each of those fields, and the geometry text is put into the slots.
        """
        clusters = self.clusters
        rings = [r for c in clusters for r in (c.outer, *c.holes)]
        vertices = _item_texts(chain.from_iterable(rings), 2)
        rects = _item_texts(chain.from_iterable(c.rects for c in clusters), 4)
        geometry = []
        v = r = 0
        for c in clusters:
            ring_texts = []
            for ring in (c.outer, *c.holes):
                ring_texts.append(_nested_list(vertices[v:v + len(ring)]))
                v += len(ring)
            geometry += (ring_texts[0], f'[{",".join(ring_texts[1:])}]',
                         _nested_list(rects[r:r + len(c.rects)]))
            r += len(c.rects)

        doc = self.to_dict()
        for c in doc["clusters"]:
            c.update(outer=_SLOT, holes=_SLOT, rects=_SLOT)
        pieces = _JSON.encode(doc).split(_JSON.encode(_SLOT))
        if len(pieces) != len(geometry) + 1:  # a string of the document looks like a slot
            return _JSON.encode(self.to_dict())
        return "".join(chain.from_iterable(zip(pieces, geometry))) + pieces[-1]

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
    """The JSON list of items given by _item_texts."""
    return "[[" + "],[".join(items) + "]]" if items else "[]"


def cluster_document(viewport: Viewport, params, bandwidth_px: float, shapes,
                     graph, colors: dict[int, int],
                     space: str = "data") -> ClusterDocument:
    """Assemble the cluster document from shapes already in `space` units."""
    clusters = []
    for shape in shapes:
        node = graph.nodes[shape.cluster_id]
        if space == "data":
            peak_x = viewport.pixel_to_data_x(node.peak_xy[0] + 0.5)
            peak_y = viewport.pixel_to_data_y(node.peak_xy[1] + 0.5)
        else:
            peak_x, peak_y = float(node.peak_xy[0]), float(node.peak_xy[1])
        clusters.append(ClusterRecord(
            shape.cluster_id,
            {"x": peak_x, "y": peak_y, "density": node.peak_density},
            node.area_px, shape.outer.vertices,
            [h.vertices for h in shape.holes], shape.rects,
            colors[shape.cluster_id]))
    params_dict = params.to_dict()
    params_dict["bandwidth_px"] = bandwidth_px
    return ClusterDocument(space, viewport, params_dict, clusters)


def write_json(path, doc) -> None:
    """Write a ClusterDocument, or any JSON data, as compact JSON and a newline."""
    # encode, not dump: json.dump always takes the pure-Python encoder
    text = doc.to_json() if isinstance(doc, ClusterDocument) else _JSON.encode(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _expect(doc, key, path, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"cluster JSON: missing field {path}{key}")
    val = doc[key]
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise DataError(f"cluster JSON: field {path}{key} has wrong type")
    return val


def _typed_records(raw: list) -> list[ClusterRecord] | None:
    """The records of cluster objects whose every field is present and of
    its type, checked a column at a time; None if any is not."""
    try:
        clusters = [ClusterRecord(c["id"], c["peak"], c["area_px"], c["outer"],
                                  c["holes"], c["rects"], c["color"], c.get("label"))
                    for c in raw]
    except (KeyError, TypeError):  # not an object, or a field missing
        return None
    # json.loads makes exact types, so type(), unlike isinstance, rejects bool
    for field, kind in (("id", int), ("peak", dict), ("outer", list),
                        ("holes", list), ("rects", list), ("color", int)):
        if not set(map(type, map(attrgetter(field), clusters))) <= {kind}:
            return None
    return clusters


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


def read_cluster_document(path) -> ClusterDocument:
    """Load a cluster JSON document and validate it into a ClusterDocument."""
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
    clusters = _typed_records(raw)
    if clusters is None:  # name the first missing or mistyped field
        clusters = []
        for i, c in enumerate(raw):
            p = f"clusters[{i}]."
            clusters.append(ClusterRecord(
                _expect(c, "id", p, int), _expect(c, "peak", p, dict),
                _expect(c, "area_px", p), _expect(c, "outer", p, list),
                _expect(c, "holes", p, list), _expect(c, "rects", p, list),
                _expect(c, "color", p, int), c.get("label")))
    if len({c.id for c in clusters}) != len(clusters):
        raise DataError("cluster JSON: cluster ids must be unique")
    if any(c.color < 0 for c in clusters):
        raise DataError("cluster JSON: every color must be >= 0")
    rings = [c.outer for c in clusters]
    rings += chain.from_iterable(c.holes for c in clusters)
    if not set(map(type, rings)) <= {list}:
        raise DataError("cluster JSON: every ring must be a list of vertices")
    # JSON spells a boolean `true` or `false`, so only a text holding one of
    # them needs a type pass over every number ("f" is one memchr: no key or
    # number that `cluster` writes holds an f)
    bools = "true" in text or ("f" in text and "false" in text)
    _check_numbers(list(chain.from_iterable(rings)), 2, "vertex", bools)
    _check_numbers(list(chain.from_iterable(c.rects for c in clusters)), 4, "rect", bools)
    return ClusterDocument(space, viewport, params, clusters)
