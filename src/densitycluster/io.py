"""File formats: point ingestion, density dumps, cluster and label JSON.

Density dump layout: little-endian, two uint32 (width, height), then
width*height float32 values row-major.
"""
from __future__ import annotations

import csv
import json
import struct
import warnings

import numpy as np

from .density import DensityMap, PointBatch, Viewport
from .errors import DataError, NoDataError, ParameterError

# loading aborts when more than this fraction of data rows is malformed
MALFORMED_ROW_LIMIT = 0.01


def load_points(path, fmt: str, x_col: str = "x", y_col: str = "y",
                weight_col: str | None = None,
                text_col: str | None = None) -> PointBatch:
    """Read points from CSV (header row) or JSON-lines.

    Rows with unparsable/missing coordinates, non-finite values, or negative
    weights are skipped; more than MALFORMED_ROW_LIMIT of bad rows aborts
    with the first offending row number.
    """
    if fmt == "csv":
        rows = _iter_csv(path, x_col, y_col, weight_col, text_col)
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
    except (TypeError, ValueError):
        return None
    if not (np.isfinite(fx) and np.isfinite(fy) and np.isfinite(fw)) or fw < 0:
        return None
    return fx, fy, fw, text if text is None else str(text)


def _iter_csv(path, x_col, y_col, weight_col, text_col):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise NoDataError("no data: empty file") from None
        idx = {}
        for name in (x_col, y_col, weight_col, text_col):
            if name is None:
                continue
            if name not in header:
                raise ParameterError(f"column {name!r} not found in header {header}")
            idx[name] = header.index(name)
        xi, yi = idx[x_col], idx[y_col]
        wi = idx.get(weight_col) if weight_col else None
        ti = idx.get(text_col) if text_col else None
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
            except (json.JSONDecodeError, KeyError, TypeError):
                yield row_no, None
                continue
            wt = obj.get(weight_col) if weight_col else None
            text = obj.get(text_col) if text_col else None
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
    return w, h, data.reshape(h, w)


def cluster_document(viewport: Viewport, params, bandwidth_px: float, shapes,
                     graph, colors: dict[int, int], space: str = "data") -> dict:
    """Assemble the cluster output JSON document."""
    clusters = []
    for shape in shapes:
        node = graph.nodes[shape.cluster_id]
        if space == "data":
            peak_x = viewport.pixel_to_data_x(node.peak_xy[0] + 0.5)
            peak_y = viewport.pixel_to_data_y(node.peak_xy[1] + 0.5)
        else:
            peak_x, peak_y = float(node.peak_xy[0]), float(node.peak_xy[1])
        clusters.append({
            "id": shape.cluster_id,
            "peak": {"x": peak_x, "y": peak_y, "density": node.peak_density},
            "area_px": node.area_px,
            "outer": [[x, y] for x, y in shape.outer.vertices],
            "holes": [[[x, y] for x, y in h.vertices] for h in shape.holes],
            "rects": [list(r) for r in shape.rects],
            "color": colors[shape.cluster_id],
        })
    params_dict = params.to_dict()
    params_dict["bandwidth_px"] = bandwidth_px
    return {
        "space": space,
        "viewport": viewport.to_dict(),
        "params": params_dict,
        "clusters": clusters,
    }


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _expect(doc, key, path, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"cluster JSON: missing field {path}{key}")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise DataError(f"cluster JSON: field {path}{key} has wrong type")
    return val


def read_cluster_document(path) -> dict:
    """Load and structurally validate a cluster JSON document."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"cluster JSON: not valid JSON ({exc})") from exc
    vp = _expect(doc, "viewport", "", dict)
    for k in ("x_min", "x_max", "y_min", "y_max", "width", "height"):
        _expect(vp, k, "viewport.")
    try:
        Viewport.from_dict(vp)
    except (ParameterError, TypeError, ValueError) as exc:
        raise DataError(f"cluster JSON: bad viewport ({exc})") from exc
    _expect(doc, "params", "", dict)
    clusters = _expect(doc, "clusters", "", list)
    for i, c in enumerate(clusters):
        prefix = f"clusters[{i}]."
        _expect(c, "id", prefix)
        _expect(c, "peak", prefix, dict)
        _expect(c, "area_px", prefix)
        _expect(c, "outer", prefix, list)
        _expect(c, "holes", prefix, list)
        _expect(c, "rects", prefix, list)
        _expect(c, "color", prefix)
    rects = [r for c in clusters for r in c["rects"]]
    try:
        ok = not rects or np.asarray(rects, np.float64).shape == (len(rects), 4)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DataError("cluster JSON: every rect must be 4 numbers")
    return doc
