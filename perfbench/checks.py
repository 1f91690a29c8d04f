"""Output checks. Each returns a list of problems; an empty list means pass."""
from __future__ import annotations

import json
import sqlite3

import numpy as np


def rect_cover_problems(clusters, vp) -> list[str]:
    """Rects of all clusters are pairwise disjoint and each cluster's rects
    cover exactly `area_px` pixels.

    clusters: iterable of (cluster_id, area_px, data-space rects);
    vp: dict with the viewport fields of a cluster document.
    """
    sx = (vp["x_max"] - vp["x_min"]) / vp["width"]
    sy = (vp["y_max"] - vp["y_min"]) / vp["height"]
    cover = np.zeros((vp["height"], vp["width"]), dtype=np.int32)
    problems = []
    for cid, area_px, rects in clusters:
        covered = 0
        for x0, y0, x1, y1 in rects:
            px0 = round((x0 - vp["x_min"]) / sx)
            px1 = round((x1 - vp["x_min"]) / sx)
            py0 = round((y0 - vp["y_min"]) / sy)
            py1 = round((y1 - vp["y_min"]) / sy)
            cover[py0:py1, px0:px1] += 1
            covered += (px1 - px0) * (py1 - py0)
        if covered != area_px:
            problems.append(f"cluster {cid}: rects cover {covered} px, area_px is {area_px}")
    overlap = int(np.count_nonzero(cover > 1))
    if overlap:
        problems.append(f"{overlap} pixel(s) covered by more than one rect")
    return problems


def cluster_doc_problems(doc_bytes: bytes) -> list[str]:
    doc = json.loads(doc_bytes)
    if not doc["clusters"]:
        return ["cluster document has no clusters"]
    return rect_cover_problems(
        ((c["id"], c["area_px"], c["rects"]) for c in doc["clusters"]),
        doc["viewport"])


def svg_problems(svg: bytes, n_clusters: int) -> list[str]:
    paths = svg.count(b"<path ")
    if paths != n_clusters:
        return [f"SVG has {paths} <path> elements for {n_clusters} clusters"]
    return []


def labels_problems(labels_bytes: bytes, cluster_ids: list[int]) -> list[str]:
    ids = [row["id"] for row in json.loads(labels_bytes)]
    if ids != sorted(cluster_ids):
        return [f"labels file has {len(ids)} rows for {len(cluster_ids)} clusters"]
    return []


class SqlOracle:
    """Runs emitted predicates through sqlite over the input points and
    compares the selected rows with the library's document assignment."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray,
                 assignment: dict[int, np.ndarray]):
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute("CREATE TABLE pts (i INTEGER PRIMARY KEY, x REAL, y REAL)")
        self._conn.executemany("INSERT INTO pts VALUES (?, ?, ?)",
                               zip(range(xs.size), xs.tolist(), ys.tolist()))
        self._assignment = assignment

    def problems(self, cluster_id: int, predicate: str) -> list[str]:
        rows = [r[0] for r in self._conn.execute(
            f"SELECT i FROM pts WHERE {predicate} ORDER BY i")]
        want = self._assignment[cluster_id].tolist()
        if rows != want:
            return [f"sql for cluster {cluster_id} selects {len(rows)} rows, "
                    f"assign_documents gives {len(want)}"]
        return []

    def close(self):
        self._conn.close()
