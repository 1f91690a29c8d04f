"""Cluster labels from text via class-based TF-IDF, plus SQL range predicates.

Documents are attached to clusters by rectangle containment (half-open, in
data space), which is exactly the membership the emitted SQL predicate
selects, so labels computed in-process agree with labels computed by running
the predicate in a database.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .density import PointBatch, Viewport
from .errors import ParameterError
from .geometry import ClusterShape

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MIN_TOKEN_LEN = 2


def _load_stopwords() -> frozenset[str]:
    text = resources.files("densitycluster").joinpath("data/stopwords.txt").read_text()
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


STOPWORDS = _load_stopwords()


@dataclass
class LabelResult:
    cluster_id: int
    top_terms: list[tuple[str, float]]


def tokenize(text: str) -> list[str]:
    """Lowercase ASCII-alphanumeric runs, minus short tokens and stopwords."""
    return [t for t in _TOKEN_RE.findall(text.lower())
            if len(t) >= _MIN_TOKEN_LEN and t not in STOPWORDS]


def _count_tokens(texts) -> Counter:
    # tokenization is per-word, so batching documents through one regex pass
    # gives identical counts to summing per-document tokenize() calls
    counts: Counter = Counter()
    chunk: list[str] = []
    size = 0
    for t in texts:
        if not t:
            continue
        chunk.append(t)
        size += len(t)
        if size > 1 << 20:
            counts.update(tokenize("\n".join(chunk)))
            chunk, size = [], 0
    if chunk:
        counts.update(tokenize("\n".join(chunk)))
    return counts


def assign_documents(points: PointBatch, shapes: list[ClusterShape],
                     viewport: Viewport) -> dict[int, np.ndarray]:
    """Attach each document index to the cluster whose rectangle contains it.

    Containment is half-open (x0 <= x < x1, y0 <= y < y1) over the shapes'
    data-space rects; rects of distinct clusters are disjoint, so at most one
    cluster matches. Unmatched documents stay unassigned.
    """
    n = len(points)
    result: dict[int, list] = {s.cluster_id: [] for s in shapes}
    rx0, ry0, rx1, ry1, rcid = [], [], [], [], []
    for s in shapes:
        for r in s.rects:
            rx0.append(r[0])
            ry0.append(r[1])
            rx1.append(r[2])
            ry1.append(r[3])
            rcid.append(s.cluster_id)
    if n == 0 or not rcid:
        return {cid: np.empty(0, dtype=np.int64) for cid in result}
    rx0 = np.array(rx0)
    ry0 = np.array(ry0)
    rx1 = np.array(rx1)
    ry1 = np.array(ry1)
    rcid_arr = np.array(rcid, dtype=np.int64)

    # fast path: look the containing rect up through the pixel grid, then
    # verify with the exact data-space comparisons; stragglers (float ulp
    # cases and out-of-grid points) fall back to a scan over all rects
    w, h = viewport.width, viewport.height
    grid = np.full(h * w, -1, dtype=np.int64)
    # clip as floats: bounds far outside the grid may not fit an integer
    with np.errstate(over="ignore"):
        pxs = np.clip(np.rint((np.stack((rx0, rx1)) - viewport.x_min) / viewport.sx), 0, w)
        pys = np.clip(np.rint((np.stack((ry0, ry1)) - viewport.y_min) / viewport.sy), 0, h)
    painted = grid.reshape(h, w)
    for i, (px0, px1, py0, py1) in enumerate(zip(*pxs.astype(np.int64).tolist(),
                                                 *pys.astype(np.int64).tolist())):
        painted[py0:py1, px0:px1] = i

    xs, ys = points.xs, points.ys
    finite = np.isfinite(xs) & np.isfinite(ys)
    px = np.zeros(n, dtype=np.int64)
    py = np.zeros(n, dtype=np.int64)
    if finite.any():
        px[finite] = np.clip(np.floor((xs[finite] - viewport.x_min) / viewport.sx),
                             0, w - 1).astype(np.int64)
        py[finite] = np.clip(np.floor((ys[finite] - viewport.y_min) / viewport.sy),
                             0, h - 1).astype(np.int64)
    cand = np.where(finite, grid[py * w + px], -1)
    has = cand >= 0
    ok = has.copy()
    if has.any():
        ci = cand[has]
        ok[has] = ((xs[has] >= rx0[ci]) & (xs[has] < rx1[ci])
                   & (ys[has] >= ry0[ci]) & (ys[has] < ry1[ci]))

    assigned = np.full(n, -1, dtype=np.int64)
    assigned[ok] = rcid_arr[cand[ok]]
    # only points within two pixels of a covered cell can sit within float
    # rounding of a rect boundary; everything farther out cannot match
    near = (grid >= 0).reshape(h, w)
    for _ in range(2):
        grown = near.copy()
        grown[1:, :] |= near[:-1, :]
        grown[:-1, :] |= near[1:, :]
        grown[:, 1:] |= near[:, :-1]
        grown[:, :-1] |= near[:, 1:]
        near = grown
    for i in np.flatnonzero(~ok & finite & near[py, px]):
        hit = np.flatnonzero((xs[i] >= rx0) & (xs[i] < rx1)
                             & (ys[i] >= ry0) & (ys[i] < ry1))
        if hit.size:
            assigned[i] = rcid_arr[hit[0]]

    out: dict[int, np.ndarray] = {}
    for cid in sorted(result):
        out[cid] = np.flatnonzero(assigned == cid)
    return out


def ctfidf_labels(assignment: dict[int, np.ndarray], documents,
                  k: int = 5) -> list[LabelResult]:
    """Top-k label terms per cluster by class-based TF-IDF.

    score(t, c) = tf(t, c) * log(1 + A / corpus_count(t)) with
    tf(t, c) = count of t in c / total tokens in c and A = mean token count
    per cluster. Ties rank lexicographically. Clusters without tokens get an
    empty label. Each document is in at most one cluster, as
    `assign_documents` gives.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    # each document is in at most one cluster, so the corpus counts are the
    # cluster counts plus the unassigned documents' counts
    cluster_counts: dict[int, Counter] = {}
    unassigned = np.ones(len(documents), dtype=bool)
    for cid in sorted(assignment):
        cluster_counts[cid] = _count_tokens(documents[i] for i in assignment[cid])
        unassigned[assignment[cid]] = False
    corpus = _count_tokens(documents[i] for i in np.flatnonzero(unassigned))
    for counts in cluster_counts.values():
        corpus.update(counts)

    n_clusters = len(cluster_counts)
    total_cluster_tokens = sum(sum(c.values()) for c in cluster_counts.values())
    mean_tokens = total_cluster_tokens / n_clusters if n_clusters else 0.0

    results = []
    for cid, counts in cluster_counts.items():
        total = sum(counts.values())
        if total == 0 or mean_tokens == 0:
            results.append(LabelResult(cid, []))
            continue
        scored = []
        for term, cnt in counts.items():
            tf = cnt / total
            score = tf * math.log(1.0 + mean_tokens / corpus[term])
            if score > 0:
                scored.append((term, score))
        scored.sort(key=lambda ts: (-ts[1], ts[0]))
        results.append(LabelResult(cid, scored[:k]))
    return results


def format_number(v: float) -> str:
    """Shortest decimal that round-trips to the same float; integral values
    drop the trailing '.0'."""
    s = repr(float(v))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def emit_sql_predicate(shape: ClusterShape, x_column: str, y_column: str) -> str:
    """WHERE-clause text selecting exactly the rows inside the rect cover.

    One parenthesized conjunct per rectangle, OR-joined in stored order.
    Column names are validated against [A-Za-z_][A-Za-z0-9_]* to keep the
    output injection-free.
    """
    for ident in (x_column, y_column):
        if not _IDENT_RE.match(ident):
            raise ParameterError(f"invalid column identifier: {ident!r}")
    if not shape.rects:
        raise ParameterError(
            f"cluster {shape.cluster_id} has no rectangles to emit")
    parts = []
    for x0, y0, x1, y1 in shape.rects:
        parts.append(
            f"({x_column} >= {format_number(x0)} AND {x_column} < {format_number(x1)}"
            f" AND {y_column} >= {format_number(y0)} AND {y_column} < {format_number(y1)})"
        )
    return " OR ".join(parts)
