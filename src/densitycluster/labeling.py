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
    data-space rects. Unmatched documents stay unassigned. `viewport` is not
    read: the lookup is sized by the rects alone.

    The lookup is the slab method of point location (Dobkin & Lipton, SIAM J.
    Comput. 1976). The rects' own y0/y1 values cut the plane into y-bands and
    their x0/x1 values into x-ranks; each rect is one entry per band it
    covers, sorted by (band, rank of x0). A point's candidate is the last
    entry at or before its (band, x-rank) key, and it matches iff that entry
    is in the point's band and the point's x-rank is below the rank of the
    entry's x1. The edges are the rects' own floats, so this is the exact
    half-open test, with no rounding; NaN and infinite points match nothing.

    Rects must be disjoint, as `cluster` writes them: a point inside
    overlapping (hand-edited) rects may get either rect or none. Memory is
    one entry per (rect, y-band). For a document written by `cluster` that is
    at most the map's pixel runs; for a crafted document it can grow
    quadratically with the rect count, the slab method's known bound; an
    allocation failure there still exits 3 through `cli.main`.
    """
    # clusters are numbered by their rank among the sorted ids
    cids = sorted({s.cluster_id for s in shapes})
    slot = {cid: i for i, cid in enumerate(cids)}
    rects = np.array([r for s in shapes for r in s.rects], dtype=np.float64).reshape(-1, 4)
    rect_slot = np.array([slot[s.cluster_id] for s in shapes for _ in s.rects],
                         dtype=np.int64)
    keep = (rects[:, 0] < rects[:, 2]) & (rects[:, 1] < rects[:, 3])  # others hold nothing
    rects, rect_slot = rects[keep], rect_slot[keep]

    xe, ye = np.unique(rects[:, 0::2]), np.unique(rects[:, 1::2])
    rank0, rank1 = np.searchsorted(xe, rects[:, 0]), np.searchsorted(xe, rects[:, 2])
    band0 = np.searchsorted(ye, rects[:, 1])
    bands = np.searchsorted(ye, rects[:, 3]) - band0
    # one entry per (rect, band it covers), sorted by (band, rank of x0)
    rect = np.repeat(np.arange(len(rects)), bands)
    band = np.arange(len(rect)) + (band0 + bands - np.cumsum(bands))[rect]
    stride = len(xe) + 1
    key = band * stride + rank0[rect]
    order = np.argsort(key, kind="stable")
    key, rect, band = key[order], rect[order], band[order]

    pband = np.searchsorted(ye, points.ys, "right") - 1
    prank = np.searchsorted(xe, points.xs, "right") - 1
    assigned = np.full(len(points), -1, dtype=np.int64)
    if len(key):
        j = np.searchsorted(key, pband * stride + prank, "right") - 1
        hit = (j >= 0) & (band[j] == pband) & (prank < rank1[rect[j]])
        assigned[hit] = rect_slot[rect[j[hit]]]

    # one stable sort splits the document indices per cluster, ascending
    by_cluster = np.argsort(assigned, kind="stable")
    bounds = np.searchsorted(assigned[by_cluster], np.arange(len(cids) + 1)).tolist()
    return {cid: by_cluster[bounds[i]:bounds[i + 1]] for i, cid in enumerate(cids)}


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
