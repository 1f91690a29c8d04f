"""Cluster labels from text via class-based TF-IDF, plus SQL range predicates.

Documents are attached to clusters by rectangle containment (half-open, in
data space), which is exactly the membership the emitted SQL predicate
selects, so labels computed in-process agree with labels computed by running
the predicate in a database.

`ctfidf_labels` returns the labels as data; `io.labels_json` writes the
labels file's text, and `ClusterDocument.to_json` the labels merged into a
document.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat

import numpy as np

from .density import PointBatch, Viewport, run_in_blocks
from .errors import ParameterError
from .geometry import ClusterShape
from .io import _number_texts

# every byte but [a-z0-9] maps to a space; a non-ASCII code point encodes as "?"
_WORD_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32
                    for b in range(256))
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MIN_TOKEN_LEN = 2


def _load_words(name: str) -> frozenset[str]:
    """The words of a package word list: one a line, with comments and
    blank lines ignored."""
    text = resources.files("densitycluster").joinpath(f"data/{name}").read_text()
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


STOPWORDS = _load_words("stopwords.txt")
# lowercase keywords that stand for no column where a bare column name is read
SQL_KEYWORDS = _load_words("sql_keywords.txt")


@dataclass
class LabelResult:
    cluster_id: int
    top_terms: list[tuple[str, float]]


def _words(text: str) -> list[str]:
    """The ASCII-alphanumeric runs of the lowercased text. Lowering runs
    first; every other code point, each non-ASCII one included, separates."""
    return text.lower().encode("ascii", "replace").translate(_WORD_BYTES) \
        .decode("ascii").split()


def tokenize(text: str) -> list[str]:
    """Lowercase ASCII-alphanumeric runs, minus short tokens and stopwords."""
    return [t for t in _words(text) if len(t) >= _MIN_TOKEN_LEN and t not in STOPWORDS]


def _count_tokens(texts) -> Counter:
    # "\n" separates words, so counting the joined texts in slices of about
    # 1 MiB, each cut at a "\n", counts as summing per-text tokenize() calls
    # does, with a word list bounded by the slice; short words and stopwords
    # are dropped from the distinct words only
    text = "\n".join(filter(None, texts))
    counts: Counter = Counter()
    start = 0
    while start < len(text):
        stop = text.find("\n", start + (1 << 20))
        stop = len(text) if stop < 0 else stop
        counts.update(_words(text[start:stop]))
        start = stop + 1
    for word in [w for w in counts if len(w) < _MIN_TOKEN_LEN or w in STOPWORDS]:
        del counts[word]
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
    The points are located in blocks (density.run_in_blocks), each block
    writing only its own slice of the result.

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

    assigned = np.full(len(points), -1, dtype=np.int64)

    def locate(part: slice) -> None:
        pband = np.searchsorted(ye, points.ys[part], "right") - 1
        prank = np.searchsorted(xe, points.xs[part], "right") - 1
        j = np.searchsorted(key, pband * stride + prank, "right") - 1
        hit = (j >= 0) & (band[j] == pband) & (prank < rank1[rect[j]])
        assigned[part][hit] = rect_slot[rect[j[hit]]]

    # numpy's searches release the GIL, so bands of points run at once; at 4
    # elements a point, a band takes at least 16,384 points
    if len(key):
        run_in_blocks(len(points), locate, 4)

    # one stable sort splits the document indices per cluster, ascending
    by_cluster = np.argsort(assigned, kind="stable")
    bounds = np.searchsorted(assigned[by_cluster], np.arange(len(cids) + 1)).tolist()
    return {cid: by_cluster[bounds[i]:bounds[i + 1]] for i, cid in enumerate(cids)}


def ctfidf_labels(assignment: dict[int, np.ndarray], documents,
                  k: int = 5) -> list[LabelResult]:
    """Top-k label terms per cluster by class-based TF-IDF, in cluster id
    order (Grootendorst, BERTopic, arXiv 2203.05794).

    score(t, c) = tf(t, c) * log(1 + A / corpus_count(t)) with
    tf(t, c) = count of t in c / total tokens in c and A = mean token count
    per cluster. Only positive scores are kept. Ties rank lexicographically.
    Clusters without tokens get an empty label. Each document is in at most
    one cluster, as `assign_documents` gives.

    Each cluster's tokens are counted by `Counter` (`_count_tokens`); the
    scores are then one float64 array over every (cluster, term) entry.
    Each term's log is math.log's, taken once per term, and the divisions
    and product are the IEEE operations a per-term loop of Python floats
    makes, so the scores are bit-identical to such a loop's.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    # fromiter, unlike np.array, does not look into each text for a nesting
    docs = np.fromiter(documents, dtype=object, count=len(documents))
    cids = sorted(assignment)
    counters = []
    unassigned = np.ones(len(docs), dtype=bool)
    for cid in cids:
        counters.append(_count_tokens(docs[assignment[cid]].tolist()))
        unassigned[assignment[cid]] = False
    # each document is in at most one cluster, so the corpus counts are the
    # cluster counts plus the unassigned documents' counts
    rest = _count_tokens(docs[unassigned].tolist())

    # one (row, term, count) entry per distinct term of each cluster, with
    # terms numbered by their rank in the sorted vocabulary
    words = list(chain.from_iterable(counters))
    vocab = sorted(set(words))
    rank = dict(zip(vocab, range(len(vocab))))
    term = np.fromiter(map(rank.__getitem__, words), np.int64, len(words))
    count = np.fromiter(chain.from_iterable(c.values() for c in counters),
                        np.float64, len(words))
    row = np.repeat(np.arange(len(cids)), list(map(len, counters)))
    # sums of ints below 2**53, exact in float64
    total = np.bincount(row, count, len(cids))
    corpus = np.bincount(term, count, len(vocab)) \
        + np.fromiter(map(rest.get, vocab, repeat(0)), np.float64, len(vocab))
    mean_tokens = int(total.sum()) / len(cids) if cids else 0.0
    log = np.array([math.log(1.0 + mean_tokens / n) for n in corpus.tolist()])
    score = count / total[row] * log[term]

    # by cluster, then descending score, then term
    top = np.flatnonzero(score > 0)
    top = top[np.lexsort((term[top], -score[top], row[top]))]
    top_row = row[top]
    top = top[np.arange(len(top)) - np.searchsorted(top_row, top_row) < k]
    pairs = list(zip(map(vocab.__getitem__, term[top].tolist()), score[top].tolist()))
    cut = np.searchsorted(row[top], np.arange(len(cids) + 1)).tolist()
    return [LabelResult(cid, pairs[a:b]) for cid, a, b in zip(cids, cut, cut[1:])]


def check_sql_columns(*columns: str) -> None:
    """Raise ParameterError unless every name matches [A-Za-z_][A-Za-z0-9_]*,
    which keeps a predicate injection-free, and is not one of SQL_KEYWORDS,
    in any case, which SQLite would not read as the column."""
    for ident in columns:
        if not _IDENT_RE.match(ident):
            raise ParameterError(f"invalid column identifier: {ident!r}")
        if ident.lower() in SQL_KEYWORDS:
            raise ParameterError(f"column identifier is an SQL keyword: {ident!r}")


def emit_sql_predicate(shape: ClusterShape, x_column: str, y_column: str) -> str:
    """WHERE-clause text selecting exactly the rows inside the rect cover.

    One parenthesized conjunct per rectangle, OR-joined in stored order.
    The column names must pass check_sql_columns.
    """
    check_sql_columns(x_column, y_column)
    if not shape.rects:
        raise ParameterError(
            f"cluster {shape.cluster_id} has no rectangles to emit")
    texts = _number_texts(np.array(shape.rects, dtype=np.float64).ravel(), trim=True)
    return " OR ".join(
        f"({x_column} >= {x0} AND {x_column} < {x1}"
        f" AND {y_column} >= {y0} AND {y_column} < {y1})"
        for x0, y0, x1, y1 in zip(*[iter(texts)] * 4))
