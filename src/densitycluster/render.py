"""Deterministic SVG rendering of cluster documents.

One filled path per cluster (outer ring plus holes, even-odd fill), colored
from a 10-color palette, with an optional grayscale density underlay embedded
as a PNG. Byte output is a pure function of the inputs.
"""
from __future__ import annotations

import base64
import struct
import zlib
from itertools import chain

import numpy as np

from .density import Viewport
from .io import ClusterDocument, _number_texts, format_number as _fmt

PALETTE10 = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _png_gray(img: np.ndarray) -> bytes:
    """Minimal 8-bit grayscale PNG encoder (filter 0 rows, fixed zlib level)."""
    h, w = img.shape
    raw = b"".join(b"\x00" + img[y].tobytes() for y in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 9))
            + chunk(b"IEND", b""))


def _underlay_element(density: np.ndarray, vp: Viewport) -> str:
    # brightest pixel maps to full ink; SVG rows run top-down so flip y
    peak = float(density.max())
    if peak > 0:
        scaled = density * (255.0 / peak)
        gray = 255 - np.rint(scaled, out=scaled).astype(np.uint8)
    else:
        gray = np.full(density.shape, 255, dtype=np.uint8)
    png = _png_gray(gray[::-1])
    b64 = base64.b64encode(png).decode("ascii")
    return (
        f'<image x="{_fmt(vp.x_min)}" y="{_fmt(vp.y_min)}"'
        f' width="{_fmt(vp.x_max - vp.x_min)}"'
        f' height="{_fmt(vp.y_max - vp.y_min)}"'
        f' preserveAspectRatio="none" image-rendering="pixelated"'
        f' href="data:image/png;base64,{b64}"/>'
    )


def render_svg(doc: ClusterDocument, underlay: np.ndarray | None = None) -> bytes:
    """Render a cluster document to SVG bytes.

    Geometry is drawn in data coordinates (pixel-space documents are mapped
    through the viewport) with the y axis flipped so that larger data y is
    higher on screen.
    """
    vp = doc.viewport
    x0, x1 = vp.x_min, vp.x_max
    y0, y1 = vp.y_min, vp.y_max
    span_x, span_y = x1 - x0, y1 - y0
    flip = y0 + y1  # y_svg = flip - y_data

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(span_x)} {_fmt(span_y)}" '
        f'width="800" height="{_fmt(800 * span_y / span_x)}">',
    ]
    if underlay is not None:
        lines.append(_underlay_element(underlay, vp))

    clusters = sorted(doc.clusters, key=lambda c: c.id)
    rings = [r for c in clusters for r in (c.outer, *c.holes)]
    xy = np.array(list(chain.from_iterable(chain.from_iterable(rings))),
                  dtype=np.float64).reshape(-1, 2)
    with np.errstate(over="ignore"):  # inf, as the same float arithmetic gives
        if doc.space == "pixel":  # as to_data_space maps each vertex
            xy = np.array([x0, y0]) + xy * np.array([vp.sx, vp.sy])
        xy[:, 1] = flip - xy[:, 1]
    texts = _number_texts(xy.ravel(), trim=True)
    vertices = list(map(",".join, zip(texts[0::2], texts[1::2])))

    stroke_w = _fmt(0.002 * max(span_x, span_y))
    # each palette colour's attributes, written once
    paint = [f'" fill="{color}" fill-opacity="0.55" fill-rule="evenodd" '
             f'stroke="{color}" stroke-width="{stroke_w}"/>' for color in PALETTE10]
    v = 0
    for cluster in clusters:
        d_parts = []
        for ring in (cluster.outer, *cluster.holes):
            d_parts.append("M" + "L".join(vertices[v:v + len(ring)]) + "Z")
            v += len(ring)
        lines.append('<path d="' + "".join(d_parts) + paint[cluster.color % len(PALETTE10)])
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
