"""Point ingestion onto a fixed pixel grid and Gaussian density smoothing.

Points live in data units; the grid is addressed as (x, y) pixels with
x = column, y = row, pixel (0, 0) covering the (x_min, y_min) corner of the
viewport. Density values are stored row-major, index = y * width + x.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NoDataError, ParameterError

# Gaussian kernels are truncated at this many standard deviations and
# renormalized to sum 1. The dense oracle must use the same constant.
KERNEL_TRUNCATE_SIGMAS = 4.0

# Fallback smoothing bandwidth: 1% of the larger grid dimension.
DEFAULT_BANDWIDTH_FRACTION = 0.01

# Extra data-space margin added around the point bounding box by default.
DEFAULT_PADDING_FRACTION = 0.05


@dataclass(frozen=True)
class PointBatch:
    """Projected data points as columns; weight scales a point's contribution
    to the grid."""

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    texts: list[str | None] | None = None

    def __len__(self) -> int:
        return int(self.xs.shape[0])


@dataclass(frozen=True)
class Viewport:
    """Axis-aligned data-space window mapped onto a width x height pixel grid.

    Pixel (px, py) covers the half-open data rectangle
    [x_min + px*sx, x_min + (px+1)*sx) x [y_min + py*sy, y_min + (py+1)*sy),
    with sx = (x_max - x_min) / width and sy likewise. Each step must exceed
    8 ulp of its axis's largest coordinate, so that pixel edges stay distinct.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    width: int
    height: int

    def __post_init__(self):
        # a finite total span also rules out infinite extents
        if not (self.x_min < self.x_max and self.y_min < self.y_max
                and math.isfinite(self.x_max - self.x_min + self.y_max - self.y_min)):
            raise ParameterError(
                f"viewport extents must be finite and increasing, got "
                f"x [{self.x_min}, {self.x_max}], y [{self.y_min}, {self.y_max}]"
            )
        if self.width < 1 or self.height < 1:
            raise ParameterError("viewport must be at least 1x1 pixels")
        # pixel edges lo + p*step must strictly increase: with M = max(|lo|, |hi|),
        # rounding p*step (at most about 2M) and the sum moves an edge by at most
        # 3 ulp(M), so a step above 6 ulp(M) suffices; 8 leaves a margin
        for lo, hi, step, axis in ((self.x_min, self.x_max, self.sx, "x"),
                                   (self.y_min, self.y_max, self.sy, "y")):
            if not step > 8 * math.ulp(max(abs(lo), abs(hi))):
                raise ParameterError(f"the {axis} range [{lo}, {hi}] is too narrow for the grid")

    @property
    def sx(self) -> float:
        return (self.x_max - self.x_min) / self.width

    @property
    def sy(self) -> float:
        return (self.y_max - self.y_min) / self.height

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Viewport":
        return cls(d["x_min"], d["x_max"], d["y_min"], d["y_max"],
                   int(d["width"]), int(d["height"]))


# Below this many array elements a band costs more in thread start-up and
# hand-over than it saves.
_MIN_BAND_ELEMENTS = 1 << 16


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def run_in_bands(n: int, fn, item_size: int = 1) -> list:
    """fn(band) for contiguous slices that split range(n), in order; returns
    their results.

    There is one band per usable CPU, as long as each band keeps at least
    _MIN_BAND_ELEMENTS array elements (item_size per item of range(n)) and
    one item. Bands after the first run on threads that end before the call
    returns; an exception raised in any band reaches the caller. fn must
    write only inside its own band, so that the result does not depend on
    the count.
    """
    count = max(1, min(n, usable_cpus(), n * item_size // _MIN_BAND_ELEMENTS))
    cuts = [n * i // count for i in range(count + 1)]
    bands = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    if count == 1:
        return [fn(bands[0])]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(count - 1) as pool:
        rest = [pool.submit(fn, band) for band in bands[1:]]
        first = fn(bands[0])
        return [first] + [future.result() for future in rest]


# run_in_blocks hands fn slices of at most this many array elements. With
# band-sized temporaries the peak memory of a long run on a 1000x1000 grid in
# two bands rose by 2 to 10 MB; blocks of 65,536 elements cost more time.
_BLOCK_ELEMENTS = 1 << 18


def run_in_blocks(n: int, fn, item_size: int = 1) -> list:
    """fn(block) for contiguous slices that split range(n), in order, each
    of at most _BLOCK_ELEMENTS array elements (item_size per item) but at
    least one item, or one empty slice for n == 0; the blocks run in bands
    by run_in_bands. Returns their results."""
    step = max(1, _BLOCK_ELEMENTS // max(item_size, 1))

    def blocks(band: slice) -> list:
        return [fn(slice(a, min(a + step, band.stop)))
                for a in range(band.start, band.stop, step) or (band.start,)]

    return [result for band in run_in_bands(n, blocks, item_size) for result in band]


def _check_addressable(count: int, what: str) -> None:
    """Raise MemoryError for an array of more elements than numpy can index,
    before any arithmetic on the size overflows."""
    if count > np.iinfo(np.intp).max:
        raise MemoryError(f"{what} exceeds the address space")


def check_density_values(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise DataError("density values must be finite")
    if (values < 0).any():
        raise DataError("density values must be non-negative")


@dataclass
class DensityMap:
    """Non-negative density values on a viewport grid, shape (height, width)."""

    viewport: Viewport
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        h, w = self.viewport.height, self.viewport.width
        if self.values.shape != (h, w):
            raise DataError(
                f"density values shape {self.values.shape} does not match viewport ({h}, {w})"
            )
        check_density_values(self.values)

    @property
    def width(self) -> int:
        return self.viewport.width

    @property
    def height(self) -> int:
        return self.viewport.height


def auto_viewport(points: PointBatch, width: int, height: int,
                  padding_fraction: float = DEFAULT_PADDING_FRACTION) -> Viewport:
    """Bounding box of the points, expanded by padding_fraction per side.

    An axis where every coordinate coincides is widened symmetrically by
    0.5 data units instead. A box that makes no usable grid (infinite
    extents, or pixels too narrow for their coordinates) is a DataError.
    """
    if width < 1 or height < 1:
        raise ParameterError("grid dimensions must be >= 1")
    # as in bin_points, so that such a grid fails as too large, not as too fine
    _check_addressable(width * height, f"a {width}x{height} grid")
    if not (0 <= padding_fraction < 1):
        raise ParameterError("padding_fraction must be in [0, 1)")
    finite = np.isfinite(points.xs) & np.isfinite(points.ys)
    if len(points) == 0 or not finite.any():
        raise NoDataError("no data: cannot derive a viewport from an empty point set")
    xs, ys = points.xs[finite], points.ys[finite]

    def _axis(lo: float, hi: float) -> tuple[float, float]:
        if lo == hi:
            return lo - 0.5, hi + 0.5
        pad = (hi - lo) * padding_fraction
        return lo - pad, hi + pad

    x_min, x_max = _axis(float(xs.min()), float(xs.max()))
    y_min, y_max = _axis(float(ys.min()), float(ys.max()))
    try:
        return Viewport(x_min, x_max, y_min, y_max, width, height)
    except ParameterError as exc:  # the grid is valid, so the box is at fault
        raise DataError(str(exc)) from None


def bin_points(points: PointBatch, viewport: Viewport) -> DensityMap:
    """Accumulate point weights into the pixel grid.

    Points outside the viewport are dropped; points exactly on the x_max/y_max
    edge land in the last column/row. Non-finite coordinates are skipped with
    a counted warning. The grid total equals the total in-viewport weight.
    """
    w, h = viewport.width, viewport.height
    _check_addressable(w * h, f"a {w}x{h} grid")
    if len(points) == 0:
        return DensityMap(viewport, np.zeros((h, w)))
    if (points.weights < 0).any():
        raise DataError("point weights must be non-negative")

    finite = (np.isfinite(points.xs) & np.isfinite(points.ys)
              & np.isfinite(points.weights))
    n_bad = int(len(points) - finite.sum())
    if n_bad:
        warnings.warn(f"bin_points: skipped {n_bad} point(s) with non-finite values")

    xs, ys, ws = points.xs[finite], points.ys[finite], points.weights[finite]
    inside = ((xs >= viewport.x_min) & (xs <= viewport.x_max)
              & (ys >= viewport.y_min) & (ys <= viewport.y_max))
    xs, ys, ws = xs[inside], ys[inside], ws[inside]

    px = np.floor((xs - viewport.x_min) / viewport.sx).astype(np.int64)
    py = np.floor((ys - viewport.y_min) / viewport.sy).astype(np.int64)
    np.clip(px, 0, w - 1, out=px)
    np.clip(py, 0, h - 1, out=py)
    grid = np.bincount(py * w + px, weights=ws, minlength=w * h)
    return DensityMap(viewport, grid.reshape(h, w))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Discrete Gaussian taps truncated at KERNEL_TRUNCATE_SIGMAS, summing to 1."""
    if sigma <= 0:
        raise ParameterError("gaussian_kernel requires sigma > 0")
    radius = int(math.ceil(KERNEL_TRUNCATE_SIGMAS * sigma))
    _check_addressable(2 * radius + 1, f"a Gaussian kernel of sigma {sigma:g}")
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return k / k.sum()


def smooth(counts: DensityMap, bandwidth_px: float) -> DensityMap:
    """Convolve the grid with an isotropic Gaussian of std bandwidth_px pixels.

    Separable x-then-y passes with zero padding at the borders; bandwidth 0
    returns an unchanged copy. Mass is conserved up to border leakage.
    The input is not modified; both passes write one grid beside it.
    """
    if not (0 <= bandwidth_px < math.inf):
        raise ParameterError("bandwidth_px must be finite and >= 0")
    if bandwidth_px == 0:
        return DensityMap(counts.viewport, counts.values.copy())
    # imported here so that render, label and sql, which never smooth, skip it
    from scipy.ndimage import convolve1d

    k = gaussian_kernel(bandwidth_px)
    values = counts.values
    h, w = values.shape
    out = np.empty_like(values)

    def y_pass(block: slice) -> None:
        # a block reads only its own columns, so it may write them back; an
        # empty temporary, as convolve1d's own output would be zero-filled
        cols = np.empty((h, block.stop - block.start))
        convolve1d(out[:, block], k, axis=0, mode="constant", cval=0.0, output=cols)
        out[:, block] = cols

    # the x pass in blocks of rows, the y pass in blocks of columns; each
    # element is computed as a whole-grid pass would compute it
    run_in_blocks(h, lambda block: convolve1d(
        values[block], k, axis=1, mode="constant", cval=0.0, output=out[block]), w)
    run_in_blocks(w, y_pass, h)
    return DensityMap(counts.viewport, out)


def default_bandwidth(viewport: Viewport) -> float:
    return DEFAULT_BANDWIDTH_FRACTION * max(viewport.width, viewport.height)
