import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitycluster import density
from densitycluster.density import (DensityMap, PointBatch, Viewport,
                                    auto_viewport, bin_points, check_density_values,
                                    gaussian_kernel, run_in_bands, run_in_blocks,
                                    smooth)
from densitycluster.errors import DataError, NoDataError, ParameterError
from densitycluster.oracles import dense_convolution_oracle

from conftest import BAND_SHAPES, plateau_map


def _batch(xs, ys, weights=None):
    weights = np.ones(len(xs)) if weights is None else weights
    return PointBatch(np.array(xs, dtype=float), np.array(ys, dtype=float),
                      np.array(weights, dtype=float))


def test_auto_viewport_exact_bbox():
    vp = auto_viewport(_batch([0, 10], [0, 10]), 16, 16, 0.0)
    assert (vp.x_min, vp.x_max, vp.y_min, vp.y_max) == (0, 10, 0, 10)


def test_auto_viewport_padding():
    vp = auto_viewport(_batch([0, 10], [0, 10]), 16, 16, 0.1)
    assert (vp.x_min, vp.x_max, vp.y_min, vp.y_max) == (-1, 11, -1, 11)


def test_auto_viewport_degenerate_axis():
    vp = auto_viewport(_batch([3, 3], [7, 7]), 4, 4, 0.0)
    assert (vp.x_min, vp.x_max, vp.y_min, vp.y_max) == (2.5, 3.5, 6.5, 7.5)


def test_auto_viewport_empty_is_error():
    with pytest.raises(NoDataError):
        auto_viewport(_batch([], []), 8, 8)
    with pytest.raises(ParameterError):
        auto_viewport(_batch([0], [0]), 8, 8, padding_fraction=1.0)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_auto_viewport_pixel_step_bound(axis):
    # on [1, 1 + k ulp(1)] over 4 pixels the step is exactly k/4 ulp(1); the
    # bound asks for more than 8 ulp of the larger extent
    def viewport(k):
        narrow, wide = [1.0, 1.0 + k * math.ulp(1.0)], [0.0, 10.0]
        xs, ys = (narrow, wide) if axis == "x" else (wide, narrow)
        return auto_viewport(_batch(xs, ys), 4, 4, 0.0)

    vp = viewport(33)
    edges = [vp.x_min + p * vp.sx if axis == "x" else vp.y_min + p * vp.sy
             for p in range(5)]
    assert edges == sorted(set(edges))
    with pytest.raises(DataError, match="too narrow"):
        viewport(32)


def test_viewport_validation():
    with pytest.raises(ParameterError):
        Viewport(1, 1, 0, 2, 4, 4)
    with pytest.raises(ParameterError):
        Viewport(0, 1, 0, 1, 0, 4)


def test_bin_points_one_per_cell():
    vp = Viewport(0, 2, 0, 2, 2, 2)
    pts = _batch([0.5, 1.5, 0.5, 1.5], [0.5, 0.5, 1.5, 1.5])
    dm = bin_points(pts, vp)
    assert np.array_equal(dm.values, np.ones((2, 2)))
    assert dm.values.sum() == 4


def test_bin_points_empty():
    dm = bin_points(_batch([], []), Viewport(0, 1, 0, 1, 3, 3))
    assert not dm.values.any()


def test_bin_points_max_edge_inclusive_and_outside_dropped():
    vp = Viewport(0, 2, 0, 2, 2, 2)
    dm = bin_points(_batch([2.0, 2.1, -0.1], [2.0, 0.5, 0.5]), vp)
    assert dm.values[1, 1] == 1.0
    assert dm.values.sum() == 1.0


def test_bin_points_mass_conservation_large():
    rng = np.random.default_rng(0)
    n = 100_000
    batch = PointBatch(rng.uniform(0, 10, n), rng.uniform(0, 10, n), np.ones(n))
    dm = bin_points(batch, Viewport(0, 10, 0, 10, 64, 64))
    assert dm.values.sum() == n


def test_bin_points_nonfinite_skipped_with_warning():
    vp = Viewport(0, 1, 0, 1, 2, 2)
    pts = _batch([0.5, np.nan, np.inf], [0.5, 0.5, 0.1])
    with pytest.warns(UserWarning, match="2 point"):
        dm = bin_points(pts, vp)
    assert dm.values.sum() == 1.0


def test_bin_points_negative_weight_rejected():
    with pytest.raises(DataError):
        bin_points(_batch([0.5], [0.5], [-1.0]), Viewport(0, 1, 0, 1, 2, 2))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 8, allow_nan=False),
                          st.floats(0, 8, allow_nan=False),
                          st.integers(0, 5)),
                min_size=0, max_size=60))
def test_bin_points_mass_conservation_property(rows):
    vp = Viewport(0, 8, 0, 8, 7, 5)
    pts = _batch([x for x, _, _ in rows], [y for _, y, _ in rows],
                 [float(wt) for _, _, wt in rows])
    dm = bin_points(pts, vp)
    assert dm.values.sum() == sum(wt for _, _, wt in rows)
    assert (dm.values >= 0).all()


def test_smooth_zero_bandwidth_is_copy():
    vp = Viewport(0, 4, 0, 4, 4, 4)
    dm = DensityMap(vp, np.arange(16, dtype=float).reshape(4, 4))
    out = smooth(dm, 0.0)
    assert np.array_equal(out.values, dm.values)
    assert out.values is not dm.values


def test_smooth_negative_bandwidth_error():
    dm = DensityMap(Viewport(0, 4, 0, 4, 4, 4), np.zeros((4, 4)))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            smooth(dm, bad)


def _impulse(size, sigma=None):
    vp = Viewport(0, size, 0, size, size, size)
    vals = np.zeros((size, size))
    vals[size // 2, size // 2] = 1.0
    return DensityMap(vp, vals)


def test_smooth_impulse_matches_dense_oracle():
    dm = _impulse(33)
    sep = smooth(dm, 2.0)
    dense = dense_convolution_oracle(dm, 2.0)
    assert np.abs(sep.values - dense.values).max() <= 1e-6
    # center of the impulse response ~ 1 / (2*pi*sigma^2)
    assert sep.values[16, 16] == pytest.approx(0.039790135140764016, abs=1e-12)
    assert sep.values[16, 16] == pytest.approx(1 / (2 * np.pi * 4), rel=1e-3)


def test_smooth_zero_grid_stays_zero():
    dm = DensityMap(Viewport(0, 8, 0, 8, 8, 8), np.zeros((8, 8)))
    assert not smooth(dm, 3.0).values.any()


def test_smooth_interior_impulse_mass_one():
    dm = _impulse(33)
    out = smooth(dm, 3.0)
    assert out.values.sum() == pytest.approx(1.0, abs=1e-9)
    assert (out.values >= 0).all()


def test_smooth_shift_equivariance():
    size = 48
    vp = Viewport(0, size, 0, size, size, size)
    base = np.zeros((size, size))
    base[20, 18] = 1.0
    shifted = np.zeros((size, size))
    shifted[23, 21] = 1.0  # (dx, dy) = (3, 3), well clear of the borders
    a = smooth(DensityMap(vp, base), 2.0).values
    b = smooth(DensityMap(vp, shifted), 2.0).values
    assert np.array_equal(a[:-3, :-3], b[3:, 3:])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.4, 4.0))
def test_smooth_matches_dense_oracle_property(seed, sigma):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(2, 65)), int(rng.integers(2, 65))
    dm = DensityMap(Viewport(0, w, 0, h, w, h), rng.random((h, w)))
    sep = smooth(dm, sigma)
    dense = dense_convolution_oracle(dm, sigma)
    assert np.abs(sep.values - dense.values).max() <= 1e-6
    assert (sep.values >= 0).all()


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.3, 1.0, 2.5):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(k, k[::-1])
        assert len(k) == 2 * int(np.ceil(4 * sigma)) + 1


def test_density_map_validation():
    vp = Viewport(0, 2, 0, 2, 2, 2)
    with pytest.raises(DataError):
        DensityMap(vp, np.zeros((3, 2)))
    with pytest.raises(DataError):
        DensityMap(vp, np.array([[0.0, 1.0], [np.nan, 0.0]]))
    with pytest.raises(DataError):
        DensityMap(vp, np.array([[0.0, 1.0], [-0.5, 0.0]]))


@pytest.mark.parametrize("bandwidth", [0.5, 1.0, 2.5, 10.0])
def test_smooth_band_count_invariant(band_count, bandwidth):
    # at bandwidth 10 the kernel has 81 taps, far wider than any band here
    for seed, shape in enumerate(BAND_SHAPES):
        dm = plateau_map(seed, *shape)
        band_count(1)
        ref = smooth(dm, bandwidth).values.tobytes()
        for count in (2, 3, 7):
            band_count(count)
            assert smooth(dm, bandwidth).values.tobytes() == ref, (shape, count)


@pytest.mark.parametrize("count", [1, 3])
def test_smooth_leaves_input_unchanged(band_count, count):
    band_count(count)
    for seed, shape in enumerate(BAND_SHAPES):
        dm = plateau_map(seed, *shape)
        before = dm.values.tobytes()
        for bandwidth in (0.0, 0.5, 2.5, 10.0):
            out = smooth(dm, bandwidth)
            assert not np.shares_memory(out.values, dm.values)
            assert dm.values.tobytes() == before, (shape, bandwidth)


def test_check_density_values_reports_non_finite_first():
    # a negative value at the start and a NaN at the end: the NaN is reported
    for seed, shape in enumerate(BAND_SHAPES):
        clean = plateau_map(seed, *shape).values
        for values in (clean, clean.ravel()):
            bad, negative = values.copy(), values.copy()
            bad.flat[0] = negative.flat[0] = -1.0
            bad.flat[-1] = np.nan
            check_density_values(values)
            with pytest.raises(DataError, match="must be finite"):
                check_density_values(bad)
            with pytest.raises(DataError, match="must be non-negative"):
                check_density_values(negative)


def test_run_in_blocks_splits_bands_in_order(band_count, monkeypatch):
    band_count(3)
    monkeypatch.setattr(density, "_BLOCK_ELEMENTS", 4)
    # items of 2 elements: blocks of 2 items within bands of 3 or 4 items
    assert run_in_blocks(10, lambda b: (b.start, b.stop), 2) == [
        (0, 2), (2, 3), (3, 5), (5, 6), (6, 8), (8, 10)]
    assert run_in_blocks(2, lambda b: (b.start, b.stop), 9) == [(0, 1), (1, 2)]
    assert run_in_blocks(0, lambda b: (b.start, b.stop), 9) == [(0, 0)]


def test_run_in_bands_splits_in_order(band_count):
    band_count(3)
    assert run_in_bands(10, lambda b: (b.start, b.stop)) == [(0, 3), (3, 6), (6, 10)]
    band_count(7)
    assert run_in_bands(2, lambda b: (b.start, b.stop)) == [(0, 1), (1, 2)]
    assert run_in_bands(0, lambda b: (b.start, b.stop)) == [(0, 0)]
