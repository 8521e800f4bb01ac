import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from soco import (
    ConfigError,
    CurveSet,
    DataError,
    EvalCurve,
    aggregate_trials,
    hausdorff_distance,
    min_pairwise_hausdorff,
    pairwise_hausdorff,
)
from soco.analysis import _normalized_points, normalization_ranges


def curve(points, kind="deletion"):
    return EvalCurve(kind, tuple(points))


# -- hausdorff distance -----------------------------------------------------------


def test_identical_curves_distance_zero():
    a = curve([(0.0, 0.3), (0.5, 0.8), (1.0, 0.1)])
    assert hausdorff_distance(a, a) == 0.0


def test_unit_offset_single_points():
    a = curve([(0.0, 0.0), (1.0, 0.0)])
    b = curve([(0.0, 1.0), (1.0, 1.0)])
    # y span normalizes over the union [0, 1], x positions match
    assert hausdorff_distance(a, b) == pytest.approx(1.0)


def test_vertical_offset_scales_with_union_range():
    a = curve([(0.0, 0.0), (1.0, 0.0)])
    b = curve([(0.0, 0.5), (1.0, 0.5)])
    c = curve([(0.0, 1.0), (1.0, 1.0)])
    d_ab = min(
        hausdorff_distance(a, b), hausdorff_distance(b, c)
    )
    # normalization uses each pair's own union, so both offsets are full-range
    assert hausdorff_distance(a, b) == pytest.approx(1.0)
    assert d_ab <= hausdorff_distance(a, c)


def test_distance_is_symmetric_and_triangular(rng):
    curves = []
    for _ in range(3):
        xs = np.sort(rng.random(6))
        xs += np.arange(6) * 1e-6  # keep strictly increasing
        ys = rng.random(6)
        curves.append(curve(list(zip(xs, ys))))
    a, b, c = curves
    d_ab = hausdorff_distance(a, b)
    d_ba = hausdorff_distance(b, a)
    assert d_ab == d_ba
    assert hausdorff_distance(a, a) == 0.0
    # triangle inequality can fail under per-pair normalization only if the
    # union ranges differ wildly; with shared [0,1]-ish data it should hold
    d_ac = hausdorff_distance(a, c)
    d_cb = hausdorff_distance(c, b)
    assert d_ab <= d_ac + d_cb + 1e-9


values = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def curve_pairs(draw):
    """Two curves of 1-12 points; sometimes both are one point at the same
    x (a degenerate x axis) or share one y level (a degenerate y axis)."""
    if draw(st.booleans()):
        xs_pair = [[draw(values)]] * 2
    else:
        xs_pair = [
            sorted(draw(st.lists(values, min_size=1, max_size=12, unique=True)))
            for _ in range(2)
        ]
    level = draw(st.one_of(st.none(), values))
    return [
        curve([(x, draw(values) if level is None else level) for x in xs])
        for xs in xs_pair
    ]


@settings(max_examples=500, deadline=None)
@given(curve_pairs())
def test_hausdorff_distance_equals_cdist_bit_for_bit(pair):
    a, b = pair
    x_range, y_range = normalization_ranges(a, b)
    d = cdist(
        _normalized_points(a, x_range, y_range),
        _normalized_points(b, x_range, y_range),
        metric="euclidean",
    )
    want = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    assert hausdorff_distance(a, b) == want
    assert hausdorff_distance(b, a) == want


def test_mismatched_axes_rejected():
    a = curve([(0.0, 0.0), (1.0, 1.0)])
    b = curve([(0.0, 0.0), (1.0, 1.0)], kind="completeness")
    with pytest.raises(DataError, match="different axes"):
        hausdorff_distance(a, b)


# -- pairwise helpers ---------------------------------------------------------------


def test_pairwise_table_and_min():
    a = curve([(0.0, 0.0), (1.0, 0.0)])
    b = curve([(0.0, 0.2), (1.0, 0.2)])
    c = curve([(0.0, 1.0), (1.0, 1.0)])
    cs = CurveSet({"a": a, "b": b, "c": c})
    table = pairwise_hausdorff(cs)
    assert set(table) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert min_pairwise_hausdorff(cs) == min(table.values())
    assert min_pairwise_hausdorff(cs) == pytest.approx(table[("a", "b")])


def test_min_pairwise_needs_two_curves():
    cs = CurveSet({"only": curve([(0.0, 0.0), (1.0, 1.0)])})
    with pytest.raises(ConfigError, match="at least two"):
        min_pairwise_hausdorff(cs)


def test_curve_set_rejects_mixed_kinds():
    a = curve([(0.0, 0.0), (1.0, 1.0)])
    b = curve([(0.0, 0.0), (1.0, 1.0)], kind="insertion")
    with pytest.raises(DataError):
        CurveSet({"a": a, "b": b})


def test_identical_curve_pair_min_is_zero():
    pts = [(0.0, 0.4), (0.6, 0.9), (1.0, 0.2)]
    cs = CurveSet({"x": curve(pts), "y": curve(pts)})
    assert min_pairwise_hausdorff(cs) == 0.0


# -- trial aggregation ---------------------------------------------------------------


def test_aggregate_identical_trials_has_zero_std():
    pts = [(0.1, 0.5), (0.5, 0.7), (0.9, 0.2)]
    trials = [curve(pts) for _ in range(5)]
    summary = aggregate_trials(trials, (0.1, 0.5, 0.9))
    np.testing.assert_allclose(summary.mean, [0.5, 0.7, 0.2])
    np.testing.assert_allclose(summary.std, [0.0, 0.0, 0.0])
    assert summary.n_trials == 5
    assert list(summary.counts) == [5, 5, 5]


def test_aggregate_two_level_trials():
    lo = curve([(0.0, 0.0), (1.0, 0.0)])
    hi = curve([(0.0, 1.0), (1.0, 1.0)])
    summary = aggregate_trials([lo, hi], (0.0, 0.5, 1.0))
    np.testing.assert_allclose(summary.mean, [0.5, 0.5, 0.5])
    np.testing.assert_allclose(summary.std, np.full(3, np.sqrt(0.5)))


def test_aggregate_skips_out_of_range_grid_points():
    short = curve([(0.2, 1.0), (0.6, 1.0)])
    full = curve([(0.0, 0.0), (1.0, 0.0)])
    point = curve([(0.4, 1.0)])  # a one-point curve reaches its own x alone
    summary = aggregate_trials([short, full, point], (0.0, 0.4, 1.0))
    assert list(summary.counts) == [1, 3, 1]
    np.testing.assert_allclose(summary.mean, [0.0, 2 / 3, 0.0])
    assert np.isnan(summary.std[0])  # single contribution, no spread
    assert np.isnan(summary.std[2])


def test_aggregate_interpolates_within_trials():
    tri = curve([(0.0, 0.0), (1.0, 1.0)])
    summary = aggregate_trials([tri, tri], (0.25, 0.75))
    np.testing.assert_allclose(summary.mean, [0.25, 0.75])


def test_aggregate_order_invariant():
    a = curve([(0.0, 0.1), (1.0, 0.9)])
    b = curve([(0.0, 0.5), (1.0, 0.5)])
    c = curve([(0.0, 0.9), (1.0, 0.1)])
    grid = (0.0, 0.5, 1.0)
    first = aggregate_trials([a, b, c], grid)
    second = aggregate_trials([c, a, b], grid)
    np.testing.assert_array_equal(first.mean, second.mean)
    np.testing.assert_array_equal(first.std, second.std)


def test_aggregate_validation():
    a = curve([(0.0, 0.1), (1.0, 0.9)])
    with pytest.raises(ConfigError, match="at least two trial curves"):
        aggregate_trials([a], (0.0, 1.0))
    with pytest.raises(ConfigError, match="empty aggregation grid"):
        aggregate_trials([a, a], ())
    b = curve([(0.0, 0.1), (1.0, 0.9)], kind="insertion")
    with pytest.raises(DataError):
        aggregate_trials([a, b], (0.0, 1.0))
