"""Curve comparison and multi-trial aggregation.

Curves from different metrics live on incomparable axes (accuracy levels,
value thresholds, mask fractions), so Hausdorff distances are computed
after normalizing each axis to [0, 1] by the range of the two curves'
union.  Curves are compared as finite point sets, matching the discrete
evaluation grids that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ConfigError, DataError, EvalCurve


@dataclass(frozen=True)
class CurveSet:
    """Labeled curves that are comparable with each other."""

    curves: Mapping[str, EvalCurve]

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", dict(self.curves))
        kinds = {c.metric_kind for c in self.curves.values()}
        axes = {c.x_axis for c in self.curves.values()}
        if len(kinds) > 1 or len(axes) > 1:
            raise DataError("curves in a set must share metric kind and x axis")


@dataclass(frozen=True)
class TrialSummary:
    """Pointwise mean and spread of repeated-trial curves on a shared grid."""

    x_grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    counts: np.ndarray
    n_trials: int

    def __post_init__(self) -> None:
        for name in ("x_grid", "mean", "std", "counts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.x_grid.shape == self.mean.shape == self.std.shape == self.counts.shape):
            raise DataError("summary arrays must share one length")
        if self.n_trials < 1:
            raise DataError("n_trials must be positive")


def normalization_ranges(
    p: EvalCurve, q: EvalCurve
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-axis (min, max) over the union of both curves' points."""
    xs = np.concatenate([p.xs(), q.xs()])
    ys = np.concatenate([p.ys(), q.ys()])
    return (float(xs.min()), float(xs.max())), (float(ys.min()), float(ys.max()))


def _normalized_points(curve: EvalCurve, x_range, y_range) -> np.ndarray:
    pts = np.column_stack([curve.xs(), curve.ys()])
    for axis, (lo, hi) in enumerate((x_range, y_range)):
        span = hi - lo
        if span > 0:
            pts[:, axis] = (pts[:, axis] - lo) / span
        else:
            pts[:, axis] = 0.0  # degenerate axis carries no distance
    return pts


def hausdorff_distance(p: EvalCurve, q: EvalCurve) -> float:
    """Symmetric Hausdorff distance between axis-normalized curve point sets."""
    if p.x_axis != q.x_axis:
        raise DataError(
            f"cannot compare curves on different axes ({p.x_axis} vs {q.x_axis})"
        )
    x_range, y_range = normalization_ranges(p, q)
    a = _normalized_points(p, x_range, y_range)
    b = _normalized_points(q, x_range, y_range)
    # the root of the summed squares, added in axis order: the same bits as
    # scipy's cdist(a, b, "euclidean"), without importing scipy
    d = np.sqrt(np.square(a[:, None, :] - b[None, :, :]).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def pairwise_hausdorff(curve_set: CurveSet) -> dict[tuple[str, str], float]:
    """Hausdorff distance for every unordered label pair, keyed (a, b), a < b."""
    labels = sorted(curve_set.curves)
    if len(labels) < 2:
        raise ConfigError("need at least two curves to compare")
    out = {}
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            out[(la, lb)] = hausdorff_distance(curve_set.curves[la], curve_set.curves[lb])
    return out


def min_pairwise_hausdorff(curve_set: CurveSet) -> float:
    """Smallest Hausdorff distance over all unordered curve pairs.

    A small value means the metric cannot tell at least one pair of these
    curves apart.
    """
    return min(pairwise_hausdorff(curve_set).values())


def aggregate_trials(curves: Sequence[EvalCurve], x_grid: Sequence[float]) -> TrialSummary:
    """Interpolate each trial curve onto a shared grid and summarize pointwise.

    Grid points outside a curve's own x-range draw nothing from that curve
    (no extrapolation); counts reports how many trials reached each point.
    Standard deviation is the sample estimate and is NaN wherever fewer
    than two trials contribute.
    """
    grid = np.asarray(x_grid, dtype=np.float64)
    if grid.size == 0:
        raise ConfigError("empty aggregation grid")
    if len(curves) < 2:
        raise ConfigError("need at least two trial curves")
    kinds = {c.metric_kind for c in curves}
    if len(kinds) > 1:
        raise DataError("trial curves must share one metric kind")

    rows = np.full((len(curves), grid.size), np.nan)
    for i, curve in enumerate(curves):
        xs, ys = curve.xs(), curve.ys()
        inside = (grid >= xs[0]) & (grid <= xs[-1])
        rows[i, inside] = np.interp(grid[inside], xs, ys)

    missing = np.isnan(rows)
    counts = np.sum(~missing, axis=0)
    sums = np.where(missing, 0.0, rows).sum(axis=0)
    mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    dev = np.where(missing, 0.0, rows - mean)
    ssq = (dev**2).sum(axis=0)
    std = np.where(counts >= 2, np.sqrt(ssq / np.maximum(counts - 1, 1)), np.nan)
    return TrialSummary(
        x_grid=grid, mean=mean, std=std, counts=counts, n_trials=len(curves)
    )
