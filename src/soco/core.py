"""Core data types shared by every other module.

A dataset is one array of samples, each either tabular (a feature vector of
shape ``(d,)``) or grid shaped (``(h, w, c)``), plus a label array.  A map
set is one array of attribution maps, each mirroring the feature shape of
the sample it explains.  Both are checked once, when built, and read-only
afterwards.  Evaluation results are point curves whose axes follow from
their metric kind, so downstream comparison code never has to guess units.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Protocol, Sequence, Union

import numpy as np


class SocoError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(SocoError):
    """Invalid configuration or parameter domain (CLI exit code 2)."""


class ModelBridgeError(SocoError):
    """External model subprocess failed (CLI exit code 3)."""


class DataError(SocoError):
    """Invalid data, maps, or files (CLI exit code 4)."""


class WorkerError(SocoError):
    """A worker process died before it reported its job (CLI exit code 5)."""


def check_count(value, key: str) -> int:
    """``value`` if it is a non-negative integer (Python or numpy, never a bool).

    Anything else, a float such as 1.5 or a string such as "3" included, is a
    ``ConfigError`` naming ``key``, never silently truncated or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return int(value)


def check_real(value, key: str) -> float:
    """``value`` if it is a finite real number (Python or numpy, never a bool)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{key} must be a finite real number, got {value!r}")
    return float(value)


def check_keys(obj, allowed: Iterable[str], where: str) -> None:
    """``obj`` is an object whose keys are all ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def check_flag(value, key: str) -> bool:
    """``value`` if it is a boolean (Python or numpy)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return bool(value)


TABULAR_NDIM = 1
GRID_NDIM = 3


def _check_shape(shape: tuple[int, ...]) -> None:
    """One sample's or one map's shape: ``(d,)`` tabular or ``(h, w, c)`` grid."""
    if len(shape) not in (TABULAR_NDIM, GRID_NDIM):
        raise DataError(f"features must be (d,) tabular or (h, w, c) grid, got shape {shape}")
    if 0 in shape:
        raise DataError("empty feature array")


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy, so no caller can change what was checked."""
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


class Dataset:
    """A fixed evaluation set held as arrays.

    ``features`` is ``(n, d)`` or ``(n, h, w, c)``; ``labels`` holds one class
    index per sample, and ``sample_ids`` one stable identifier per sample
    (``0 .. n-1`` when not given).  Everything is checked once, here, and
    stored read-only; the per-feature means used by mean imputation are
    computed once from the stored features.
    """

    def __init__(
        self,
        features,
        labels: Sequence[int],
        n_classes: int,
        sample_ids: Optional[Sequence[int]] = None,
    ) -> None:
        feats = _frozen(features)
        _check_shape(feats.shape[1:])
        n = feats.shape[0]
        if n == 0:
            raise DataError("empty evaluation set")
        if not np.all(np.isfinite(feats)):
            raise DataError("non-finite feature value")
        if n_classes < 2:
            raise DataError(f"need at least two classes, got {n_classes}")
        labs = np.array(labels, dtype=np.int64)
        ids = np.arange(n) if sample_ids is None else np.array(sample_ids, dtype=np.int64)
        if labs.shape != (n,):
            raise DataError(f"need one label per sample ({labs.size} labels, {n} samples)")
        if ids.shape != (n,):
            raise DataError(f"need one sample id per sample ({ids.size} ids, {n} samples)")
        if labs.min() < 0:
            raise DataError(f"negative label {labs.min()}")
        if labs.max() >= n_classes:
            raise DataError(f"label {labs.max()} out of range for {n_classes} classes")
        means = feats.mean(axis=0)
        for arr in (labs, ids, means):
            arr.flags.writeable = False
        self._features = feats
        self._labels = labs
        self.n_classes = int(n_classes)
        self.sample_ids = ids
        self.feature_means = means

    def __len__(self) -> int:
        return self._features.shape[0]

    @property
    def is_grid(self) -> bool:
        return self._features.ndim == GRID_NDIM + 1

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self._features.shape[1:]

    @property
    def n_features(self) -> int:
        return int(np.prod(self.feature_shape))

    def feature_matrix(self) -> np.ndarray:
        """All sample features, ``(n, *feature_shape)``; read-only, not a copy."""
        return self._features

    def labels(self) -> np.ndarray:
        """One int64 class index per sample; read-only, not a copy."""
        return self._labels


@dataclass(frozen=True)
class AttributionMap:
    """One map of a ``MapSet``, as iterating the set yields it: a read-only
    view of the map's row of ``values``."""

    values: np.ndarray


class MapSet:
    """The attribution maps of a whole dataset, one per sample.

    ``values`` is one read-only float64 ``(n, *feature_shape)`` array, checked
    once: finite, non-negative, and at most 1 when ``normalized``.
    """

    def __init__(self, values, normalized: bool = False) -> None:
        arr = _frozen(values)
        _check_shape(arr.shape[1:])
        if arr.shape[0] == 0:
            raise DataError("no maps")
        if not np.all(np.isfinite(arr)):
            raise DataError("non-finite attribution")
        if np.any(arr < 0):
            raise DataError("negative attribution value")
        if normalized and arr.max(initial=0.0) > 1.0 + 1e-12:
            raise DataError("normalized map has values above 1")
        self.values = arr
        self.normalized = normalized

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self) -> Iterator[AttributionMap]:
        return (AttributionMap(row) for row in self.values)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]


def check_maps_fit(maps: MapSet, dataset: Dataset) -> None:
    """``maps`` holds one map per sample of ``dataset``, each of its feature shape."""
    if len(maps) != len(dataset):
        raise DataError(
            f"need one attribution map per sample ({len(maps)} maps for {len(dataset)} samples)"
        )
    if maps.feature_shape != dataset.feature_shape:
        raise DataError("attribution map shape does not match the dataset")


def normalize_attribution(values: Union[MapSet, np.ndarray]) -> MapSet:
    """Clip negatives to zero and divide each map by its maximum when positive.

    ``values`` is a stack of raw maps, ``(n, *feature_shape)``, whose entries
    may be negative; those are clipped before scaling.  An all-zero map is
    returned unchanged.  Idempotent, and order-preserving on the strictly
    positive entries of each map.
    """
    arr = values.values if isinstance(values, MapSet) else np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite attribution")
    if arr.ndim < 2:
        raise DataError(f"need a stack of maps, got shape {arr.shape}")
    arr = np.maximum(arr, 0.0)
    peak = arr.reshape(arr.shape[0], -1).max(axis=1, initial=0.0)
    # dividing by one leaves an all-zero map exactly as it was
    peak = np.where(peak > 0, peak, 1.0).reshape((-1,) + (1,) * (arr.ndim - 1))
    return MapSet(arr / peak, normalized=True)


class Model(Protocol):
    """Classifier interface used by all metrics.

    ``predict_probs`` takes a stacked ``(n, *feature_shape)`` feature array
    and returns an ``(n, n_classes)`` probability matrix with rows on the
    simplex.  A model may also offer ``predict_probs_many(batches)``, which
    takes a lazy iterable of such arrays and returns one matrix per batch;
    see ``predict_many``.
    """

    def predict_probs(self, batch: np.ndarray) -> np.ndarray:
        ...


def predict_many(model: Model, batches: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Probabilities for each batch drawn from ``batches``, in order.

    A model with ``predict_probs_many`` gets the whole lazy iterable, so it
    can overlap the work of consecutive batches; any other model gets one
    ``predict_probs`` call per batch.  Either way a batch is used up before
    the next one is drawn, so the caller may rewrite one buffer for all.
    """
    many = getattr(model, "predict_probs_many", None)
    if many is not None:
        return iter(many(batches))
    return (model.predict_probs(batch) for batch in batches)


def batch_features(batch) -> np.ndarray:
    """A model input batch as one float64 array."""
    return np.asarray(batch, dtype=np.float64)


def predicted_classes(probs: np.ndarray) -> np.ndarray:
    """Argmax over classes; ties resolve to the lowest class index."""
    return np.argmax(probs, axis=1)


def accuracy_from_probs(probs: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy as an integer hit count over the batch, so the result
    does not depend on evaluation order."""
    if probs.shape[0] == 0:
        raise DataError("empty evaluation set")
    hits = int(np.count_nonzero(predicted_classes(probs) == labels))
    return hits / probs.shape[0]


# each metric kind's x axis and y label, the only place either is named
CURVE_AXES = {
    "soundness": ("accuracy_level", "mean_soundness"),
    "completeness": ("attribution_threshold", "accuracy_drop"),
    **dict.fromkeys(("deletion", "insertion", "road"), ("masked_fraction", "accuracy")),
}


@dataclass(frozen=True)
class EvalCurve:
    """A metric result: points strictly ordered by x, plus provenance.  The
    axes follow from ``metric_kind`` (``CURVE_AXES``)."""

    metric_kind: str
    points: tuple[tuple[float, float], ...]
    config_digest: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a list or dict kind would raise TypeError in the lookup
        if not isinstance(self.metric_kind, str) or self.metric_kind not in CURVE_AXES:
            raise ConfigError(f"unknown metric kind {self.metric_kind!r}")
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DataError("curve has no points")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DataError("non-finite curve point")
        if np.any(np.diff(xs) <= 0):
            raise DataError("curve points must be strictly increasing in x")
        if self.metric_kind == "soundness" and (ys.min() < -1e-12 or ys.max() > 1 + 1e-12):
            raise DataError("soundness values must lie in [0, 1]")

    @property
    def x_axis(self) -> str:
        return CURVE_AXES[self.metric_kind][0]

    def xs(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def ys(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])
