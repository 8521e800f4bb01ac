"""Core data types shared by every other module.

Samples and datasets are either tabular (feature vectors of shape ``(d,)``)
or grid shaped (``(h, w, c)``).  Attribution maps mirror the feature shape
of the sample they explain.  Evaluation results are point curves with a
declared x axis so downstream comparison code never has to guess units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence, Union

import numpy as np


class SocoError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(SocoError):
    """Invalid configuration or parameter domain (CLI exit code 2)."""


class ModelBridgeError(SocoError):
    """External model subprocess failed (CLI exit code 3)."""


class DataError(SocoError):
    """Invalid data, maps, or files (CLI exit code 4)."""


TABULAR_NDIM = 1
GRID_NDIM = 3


def _check_feature_shape(features: np.ndarray) -> None:
    if features.ndim not in (TABULAR_NDIM, GRID_NDIM):
        raise DataError(
            f"features must be (d,) tabular or (h, w, c) grid, got shape {features.shape}"
        )
    if features.size == 0:
        raise DataError("empty feature array")
    if not np.all(np.isfinite(features)):
        raise DataError("non-finite feature value")


@dataclass(frozen=True)
class Sample:
    """One model input with its class label and a stable identifier."""

    features: np.ndarray
    label: int
    sample_id: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        _check_feature_shape(self.features)
        if self.label < 0:
            raise DataError(f"negative label {self.label}")

    @property
    def is_grid(self) -> bool:
        return self.features.ndim == GRID_NDIM


@dataclass(frozen=True)
class Dataset:
    """A fixed collection of samples with per-feature means cached for imputation."""

    samples: tuple[Sample, ...]
    n_classes: int
    feature_means: np.ndarray

    def __post_init__(self) -> None:
        if not self.samples:
            raise DataError("empty evaluation set")
        if self.n_classes < 2:
            raise DataError(f"need at least two classes, got {self.n_classes}")
        shape = self.samples[0].features.shape
        for s in self.samples:
            if s.features.shape != shape:
                raise DataError("inconsistent feature shapes within dataset")
            if s.label >= self.n_classes:
                raise DataError(f"label {s.label} out of range for {self.n_classes} classes")
        means = np.asarray(self.feature_means, dtype=np.float64)
        object.__setattr__(self, "feature_means", means)
        if means.shape != shape:
            raise DataError("feature_means shape does not match samples")
        recomputed = self.feature_matrix().mean(axis=0)
        if not np.allclose(means, recomputed, atol=1e-6):
            raise DataError("feature_means does not match the sample mean")

    @classmethod
    def from_arrays(cls, features: np.ndarray, labels: Sequence[int], n_classes: int) -> "Dataset":
        features = np.asarray(features, dtype=np.float64)
        samples = tuple(
            Sample(features=features[i], label=int(labels[i]), sample_id=i)
            for i in range(features.shape[0])
        )
        return cls(samples=samples, n_classes=n_classes, feature_means=features.mean(axis=0))

    @property
    def is_grid(self) -> bool:
        return self.samples[0].is_grid

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.samples[0].features.shape

    @property
    def n_features(self) -> int:
        return int(np.prod(self.feature_shape))

    def feature_matrix(self) -> np.ndarray:
        """All sample features stacked along a new leading axis."""
        return np.stack([s.features for s in self.samples])

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


@dataclass(frozen=True)
class AttributionMap:
    """Non-negative per-feature attribution, optionally max-normalized to [0, 1]."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        _check_feature_shape(values)
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite attribution")
        if np.any(values < 0):
            raise DataError("negative attribution value")
        if self.normalized and values.max(initial=0.0) > 1.0 + 1e-12:
            raise DataError("normalized map has values above 1")

    @property
    def size(self) -> int:
        return self.values.size

    def flat(self) -> np.ndarray:
        """Row-major flattened values; the canonical feature ordering."""
        return self.values.reshape(-1)

    def support_mask(self) -> np.ndarray:
        """Boolean mask of features with strictly positive attribution."""
        return self.values > 0


def normalize_attribution(values: Union[AttributionMap, np.ndarray]) -> AttributionMap:
    """Clip negatives to zero and divide by the maximum when it is positive.

    Raw attribution arrays may contain negative entries; those are clipped
    before scaling.  An all-zero map is returned unchanged apart from the
    ``normalized`` flag.  Idempotent, and order-preserving on the strictly
    positive entries.
    """
    if isinstance(values, AttributionMap):
        arr = values.values
    else:
        arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite attribution")
    arr = np.maximum(arr, 0.0)
    peak = arr.max(initial=0.0)
    if peak > 0:
        arr = arr / peak
    return AttributionMap(values=arr, normalized=True)


Mask = np.ndarray  # boolean array matching the feature shape; True = masked


class Model(Protocol):
    """Classifier interface used by all metrics.

    ``predict_probs`` accepts either a sequence of Samples or an already
    stacked feature array and returns an ``(n, n_classes)`` probability
    matrix with rows on the simplex.  A model may also offer
    ``predict_probs_many(batches)``, which takes a lazy iterable of such
    batches and returns one matrix per batch; see ``predict_many``.
    """

    def predict_probs(self, batch: Union[Sequence[Sample], np.ndarray]) -> np.ndarray:
        ...


def predict_many(
    model: Model, batches: Iterable[Union[Sequence[Sample], np.ndarray]]
) -> Iterator[np.ndarray]:
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


def batch_features(batch: Union[Sequence[Sample], np.ndarray]) -> np.ndarray:
    """Stack a model input batch into one float64 array."""
    if isinstance(batch, np.ndarray):
        return np.asarray(batch, dtype=np.float64)
    if len(batch) == 0:
        raise DataError("empty evaluation set")
    return np.stack([np.asarray(s.features, dtype=np.float64) for s in batch])


def predicted_classes(probs: np.ndarray) -> np.ndarray:
    """Argmax over classes; ties resolve to the lowest class index."""
    return np.argmax(probs, axis=1)


def accuracy_from_probs(probs: np.ndarray, labels: np.ndarray) -> float:
    if probs.shape[0] == 0:
        raise DataError("empty evaluation set")
    hits = int(np.count_nonzero(predicted_classes(probs) == labels))
    return hits / probs.shape[0]


def accuracy(model: Model, samples: Sequence[Sample]) -> float:
    """Top-1 accuracy of ``model`` on ``samples``.

    Exact by construction: computed as an integer hit count over the batch,
    so the result does not depend on evaluation order.
    """
    if len(samples) == 0:
        raise DataError("empty evaluation set")
    probs = model.predict_probs(samples)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return accuracy_from_probs(probs, labels)


X_AXES = ("accuracy_level", "attribution_threshold", "masked_fraction")
METRIC_KINDS = ("soundness", "completeness", "deletion", "insertion", "road")


@dataclass(frozen=True)
class EvalCurve:
    """A metric result: points strictly ordered by x, plus provenance."""

    metric_kind: str
    x_axis: str
    points: tuple[tuple[float, float], ...]
    config_digest: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.metric_kind not in METRIC_KINDS:
            raise ConfigError(f"unknown metric kind {self.metric_kind!r}")
        if self.x_axis not in X_AXES:
            raise ConfigError(f"unknown x axis {self.x_axis!r}")
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

    def xs(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def ys(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])
