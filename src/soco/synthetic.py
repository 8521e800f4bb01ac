"""Self-contained synthetic validation world.

Gaussian feature vectors are labeled by the sign of their sum, the reference
classifier is a hard step on that sum, and exact per-feature ground truth is
available in closed form: for the sum-of-inputs model the marginal
contribution of feature i is x_i for the positive class and -x_i for the
negative class, independent of coalition, so the Shapley value reduces to the
(signed) feature value itself.  Ground-truth attribution maps keep only the
class-aligned part and are max-normalized.  Everything here works on the
whole dataset at once: one map set, one stacked oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataError,
    Dataset,
    MapSet,
    batch_features,
    check_at_least,
    check_count,
    normalize_attribution,
)
from .rng import substream, substreams

DEFAULT_N_SAMPLES = 1000
DEFAULT_N_FEATURES = 200


def check_synthetic(n_samples: int, n_features: int, seed: int) -> None:
    """``generate_synthetic``'s arguments: a count that is not a positive
    integer, or a seed that is not a non-negative one, is a ``ConfigError``
    naming its parameter."""
    check_at_least(n_samples, "n_samples", 1)
    check_at_least(n_features, "n_features", 1)
    check_count(seed, "seed")


def generate_synthetic(
    n_samples: int = DEFAULT_N_SAMPLES,
    n_features: int = DEFAULT_N_FEATURES,
    seed: int = 0,
) -> Dataset:
    """I.i.d. standard normal features; label 1 iff the feature sum is positive.

    Sample i is drawn from its own stream, ``substream(seed, "data", i)``, so
    the dataset is identical no matter how generation is ordered or
    parallelized.  The streams come from ``substreams``: the same generators,
    their seeds derived for all rows in one pass and each built as its row is
    drawn, straight into the row's slot.  Samples with an exactly zero sum
    are redrawn from the same stream: it is built again and replayed from
    its first draw until a draw's sum is not zero, as a per-row loop draws.
    The arguments are checked first (``check_synthetic``); a size whose
    feature array cannot be allocated is a ``DataError``.
    """
    check_synthetic(n_samples, n_features, seed)
    try:
        rows = np.empty((n_samples, n_features), dtype=np.float64)
    except (MemoryError, ValueError) as exc:  # numpy's too-big errors
        raise DataError(
            f"cannot hold a synthetic dataset of {n_samples} x {n_features} features: {exc}"
        ) from None
    for row, rng in zip(rows, substreams(seed, "data", range(n_samples))):
        rng.standard_normal(out=row)
    sums = rows.sum(axis=1)
    zero = np.flatnonzero(sums == 0.0)
    for i in zero:
        rng = substream(seed, "data", int(i))
        x = rng.standard_normal(n_features)
        while x.sum() == 0.0:
            x = rng.standard_normal(n_features)
        rows[i] = x
    sums[zero] = rows[zero].sum(axis=1)
    return Dataset(rows, (sums > 0).astype(np.int64), n_classes=2)


class LinearStepModel:
    """Hard step on the feature sum: class 1 iff sum > 0, class 0 otherwise.

    Probabilities are exactly one-hot.  The boundary sum == 0 is assigned to
    class 0 (the step rises at zero).  Tabular inputs only.
    """

    def predict_probs(self, batch: np.ndarray) -> np.ndarray:
        feats = batch_features(batch)
        if feats.ndim != 2:
            raise DataError("tabular model")
        pos = feats.sum(axis=1) > 0
        probs = np.zeros((feats.shape[0], 2), dtype=np.float64)
        probs[pos, 1] = 1.0
        probs[~pos, 0] = 1.0
        return probs


@dataclass(frozen=True)
class OracleInfo:
    """Exact per-feature contributions and informative sets of a dataset.

    ``phi[i]`` is the signed contribution of each feature of sample i toward
    the sample's own class, before any normalization; ``informative`` marks
    the features with phi > 0.  Both are ``(n, d)``.
    """

    phi: np.ndarray
    informative: np.ndarray


def _class_aligned(dataset: Dataset) -> np.ndarray:
    """Each sample's features, negated for the samples of class 0, as a new array.

    The sign is a product with 1.0 or -1.0, an exact sign flip: a zero
    feature of class 0 becomes -0.0, as negation makes it.
    """
    if dataset.is_grid:
        raise DataError("tabular model")
    sign = np.where(dataset.labels() == 1, 1.0, -1.0)
    return dataset.feature_matrix() * sign[:, None]


def ground_truth_attribution(dataset: Dataset) -> MapSet:
    """Exact attribution maps for the step model, one normalized map per sample.

    Raises on the first sample whose stored label disagrees with the model,
    since ground truth is only defined for self-consistent synthetic data.
    """
    if dataset.is_grid:
        raise DataError("tabular model")
    predicted = np.argmax(LinearStepModel().predict_probs(dataset.feature_matrix()), axis=1)
    bad = np.flatnonzero(predicted != dataset.labels())
    if bad.size:
        raise DataError(f"inconsistent label for sample {dataset.sample_ids[bad[0]]}")
    aligned = _class_aligned(dataset)
    return normalize_attribution(np.maximum(aligned, 0.0, out=aligned))


def oracle_info(dataset: Dataset) -> OracleInfo:
    """Exact contributions phi and informative sets {phi > 0} of every sample."""
    phi = _class_aligned(dataset)
    return OracleInfo(phi=phi, informative=phi > 0)
