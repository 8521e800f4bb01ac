"""Self-contained synthetic validation world.

Gaussian feature vectors are labeled by the sign of their sum, the reference
classifier is a hard step on that sum, and exact per-feature ground truth is
available in closed form: for the sum-of-inputs model the marginal
contribution of feature i is x_i for the positive class and -x_i for the
negative class, independent of coalition, so the Shapley value reduces to the
(signed) feature value itself.  Ground-truth attribution maps keep only the
class-aligned part and are max-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import AttributionMap, DataError, Dataset, Sample, batch_features, normalize_attribution
from .rng import substream

DEFAULT_N_SAMPLES = 1000
DEFAULT_N_FEATURES = 200


def generate_synthetic(
    n_samples: int = DEFAULT_N_SAMPLES,
    n_features: int = DEFAULT_N_FEATURES,
    seed: int = 0,
) -> Dataset:
    """I.i.d. standard normal features; label 1 iff the feature sum is positive.

    Each sample is drawn from its own counter-keyed stream, so the dataset is
    identical no matter how generation is ordered or parallelized.  Samples
    with an exactly zero sum are redrawn from the same stream.
    """
    if n_samples < 1 or n_features < 1:
        raise DataError("synthetic dataset needs at least one sample and one feature")
    rows = np.empty((n_samples, n_features), dtype=np.float64)
    for i in range(n_samples):
        rng = substream(seed, "data", i)
        x = rng.standard_normal(n_features)
        while x.sum() == 0.0:
            x = rng.standard_normal(n_features)
        rows[i] = x
    labels = (rows.sum(axis=1) > 0).astype(np.int64)
    return Dataset.from_arrays(rows, labels, n_classes=2)


class LinearStepModel:
    """Hard step on the feature sum: class 1 iff sum > 0, class 0 otherwise.

    Probabilities are exactly one-hot.  The boundary sum == 0 is assigned to
    class 0 (the step rises at zero).  Tabular inputs only.
    """

    def predict_probs(self, batch: Union[Sequence[Sample], np.ndarray]) -> np.ndarray:
        feats = batch_features(batch)
        if feats.ndim != 2:
            raise DataError("tabular model")
        pos = feats.sum(axis=1) > 0
        probs = np.zeros((feats.shape[0], 2), dtype=np.float64)
        probs[pos, 1] = 1.0
        probs[~pos, 0] = 1.0
        return probs


def linear_step_predict(sample: Sample) -> int:
    """Predicted class of the step model for a single sample."""
    probs = LinearStepModel().predict_probs(np.asarray([sample.features]))
    return int(np.argmax(probs[0]))


@dataclass(frozen=True)
class OracleInfo:
    """Exact per-feature contribution and the informative-feature set.

    ``phi`` is the signed contribution toward the sample's own class before
    any normalization; ``informative`` marks features with phi > 0.
    """

    phi: np.ndarray
    informative: np.ndarray

    def informative_mass(self) -> float:
        return float(self.phi[self.informative].sum())


def _class_aligned(features: np.ndarray, label: int) -> np.ndarray:
    return features if label == 1 else -features


def ground_truth_attribution(dataset: Dataset) -> list[AttributionMap]:
    """Exact attribution maps for the step model, one normalized map per sample.

    Raises on the first sample whose stored label disagrees with the model,
    since ground truth is only defined for self-consistent synthetic data.
    """
    if dataset.is_grid:
        raise DataError("tabular model")
    predicted = np.argmax(LinearStepModel().predict_probs(dataset.feature_matrix()), axis=1)
    bad = np.flatnonzero(predicted != dataset.labels())
    if bad.size:
        raise DataError(f"inconsistent label for sample {dataset.samples[bad[0]].sample_id}")
    return [
        normalize_attribution(np.maximum(_class_aligned(s.features, s.label), 0.0))
        for s in dataset.samples
    ]


def oracle_info(dataset: Dataset) -> list[OracleInfo]:
    """Per-sample exact contributions phi and informative sets {phi > 0}."""
    out = []
    for sample in dataset.samples:
        if sample.is_grid:
            raise DataError("tabular model")
        phi = _class_aligned(sample.features, sample.label)
        out.append(OracleInfo(phi=phi, informative=phi > 0))
    return out
