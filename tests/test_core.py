import numpy as np
import pytest

from soco import (
    AttributionMap,
    ConfigError,
    DataError,
    Dataset,
    EvalCurve,
    MapSet,
    normalize_attribution,
)
from soco.core import accuracy_from_probs, batch_features, predicted_classes


def test_accuracy_hand_checked_three_of_four():
    # labels 0,1,0,1; the model gets the first three right
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.7, 0.3]])
    assert accuracy_from_probs(probs, np.array([0, 1, 0, 1])) == 0.75


def test_accuracy_empty_set_rejected():
    with pytest.raises(DataError, match="empty evaluation set"):
        accuracy_from_probs(np.empty((0, 2)), np.empty(0, dtype=np.int64))


def test_predicted_classes_tie_breaks_low():
    assert predicted_classes(np.array([[0.5, 0.5], [0.1, 0.9]])).tolist() == [0, 1]


def test_accuracy_is_exact_counting():
    # 1/3 cannot be represented exactly; counting must still give exactly 1/3
    probs = np.array([[1.0, 0.0]] * 3)
    labels = np.array([0, 1, 1])
    assert accuracy_from_probs(probs, labels) == pytest.approx(1 / 3, abs=0)


def test_sample_rejects_bad_shapes():
    # every check runs once, in the Dataset constructor
    cases = [
        (np.zeros((1, 2, 2)), [0], 2, None, "tabular or"),  # a 2-d sample is neither kind
        (np.array([[np.nan]]), [0], 2, None, "non-finite feature"),
        (np.zeros((0, 3)), [], 2, None, "empty evaluation set"),
        (np.zeros((2, 0)), [0, 1], 2, None, "empty feature array"),
        (np.zeros((2, 3)), [0], 2, None, "one label per sample"),
        (np.zeros((2, 3)), [0, -1], 2, None, "negative label"),
        (np.zeros((2, 3)), [0, 2], 2, None, "out of range"),
        (np.zeros((2, 3)), [0, 1], 1, None, "two classes"),
        (np.zeros((2, 3)), [0, 1], 2, [7], "one sample id per sample"),
    ]
    for features, labels, n_classes, ids, message in cases:
        with pytest.raises(DataError, match=message):
            Dataset(features, labels, n_classes, ids)


def test_dataset_from_arrays_roundtrip():
    feats = np.arange(6, dtype=np.float32).reshape(3, 2)
    ds = Dataset(feats, [0, 1, 0], n_classes=2)
    assert len(ds) == 3 and ds.n_features == 2 and not ds.is_grid
    assert ds.feature_matrix().dtype == np.float64
    assert np.array_equal(ds.feature_matrix(), feats)
    assert ds.labels().tolist() == [0, 1, 0] and ds.labels().dtype == np.int64
    assert ds.sample_ids.tolist() == [0, 1, 2]
    assert np.array_equal(ds.feature_means, ds.feature_matrix().mean(axis=0))
    # the stored arrays are handed out as they are, and nobody may write them
    assert ds.feature_matrix() is ds.feature_matrix() and ds.labels() is ds.labels()
    for arr in (ds.feature_matrix(), ds.labels(), ds.sample_ids, ds.feature_means):
        with pytest.raises(ValueError):
            arr[...] = 0
    feats[0, 0] = 99.0  # the dataset holds its own copy
    assert ds.feature_matrix()[0, 0] == 0.0
    grid = Dataset(np.zeros((2, 3, 4, 1)), [1, 0], n_classes=2, sample_ids=[5, 9])
    assert grid.is_grid and grid.feature_shape == (3, 4, 1)
    assert grid.sample_ids.tolist() == [5, 9]


def test_batch_features_accepts_arrays_and_samples():
    # a stacked array, or a list of per-sample feature rows
    assert batch_features(np.ones((2, 3), dtype=np.float32)).dtype == np.float64
    assert batch_features([np.ones(3), np.zeros(3)]).shape == (2, 3)


class TestNormalizeAttribution:
    def test_clips_negatives_then_scales(self):
        m = normalize_attribution(np.array([[-1.0, 0.5, 2.0], [0.0, 3.0, 1.5]]))
        assert np.array_equal(m.values, [[0.0, 0.25, 1.0], [0.0, 1.0, 0.5]])
        assert m.normalized

    def test_idempotent(self):
        m = normalize_attribution(np.array([[0.2, 0.8], [0.5, 0.1]]))
        again = normalize_attribution(m)
        assert np.array_equal(m.values, again.values)

    def test_all_zero_passes_through(self):
        m = normalize_attribution(np.array([[0.0, 0.0], [2.0, 1.0]]))
        assert np.array_equal(m.values, [[0.0, 0.0], [1.0, 0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite attribution"):
            normalize_attribution(np.array([[1.0, np.inf]]))


def test_attribution_map_invariants():
    with pytest.raises(DataError):
        AttributionMap(values=np.array([-0.1, 0.5]))
    with pytest.raises(DataError):
        AttributionMap(values=np.array([0.5, 1.5]), normalized=True)
    # unnormalized maps may exceed 1
    AttributionMap(values=np.array([0.5, 1.5]))
    # a map set is checked the same way, once for the whole stack
    for values, normalized in (([[0.5, -0.1]], False), ([[0.5, 1.5]], True),
                               ([[np.nan, 0.5]], False)):
        with pytest.raises(DataError):
            MapSet(values, normalized=normalized)
    with pytest.raises(DataError, match="no maps"):
        MapSet(np.zeros((0, 3)))
    maps = MapSet([[0.5, 1.5], [0.0, 2.0]])
    assert len(maps) == 2 and maps.feature_shape == (2,)
    assert [m.values.tolist() for m in maps] == [[0.5, 1.5], [0.0, 2.0]]
    assert isinstance(maps[1], AttributionMap) and not maps[1].normalized
    with pytest.raises(ValueError):
        maps.values[0, 0] = 0.0


class TestEvalCurve:
    def test_strictly_increasing_x_required(self):
        with pytest.raises(DataError, match="strictly increasing"):
            EvalCurve("deletion", "masked_fraction", ((0.0, 1.0), (0.0, 0.5)))

    def test_soundness_y_bounded(self):
        with pytest.raises(DataError):
            EvalCurve("soundness", "accuracy_level", ((0.5, 1.2),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            EvalCurve("banana", "accuracy_level", ((0.5, 0.5),))

    def test_accessors(self):
        c = EvalCurve("deletion", "masked_fraction", ((0.0, 1.0), (1.0, 0.0)))
        assert c.xs().tolist() == [0.0, 1.0]
        assert c.ys().tolist() == [1.0, 0.0]
