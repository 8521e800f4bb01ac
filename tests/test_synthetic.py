import numpy as np
import pytest

from soco import (
    DataError,
    Dataset,
    LinearStepModel,
    MapSet,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
)
from soco.core import accuracy_from_probs


def test_generation_is_deterministic_and_order_free():
    a = generate_synthetic(20, 10, seed=3)
    b = generate_synthetic(20, 10, seed=3)
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    # per-sample streams: a shorter run is a prefix of a longer one
    c = generate_synthetic(5, 10, seed=3)
    assert np.array_equal(c.feature_matrix(), a.feature_matrix()[:5])


def test_labels_match_sign_of_sum():
    ds = generate_synthetic(50, 7, seed=11)
    sums = ds.feature_matrix().sum(axis=1)
    assert np.array_equal(ds.labels(), (sums > 0).astype(int))
    assert not np.any(sums == 0)  # zero sums are redrawn


def test_reference_statistics_frozen():
    # values pinned from a probe of this exact generator configuration
    ds = generate_synthetic(1000, 200, seed=7)
    assert ds.labels().mean() == pytest.approx(0.508, abs=0)
    gt = ground_truth_attribution(ds)
    mean_support = np.count_nonzero(gt.values > 0, axis=1).mean()
    assert mean_support == pytest.approx(104.487, abs=1e-9)


def test_step_model_probs_are_one_hot():
    ds = generate_synthetic(10, 5, seed=0)
    probs = LinearStepModel().predict_probs(ds.feature_matrix())
    assert set(probs.reshape(-1).tolist()) == {0.0, 1.0}
    assert np.array_equal(probs.sum(axis=1), np.ones(10))


def test_step_model_boundary_goes_to_class_zero():
    probs = LinearStepModel().predict_probs(np.zeros((1, 4)))
    assert probs.tolist() == [[1.0, 0.0]]


def test_step_model_rejects_grids():
    with pytest.raises(DataError, match="tabular model"):
        LinearStepModel().predict_probs(np.zeros((2, 3, 3, 1)))


def test_model_is_perfect_on_its_own_labels():
    ds = generate_synthetic(200, 20, seed=5)
    probs = LinearStepModel().predict_probs(ds.feature_matrix())
    assert accuracy_from_probs(probs, ds.labels()) == 1.0


class TestGroundTruth:
    def test_maps_are_normalized_class_aligned_positives(self):
        ds = generate_synthetic(30, 12, seed=2)
        maps = ground_truth_attribution(ds)
        assert isinstance(maps, MapSet) and maps.normalized and len(maps) == 30
        for x, label, attr in zip(ds.feature_matrix(), ds.labels(), maps.values):
            aligned = x if label == 1 else -x
            raw = np.maximum(aligned, 0.0)
            assert np.array_equal(attr, raw / raw.max())

    def test_inconsistent_label_rejected(self):
        feats = np.ones((1, 3))  # sum positive, so label must be 1
        bad = Dataset(feats, [0], n_classes=2)
        with pytest.raises(DataError, match="inconsistent label for sample 0"):
            ground_truth_attribution(bad)

    def test_first_inconsistent_label_is_reported(self):
        feats = np.array([[1.0], [-1.0], [2.0], [3.0], [-2.0]])
        bad = Dataset(feats, [1, 0, 0, 1, 1], n_classes=2)
        with pytest.raises(DataError, match="inconsistent label for sample 2$"):
            ground_truth_attribution(bad)

    def test_grid_dataset_rejected(self):
        grid = Dataset(np.ones((2, 2, 2, 1)), [1, 1], n_classes=2)
        with pytest.raises(DataError, match="tabular model"):
            ground_truth_attribution(grid)
        with pytest.raises(DataError, match="tabular model"):
            oracle_info(grid)


class TestOracle:
    def test_informative_set_is_positive_contributions(self):
        ds = generate_synthetic(25, 9, seed=4)
        info = oracle_info(ds)
        assert info.phi.shape == info.informative.shape == (25, 9)
        for x, label, phi, informative in zip(
            ds.feature_matrix(), ds.labels(), info.phi, info.informative
        ):
            aligned = x if label == 1 else -x
            assert np.array_equal(phi, aligned)
            assert np.array_equal(informative, aligned > 0)

    def test_oracle_matches_ground_truth_support(self, small_dataset, gt_maps, oracle):
        assert np.array_equal(gt_maps.values > 0, oracle.informative)


def test_linear_step_predict_single_sample():
    model = LinearStepModel()
    assert model.predict_probs(np.array([[1.0, 2.0]])).tolist() == [[0.0, 1.0]]
    assert model.predict_probs(np.array([[-1.0, -2.0]])).tolist() == [[1.0, 0.0]]
