import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_sample
from soco import (
    ConfigError,
    DataError,
    Dataset,
    LinearStepModel,
    MapSet,
    generate_synthetic,
    ground_truth_attribution,
    normalize_attribution,
    oracle_info,
    synthetic,
)
from soco.core import hit_count

from per_sample import generate_synthetic_per_row, ground_truth_per_row, oracle_info_per_row


def test_generation_is_deterministic_and_order_free():
    a = generate_synthetic(20, 10, seed=3)
    b = generate_synthetic(20, 10, seed=3)
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    # per-sample streams: a shorter run is a prefix of a longer one
    c = generate_synthetic(5, 10, seed=3)
    assert np.array_equal(c.feature_matrix(), a.feature_matrix()[:5])


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_generation_matches_the_per_row_oracle(seed):
    ds = generate_synthetic(64, 9, seed=seed)
    feats, labels = generate_synthetic_per_row(64, 9, seed)
    assert ds.feature_matrix().tobytes() == feats.tobytes()
    assert np.array_equal(ds.labels(), labels)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 30), seed=st.integers(0, 2**64))
@example(n=1, d=1, seed=0)
@example(n=1, d=200, seed=7)
@example(n=37, d=1, seed=3)
def test_generation_is_the_per_row_oracle_bit_for_bit(n, d, seed):
    ds = generate_synthetic(n, d, seed=seed)
    feats, labels = generate_synthetic_per_row(n, d, seed)
    assert ds.feature_matrix().tobytes() == feats.tobytes()
    assert ds.labels().tobytes() == labels.tobytes()


class ScriptedStream:
    """A stand-in generator that hands out the given draws in turn."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def standard_normal(self, size=None, out=None):
        draw = np.array(next(self._draws), dtype=np.float64)
        if out is None:
            return draw
        out[...] = draw
        return out


def test_a_row_whose_draw_sums_to_zero_is_its_streams_next_draw(monkeypatch):
    # rows 1 and 2 first draw an exact zero sum; row 2's second draw does too
    draws = {
        0: [[1.0, 0.5]],
        1: [[0.25, -0.25], [-1.0, 0.5]],
        2: [[2.0, -2.0], [0.0, 0.0], [3.0, -1.0]],
    }
    built = []

    def stream(seed, name, key):
        built.append((seed, name, key))
        return ScriptedStream(draws[key])

    monkeypatch.setattr(
        synthetic, "substreams", lambda seed, name, keys: (stream(seed, name, k) for k in keys)
    )
    monkeypatch.setattr(synthetic, "substream", stream)
    ds = generate_synthetic(3, 2, seed=4)
    assert ds.feature_matrix().tolist() == [[1.0, 0.5], [-1.0, 0.5], [3.0, -1.0]]
    assert ds.labels().tolist() == [1, 0, 1]
    # the redrawn rows' streams are built again from the start
    assert built == [(4, "data", 0), (4, "data", 1), (4, "data", 2), (4, "data", 1), (4, "data", 2)]

    monkeypatch.setattr(per_sample, "substream", stream)
    feats, labels = generate_synthetic_per_row(3, 2, 4)
    assert feats.tobytes() == ds.feature_matrix().tobytes()
    assert labels.tolist() == ds.labels().tolist()


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


@pytest.mark.parametrize("n_samples, n_features", [(2**50, 10), (12, 2**50), (2**64, 10)])
def test_a_dataset_too_large_to_allocate_is_a_data_error(n_samples, n_features):
    # numpy refuses these at once (no address space holds 2**53 bytes), with
    # a MemoryError or a ValueError that would otherwise end in a traceback
    with pytest.raises(DataError, match=f"cannot hold a synthetic dataset of {n_samples} x"):
        generate_synthetic(n_samples, n_features)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 10), "n_samples must be at least 1, got 0"),
        ((12, 0), "n_features must be at least 1, got 0"),
        ((12, 10, -1), "seed must be a non-negative integer, got -1"),
    ],
)
def test_a_count_or_seed_out_of_range_is_a_config_error_naming_it(args, message):
    with pytest.raises(ConfigError) as info:
        generate_synthetic(*args)
    assert str(info.value) == message


def test_step_model_rejects_grids():
    with pytest.raises(DataError, match="tabular model"):
        LinearStepModel().predict_probs(np.zeros((2, 3, 3, 1)))


def test_model_is_perfect_on_its_own_labels():
    ds = generate_synthetic(200, 20, seed=5)
    probs = LinearStepModel().predict_probs(ds.feature_matrix())
    assert hit_count(probs, ds.labels()) == len(ds)


class TestGroundTruth:
    def test_maps_are_normalized_class_aligned_positives(self):
        ds = generate_synthetic(30, 12, seed=2)
        maps = ground_truth_attribution(ds)
        assert isinstance(maps, MapSet) and maps.normalized and len(maps) == 30
        for x, label, attr in zip(ds.feature_matrix(), ds.labels(), maps.values):
            aligned = x if label == 1 else -x
            raw = np.maximum(aligned, 0.0)
            assert np.array_equal(attr, raw / raw.max())

    def test_neither_it_nor_the_normalizer_writes_its_input(self):
        raw = np.array([[-1.0, 0.5, 2.0], [0.0, 3.0, 1.5]])
        before = raw.copy()
        maps = normalize_attribution(raw)
        assert raw.tobytes() == before.tobytes()
        assert not np.shares_memory(maps.values, raw)
        again = normalize_attribution(maps)
        assert maps.values.tobytes() == again.values.tobytes()
        assert not np.shares_memory(again.values, maps.values)

        ds = generate_synthetic(20, 6, seed=1)
        feats = ds.feature_matrix().copy()
        gt = ground_truth_attribution(ds)
        assert ds.feature_matrix().tobytes() == feats.tobytes()
        assert not np.shares_memory(gt.values, ds.feature_matrix())

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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 8), seed=st.integers(0, 2**32))
@example(n=12, d=5, seed=3)
def test_the_oracles_are_the_per_row_oracles_bit_for_bit(n, d, seed):
    # integer features, so many are exactly zero and a class-0 row holds
    # -0.0; the first row is all zero (class 0), so its map is all zero
    feats = np.random.default_rng(seed).integers(-2, 3, size=(n, d)).astype(np.float64)
    feats[0] = 0.0
    labels = (feats.sum(axis=1) > 0).astype(np.int64)
    ds = Dataset(feats, labels, n_classes=2)
    info = oracle_info(ds)
    phi, informative = oracle_info_per_row(feats, labels)
    assert info.phi.tobytes() == phi.tobytes()
    assert info.informative.tobytes() == informative.tobytes()
    gt = ground_truth_attribution(ds)
    assert gt.values.tobytes() == ground_truth_per_row(feats, labels).tobytes()
    assert np.signbit(info.phi[0]).all() and not gt.values[0].any()


def test_linear_step_predict_single_sample():
    model = LinearStepModel()
    assert model.predict_probs(np.array([[1.0, 2.0]])).tolist() == [[0.0, 1.0]]
    assert model.predict_probs(np.array([[-1.0, -2.0]])).tolist() == [[1.0, 0.0]]
