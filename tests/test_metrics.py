import importlib.util
import multiprocessing
import os
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soco import (
    ConfigError,
    DataError,
    Dataset,
    MapSet,
    MlpModel,
    MlpWeights,
    WorkerError,
    completeness_curve,
    generate_synthetic,
    ground_truth_attribution,
    normalize_attribution,
    order_based_curve,
    road_curve,
    soundness_curve,
    substream,
)
from soco import metrics, parallel
from soco.core import hit_count
from soco.io import canonical_json, curve_to_dict
from soco.metrics import (
    DEFAULT_FRACTIONS,
    DEFAULT_MASK_RATIOS,
    DEFAULT_THRESHOLDS,
    ORDER_MODES,
    RANK_ORDERS,
    WEIGHTINGS,
)
from soco.models import Layer
from soco.perturb import impute_grid, round_half_away

from per_sample import (
    RecordingModel,
    applied_masks,
    mask_by_threshold,
    soundness_per_sample,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

pytestmark = pytest.mark.usefixtures("no_leftovers")

COARSE_RATIOS = tuple(round(0.95 - 0.1 * i, 2) for i in range(10))  # 0.95 .. 0.05


# -- reference implementations -------------------------------------------------


def accuracy(probs, labels) -> float:
    """Top-1 accuracy as every metric scores it: the hit count over n."""
    return hit_count(probs, labels) / len(labels)


def naive_completeness(model, dataset, maps, thresholds):
    labels = dataset.labels()
    feats = dataset.feature_matrix()
    s_0 = accuracy(model.predict_probs(feats), labels)
    points = []
    for t in thresholds:
        filled = []
        for i, attr in enumerate(maps.values):
            mask = mask_by_threshold(attr, t)
            filled.append(np.where(mask, dataset.feature_means, feats[i]))
        s_t = accuracy(model.predict_probs(np.stack(filled)), labels)
        points.append((t, s_0 - s_t))
    return sorted(points)


# -- soundness -------------------------------------------------------------------


def test_soundness_matches_naive_oracle_noisy(step_model, small_dataset, gt_maps):
    curve = soundness_curve(
        step_model,
        small_dataset,
        gt_maps,
        mask_ratios=COARSE_RATIOS,
        epsilon=0.01,
        imputer="mean",
        noise_std=1.0,
        seed=5,
    )
    want, _ = soundness_per_sample(
        step_model, small_dataset, gt_maps, COARSE_RATIOS, 0.01, "attribution", 1.0, 5
    )
    assert len(curve.points) == len(want)
    for (gx, gy), (wx, wy) in zip(curve.points, want):
        assert gx == wx
        assert gy == pytest.approx(wy, abs=1e-12)


def test_soundness_cardinality_weighting_matches_naive(step_model, small_dataset, gt_maps):
    curve = soundness_curve(
        step_model,
        small_dataset,
        gt_maps,
        mask_ratios=COARSE_RATIOS,
        imputer="mean",
        noise_std=1.0,
        weighting="cardinality",
        seed=2,
    )
    want, _ = soundness_per_sample(
        step_model, small_dataset, gt_maps, COARSE_RATIOS, 0.01, "cardinality", 1.0, 2
    )
    for (gx, gy), (wx, wy) in zip(curve.points, want):
        assert (gx, gy) == (wx, pytest.approx(wy, abs=1e-12))


class ScriptedModel:
    """Predicts class 0 for the first ``hits[i]`` rows of its i-th batch and
    class 1 for the others."""

    def __init__(self, hits):
        self.hits = iter(hits)

    def predict_probs(self, batch):
        probs = np.zeros((len(batch), 2))
        h = next(self.hits)
        probs[:h, 0] = 1.0
        probs[h:, 1] = 1.0
        return probs


# a hit count h of 1000 where the float gain (h + 10) / 1000 - h / 1000 of
# exactly 10 samples reads below epsilon = 0.01
ROUNDING_LEVEL = next(h for h in range(10, 990) if (h + 10) / 1000 - h / 1000 < 0.01)


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_a_gain_of_exactly_epsilon_n_samples_buys_epsilon_at_a_rounding_level(weighting):
    # n = 1000 and epsilon = 0.01: the three steps gain the level (true),
    # exactly 10 samples (true) and 9 samples, epsilon * n - 1 (false)
    n = 1000
    dataset = Dataset(np.zeros((n, 4)), np.zeros(n, dtype=np.int64), 2)
    maps = MapSet(np.tile([0.25, 0.5, 0.75, 1.0], (n, 1)), normalized=True)
    script = [ROUNDING_LEVEL, ROUNDING_LEVEL + 10, ROUNDING_LEVEL + 19]
    ratios = [0.75, 0.5, 0.25]
    curve = soundness_curve(
        ScriptedModel(script), dataset, maps, mask_ratios=ratios, weighting=weighting
    )
    # the third step books feature 1 (value 0.5) as false
    last = 2 / 3 if weighting == "cardinality" else (2.25 - 0.5) / 2.25
    assert [q for _, _, q in curve.meta["sweep"]] == [1.0, 1.0, pytest.approx(last, abs=1e-15)]
    assert [s for _, s, _ in curve.meta["sweep"]] == [h / n for h in script]
    _, want = soundness_per_sample(
        ScriptedModel(script), dataset, maps, ratios, 0.01, weighting, 0.0, 0
    )
    assert curve.meta["sweep"] == [[m, s, pytest.approx(q, abs=1e-12)] for m, s, q in want]


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_soundness_matches_the_integer_oracle_where_a_float_gain_reads_below_epsilon(
    step_model, weighting
):
    # in this world the step to mask ratio 0.94 gains exactly 1 of 100
    # samples (93 to 94), and 0.94 - 0.93 reads below 0.01 in floats
    dataset = generate_synthetic(100, 200, seed=3)
    maps = ground_truth_attribution(dataset)
    curve = soundness_curve(
        step_model, dataset, maps, noise_std=1.0, weighting=weighting, seed=3
    )
    step = DEFAULT_MASK_RATIOS.index(0.94)
    (_, before, _), (_, after, _) = curve.meta["sweep"][step - 1 : step + 1]
    assert (before, after) == (0.93, 0.94) and after - before < 0.01
    _, want = soundness_per_sample(
        step_model, dataset, maps, DEFAULT_MASK_RATIOS, 0.01, weighting, 1.0, 3
    )
    assert curve.meta["sweep"] == [[m, s, pytest.approx(q, abs=1e-12)] for m, s, q in want]


def test_gt_soundness_saturates_at_one(step_model, small_dataset, gt_maps):
    # noiseless mean imputation keeps the step model perfect at every ratio,
    # so the deduplicated curve is the single point (1, 1)
    curve = soundness_curve(step_model, small_dataset, gt_maps, mask_ratios=COARSE_RATIOS)
    assert curve.points == ((1.0, 1.0),)
    assert len(curve.meta["sweep"]) == len(COARSE_RATIOS)


def test_soundness_skips_zero_maps_with_warning(step_model, small_dataset, gt_maps):
    values = gt_maps.values.copy()
    values[3] = 0.0
    maps = MapSet(values, normalized=True)
    with pytest.warns(UserWarning, match="all-zero"):
        curve = soundness_curve(step_model, small_dataset, maps, mask_ratios=COARSE_RATIOS)
    assert curve.meta["skipped"] == 1
    assert curve.meta["n_samples"] == len(maps) - 1


def test_soundness_with_zero_maps_scores_the_other_rows_alone(step_model, small_dataset):
    # the zero fill reads nothing from the skipped rows, so the two agree bit for bit
    values = np.random.default_rng(4).random((len(small_dataset), 100))
    values[[2, 5]] = 0.0
    keep = np.ones(len(values), dtype=bool)
    keep[[2, 5]] = False
    with pytest.warns(UserWarning, match="skipping 2 all-zero"):
        skipped = soundness_curve(
            step_model, small_dataset, MapSet(values),
            mask_ratios=COARSE_RATIOS, imputer="zero",
        )
    rest = Dataset(small_dataset.feature_matrix()[keep], small_dataset.labels()[keep], 2)
    alone = soundness_curve(
        step_model, rest, MapSet(values[keep]), mask_ratios=COARSE_RATIOS, imputer="zero"
    )
    assert len(alone.points) > 1
    assert skipped.points == alone.points
    assert skipped.meta == {**alone.meta, "skipped": 2}


def test_soundness_q_bounded(step_model, small_dataset, gt_maps):
    curve = soundness_curve(
        step_model,
        small_dataset,
        gt_maps,
        mask_ratios=COARSE_RATIOS,
        imputer="mean",
        noise_std=2.0,
        seed=0,
    )
    for _, s, q in curve.meta["sweep"]:
        assert 0.0 <= q <= 1.0


def test_soundness_ratio_grid_must_leave_features(step_model):
    tiny = generate_synthetic(8, 20, seed=0)
    maps = ground_truth_attribution(tiny)
    with pytest.raises(ConfigError, match="masks every feature"):
        soundness_curve(step_model, tiny, maps)  # default grid, 0.99 * 20 -> 20


def test_soundness_map_count_mismatch(step_model, small_dataset, gt_maps):
    with pytest.raises(DataError, match="one attribution map per sample"):
        soundness_curve(step_model, small_dataset, MapSet(gt_maps.values[:-1]))


def test_soundness_config_validation(step_model, small_dataset, gt_maps):
    def run(**options):
        soundness_curve(step_model, small_dataset, gt_maps, **options)

    with pytest.raises(ConfigError):
        run(mask_ratios=(0.1, 0.5))  # ascending
    with pytest.raises(ConfigError):
        run(mask_ratios=(1.0, 0.5))  # 1.0 not inside (0,1)
    with pytest.raises(ConfigError):
        run(epsilon=0.0)
    with pytest.raises(ConfigError):
        run(weighting="mass")


# -- completeness ----------------------------------------------------------------


def test_completeness_matches_forward_pass_oracle(step_model, small_dataset, gt_maps):
    curve = completeness_curve(step_model, small_dataset, gt_maps)
    want = naive_completeness(
        step_model, small_dataset, gt_maps, [round(0.1 * i, 1) for i in range(1, 10)]
    )
    assert len(curve.points) == len(want)
    for (gx, gy), (wx, wy) in zip(curve.points, want):
        assert (gx, gy) == (wx, pytest.approx(wy, abs=0))


def test_completeness_zero_maps_drop_nothing(step_model, small_dataset):
    zeros = MapSet(np.zeros((len(small_dataset), small_dataset.n_features)), normalized=True)
    curve = completeness_curve(step_model, small_dataset, zeros)
    assert all(y == 0.0 for y in curve.ys())


def test_completeness_removed_sets_shrink_with_threshold(small_dataset, gt_maps):
    # mask antitonicity, checked through the change sets completeness sweeps:
    # applied in order they give the clean inputs, then each threshold's mask
    values = gt_maps.values[:5]
    thresholds = (0.9, 0.5, 0.1)
    clean, *masks = applied_masks(*metrics._threshold_steps(values, thresholds), values.size)
    assert not clean.any()
    for i, (t, cur) in enumerate(zip(thresholds, masks)):
        assert np.array_equal(cur.reshape(values.shape), values > t)
        if i:
            assert not np.any(masks[i - 1] & ~cur)


def test_completeness_meta_has_clean_accuracy(step_model, small_dataset, gt_maps):
    curve = completeness_curve(step_model, small_dataset, gt_maps)
    assert curve.meta["clean_accuracy"] == 1.0


# -- order-based curves ------------------------------------------------------------


def test_deletion_fraction_zero_is_clean_accuracy(step_model, small_dataset, gt_maps):
    curve = order_based_curve(
        step_model, small_dataset, gt_maps, mode="deletion", fractions=(0.0, 0.5, 1.0)
    )
    assert curve.points[0] == (0.0, 1.0)


def test_deletion_full_mean_imputation_hits_constant_prediction(
    step_model, small_dataset, gt_maps
):
    curve = order_based_curve(
        step_model,
        small_dataset,
        gt_maps,
        mode="deletion",
        imputer="mean",
        fractions=(0.0, 1.0),
    )
    # every sample becomes the mean vector, so the model predicts one class
    means = np.broadcast_to(
        small_dataset.feature_means, small_dataset.feature_matrix().shape
    )
    expected = accuracy(
        step_model.predict_probs(np.array(means)), small_dataset.labels()
    )
    assert curve.points[1] == (1.0, expected)


def test_insertion_fraction_one_is_clean_accuracy(step_model, small_dataset, gt_maps):
    curve = order_based_curve(
        step_model, small_dataset, gt_maps, mode="insertion", fractions=(0.0, 1.0)
    )
    assert curve.points[1] == (1.0, 1.0)


def test_order_curve_sees_only_rankings(step_model, small_dataset, gt_maps):
    cubed = normalize_attribution(gt_maps.values**3)
    for order in ("MoRF", "LeRF"):
        a = order_based_curve(
            step_model, small_dataset, gt_maps, mode="deletion", order=order
        )
        b = order_based_curve(
            step_model, small_dataset, cubed, mode="deletion", order=order
        )
        assert a.points == b.points


def test_order_curve_validation(step_model, small_dataset, gt_maps):
    with pytest.raises(ConfigError):
        order_based_curve(step_model, small_dataset, gt_maps, mode="ablation")
    with pytest.raises(ConfigError):
        order_based_curve(
            step_model, small_dataset, gt_maps, mode="deletion", order="random"
        )
    with pytest.raises(ConfigError):
        order_based_curve(
            step_model, small_dataset, gt_maps, mode="deletion", fractions=(0.5, 0.1)
        )


def test_road_is_deletion_with_mean_on_tabular(step_model, small_dataset, gt_maps):
    road = road_curve(step_model, small_dataset, gt_maps, fractions=(0.0, 0.4, 1.0))
    manual = order_based_curve(
        step_model,
        small_dataset,
        gt_maps,
        mode="deletion",
        imputer="mean",
        fractions=(0.0, 0.4, 1.0),
    )
    assert road.points == manual.points
    assert road.metric_kind == "road"
    assert road.meta["imputer"] == "mean"


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_road_uses_neighbor_solve_on_grids(rng):
    feats = rng.standard_normal((8, 4, 4, 1))
    labels = (feats.sum(axis=(1, 2, 3)) > 0).astype(int)
    ds = Dataset(feats, labels, n_classes=2)
    maps = normalize_attribution(np.abs(feats))
    weights = MlpWeights(
        layers=(Layer(weight=rng.standard_normal((2, 16)), bias=np.zeros(2)),),
        n_classes=2,
    )
    curve = road_curve(MlpModel(weights), ds, maps, fractions=(0.0, 0.5, 1.0))
    assert curve.meta["imputer"] == "noisy_linear"
    assert len(curve.points) == 3


@pytest.mark.parametrize("metric", ["soundness", "completeness", "deletion", "insertion"])
def test_noisy_linear_on_tabular_data_fails_before_any_lane_starts(
    step_model, small_dataset, gt_maps, monkeypatch, metric
):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(parallel, "run_jobs", mock.Mock(side_effect=AssertionError("a lane started")))
    monkeypatch.setattr(parallel, "run_shares", mock.Mock(side_effect=AssertionError("a lane started")))
    with pytest.raises(ConfigError, match="^noisy_linear requires grid-shaped samples$"):
        metrics.METRICS[metric](step_model, small_dataset, gt_maps, imputer="noisy_linear")


def test_every_option_has_a_rule():
    names = metrics.METRICS
    assert set(metrics._RULES) == {key for name in names for key in metrics.metric_defaults(name)}


@pytest.mark.parametrize("metric", sorted(metrics.METRICS))
def test_every_metric_checks_its_options_once(step_model, small_dataset, gt_maps, monkeypatch,
                                              metric):
    calls = []

    def counted(name, options, dataset=None):
        calls.append(name)
        return check(name, options, dataset)

    check = metrics.check_options
    monkeypatch.setattr(metrics, "check_options", counted)
    curve = metrics.METRICS[metric](step_model, small_dataset, gt_maps)
    assert calls == [metric]
    assert curve.metric_kind == metric


# -- renumbering the features ------------------------------------------------------


def renumbering_curves(seed: int, n: int, d: int, tied: bool) -> tuple:
    """Every metric's curve file bytes with the zero fill, on a world and on
    the same world with its features renumbered.

    The features and the first layer's weights are small integers, so every
    sum of the MLP's first layer, and of every later layer, is exact in any
    order: a renumbering changes no model output.  The maps are drawn from
    four levels when ``tied``, and as distinct values otherwise; every map
    has a positive entry.  The data, the maps and the first layer's weight
    columns are permuted together.
    """
    rng = np.random.default_rng(seed)
    features = rng.integers(-3, 4, (n, d)).astype(np.float64)
    w1 = rng.integers(-2, 3, (8, d)).astype(np.float64)
    head = Layer(rng.integers(-2, 3, (3, 8)).astype(np.float64), np.zeros(3))
    if tied:
        maps = rng.integers(0, 4, (n, d)) / 3
        maps[np.arange(n), rng.integers(0, d, n)] = 1.0
    else:
        maps = np.argsort(rng.random((n, d)), axis=1) / (d - 1)
    perm = rng.permutation(d)

    def curves(features, maps, w1):
        model = MlpModel(MlpWeights(layers=(Layer(w1, np.zeros(8), "relu"), head), n_classes=3))
        labels = np.argmax(model.predict_probs(features), axis=1)
        dataset = Dataset(features, labels, n_classes=3)
        ms = MapSet(maps, normalized=True)
        runs = {
            "completeness": lambda: completeness_curve(model, dataset, ms, imputer="zero"),
            **{
                f"soundness {w}": partial(
                    soundness_curve, model, dataset, ms,
                    mask_ratios=COARSE_RATIOS, imputer="zero", weighting=w,
                )
                for w in WEIGHTINGS
            },
            **{
                f"{mode} {order}": partial(
                    order_based_curve, model, dataset, ms, mode, order=order
                )
                for mode in ORDER_MODES for order in RANK_ORDERS
            },
        }
        return {name: run() for name, run in runs.items()}

    return curves(features, maps, w1), curves(features[:, perm], maps[:, perm], w1[:, perm])


def curve_bytes(curve) -> str:
    return canonical_json(curve_to_dict(curve))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(11, 40))
def test_renumbering_features_changes_no_curve_on_tie_free_maps(seed, n, d):
    original, renumbered = renumbering_curves(seed, n, d, tied=False)
    assert {k: curve_bytes(c) for k, c in original.items()} == {
        k: curve_bytes(c) for k, c in renumbered.items()
    }


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(11, 40))
def test_renumbering_features_leaves_completeness_on_tied_maps(seed, n, d):
    # the rank metrics break ties by feature index, so on tied maps only
    # completeness, which thresholds values, is sure to stay the same
    original, renumbered = renumbering_curves(seed, n, d, tied=True)
    assert curve_bytes(original["completeness"]) == curve_bytes(renumbered["completeness"])


# -- the incremental sweep against the literal per-step computation ----------------


def three_pass_fill(features, masks, kind, dataset, noise):
    """The fill as written before the sweep engine: where, noise * masks, add."""
    if kind == "zero":
        filled = np.where(masks, 0.0, features)
    elif kind == "mean":
        filled = np.where(masks, dataset.feature_means, features)
    else:
        filled = np.stack(
            [impute_grid(features[i], masks[i]) for i in range(features.shape[0])]
        )
    if noise is not None:
        filled = filled + noise * masks
    return filled


def literal_accuracy(model, dataset, features, labels, masks, kind, noise):
    masks = masks.reshape(features.shape)
    filled = three_pass_fill(features, masks, kind, dataset, noise)
    return accuracy(model.predict_probs(filled), labels)


def literal_noise(dataset, noise_std, seed):
    if noise_std == 0.0:
        return None
    shape = (len(dataset),) + dataset.feature_shape
    return noise_std * substream(seed, "noise").standard_normal(shape)


def literal_ranks(values, descending=False):
    """ranks[i, j] = position of feature j in sample i's stable sort order."""
    order = np.argsort(-values if descending else values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(values.shape[1]), axis=1)
    return ranks


def fill_options(kind, noise_std=0.0):
    """A fill as the metrics' keyword options ``imputer`` and ``noise_std``."""
    return {"imputer": kind, "noise_std": noise_std}


def literal_soundness(
    model, dataset, maps, seed, *, mask_ratios, imputer, noise_std,
    epsilon=0.01, weighting="attribution",
):
    """(points, sweep) with the mask ranks < k and a full refill at every ratio."""
    values = maps.values.reshape(len(maps), -1)
    keep = values.sum(axis=1) > 0
    values = values[keep]
    features = dataset.feature_matrix()[keep]
    labels = dataset.labels()[keep]
    noise = literal_noise(dataset, noise_std, seed)
    noise = None if noise is None else noise[keep]
    n, d = values.shape
    ranks = literal_ranks(values)
    prefix = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(np.sort(values, axis=1, kind="stable"), axis=1)], axis=1
    )
    sweep, false_mass, false_card, hits_prev, k_prev = [], np.zeros(n), 0, 0, d
    for m in mask_ratios:
        k = round_half_away(m * d)
        s_m = literal_accuracy(model, dataset, features, labels, ranks < k, imputer, noise)
        hits = round(s_m * n)  # the accuracy is a hit count over n
        if hits - hits_prev < Fraction(repr(epsilon)) * n:
            false_mass += prefix[:, k_prev] - prefix[:, k]
            false_card += k_prev - k
        if weighting == "attribution":
            included = prefix[:, -1] - prefix[:, k]
            q = float(np.mean((included - false_mass) / included))
        else:
            q = ((d - k) - false_card) / (d - k)
        sweep.append([float(m), s_m, q])
        hits_prev, k_prev = hits, k
    first = {}
    for _, s, q in sweep:
        first.setdefault(s, q)
    return tuple(sorted(first.items())), sweep


def literal_completeness(
    model, dataset, maps, seed, *, imputer, noise_std, thresholds=DEFAULT_THRESHOLDS
):
    values = maps.values.reshape(len(maps), -1)
    features, labels = dataset.feature_matrix(), dataset.labels()
    noise = literal_noise(dataset, noise_std, seed)
    s_0 = accuracy(model.predict_probs(features), labels)
    return tuple(
        (t, s_0 - literal_accuracy(model, dataset, features, labels, values > t, imputer, noise))
        for t in sorted(thresholds)
    )


def literal_order_curve(model, dataset, maps, mode, order, fill, fractions, seed):
    values = maps.values.reshape(len(maps), -1)
    features, labels = dataset.feature_matrix(), dataset.labels()
    imputer = fill["imputer"]
    noise = literal_noise(dataset, fill["noise_std"], seed)
    ranks = literal_ranks(values, descending=(order == "MoRF"))
    points = []
    for f in fractions:
        prefix = ranks < round_half_away(f * values.shape[1])
        masks = prefix if mode == "deletion" else ~prefix
        points.append(
            (f, literal_accuracy(model, dataset, features, labels, masks, imputer, noise))
        )
    return tuple(points)


class CountingModel:
    """Forwards to a model and records each call's batch and writeability."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []
        self.writeable = []

    def predict_probs(self, batch):
        self.batches.append(np.array(batch))
        self.writeable.append(batch.flags.writeable)
        return self.inner.predict_probs(batch)


class PipelinedModel:
    """Offers predict_probs_many and copies each batch before drawing the next."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []
        self.writeable = []

    def predict_probs(self, batch):
        raise AssertionError("the sweep must use predict_probs_many")

    def predict_probs_many(self, batches):
        for batch in batches:
            self.batches.append(np.array(batch))
            self.writeable.append(batch.flags.writeable)
        return [self.inner.predict_probs(b) for b in self.batches]


def literal_step_inputs(dataset, features, ranks, ks, mask_prefix, kind, noise):
    """The literal filled input of each distinct cut-off, in sweep order."""
    distinct = [k for i, k in enumerate(ks) if i == 0 or k != ks[i - 1]]
    shape = features.shape
    out = []
    for k in distinct:
        masks = (ranks < k) if mask_prefix else ~(ranks < k)
        out.append(three_pass_fill(features, masks.reshape(shape), kind, dataset, noise))
    return out


def assert_same_inputs(seen, want):
    assert len(seen) == len(want)
    for a, b in zip(seen, want):
        assert np.array_equal(a, b)


@st.composite
def sweep_problems(draw):
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 120)),)
        kinds = ("zero", "mean")
    else:
        shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 2)))
        kinds = ("zero", "mean", "noisy_linear")
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(np.prod(shape))
    feats = rng.standard_normal((n,) + shape)
    # few distinct levels, so maps carry ties and exact zeros
    raw = rng.integers(0, 4, size=(n,) + shape) * (rng.random((n,) + shape) < 0.8)
    raw.reshape(n, d)[0, 0] = 4  # at least one map with mass
    if n > 1 and draw(st.booleans()):
        raw[1] = 0  # an all-zero map, which soundness skips
    maps = normalize_attribution(raw.astype(np.float64))
    n_classes = 3
    labels = rng.integers(0, n_classes, n)
    ds = Dataset(feats, labels, n_classes=n_classes)
    layer = Layer(weight=rng.standard_normal((n_classes, d)), bias=rng.standard_normal(n_classes))
    model = MlpModel(MlpWeights(layers=(layer,), n_classes=n_classes))
    noise_std = draw(st.sampled_from((0.0, 0.5)))
    fill = fill_options(draw(st.sampled_from(kinds)), noise_std)
    return ds, maps, model, fill, draw(st.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(sweep_problems())
def test_sweep_engine_matches_literal_per_step_fill(problem):
    check_sweep_engine(*problem)
    if problem[3]["imputer"] == "noisy_linear":
        with mock.patch.object(parallel, "_usable_cpus", lambda: LANES):
            check_sweep_engine(*problem)


def check_sweep_engine(ds, maps, inner, fill, seed):
    d = ds.n_features
    # every default ratio that leaves a feature unmasked: for d < 99 many collide
    ratios = tuple(m for m in DEFAULT_MASK_RATIOS if round_half_away(m * d) < d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values = maps.values.reshape(len(maps), -1)
        keep = values.sum(axis=1) > 0
        features = ds.feature_matrix()
        kind, noise = fill["imputer"], literal_noise(ds, fill["noise_std"], seed)
        for weighting in WEIGHTINGS:
            options = dict(mask_ratios=ratios, weighting=weighting, **fill)
            model = CountingModel(inner)
            curve = soundness_curve(model, ds, maps, **options, seed=seed)
            pipelined = PipelinedModel(inner)
            assert soundness_curve(pipelined, ds, maps, **options, seed=seed) == curve
            points, sweep = literal_soundness(inner, ds, maps, seed, **options)
            assert curve.points == points
            assert curve.meta["sweep"] == sweep
            ks = [round_half_away(m * d) for m in ratios]
            assert len(model.batches) == len(set(ks))
            assert not any(model.writeable) and not any(pipelined.writeable)
            assert_same_inputs(pipelined.batches, model.batches)
            assert_same_inputs(
                pipelined.batches,
                literal_step_inputs(
                    ds, features[keep], literal_ranks(values[keep]), ks, True, kind,
                    None if noise is None else noise[keep],
                ),
            )

        model = CountingModel(inner)
        curve = completeness_curve(model, ds, maps, **fill, seed=seed)
        assert curve.points == literal_completeness(inner, ds, maps, seed, **fill)
        pipelined = PipelinedModel(inner)
        assert completeness_curve(pipelined, ds, maps, **fill, seed=seed) == curve
        # one model call per distinct masked set, the clean inputs' empty set first
        sets = [np.zeros(values.shape, dtype=bool)] + [values > t for t in DEFAULT_THRESHOLDS]
        distinct = [m for i, m in enumerate(sets) if i == 0 or not np.array_equal(m, sets[i - 1])]
        assert len(model.batches) == len(distinct)
        assert not any(model.writeable) and not any(pipelined.writeable)
        assert_same_inputs(pipelined.batches, model.batches)
        assert_same_inputs(
            pipelined.batches,
            [three_pass_fill(features, m.reshape(features.shape), kind, ds, noise)
             for m in distinct],
        )

        for mode in ORDER_MODES:
            for order in RANK_ORDERS:
                ranks = literal_ranks(values, descending=(order == "MoRF"))
                for fractions in (DEFAULT_FRACTIONS, (0.0, 0.04, 0.05, 0.5, 0.52, 1.0)):
                    model = CountingModel(inner)
                    curve = order_based_curve(
                        model, ds, maps, mode, order=order, fractions=fractions, seed=seed,
                        **fill,
                    )
                    want = literal_order_curve(
                        inner, ds, maps, mode, order, fill, fractions, seed
                    )
                    assert curve.points == want
                    pipelined = PipelinedModel(inner)
                    assert order_based_curve(
                        pipelined, ds, maps, mode, order=order, fractions=fractions, seed=seed,
                        **fill,
                    ) == curve
                    ks = [round_half_away(f * d) for f in fractions]
                    assert len(model.batches) == len(set(ks))
                    assert not any(model.writeable) and not any(pipelined.writeable)
                    assert_same_inputs(
                        pipelined.batches,
                        literal_step_inputs(
                            ds, features, ranks, ks, mode == "deletion", kind, noise
                        ),
                    )


def test_completeness_calls_the_model_once_per_distinct_masked_set(step_model, small_dataset):
    # over maps valued in {0, 0.5, 1} the 9 default thresholds mask three
    # distinct sets: none (the clean inputs), the features at 1, and those at
    # 0.5 or 1; a threshold that masks its predecessor's set costs no call
    n, d = len(small_dataset), small_dataset.n_features
    maps = MapSet(np.resize([0.0, 0.5, 1.0], (n, d)), normalized=True)
    options = dict(imputer="mean", noise_std=1.0)
    model = CountingModel(step_model)
    curve = completeness_curve(model, small_dataset, maps, **options, seed=3)
    assert len(DEFAULT_THRESHOLDS) == 9 and len(model.batches) == 3
    assert curve.points == literal_completeness(step_model, small_dataset, maps, 3, **options)


def test_sweep_buffer_is_not_shared_between_steps(step_model, small_dataset, gt_maps):
    # each batch the model saw must be the fill of its own step, not a later one
    model = CountingModel(step_model)
    order_based_curve(model, small_dataset, gt_maps, "deletion", fractions=(0.0, 0.5, 1.0))
    first, middle, last = model.batches
    assert np.array_equal(first, small_dataset.feature_matrix())
    assert np.count_nonzero(middle == 0.0) == 60 * 50
    assert np.all(last == 0.0)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("start_masked", [False, True])
@pytest.mark.parametrize("kind", ["zero", "mean"])
def test_sweep_fill_is_the_literal_where_at_every_step(kind, start_masked, noisy):
    # exact values and signed zeros: a masked entry is fill + noise, and
    # 0.0 + -0.0 is +0.0, so a zero fill that wrote the noise alone would show
    # here; standard_normal never draws a -0.0, so seeded noise cannot tell
    features = np.array([
        [1.5, -0.0, 0.25, -2.0],
        [-0.0, 3.0, -0.5, -0.0],
        [-0.0, -1.0, 0.75, -0.0],
    ])
    noise = np.array([
        [-0.0, 0.5, -0.0, 0.0],
        [-0.0, -0.0, 1.25, -3.0],
        [0.0, -0.0, -0.0, -0.0],
    ]) if noisy else None
    ds = Dataset(features, [0, 1, 0], n_classes=2)
    steps = [
        ([], True),
        ([0, 5, 11], True),
        ([5, 2, 9], False),
        ([1, 2, 3, 4, 6, 7, 8, 9, 10], True),
        ([0, 4, 8], False),
    ]
    model = RecordingModel()
    metrics._sweep(
        model, ds, ds.feature_matrix(), ds.labels(), kind, noise, start_masked,
        [(np.array(idx, dtype=np.int64), masked) for idx, masked in steps],
    )
    fill = 0.0 if kind == "zero" else ds.feature_means
    mask = np.full(features.shape, start_masked)
    want = []
    for idx, masked in steps:
        mask.reshape(-1)[idx] = masked
        want.append(np.where(mask, fill if noise is None else fill + noise, features))
    assert [b.tobytes() for b in model.batches] == [w.tobytes() for w in want]


def test_metric_peaks_on_the_probe_shape():
    # tracemalloc peaks above the inputs, in (n, d) float64 arrays, on
    # 200 x 32 x 32 x 3 with the mean fill: soundness holds the fill buffer
    # and its int32 ranking (plus the noise draw when noisy), the others the
    # buffer and at most a ranking
    spec = importlib.util.spec_from_file_location("memory_probe", SCRIPTS / "memory_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    noiseless = probe.metric_peaks(200, (32, 32, 3))
    noisy = probe.metric_peaks(200, (32, 32, 3), noise_std=0.5)
    assert noiseless["soundness"] <= 2.5 and noisy["soundness"] <= 3.0
    assert noiseless["completeness"] <= 2.5 and noiseless["deletion"] <= 2.5


# -- the noisy-linear fill on lanes against the inline fill --------------------------

LANES = 3


def pool_problem(rng, n=2 * LANES + 1, shape=(6, 5, 3)):
    """More samples than lanes, a different random mask in each channel,
    and empty and fully masked planes and samples among them."""
    feats = rng.standard_normal((n,) + shape)
    masks = rng.random((n,) + shape) < rng.random((n, 1, 1, shape[2]))
    masks[0, ..., 0] = False
    masks[0, ..., 1] = True
    masks[1] = True
    masks[2] = False
    labels = (feats.sum(axis=(1, 2, 3)) > 0).astype(int)
    ds = Dataset(feats, labels, n_classes=2)
    maps = normalize_attribution(np.abs(feats) * (rng.random((n,) + shape) < 0.7))
    layer = Layer(weight=rng.standard_normal((2, feats[0].size)), bias=np.zeros(2))
    return ds, masks, maps, MlpModel(MlpWeights(layers=(layer,), n_classes=2))


def use_cpus(monkeypatch, cpus):
    """Fork up to ``cpus`` lanes, whatever CPUs this machine has."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)


@pytest.fixture()
def solver_pids(tmp_path, monkeypatch):
    """Log the process of every impute_grid call the metrics make; the
    fixture's value reads and clears the log."""
    log = tmp_path / "solver.pids"

    def impute(features, mask):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return impute_grid(features, mask)

    def read():
        pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
        log.unlink(missing_ok=True)
        return pids

    monkeypatch.setattr(metrics, "impute_grid", impute)
    return read


def grid_curves(model, ds, maps, fill):
    """ROAD in both orders, then completeness and soundness, with ``fill``."""
    curves = [
        road_curve(model, ds, maps, order=order, noise_std=fill["noise_std"], seed=5)
        for order in RANK_ORDERS
    ]
    curves.append(completeness_curve(model, ds, maps, **fill, seed=5))
    return curves + [soundness_curve(model, ds, maps, mask_ratios=COARSE_RATIOS, **fill, seed=5)]


@pytest.mark.filterwarnings("ignore:fully masked grid")
@pytest.mark.parametrize("noise_std", [0.0, 0.5])
def test_grid_fill_on_lanes_matches_inline(rng, monkeypatch, solver_pids, noise_std):
    ds, masks, maps, inner = pool_problem(rng)
    feats = ds.feature_matrix()
    fill = fill_options("noisy_linear", noise_std)
    noise = literal_noise(ds, noise_std, seed=5)

    # one step that masks ``masks``, through the window fill the sweep runs
    step = (np.flatnonzero(masks), True)
    fills = metrics._grid_fills(feats.reshape(len(ds), -1), ds, noise, False, [step])
    got = np.array(next(fills))
    serial = np.stack([impute_grid(f, m) for f, m in zip(feats, masks)])
    if noise is not None:
        serial = serial + noise
    assert np.array_equal(got, np.where(masks, serial, feats))
    solver_pids()

    groups = []  # the processes that solve in each run_shares call
    run_shares = parallel.run_shares

    def grouped(work, shares):
        try:
            return run_shares(work, shares)
        finally:
            groups.append(solver_pids())

    monkeypatch.setattr(parallel, "run_shares", grouped)
    runs = {}
    for cpus in (1, LANES):
        use_cpus(monkeypatch, cpus)
        model = CountingModel(inner)
        groups.clear()
        runs[cpus] = grid_curves(model, ds, maps, fill), model.batches, list(groups)
    inline, inline_batches, inline_groups = runs[1]
    laned, laned_batches, laned_groups = runs[LANES]
    # the caller solves its own share; exactly LANES - 1 forked lanes solve the rest
    caller = os.getpid()
    assert len(laned_groups) == len(inline_groups) == 4
    assert all(set(pids) == {caller} for pids in inline_groups)
    for pids in laned_groups:
        assert caller in pids and len(set(pids) - {caller}) == LANES - 1
    assert sum(map(len, laned_groups)) == sum(map(len, inline_groups))
    assert laned == inline
    assert [b.tobytes() for b in laned_batches] == [b.tobytes() for b in inline_batches]

    *roads, completeness, soundness = laned
    for order, curve in zip(RANK_ORDERS, roads):
        assert curve.points == literal_order_curve(
            inner, ds, maps, "deletion", order, fill, DEFAULT_FRACTIONS, 5
        )
    assert completeness.points == literal_completeness(inner, ds, maps, 5, **fill)
    assert soundness.points == literal_soundness(
        inner, ds, maps, 5, mask_ratios=COARSE_RATIOS, **fill
    )[0]


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_a_lane_error_reaches_the_caller_with_its_type_and_message(rng, monkeypatch):
    # the exception crosses a process boundary, so it arrives as a copy
    ds, _, maps, model = pool_problem(rng)
    feats = ds.feature_matrix()

    def impute(features, mask):
        if np.array_equal(features, feats[4]):
            raise DataError(f"sample 4 cannot be filled in process {os.getpid()}")
        return impute_grid(features, mask)

    monkeypatch.setattr(metrics, "impute_grid", impute)
    use_cpus(monkeypatch, LANES)
    # the caller fills rows 0-1 itself; sample 4 lies in the last lane's share (rows 4-6)
    with pytest.raises(DataError, match=r"^sample 4 cannot be filled in process \d+$") as info:
        road_curve(model, ds, maps, seed=5)
    assert str(info.value) != f"sample 4 cannot be filled in process {os.getpid()}"


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_an_error_in_the_callers_own_share_is_raised_after_the_lanes_are_reaped(
    rng, monkeypatch, tmp_path
):
    ds, _, maps, model = pool_problem(rng)
    feats = ds.feature_matrix()
    solved = tmp_path / "solved"

    def impute(features, mask):
        if np.array_equal(features, feats[0]):
            raise DataError(f"sample 0 cannot be filled in process {os.getpid()}")
        with open(solved, "a") as log:
            log.write(f"{os.getpid()}\n")
        return impute_grid(features, mask)

    monkeypatch.setattr(metrics, "impute_grid", impute)
    use_cpus(monkeypatch, 2)
    counting = CountingModel(model)
    with pytest.raises(DataError) as info:
        road_curve(counting, ds, maps, seed=5)
    # raised where it happened, not a copy from a lane
    assert str(info.value) == f"sample 0 cannot be filled in process {os.getpid()}"
    assert multiprocessing.active_children() == []
    # the forked lane filled its whole share (rows 3-6, ten masked steps each)
    lanes = [int(pid) for pid in solved.read_text().split() if int(pid) != os.getpid()]
    assert len(lanes) == 4 * 10 and len(set(lanes)) == 1
    assert counting.batches == []


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_a_lane_that_dies_mid_window_raises_worker_error_before_any_batch(
    rng, monkeypatch
):
    ds, _, maps, model = pool_problem(rng)
    feats = ds.feature_matrix()
    caller = os.getpid()

    def impute(features, mask):
        if os.getpid() != caller and np.array_equal(features, feats[5]):
            os._exit(3)
        return impute_grid(features, mask)

    monkeypatch.setattr(metrics, "impute_grid", impute)
    use_cpus(monkeypatch, LANES)
    counting = CountingModel(model)
    with pytest.raises(WorkerError, match=r"died \(exit code 3\)"):
        road_curve(counting, ds, maps, seed=5)
    assert counting.batches == []
    assert multiprocessing.active_children() == []


def test_lane_grid_fill_warnings_obey_caller_filters(rng, monkeypatch):
    ds, _, maps, model = pool_problem(rng)
    use_cpus(monkeypatch, LANES)
    n, planes = len(maps), ds.feature_shape[2]
    with pytest.warns(UserWarning, match="fully masked") as record:
        road_curve(model, ds, maps, fractions=(0.0, 1.0))
    assert len(record) == n * planes
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", message="fully masked grid")
        road_curve(model, ds, maps, fractions=(0.0, 1.0))
    assert seen == []


@pytest.mark.filterwarnings("ignore:fully masked grid")
@pytest.mark.parametrize("cpus", [1, LANES])
def test_sweep_windows_of_any_size_give_the_same_bytes(rng, monkeypatch, cpus):
    ds, _, maps, inner = pool_problem(rng)
    use_cpus(monkeypatch, cpus)
    calls = []  # the shares of each window's run_shares call, one fork group each
    run_shares = parallel.run_shares

    def counted(work, shares):
        calls.append(len(shares))
        return run_shares(work, shares)

    monkeypatch.setattr(parallel, "run_shares", counted)
    options = dict(mask_ratios=COARSE_RATIOS, imputer="noisy_linear", noise_std=0.5)
    model = CountingModel(inner)
    whole = soundness_curve(model, ds, maps, **options, seed=5)
    steps = len(model.batches)
    assert steps > 2 and calls == [cpus]
    one_step = 8 * len(ds) * ds.n_features  # the bytes of one step's fills
    for window, windows in ((one_step, steps), (2 * one_step + 1, -(-steps // 2))):
        monkeypatch.setattr(metrics, "_WINDOW_BYTES", window)
        calls.clear()
        windowed = CountingModel(inner)
        assert soundness_curve(windowed, ds, maps, **options, seed=5) == whole
        assert calls == [cpus] * windows
        assert [b.tobytes() for b in windowed.batches] == [b.tobytes() for b in model.batches]


def test_noisy_linear_fill_solves_only_samples_with_a_masked_entry(rng, monkeypatch):
    ds, _, maps, model = pool_problem(rng)
    n = len(ds)
    use_cpus(monkeypatch, 1)
    solved = []

    def impute(features, mask):
        solved.append(np.count_nonzero(mask))
        return impute_grid(features, mask)

    monkeypatch.setattr(metrics, "impute_grid", impute)
    road_curve(model, ds, maps, fractions=(0.0, 0.5))
    assert len(solved) == n and all(solved)  # fraction 0 masks nothing

    values = maps.values.reshape(n, -1).copy()
    values[0] = 0.0  # never masked
    values[1] = np.minimum(values[1], 0.5)  # masked from threshold 0.4 on
    solved.clear()
    completeness_curve(
        model, ds, MapSet(values.reshape(maps.values.shape), normalized=True), imputer="noisy_linear"
    )
    sets = [np.zeros(values.shape, dtype=bool)] + [values > t for t in DEFAULT_THRESHOLDS]
    distinct = [m for i, m in enumerate(sets) if i == 0 or not np.array_equal(m, sets[i - 1])]
    assert len(solved) == sum(np.count_nonzero(m.any(axis=1)) for m in distinct)
    assert len(solved) < n * (len(distinct) - 1) and all(solved)
