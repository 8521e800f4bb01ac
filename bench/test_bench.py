"""Tests of the benchmark's own oracles and checks.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import oracles  # noqa: E402
import workload  # noqa: E402
from soco import (  # noqa: E402
    EvalCurve,
    ValidationSettings,
    generate_synthetic,
    impute_grid,
    read_dataset,
    read_maps,
    run_validation,
)

SECOND_SEED = 2


# -- oracles against hand-worked cases -------------------------------------------


def test_neighbor_matrix_weights():
    corner = oracles.neighbor_matrix(2, 2)[0]
    # two direct neighbours at 1/6 and one diagonal at 1/12, renormalised by 5/12
    assert np.allclose(corner, [0.0, 0.4, 0.4, 0.2])
    centre = oracles.neighbor_matrix(3, 3)[4]
    assert np.allclose(centre, [1 / 12, 1 / 6, 1 / 12, 1 / 6, 0, 1 / 6, 1 / 12, 1 / 6, 1 / 12])


def test_impute_dense_hand_cases():
    row = np.array([1.0, 7.0, 3.0]).reshape(1, 3, 1)
    mask = np.array([False, True, False]).reshape(1, 3, 1)
    assert oracles.impute_dense(row, mask, oracles.neighbor_matrix(1, 3))[0, 1, 0] == pytest.approx(2.0)

    square = np.array([[9.0, 1.0], [2.0, 4.0]]).reshape(2, 2, 1)
    one = np.array([[True, False], [False, False]]).reshape(2, 2, 1)
    got = oracles.impute_dense(square, one, oracles.neighbor_matrix(2, 2))
    assert got[0, 0, 0] == pytest.approx(0.4 * 1 + 0.4 * 2 + 0.2 * 4)
    assert np.array_equal(got[..., 0].reshape(-1)[1:], [1.0, 2.0, 4.0])

    full = oracles.impute_dense(square, np.ones_like(one), oracles.neighbor_matrix(2, 2))
    assert np.array_equal(full, np.zeros_like(square))


def test_completeness_drops_hand_case():
    rows = np.array([[3.0, 1.0], [-1.0, -2.0], [0.5, -0.25]])
    labels = oracles.step_classes(rows)
    assert labels.tolist() == [1, 0, 1]
    maps = oracles.ground_truth_maps(rows, labels)
    assert np.allclose(maps, [[1.0, 1 / 3], [0.5, 1.0], [1.0, 0.0]])
    # means (2.5/3, -1.25/3); above 0.9 the top feature of each row is replaced:
    # row 0 -> (0.833, 1) stays 1, row 1 -> (-1, -0.417) stays 0,
    # row 2 -> (0.833, -0.25) stays 1, so nothing flips
    clean, drops = oracles.completeness_drops(rows, labels, maps, (0.9, 0.2))
    assert clean == 1.0 and drops[0.9] == 0.0
    # above 0.2 rows 0 and 1 lose both features and become the mean row,
    # whose sum is positive: row 0 keeps class 1, row 1 flips from 0 to 1
    assert drops[0.2] == pytest.approx(1 / 3)


def test_mlp_classes_and_step_boundary():
    layers = [(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.5]), "identity")]
    assert oracles.mlp_classes(layers, np.array([[1.0, 0.0], [0.0, 0.0]])).tolist() == [0, 1]
    relu = [(np.array([[-1.0], [1.0]]), np.zeros(2), "relu"), (np.eye(2), np.zeros(2), "identity")]
    assert oracles.mlp_classes(relu, np.array([[-2.0], [3.0]])).tolist() == [0, 1]
    assert oracles.step_classes(np.array([[1.0, -1.0], [1e-9, 0.0]])).tolist() == [0, 1]


def test_morf_masks_ties_and_rounding():
    maps = np.array([[0.1, 0.9, 0.5, 0.9]])
    assert oracles.morf_masks(maps, 0.25).tolist() == [[False, True, False, False]]
    assert oracles.morf_masks(maps, 0.5).tolist() == [[False, True, False, True]]
    assert oracles.morf_masks(maps, 0.625).tolist() == [[False, True, True, True]]  # 2.5 -> 3


def test_synthetic_world_matches_the_generator():
    rows, labels = oracles.synthetic_world(40, 30, seed=5)
    dataset = generate_synthetic(40, 30, seed=5)
    assert np.array_equal(rows, dataset.feature_matrix())
    assert np.array_equal(labels, dataset.labels())


def test_containers_read_back(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((5, 4, 3, 2)).astype(np.float32)
    labels = np.array([0, 2, 1, 2, 0])
    maps = rng.random((5, 4, 3, 2)).astype(np.float32)
    (tmp_path / "d.soco").write_bytes(oracles.dataset_container(feats, labels, 3))
    digest = oracles.container_digest(feats, labels, 3)
    (tmp_path / "m.soco").write_bytes(oracles.maps_container(maps, digest))
    dataset = read_dataset(tmp_path / "d.soco")
    assert np.array_equal(dataset.feature_matrix(), feats.astype(np.float64))
    assert dataset.labels().tolist() == labels.tolist()
    read = read_maps(tmp_path / "m.soco", dataset)  # checks the digest
    assert np.array_equal(np.stack([m.values for m in read]), maps.astype(np.float64))


# -- each check fails on one altered point ------------------------------------------


@pytest.fixture(scope="module")
def small_validation():
    settings = ValidationSettings(n_samples=300, n_features=100, seed=3, n_trials=2)
    rows, labels = oracles.synthetic_world(300, 100, 3)
    maps = oracles.ground_truth_maps(rows, labels)
    _, drops = oracles.completeness_drops(rows, labels, maps, settings.thresholds)
    return run_validation(settings), drops


def _with_mean(summary, index, value):
    mean = np.array(summary.mean, dtype=np.float64)
    mean[index] = value
    return dataclasses.replace(summary, mean=mean)


def test_validation_check_catches_one_altered_point(small_validation):
    result, drops = small_validation
    assert workload.check_validation(result, drops) == []

    comp = result.completeness
    orig = comp["original"]
    bumped = dict(comp, original=_with_mean(orig, 4, orig.mean[4] + 1e-6))
    assert workload.check_validation(dataclasses.replace(result, completeness=bumped), drops)

    raised = dict(comp, remove=_with_mean(comp["remove"], 4, orig.mean[4] + 0.01))
    assert workload.check_validation(dataclasses.replace(result, completeness=raised), drops)

    level = sorted(result.aligned_soundness["introduce"])[0]
    for value in (1.5, result.aligned_soundness["original"].get(level, (1.0,))[0] + 0.01):
        sound = {m: dict(v) for m, v in result.aligned_soundness.items()}
        sound["introduce"][level] = (value, 0.0, 2)
        altered = dataclasses.replace(result, aligned_soundness=sound)
        assert workload.check_validation(altered, drops)

    assert workload.check_validation(dataclasses.replace(result, clean_accuracy=0.999), drops)


def _altered(curve: EvalCurve, index: int, delta: float) -> EvalCurve:
    points = list(curve.points)
    x, y = points[index]
    points[index] = (x, y + delta)
    return dataclasses.replace(curve, points=tuple(points))


@pytest.fixture(scope="module")
def road(tmp_path_factory):
    # on the second seed, so the road tests below also cover that seed
    wl = workload.RoadGrid(SECOND_SEED, tmp_path_factory.mktemp("road"))
    return wl, wl.evaluate(wl.setup())


def test_road_check_catches_one_altered_point(road):
    wl, curves = road
    assert wl.check(curves) == []
    for i in range(len(curves)):
        for index in (0, -1):
            altered = list(curves)
            altered[i] = _altered(curves[i], index, -1.0 / 64)
            assert wl.check(altered)


def test_impute_check_catches_one_altered_pixel(road):
    wl, _ = road
    assert wl.check_program() == []

    def off_by_one_pixel(grid, mask):
        out = impute_grid(grid, mask)
        out.reshape(-1)[np.flatnonzero(mask)[0]] += 1e-8
        return out

    (h, w), cases = next(iter(wl.impute_cases.items()))
    W = oracles.neighbor_matrix(h, w)
    assert workload.check_impute(impute_grid, cases, W) == []
    assert workload.check_impute(off_by_one_pixel, cases, W)


@pytest.fixture(scope="module")
def bridge(tmp_path_factory):
    return workload.RunBridge(SECOND_SEED, tmp_path_factory.mktemp("bridge"))


def test_bridge_check_catches_one_altered_point(bridge):
    reference = bridge.reference
    assert len(reference) == 12
    assert workload.check_bridge(reference, reference, bridge.zero_share) == []
    for name, curve in reference.items():
        for index in (0, -1, len(curve["points"]) // 2):
            points = [list(p) for p in curve["points"]]
            points[index][1] += 0.01
            altered = dict(reference, **{name: dict(curve, points=points)})
            assert workload.check_bridge(altered, reference, bridge.zero_share), (name, index)
    # the fixed points hold even against a reference that shares the fault
    deletion = next(n for n in reference if n.endswith(".deletion.curve.json"))
    points = [list(p) for p in reference[deletion]["points"]]
    points[-1][1] += 0.01
    both = dict(reference, **{deletion: dict(reference[deletion], points=points)})
    assert workload.check_bridge(both, both, bridge.zero_share)
    completeness = next(n for n in reference if n.endswith(".completeness.curve.json"))
    meta = dict(reference[completeness]["meta"], clean_accuracy=0.99)
    both = dict(reference, **{completeness: dict(reference[completeness], meta=meta)})
    assert workload.check_bridge(both, both, bridge.zero_share)


# -- a second seed passes every workload's checks -----------------------------------


def test_validation_second_seed(tmp_path):
    wl = workload.Validation(SECOND_SEED, tmp_path)
    wl.setup()
    assert wl.check(wl.evaluate(None)) == []


def test_bridge_second_seed(bridge):
    bridge.before_eval()
    bridge.setup()
    assert bridge.check(bridge.evaluate(None)) == []
