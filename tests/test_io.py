import hashlib
import json

import numpy as np
import pytest

from soco import (
    DataError,
    Dataset,
    EvalCurve,
    MapSet,
    TrialSummary,
    emit_plot_data,
    read_curve,
    read_dataset,
    read_maps,
    write_curve,
    write_dataset,
    write_maps,
)
from soco.io import MAGIC, canonical_json, config_digest, dataset_digest


@pytest.fixture
def disk_dataset(rng):
    feats = rng.standard_normal((6, 9)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, 3, size=6)
    return Dataset(feats, labels, n_classes=3)


@pytest.fixture
def grid_dataset(rng):
    feats = rng.standard_normal((4, 3, 5, 2)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, 2, size=4)
    return Dataset(feats, labels, n_classes=2)


def maps_for(dataset, rng):
    raw = rng.random((len(dataset),) + dataset.feature_shape).astype(np.float32)
    raw.reshape(len(dataset), -1)[:, 0] = 1.0
    return MapSet(raw, normalized=True)


# -- dataset containers --------------------------------------------------------


@pytest.mark.parametrize("ids, bad", [([-1, 5], -1), ([0, 2**32], 2**32)])
def test_the_binary_container_refuses_sample_ids_outside_u32(tmp_path, ids, bad):
    dataset = Dataset(np.ones((2, 3)), [0, 1], 2, sample_ids=ids)
    with pytest.raises(DataError) as info:
        write_dataset(dataset, tmp_path / "d.soco")
    assert str(info.value) == f"sample_ids must lie in [0, 2**32) in a container, got {bad}"
    assert list(tmp_path.iterdir()) == []
    write_dataset(dataset, tmp_path / "d.json", format="json")  # JSON holds any int64 id
    assert read_dataset(tmp_path / "d.json").sample_ids.tolist() == ids


@pytest.mark.parametrize("format", ["binary", "json"])
def test_a_dataset_file_holds_at_most_65535_classes(tmp_path, format):
    with pytest.raises(DataError) as info:
        write_dataset(Dataset(np.ones((2, 3)), [0, 1], 70000), tmp_path / "d", format=format)
    assert str(info.value) == "n_classes must be at most 65535 in a container, got 70000"
    assert list(tmp_path.iterdir()) == []
    write_dataset(Dataset(np.ones((2, 3)), [0, 1], 65535), tmp_path / "d", format=format)
    assert read_dataset(tmp_path / "d").n_classes == 65535


@pytest.mark.parametrize("format", ["binary", "json"])
def test_dataset_round_trip(tmp_path, disk_dataset, format):
    path = tmp_path / "data.soco"
    write_dataset(disk_dataset, path, format=format)
    loaded = read_dataset(path)
    np.testing.assert_array_equal(
        loaded.feature_matrix(), disk_dataset.feature_matrix()
    )
    np.testing.assert_array_equal(loaded.labels(), disk_dataset.labels())
    assert loaded.n_classes == disk_dataset.n_classes
    np.testing.assert_array_equal(loaded.sample_ids, disk_dataset.sample_ids)


def test_grid_dataset_round_trip(tmp_path, grid_dataset):
    path = tmp_path / "grids.soco"
    write_dataset(grid_dataset, path)
    loaded = read_dataset(path)
    assert loaded.feature_shape == (3, 5, 2)
    np.testing.assert_array_equal(
        loaded.feature_matrix(), grid_dataset.feature_matrix()
    )


def test_round_trip_is_exact_from_second_write(tmp_path, rng):
    # first write quantizes doubles to f32; rewriting the loaded copy is exact
    feats = rng.standard_normal((5, 4))
    ds = Dataset(feats, np.zeros(5, dtype=int), n_classes=2)
    first = tmp_path / "a.soco"
    second = tmp_path / "b.soco"
    write_dataset(ds, first)
    loaded = read_dataset(first)
    write_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(
        read_dataset(second).feature_matrix(), loaded.feature_matrix()
    )


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.soco"
    path.write_bytes(b"\x89PNG----not a container")
    with pytest.raises(DataError, match="bad magic"):
        read_dataset(path)


@pytest.mark.parametrize("reader", [read_dataset, read_maps, read_curve])
def test_missing_file_is_data_error(tmp_path, reader):
    with pytest.raises(DataError, match="cannot read"):
        reader(tmp_path / "nonexistent.soco")
    with pytest.raises(DataError, match="cannot read"):
        reader(tmp_path)  # a directory


def test_unsupported_version(tmp_path, disk_dataset):
    path = tmp_path / "data.soco"
    write_dataset(disk_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version 99"):
        read_dataset(path)


def test_truncated_payload(tmp_path, disk_dataset):
    path = tmp_path / "data.soco"
    write_dataset(disk_dataset, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataError, match="truncated payload"):
        read_dataset(path)


def test_kind_mismatch(tmp_path, disk_dataset, rng):
    path = tmp_path / "maps.soco"
    write_maps(maps_for(disk_dataset, rng), path, dataset=disk_dataset)
    with pytest.raises(DataError, match="kind 2"):
        read_dataset(path)


# -- map containers --------------------------------------------------------------


@pytest.mark.parametrize("format", ["binary", "json"])
def test_maps_round_trip(tmp_path, disk_dataset, rng, format):
    maps = maps_for(disk_dataset, rng)
    path = tmp_path / "maps.soco"
    write_maps(maps, path, dataset=disk_dataset, format=format)
    loaded = read_maps(path, dataset=disk_dataset)
    assert isinstance(loaded, MapSet) and len(loaded) == len(maps)
    np.testing.assert_array_equal(loaded.values, maps.values)


def test_maps_digest_mismatch(tmp_path, disk_dataset, rng):
    maps = maps_for(disk_dataset, rng)
    path = tmp_path / "maps.soco"
    write_maps(maps, path, dataset=disk_dataset)
    other = Dataset(
        disk_dataset.feature_matrix() + 1.0, disk_dataset.labels(), n_classes=3
    )
    with pytest.raises(DataError, match="different dataset"):
        read_maps(path, dataset=other)


def test_maps_count_mismatch(tmp_path, disk_dataset, rng):
    maps = maps_for(disk_dataset, rng)
    path = tmp_path / "maps.soco"
    write_maps(MapSet(maps.values[:4]), path)
    with pytest.raises(DataError, match="4 maps for 6 samples"):
        read_maps(path, dataset=disk_dataset)


@pytest.mark.parametrize("kind", ["dataset", "maps"])
def test_nothing_may_follow_the_payload(tmp_path, disk_dataset, rng, kind):
    path = tmp_path / "c.soco"
    if kind == "dataset":
        write_dataset(disk_dataset, path)
    else:
        write_maps(maps_for(disk_dataset, rng), path, dataset=disk_dataset)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(DataError, match="^8 bytes after the payload$"):
        (read_dataset if kind == "dataset" else read_maps)(path)


def test_a_maps_digest_is_ascii_hex_or_a_json_string(tmp_path, disk_dataset, rng):
    path = tmp_path / "maps.soco"
    write_maps(maps_for(disk_dataset, rng), path, dataset=disk_dataset)
    blob = bytearray(path.read_bytes())
    digest_at = blob.index(dataset_digest(disk_dataset).encode())
    blob[digest_at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="^the dataset digest must be ASCII hex$"):
        read_maps(path)
    json_path = tmp_path / "maps.json"
    write_maps(maps_for(disk_dataset, rng), json_path, format="json")
    payload = json.loads(json_path.read_text())
    for digest in (5, ["abc"], True):
        json_path.write_text(json.dumps({**payload, "dataset_digest": digest}))
        with pytest.raises(DataError, match="'dataset_digest' must be a string or null"):
            read_maps(json_path)


def test_maps_without_dataset_skip_alignment(tmp_path, disk_dataset, rng):
    maps = maps_for(disk_dataset, rng)
    path = tmp_path / "maps.soco"
    write_maps(maps, path)  # no digest recorded
    loaded = read_maps(path)
    assert len(loaded) == 6


def pinned_sets():
    """A tabular and a grid set with given sample ids, and normalized maps
    for each, from exact arithmetic so their bytes never depend on a seed."""
    sets = {
        "tabular": Dataset(np.arange(12).reshape(3, 4) / 7 - 0.5, [0, 2, 1], 3,
                           sample_ids=[5, 2, 9]),
        "grid": Dataset(np.arange(12).reshape(2, 2, 3, 1) / 3 - 1.5, [1, 0], 2,
                        sample_ids=[4, 1]),
    }
    for name, dataset in sets.items():
        shape = dataset.feature_matrix().shape
        yield name, dataset, MapSet(np.arange(12).reshape(shape) / 11, normalized=True)


# the sha256 of each writer's bytes: (set, kind, format, with a dataset digest)
WRITTEN_SHA256 = {
    ("tabular", "dataset", "binary", None):
        "11edb0d01acd9950105b9c685e8a4cfcb625e73ec077cd00b7a50d5a1e1c06c6",
    ("tabular", "maps", "binary", False):
        "008a0b548b54ad67d80c4d83705d6e10c17a9fb4389b9da7fcfdee0456846c9f",
    ("tabular", "maps", "binary", True):
        "16d55c9eb0d6f3f819cc7c1c08e51e9a33589203d6a632676c1947fef4c83500",
    ("tabular", "dataset", "json", None):
        "a0f0b21a12818073909c6527ba9592c92370d45d65dc2dc505cd9dc8d6a5379c",
    ("tabular", "maps", "json", False):
        "6eaa7620822eef14d8093a11e54137725a31aa03883f007fa3fa9a9e46859aab",
    ("tabular", "maps", "json", True):
        "20fced27b588cf8ae6647e3ca48c25390bbf95f8ee977a39c7364348137563b4",
    ("grid", "dataset", "binary", None):
        "0588bb727e2aca654c5268be47ce25cd8837f0a49fbe2f73d21f005883b0f620",
    ("grid", "maps", "binary", False):
        "882b33897c57aaa12bdd22f488298df0a48c613c03cb0458c68c8f60b4a27ee7",
    ("grid", "maps", "binary", True):
        "393ea5dad4385d7abafe4746df0d0495e45ae4793f80faf0912dc29b37155c42",
    ("grid", "dataset", "json", None):
        "b709cebeba84a00f7f3537aa3c0a7c5175c6198d1649402d2a1370fd2d92561b",
    ("grid", "maps", "json", False):
        "f6d4120061d93019684fd0be324a1741b5bf9ee2d7307625b984ea9e1e8c7be5",
    ("grid", "maps", "json", True):
        "7dfb99a130a7e5f26040e9a18b226c7d1cae712af94e130c9c6ce1120c12448f",
}


def test_every_writer_writes_its_pinned_bytes(tmp_path):
    written = {}
    path = tmp_path / "out"
    for name, dataset, maps in pinned_sets():
        for format in ("binary", "json"):
            write_dataset(dataset, path, format=format)
            written[name, "dataset", format, None] = path.read_bytes()
            for with_digest in (False, True):
                write_maps(maps, path, dataset=dataset if with_digest else None, format=format)
                written[name, "maps", format, with_digest] = path.read_bytes()
    got = {case: hashlib.sha256(blob).hexdigest() for case, blob in written.items()}
    assert got == WRITTEN_SHA256


def test_maps_refuse_empty(tmp_path):
    with pytest.raises(DataError, match="no maps"):
        write_maps(MapSet(np.zeros((0, 3))), tmp_path / "empty.soco")


# -- digests -----------------------------------------------------------------------


def test_dataset_digest_tracks_content(disk_dataset):
    same = Dataset(
        disk_dataset.feature_matrix(), disk_dataset.labels(), n_classes=3
    )
    assert dataset_digest(same) == dataset_digest(disk_dataset)
    moved = Dataset(
        disk_dataset.feature_matrix() * 2.0, disk_dataset.labels(), n_classes=3
    )
    assert dataset_digest(moved) != dataset_digest(disk_dataset)


def test_digest_survives_container_round_trip(tmp_path, disk_dataset):
    path = tmp_path / "data.soco"
    write_dataset(disk_dataset, path)
    assert dataset_digest(read_dataset(path)) == dataset_digest(disk_dataset)


def test_config_digest_is_order_insensitive_but_value_sensitive():
    a = config_digest({"x": 1, "y": [1, 2]})
    b = config_digest({"y": [1, 2], "x": 1})
    c = config_digest({"x": 2, "y": [1, 2]})
    assert a == b
    assert a != c


def test_canonical_json_is_compact_and_sorted():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# -- curves ------------------------------------------------------------------------


def test_curve_round_trip(tmp_path):
    curve = EvalCurve(
        "soundness",
        ((0.5, 0.25), (1.0, 1.0)),
        config_digest="abc123",
        meta={"epsilon": 0.01, "skipped": 0},
    )
    path = tmp_path / "c.curve.json"
    write_curve(curve, path)
    loaded = read_curve(path)
    assert loaded.points == curve.points
    assert loaded.metric_kind == "soundness"
    assert loaded.config_digest == "abc123"
    assert loaded.meta["epsilon"] == 0.01


def test_curve_rejects_non_json(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(MAGIC + b"\x00" * 16)
    with pytest.raises(DataError, match="not a curve file"):
        read_curve(path)


def test_curve_missing_field(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"metric_kind": "deletion", "points": []}))
    with pytest.raises(DataError, match="missing field"):
        read_curve(path)


# -- plot emission -------------------------------------------------------------------


def test_emit_curve_csv(tmp_path):
    curve = EvalCurve("deletion", ((0.0, 1.0), (0.5, 0.25)))
    path = tmp_path / "plot.csv"
    emit_plot_data(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "masked_fraction,deletion:accuracy"
    assert lines[1] == "0.0,1.0"
    assert lines[2] == "0.5,0.25"


def test_emit_summary_json(tmp_path):
    summary = TrialSummary(
        x_grid=np.array([0.1, 0.9]),
        mean=np.array([0.5, 0.25]),
        std=np.array([0.0, np.nan]),
        counts=np.array([3, 1]),
        n_trials=3,
    )
    path = tmp_path / "plot.json"
    emit_plot_data(summary, path, format="json")
    payload = json.loads(path.read_text())
    assert payload["columns"] == ["x", "mean", "std", "n_trials"]
    assert payload["rows"][0] == [0.1, 0.5, 0.0, 3]
    assert payload["rows"][1] == [0.9, 0.25, None, 1]


def test_emit_rejects_unknown_sources_and_formats(tmp_path):
    curve = EvalCurve("deletion", ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(DataError, match="unknown format"):
        emit_plot_data(curve, tmp_path / "x", format="xml")
    with pytest.raises(DataError, match="cannot emit"):
        emit_plot_data({"not": "a curve"}, tmp_path / "y")


# -- atomicity ------------------------------------------------------------------------


def test_writes_leave_no_temp_files(tmp_path, disk_dataset):
    write_dataset(disk_dataset, tmp_path / "data.soco")
    write_dataset(disk_dataset, tmp_path / "data.soco")  # overwrite in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.soco"]
