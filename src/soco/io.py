"""File formats: the SOCO binary container, JSON fixtures, curve files.

Container layout (little-endian throughout):

    magic   4 bytes  b"SOCO"
    version u16      currently 1
    kind    u8       1 = dataset, 2 = maps
    ndim    u8       2 = (n, d) tabular, 4 = (n, h, w, c) grid
    dims    ndim x u32
    dataset only: n_classes u16, labels n x u32, sample_ids n x u32
    maps only:    digest_len u8, then that many bytes of dataset digest hex
    payload: float32 row-major feature/value data

JSON files are accepted anywhere a container is, for small hand-written
fixtures; the reader sniffs the first four bytes.  Values are stored as
float32, so writing quantizes doubles; a container round trip is exact
from the second write onward and digests are computed at float32 precision
to make the two representations agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import AttributionMap, DataError, Dataset, EvalCurve, Sample

MAGIC = b"SOCO"
VERSION = 1
KIND_DATASET = 1
KIND_MAPS = 2

_PathLike = Union[str, Path]


def atomic_write(path: _PathLike, data: Union[bytes, str]) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def dataset_digest(dataset: Dataset) -> str:
    """Content hash of a dataset at container (float32) precision."""
    h = hashlib.sha256()
    h.update(struct.pack("<IH", len(dataset.samples), dataset.n_classes))
    h.update(dataset.feature_matrix().astype(np.float32).tobytes())
    h.update(dataset.labels().astype(np.uint32).tobytes())
    return h.hexdigest()


class _Cursor:
    """Byte reader that turns overruns into truncation errors."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError("truncated payload")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _check_header(cur: _Cursor, expect_kind: int) -> tuple[int, ...]:
    if cur.take(4) != MAGIC:
        raise DataError("bad magic")
    (version,) = cur.unpack("H")
    if version != VERSION:
        raise DataError(f"unsupported container version {version}")
    kind, ndim = cur.unpack("BB")
    if kind != expect_kind:
        raise DataError(f"container holds kind {kind}, expected {expect_kind}")
    if ndim not in (2, 4):
        raise DataError(f"unsupported dimensionality {ndim}")
    return cur.unpack("I" * ndim)


def _read_file(path: _PathLike) -> bytes:
    """The file's bytes; a file that cannot be read is a data error."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


# -- datasets ----------------------------------------------------------------


def write_dataset(dataset: Dataset, path: _PathLike, format: str = "binary") -> None:
    feats = dataset.feature_matrix().astype(np.float32)
    labels = dataset.labels()
    ids = np.array([s.sample_id for s in dataset.samples], dtype=np.uint32)
    if format == "json":
        payload = {
            "kind": "dataset",
            "n_classes": dataset.n_classes,
            "features": feats.tolist(),
            "labels": labels.tolist(),
            "sample_ids": ids.tolist(),
        }
        atomic_write(path, canonical_json(payload))
        return
    if format != "binary":
        raise DataError(f"unknown format {format!r}")
    dims = (len(dataset.samples),) + dataset.feature_shape
    head = MAGIC + struct.pack("<HBB", VERSION, KIND_DATASET, len(dims))
    head += struct.pack("<" + "I" * len(dims), *dims)
    head += struct.pack("<H", dataset.n_classes)
    head += labels.astype(np.uint32).tobytes()
    head += ids.tobytes()
    atomic_write(path, head + feats.tobytes())


def _dataset_from_arrays(
    features: np.ndarray, labels: np.ndarray, ids: np.ndarray, n_classes: int
) -> Dataset:
    samples = tuple(
        Sample(
            features=features[i].astype(np.float64),
            label=int(labels[i]),
            sample_id=int(ids[i]),
        )
        for i in range(features.shape[0])
    )
    return Dataset(
        samples=samples,
        n_classes=n_classes,
        feature_means=features.astype(np.float64).mean(axis=0),
    )


def read_dataset(path: _PathLike) -> Dataset:
    blob = _read_file(path)
    if not blob.startswith(MAGIC):
        try:
            payload = json.loads(blob.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError("bad magic") from None
        if payload.get("kind") != "dataset":
            raise DataError(f"file holds kind {payload.get('kind')!r}, expected dataset")
        feats = np.asarray(payload["features"], dtype=np.float32)
        labels = np.asarray(payload["labels"], dtype=np.int64)
        ids = np.asarray(
            payload.get("sample_ids", range(feats.shape[0])), dtype=np.int64
        )
        return _dataset_from_arrays(feats, labels, ids, int(payload["n_classes"]))
    cur = _Cursor(blob)
    dims = _check_header(cur, KIND_DATASET)
    n = dims[0]
    (n_classes,) = cur.unpack("H")
    labels = np.frombuffer(cur.take(4 * n), dtype="<u4").astype(np.int64)
    ids = np.frombuffer(cur.take(4 * n), dtype="<u4").astype(np.int64)
    count = int(np.prod(dims))
    feats = np.frombuffer(cur.take(4 * count), dtype="<f4").reshape(dims)
    return _dataset_from_arrays(feats, labels, ids, n_classes)


# -- attribution maps --------------------------------------------------------


def write_maps(
    maps: Sequence[AttributionMap],
    path: _PathLike,
    dataset: Optional[Dataset] = None,
    format: str = "binary",
) -> None:
    if not maps:
        raise DataError("no maps to write")
    values = np.stack([m.values for m in maps]).astype(np.float32)
    digest = dataset_digest(dataset) if dataset is not None else ""
    if format == "json":
        payload = {
            "kind": "maps",
            "values": values.tolist(),
            "dataset_digest": digest or None,
        }
        atomic_write(path, canonical_json(payload))
        return
    if format != "binary":
        raise DataError(f"unknown format {format!r}")
    dims = values.shape
    head = MAGIC + struct.pack("<HBB", VERSION, KIND_MAPS, len(dims))
    head += struct.pack("<" + "I" * len(dims), *dims)
    head += struct.pack("<B", len(digest)) + digest.encode()
    atomic_write(path, head + values.tobytes())


def read_maps(path: _PathLike, dataset: Optional[Dataset] = None) -> list[AttributionMap]:
    """Load maps, checking alignment against ``dataset`` when one is given."""
    blob = _read_file(path)
    if not blob.startswith(MAGIC):
        try:
            payload = json.loads(blob.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError("bad magic") from None
        if payload.get("kind") != "maps":
            raise DataError(f"file holds kind {payload.get('kind')!r}, expected maps")
        values = np.asarray(payload["values"], dtype=np.float64)
        digest = payload.get("dataset_digest") or ""
    else:
        cur = _Cursor(blob)
        dims = _check_header(cur, KIND_MAPS)
        (digest_len,) = cur.unpack("B")
        digest = cur.take(digest_len).decode()
        count = int(np.prod(dims))
        values = (
            np.frombuffer(cur.take(4 * count), dtype="<f4")
            .reshape(dims)
            .astype(np.float64)
        )
    if dataset is not None:
        if values.shape[0] != len(dataset.samples):
            raise DataError(
                f"{values.shape[0]} maps for {len(dataset.samples)} samples"
            )
        if values.shape[1:] != dataset.feature_shape:
            raise DataError("map shape does not match the dataset")
        if digest and digest != dataset_digest(dataset):
            raise DataError("maps were written for a different dataset")
    return [AttributionMap(values=values[i]) for i in range(values.shape[0])]


# -- curves ------------------------------------------------------------------


def curve_to_dict(curve: EvalCurve) -> dict:
    return {
        "metric_kind": curve.metric_kind,
        "x_axis": curve.x_axis,
        "points": [list(p) for p in curve.points],
        "config_digest": curve.config_digest,
        "meta": curve.meta,
    }


def write_curve(curve: EvalCurve, path: _PathLike) -> None:
    atomic_write(path, canonical_json(curve_to_dict(curve)))


def read_curve(path: _PathLike) -> EvalCurve:
    try:
        payload = json.loads(_read_file(path).decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise DataError(f"not a curve file: {path}") from None
    try:
        return EvalCurve(
            metric_kind=payload["metric_kind"],
            x_axis=payload["x_axis"],
            points=tuple((p[0], p[1]) for p in payload["points"]),
            config_digest=payload.get("config_digest", ""),
            meta=payload.get("meta", {}),
        )
    except KeyError as exc:
        raise DataError(f"curve file missing field {exc}") from None


# -- plot data ---------------------------------------------------------------

Y_LABELS = {
    "soundness": "mean_soundness",
    "completeness": "accuracy_drop",
    "deletion": "accuracy",
    "insertion": "accuracy",
    "road": "accuracy",
}


def emit_plot_data(source, path: _PathLike, format: str = "csv") -> None:
    """Flatten a curve or trial summary into plottable columns.

    Curves emit (x, y); summaries emit (x, mean, std, n).  The header row
    names the axes; for curves it also carries the metric kind.
    """
    from .analysis import TrialSummary  # local import to avoid a cycle

    if isinstance(source, EvalCurve):
        header = [source.x_axis, f"{source.metric_kind}:{Y_LABELS[source.metric_kind]}"]
        rows = [[x, y] for x, y in source.points]
    elif isinstance(source, TrialSummary):
        header = ["x", "mean", "std", "n_trials"]
        rows = [
            [float(x), float(m), None if np.isnan(s) else float(s), int(c)]
            for x, m, s, c in zip(source.x_grid, source.mean, source.std, source.counts)
        ]
    else:
        raise DataError(f"cannot emit plot data for {type(source).__name__}")

    if format == "json":
        atomic_write(path, canonical_json({"columns": header, "rows": rows}))
    elif format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("" if v is None else repr(v) for v in row))
        atomic_write(path, "\n".join(lines) + "\n")
    else:
        raise DataError(f"unknown format {format!r}")
