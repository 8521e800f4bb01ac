"""File formats: the SOCO binary container, JSON fixtures, curve files.

Container layout (little-endian throughout):

    magic   4 bytes  b"SOCO"
    version u16      currently 1
    kind    u8       1 = dataset, 2 = maps
    ndim    u8       2 = (n, d) tabular, 4 = (n, h, w, c) grid
    dims    ndim x u32
    dataset only: n_classes u16, labels n x u32, sample_ids n x u32
    maps only:    digest_len u8, then that many bytes of dataset digest, ASCII hex
    payload: float32 row-major feature/value data; nothing follows it

JSON files are accepted anywhere a container is, for small hand-written
fixtures; the reader sniffs the first four bytes.  Values are stored as
float32, so writing quantizes doubles; a container round trip is exact
from the second write onward and digests are computed at float32 precision
to make the two representations agree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .analysis import TrialSummary
from .core import CURVE_AXES, ConfigError, DataError, Dataset, EvalCurve, MapSet, check_maps_fit

MAGIC = b"SOCO"
VERSION = 1
KINDS = {"dataset": 1, "maps": 2}
MAX_CLASSES = 0xFFFF  # n_classes is a u16 in the container and the digest
MAX_SAMPLE_ID = 0xFFFFFFFF  # sample ids are u32 in the container

_PathLike = Union[str, Path]


def _write_error(path: _PathLike, exc: OSError) -> DataError:
    return DataError(f"cannot write {path}: {exc.strerror or exc}")


def atomic_write(path: _PathLike, data: Union[bytes, str]) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    A file that cannot be written is a data error and leaves no temp file.
    """
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise _write_error(path, exc) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def make_dir(path: _PathLike) -> None:
    """Create a directory and its parents; one that cannot be made is a data error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _write_error(path, exc) from None


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def dataset_digest(dataset: Dataset) -> str:
    """Content hash of a dataset at container (float32) precision."""
    h = hashlib.sha256()
    h.update(struct.pack("<IH", len(dataset), dataset.n_classes))
    h.update(dataset.feature_matrix().astype(np.float32).tobytes())
    h.update(dataset.labels().astype(np.uint32).tobytes())
    return h.hexdigest()


class _Cursor:
    """Byte reader that turns overruns into truncation errors; ``dims`` is
    the shape of the payload that ends the container."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0
        self.dims: tuple[int, ...] = ()

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError("truncated payload")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def payload(self) -> np.ndarray:
        """The float32 payload, a view of the file's bytes, which must end there."""
        count = math.prod(self.dims)  # exact: a product past int64 must not wrap around
        extra = len(self.blob) - self.pos - 4 * count
        if extra < 0:
            raise DataError("truncated payload")
        if extra:
            raise DataError(f"{extra} bytes after the payload")
        view = np.frombuffer(self.blob, dtype="<f4", count=count, offset=self.pos)
        return view.reshape(self.dims)


def _read_file(path: _PathLike) -> bytes:
    """The file's bytes; a file that cannot be read is a data error."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_array(value, dtype, key: str) -> np.ndarray:
    """Parsed JSON ``value`` of field ``key`` as a rectangular array of
    ``dtype``: JSON integers that fit int64 for ``np.int64``, JSON numbers
    otherwise.  Booleans and strings are neither, and nothing is rounded or
    parsed on the way in.  Anything else is a data error that names the
    field; JSON containers and weights files both read their arrays here."""
    what = "integers that fit int64" if dtype is np.int64 else "numbers"
    refusal = DataError(f"field {key!r} must be a rectangular array of JSON {what}")
    try:
        parsed = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        raise refusal from None
    # numpy parses Python ints beyond int64 as uint64 or objects, floats as
    # "f", strings as "U"
    if parsed.size and parsed.dtype.kind not in ("i" if dtype is np.int64 else "iuf"):
        raise refusal
    # a bool among numbers is read as 0 or 1, so only those entries can be one
    suspects = (parsed == 0) | (parsed == 1)
    if suspects.any() and bool in set(map(type, np.asarray(value, dtype=object)[suspects])):
        raise refusal
    return parsed.astype(dtype, copy=False)


def _json_field(payload: dict, key: str, dtype) -> np.ndarray:
    """One field of a JSON container as a rectangular array of ``dtype``
    (``json_array``)."""
    if key not in payload:
        raise DataError(f"JSON {payload['kind']} file missing field {key!r}")
    return json_array(payload[key], dtype, key)


# -- the container codec -----------------------------------------------------


def _write_container(
    path: _PathLike, format: str, kind: str, values: np.ndarray, fields: dict, packed: Callable
) -> None:
    """Write a ``kind`` file of float32 ``values`` and the kind's ``fields``:
    one canonical JSON object, or the container header, ``packed()`` (the
    fields in the kind's binary layout) and the payload."""
    if format == "json":
        values_key = "features" if kind == "dataset" else "values"
        atomic_write(path, canonical_json({"kind": kind, values_key: values.tolist(), **fields}))
    elif format == "binary":
        dims = values.shape
        head = struct.pack(f"<4sHBB{len(dims)}I", MAGIC, VERSION, KINDS[kind], len(dims), *dims)
        atomic_write(path, head + packed() + values.tobytes())
    else:
        raise DataError(f"unknown format {format!r}")


def _read_container(path: _PathLike, kind: str) -> Union[dict, _Cursor]:
    """A ``kind`` file's JSON object, or a cursor past its container header."""
    blob = _read_file(path)
    if not blob.startswith(MAGIC):
        try:
            payload = json.loads(blob.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError("bad magic") from None
        if not isinstance(payload, dict):
            raise DataError(f"JSON {kind} file must hold an object")
        if payload.get("kind") != kind:
            raise DataError(f"file holds kind {payload.get('kind')!r}, expected {kind}")
        return payload
    cur = _Cursor(blob)
    cur.take(len(MAGIC))
    (version,) = cur.unpack("H")
    if version != VERSION:
        raise DataError(f"unsupported container version {version}")
    code, ndim = cur.unpack("BB")
    if code != KINDS[kind]:
        raise DataError(f"container holds kind {code}, expected {KINDS[kind]}")
    if ndim not in (2, 4):
        raise DataError(f"unsupported dimensionality {ndim}")
    cur.dims = cur.unpack("I" * ndim)
    return cur


# -- datasets ----------------------------------------------------------------


def _check_n_classes(n_classes: int) -> None:
    if n_classes > MAX_CLASSES:
        raise DataError(f"n_classes must be at most {MAX_CLASSES} in a container, got {n_classes}")


def write_dataset(dataset: Dataset, path: _PathLike, format: str = "binary") -> None:
    """Write ``dataset`` as a container or a JSON file.  A field outside its
    container range, ``n_classes`` above 65535 or, in the binary container,
    a sample id outside [0, 2**32), is a ``DataError`` raised before
    anything is written; JSON holds any int64 id."""
    _check_n_classes(dataset.n_classes)
    labels, ids = dataset.labels(), dataset.sample_ids

    def packed() -> bytes:
        outside = ids[(ids < 0) | (ids > MAX_SAMPLE_ID)]
        if outside.size:
            raise DataError(f"sample_ids must lie in [0, 2**32) in a container, got {outside[0]}")
        head = struct.pack("<H", dataset.n_classes)
        return head + labels.astype("<u4").tobytes() + ids.astype("<u4").tobytes()

    fields = dict(n_classes=dataset.n_classes, labels=labels.tolist(), sample_ids=ids.tolist())
    feats = dataset.feature_matrix().astype(np.float32)
    _write_container(path, format, "dataset", feats, fields, packed)


def read_dataset(path: _PathLike) -> Dataset:
    source = _read_container(path, "dataset")
    if isinstance(source, dict):
        n_classes = _json_field(source, "n_classes", np.int64)
        if n_classes.ndim:
            raise DataError("field 'n_classes' must be one JSON integer")
        _check_n_classes(int(n_classes))
        ids = _json_field(source, "sample_ids", np.int64) if "sample_ids" in source else None
        return Dataset(
            _json_field(source, "features", np.float32),
            _json_field(source, "labels", np.int64),
            int(n_classes),
            ids,
        )
    (n_classes,) = source.unpack("H")
    labels, ids = np.frombuffer(source.take(8 * source.dims[0]), dtype="<u4").reshape(2, -1)
    return Dataset(source.payload(), labels, n_classes, ids)


# -- attribution maps --------------------------------------------------------


def write_maps(
    maps: MapSet,
    path: _PathLike,
    dataset: Optional[Dataset] = None,
    format: str = "binary",
) -> None:
    digest = dataset_digest(dataset) if dataset is not None else ""
    _write_container(
        path, format, "maps", maps.values.astype(np.float32), {"dataset_digest": digest or None},
        lambda: struct.pack("<B", len(digest)) + digest.encode(),
    )


def read_maps(path: _PathLike, dataset: Optional[Dataset] = None) -> MapSet:
    """Load maps, checking that they fit ``dataset`` when one is given."""
    source = _read_container(path, "maps")
    if isinstance(source, dict):
        values = _json_field(source, "values", np.float64)
        digest = source.get("dataset_digest")
        if digest is not None and not isinstance(digest, str):
            raise DataError(f"field 'dataset_digest' must be a string or null, got {digest!r}")
    else:
        (digest_len,) = source.unpack("B")
        try:
            digest = source.take(digest_len).decode("ascii")
        except UnicodeDecodeError:
            raise DataError("the dataset digest must be ASCII hex") from None
        values = source.payload()
    maps = MapSet(values)
    if dataset is not None:
        check_maps_fit(maps, dataset)
        if digest and digest != dataset_digest(dataset):
            raise DataError("maps were written for a different dataset")
    return maps


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
    """A curve file as written by ``write_curve``; any malformed field, an
    ``x_axis`` that is not its kind's included, is a data error that names
    the file."""
    try:
        payload = json.loads(_read_file(path).decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise DataError(f"not a curve file: {path}") from None
    if not isinstance(payload, dict):
        raise DataError(f"curve file {path} must hold an object")
    for key in ("metric_kind", "x_axis", "points"):
        if key not in payload:
            raise DataError(f"curve file {path} missing field {key!r}")
    points = payload["points"]
    if not isinstance(points, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in points
    ):
        raise DataError(f"curve file {path}: 'points' must be a list of [x, y] number pairs")
    config_digest, meta = payload.get("config_digest", ""), payload.get("meta", {})
    if not isinstance(config_digest, str) or not isinstance(meta, dict):
        raise DataError(f"curve file {path}: 'config_digest' must be a string, 'meta' an object")
    try:
        curve = EvalCurve(
            metric_kind=payload["metric_kind"],
            points=tuple((x, y) for x, y in points),
            config_digest=config_digest,
            meta=meta,
        )
        axis = payload["x_axis"]
        if axis != curve.x_axis:
            raise DataError(f"a {curve.metric_kind} curve's x axis is {curve.x_axis}, not {axis!r}")
    except (ConfigError, DataError, OverflowError) as exc:
        raise DataError(f"curve file {path}: {exc}") from None
    return curve


# -- plot data ---------------------------------------------------------------


def _float_or_none(value) -> Optional[float]:
    return None if np.isnan(value) else float(value)


def emit_plot_data(source, path: _PathLike, format: str = "csv") -> None:
    """Flatten a curve or trial summary into plottable columns.

    Curves emit (x, y); summaries emit (x, mean, std, n).  The header row
    names the axes; for curves it also carries the metric kind.  A summary's
    NaN mean (a grid point no trial reached) or std (fewer than two trials)
    is written as JSON's null, or an empty CSV cell.
    """
    if isinstance(source, EvalCurve):
        x_axis, y_label = CURVE_AXES[source.metric_kind]
        header = [x_axis, f"{source.metric_kind}:{y_label}"]
        rows = [[x, y] for x, y in source.points]
    elif isinstance(source, TrialSummary):
        header = ["x", "mean", "std", "n_trials"]
        rows = [
            [float(x), _float_or_none(m), _float_or_none(s), int(c)]
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
