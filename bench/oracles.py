"""Reference computations the benchmark checks soco's outputs against.

Each one is written from the definition in plain numpy and imports nothing
from soco, so a fault in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

DATA_STREAM = 1  # the "data" sub-stream of soco's seed discipline
DIRECT_W = 1.0 / 6.0
DIAGONAL_W = 1.0 / 12.0


# -- synthetic world ----------------------------------------------------------


def synthetic_world(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of the synthetic dataset: row i is standard normal
    from sub-stream (seed, data, i), redrawn while its sum is exactly zero;
    the label is 1 iff the row sum is positive."""
    rows = np.empty((n, d), dtype=np.float64)
    for i in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(DATA_STREAM, i))
        )
        x = rng.standard_normal(d)
        while x.sum() == 0.0:
            x = rng.standard_normal(d)
        rows[i] = x
    return rows, (rows.sum(axis=1) > 0).astype(np.int64)


def step_classes(rows: np.ndarray) -> np.ndarray:
    """The step model: class 1 iff the row sum is positive."""
    return (rows.sum(axis=1) > 0).astype(np.int64)


def ground_truth_maps(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Class-aligned positive part of each row, divided by its maximum."""
    aligned = np.where(labels[:, None] == 1, rows, -rows)
    raw = np.maximum(aligned, 0.0)
    peak = raw.max(axis=1, keepdims=True)
    return np.where(peak > 0, raw / np.where(peak > 0, peak, 1.0), raw)


def completeness_drops(
    rows: np.ndarray, labels: np.ndarray, maps: np.ndarray, thresholds
) -> tuple[float, dict]:
    """Clean step accuracy and the accuracy drop at each threshold when the
    features whose map value exceeds it are replaced by the feature means."""
    means = rows.mean(axis=0)
    n = rows.shape[0]
    clean = np.count_nonzero(step_classes(rows) == labels) / n
    drops = {}
    for t in thresholds:
        filled = np.where(maps > t, means, rows)
        drops[float(t)] = clean - np.count_nonzero(step_classes(filled) == labels) / n
    return clean, drops


# -- grids and ROAD -------------------------------------------------------------


def neighbor_matrix(h: int, w: int) -> np.ndarray:
    """Dense row-stochastic W: each pixel averages its 8 neighbours, direct
    ones weighted 1/6 and diagonal ones 1/12, rows renormalised at borders."""
    W = np.zeros((h * w, h * w))
    for r in range(h):
        for c in range(w):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if (dr or dc) and 0 <= rr < h and 0 <= cc < w:
                        W[r * w + c, rr * w + cc] = DIRECT_W if dr == 0 or dc == 0 else DIAGONAL_W
    return W / W.sum(axis=1, keepdims=True)


def impute_dense(grid: np.ndarray, mask: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Masked pixels of each channel solve x_u = W[u, :] x with the unmasked
    pixels fixed; a fully masked channel becomes zero."""
    h, w, c = grid.shape
    out = grid.astype(np.float64).copy()
    for ch in range(c):
        m = mask[:, :, ch].reshape(-1)
        v = out[:, :, ch].reshape(-1)
        unknown, known = np.flatnonzero(m), np.flatnonzero(~m)
        if unknown.size == 0:
            continue
        if known.size == 0:
            out[:, :, ch] = 0.0
            continue
        A = np.eye(unknown.size) - W[np.ix_(unknown, unknown)]
        b = W[np.ix_(unknown, known)] @ v[known]
        v = v.copy()
        v[unknown] = np.linalg.solve(A, b)
        out[:, :, ch] = v.reshape(h, w)
    return out


def mlp_classes(layers: list, rows: np.ndarray) -> np.ndarray:
    """Predicted class of a feed-forward net given as [(weight, bias, activation)]."""
    acts = rows.reshape(rows.shape[0], -1)
    for weight, bias, activation in layers:
        acts = np.einsum("oi,ni->no", weight, acts) + bias
        if activation == "relu":
            acts = np.maximum(acts, 0.0)
    return np.argmax(acts, axis=1)


def morf_masks(maps: np.ndarray, fraction: float) -> np.ndarray:
    """Masks of the round-half-up(fraction * d) highest-valued features per
    map, ties broken towards the lower flat index; same shape as the maps."""
    n = maps.shape[0]
    flat = maps.reshape(n, -1)
    d = flat.shape[1]
    k = int(np.floor(fraction * d + 0.5))
    order = np.argsort(-flat, axis=1, kind="stable")
    masks = np.zeros_like(flat, dtype=bool)
    np.put_along_axis(masks, order[:, :k], True, axis=1)
    return masks.reshape(maps.shape)


# -- the SOCO container, written from its documented layout ---------------------


def container_digest(features: np.ndarray, labels: np.ndarray, n_classes: int) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<IH", features.shape[0], n_classes))
    h.update(features.astype(np.float32).tobytes())
    h.update(labels.astype(np.uint32).tobytes())
    return h.hexdigest()


def dataset_container(features: np.ndarray, labels: np.ndarray, n_classes: int) -> bytes:
    dims = features.shape
    head = b"SOCO" + struct.pack("<HBB", 1, 1, len(dims))
    head += struct.pack("<" + "I" * len(dims), *dims)
    head += struct.pack("<H", n_classes)
    head += labels.astype("<u4").tobytes() + np.arange(dims[0], dtype="<u4").tobytes()
    return head + features.astype("<f4").tobytes()


def maps_container(values: np.ndarray, digest: str) -> bytes:
    dims = values.shape
    head = b"SOCO" + struct.pack("<HBB", 1, 2, len(dims))
    head += struct.pack("<" + "I" * len(dims), *dims)
    head += struct.pack("<B", len(digest)) + digest.encode()
    return head + values.astype("<f4").tobytes()
