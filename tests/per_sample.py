"""The literal per-sample oracles, kept from before the batched data model.

These are the ranking, masking, map-modification, data-generation and
ground-truth functions as the package wrote them one sample or one map at a
time, each map a plain array of any shape (``apply_scheme`` is renamed
``apply_scheme_per_map``), each stream built by its own ``substream`` call.  Tests
check the batched code in ``soco`` against them; nothing in the package
imports this module.  ``applied_masks`` replays the metrics' change sets,
and ``swept_fill`` reads the filled batch that the metrics' sweep engine
hands the model.
"""

from typing import Optional, Sequence

import numpy as np

from soco import metrics
from soco.core import ConfigError, DataError
from soco.modify import (
    PARTIAL_INTRODUCE_BAND,
    PARTIAL_MIN_FEATURES,
    PARTIAL_QUANTILE,
    PARTIAL_REMOVE_BAND,
    ModScheme,
)
from soco.perturb import round_half_away
from soco.rng import substream
from soco.synthetic import OracleInfo


def per_map_oracles(info: OracleInfo) -> list:
    """A stacked ``OracleInfo`` split into the per-map entries the oracle takes."""
    return [OracleInfo(phi=p, informative=m) for p, m in zip(info.phi, info.informative)]


# -- data generation -------------------------------------------------------------


def generate_synthetic_per_row(n_samples: int, n_features: int, seed: int):
    """Features and labels of ``generate_synthetic``, row i from ``substream(seed, "data", i)``.

    A row whose sum is exactly zero is redrawn from the same stream.
    """
    rows = []
    for i in range(n_samples):
        rng = substream(seed, "data", i)
        x = rng.standard_normal(n_features)
        while x.sum() == 0.0:
            x = rng.standard_normal(n_features)
        rows.append(x)
    feats = np.stack(rows)
    return feats, (feats.sum(axis=1) > 0).astype(np.int64)


def oracle_info_per_row(features: np.ndarray, labels: np.ndarray):
    """``oracle_info``'s ``phi`` and ``informative``: each row, negated for class 0."""
    phi = np.stack([x if y == 1 else -x for x, y in zip(features, labels)])
    return phi, phi > 0


def ground_truth_per_row(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``ground_truth_attribution``'s maps: each row's class-aligned positive
    part, divided by its peak when the peak is positive."""
    maps = []
    for x, y in zip(features, labels):
        raw = np.maximum(x if y == 1 else -x, 0.0)
        peak = raw.max()
        maps.append(raw / peak if peak > 0 else raw)
    return np.stack(maps)


# -- ranking and masking ---------------------------------------------------------


def applied_masks(start_masked: bool, changes, size: int) -> list:
    """The flat mask after each change set of a sweep, applied in order."""
    mask = np.full(size, start_masked)
    out = []
    for idx, masked in changes:
        mask[idx] = masked
        out.append(mask.copy())
    return out


class RecordingModel:
    """A model that keeps a copy of every batch it is given and predicts class 0."""

    def __init__(self):
        self.batches = []

    def predict_probs(self, batch):
        self.batches.append(np.array(batch))
        return np.ones((len(batch), 1))


def swept_fill(kind: str, dataset, features: np.ndarray, masks, noise=None) -> np.ndarray:
    """The batch that ``metrics._sweep`` hands the model for ``(n, d)``
    ``features`` with the entries of ``masks`` masked, filled by ``kind``
    plus ``noise`` (an ``(n, d)`` draw, or None)."""
    model = RecordingModel()
    step = (np.flatnonzero(masks), True)
    labels = np.zeros(len(features), dtype=np.int64)
    metrics._sweep(model, dataset, features, labels, kind, noise, False, [step])
    (batch,) = model.batches
    return batch


def rank_features(attr_map: np.ndarray) -> np.ndarray:
    """Flat feature indices sorted by ascending attribution, ties by ascending index."""
    return np.argsort(attr_map.reshape(-1), axis=0, kind="stable")


def mask_by_ratio(attr_map: np.ndarray, ratio: float) -> np.ndarray:
    """Mask exactly round(ratio * d) lowest-attribution features.

    The unmasked complement is therefore the top-attribution set of the map.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio outside [0, 1]: {ratio}")
    k = round_half_away(ratio * attr_map.size)
    order = rank_features(attr_map)
    flat = np.zeros(attr_map.size, dtype=bool)
    flat[order[:k]] = True
    return flat.reshape(attr_map.shape)


def mask_by_threshold(attr_map: np.ndarray, threshold: float) -> np.ndarray:
    """Mask features with attribution strictly greater than ``threshold``."""
    return attr_map > threshold


# -- map modification ------------------------------------------------------------


def _as_map(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0)


def modify_constant(attr_map: np.ndarray, delta: float, direction: str) -> np.ndarray:
    """Shift every value by a constant, clipping back into [0, 1]."""
    if direction == "remove":
        return _as_map(attr_map - delta)
    if direction == "introduce":
        return _as_map(attr_map + delta)
    raise ConfigError(f"unknown direction {direction!r}")


def modify_random(
    attr_map: np.ndarray, lo: float, hi: float, seed: int, key: Sequence[int] = ()
) -> np.ndarray:
    """Independent per-feature uniform shift in [lo, hi], clipped to [0, 1]."""
    if lo > hi:
        raise ConfigError("lo must not exceed hi")
    rng = substream(seed, "modify", *key)
    shift = rng.uniform(lo, hi, size=attr_map.shape)
    return _as_map(attr_map + shift)


def modify_partial(attr_map: np.ndarray, direction: str) -> np.ndarray:
    """Rewrite one rank band of the map.

    Remove zeroes the features ranked (ascending) in [0.6N, 0.8N); introduce
    lifts the bottom [0, 0.4N) ranks to the 0.8-quantile of the values.
    """
    n = attr_map.size
    if n < PARTIAL_MIN_FEATURES:
        raise DataError("map too small for partial scheme")
    order = rank_features(attr_map)
    flat = attr_map.reshape(-1).copy()
    if direction == "remove":
        lo, hi = PARTIAL_REMOVE_BAND
        flat[order[round_half_away(lo * n) : round_half_away(hi * n)]] = 0.0
    elif direction == "introduce":
        lo, hi = PARTIAL_INTRODUCE_BAND
        level = float(np.quantile(attr_map.reshape(-1), PARTIAL_QUANTILE, method="linear"))
        flat[order[round_half_away(lo * n) : round_half_away(hi * n)]] = level
    else:
        raise ConfigError(f"unknown direction {direction!r}")
    return _as_map(flat.reshape(attr_map.shape))


def synth_remove(
    attr_map: np.ndarray,
    fraction: float,
    seed: int,
    key: Sequence[int] = (),
    renormalize: bool = False,
) -> np.ndarray:
    """Zero a uniformly random subset of the positive-support features.

    The subset holds round(fraction * support size) features.  Removing the
    entire support would leave nothing to evaluate, so that is an error.
    Renormalization is off by default: zeroing cannot raise the maximum, so
    the output is already a valid normalized map, and rescaling the
    survivors is a separate, recorded choice.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("fraction must lie in [0, 1]")
    support = np.flatnonzero(attr_map.reshape(-1) > 0)
    if support.size == 0:
        raise DataError("map has no positive support")
    k = round_half_away(fraction * support.size)
    if k >= support.size:
        raise DataError("fraction removes the entire support")
    flat = attr_map.reshape(-1).copy()
    if k > 0:
        rng = substream(seed, "modify", *key)
        drop = rng.choice(support, size=k, replace=False)
        flat[drop] = 0.0
    if renormalize:
        peak = flat.max()
        flat = flat / peak
    return _as_map(flat.reshape(attr_map.shape))


def synth_introduce(
    attr_map: np.ndarray,
    oracle: OracleInfo,
    fraction: float,
    magnitude: float,
    seed: int,
    key: Sequence[int] = (),
) -> np.ndarray:
    """Plant attribution on features that carry no signal.

    Candidates are features with zero attribution that are also outside the
    oracle's informative set; round(fraction * candidate count) of them get
    values drawn uniformly from (0, magnitude].  The result is renormalized
    so downstream value thresholds keep their meaning.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("fraction must lie in [0, 1]")
    if magnitude <= 0:
        raise ConfigError("magnitude must be positive")
    flat = attr_map.reshape(-1).copy()
    informative = oracle.informative.reshape(-1)
    if informative.shape != flat.shape:
        raise DataError("oracle shape does not match the map")
    candidates = np.flatnonzero((flat == 0) & ~informative)
    k = round_half_away(fraction * candidates.size)
    if k > 0:
        rng = substream(seed, "modify", *key)
        chosen = rng.choice(candidates, size=k, replace=False)
        flat[chosen] = magnitude * (1.0 - rng.random(k))  # uniform in (0, magnitude]
    peak = flat.max()
    if peak > 0:
        flat = flat / peak
    return _as_map(flat.reshape(attr_map.shape))


def apply_scheme_per_map(
    maps: Sequence[np.ndarray],
    scheme: ModScheme,
    oracle: Optional[Sequence[OracleInfo]] = None,
) -> list[np.ndarray]:
    """Apply one scheme to every map, with an independent stream per map."""
    opts = scheme.options
    if scheme.kind == "synth_introduce":
        if oracle is None:
            raise ConfigError("synth_introduce needs oracle information")
        if len(oracle) != len(maps):
            raise DataError("need one oracle entry per map")
    out = []
    for i, attr_map in enumerate(maps):
        if scheme.kind == "constant":
            out.append(modify_constant(attr_map, opts["magnitude"], opts["direction"]))
        elif scheme.kind == "random":
            mag = opts["magnitude"]
            lo, hi = (-mag, 0.0) if opts["direction"] == "remove" else (0.0, mag)
            out.append(modify_random(attr_map, lo, hi, opts["seed"], key=(i,)))
        elif scheme.kind == "partial":
            out.append(modify_partial(attr_map, opts["direction"]))
        elif scheme.kind == "synth_remove":
            out.append(
                synth_remove(
                    attr_map,
                    opts["fraction"],
                    opts["seed"],
                    key=(i,),
                    renormalize=opts["renormalize"],
                )
            )
        else:
            out.append(
                synth_introduce(
                    attr_map, oracle[i], opts["fraction"], opts["magnitude"], opts["seed"],
                    key=(i,),
                )
            )
    return out
