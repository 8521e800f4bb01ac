"""Attribution-map modification schemes.

Two families live here.  The value-shift schemes (constant, random,
partial) perturb attribution values while leaving the feature ordering
nearly intact; paired with the order-based curves they expose metrics that
only read rankings.  The synthetic schemes (synth_remove, synth_introduce)
corrupt ground-truth maps in controlled ways for the validation harness:
removal zeroes true attribution, introduction plants attribution on
features known to carry no signal.

Every scheme works on a whole map set at once.  A map that needs random
numbers draws them from its own stream, keyed by its index, so its result
does not depend on the other maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, DataError, MapSet, check_count, check_flag, check_real
from .perturb import round_half_away
from .rng import substreams
from .synthetic import OracleInfo

SCHEME_KINDS = ("constant", "random", "partial", "synth_remove", "synth_introduce")
DIRECTIONS = ("remove", "introduce")

# fallback parameters when a scheme field is not set explicitly
DEFAULT_CONSTANT_DELTA = 0.6
DEFAULT_RANDOM_SPAN = 0.6
DEFAULT_SYNTH_FRACTION = 0.3
DEFAULT_SYNTH_MAGNITUDE = 0.5

PARTIAL_REMOVE_BAND = (0.6, 0.8)
PARTIAL_INTRODUCE_BAND = (0.0, 0.4)
PARTIAL_QUANTILE = 0.8
PARTIAL_MIN_FEATURES = 5


@dataclass(frozen=True)
class ModScheme:
    """One modification recipe, applied to a map set via apply_scheme."""

    kind: str
    direction: str = "remove"
    magnitude: float = -1.0  # negative means use the kind's default
    fraction: float = DEFAULT_SYNTH_FRACTION
    seed: int = 0
    renormalize: bool = False  # synth_remove only; introduce always renormalizes

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}")
        check_real(self.magnitude, "magnitude")
        if not 0.0 <= check_real(self.fraction, "fraction") <= 1.0:
            raise ConfigError("fraction must lie in [0, 1]")
        check_count(self.seed, "seed")
        check_flag(self.renormalize, "renormalize")

    def resolved_magnitude(self) -> float:
        if self.magnitude >= 0:
            return self.magnitude
        if self.kind == "synth_introduce":
            return DEFAULT_SYNTH_MAGNITUDE
        if self.kind == "random":
            return DEFAULT_RANDOM_SPAN
        return DEFAULT_CONSTANT_DELTA


def _rescale(flat: np.ndarray) -> np.ndarray:
    """Each row divided by its maximum, rows without a positive entry as they are."""
    peak = flat.max(axis=1, keepdims=True)
    return flat / np.where(peak > 0, peak, 1.0)


def _random_shift(shape: tuple, lo: float, hi: float, seed: int) -> np.ndarray:
    """Independent per-feature uniform shifts in [lo, hi], map i's from its own stream."""
    shift = np.empty(shape)
    for i, rng in enumerate(substreams(seed, "modify", range(shape[0]))):
        shift[i] = rng.uniform(lo, hi, size=shape[1:])
    return shift


def _partial(flat: np.ndarray, direction: str) -> np.ndarray:
    """Rewrite one rank band of every map.

    Remove zeroes the features ranked (ascending) in [0.6d, 0.8d); introduce
    lifts the bottom [0, 0.4d) ranks to the map's 0.8-quantile.
    """
    d = flat.shape[1]
    if d < PARTIAL_MIN_FEATURES:
        raise DataError("map too small for partial scheme")
    lo, hi = PARTIAL_REMOVE_BAND if direction == "remove" else PARTIAL_INTRODUCE_BAND
    order = np.argsort(flat, axis=1, kind="stable")
    band = order[:, round_half_away(lo * d) : round_half_away(hi * d)]
    if direction == "remove":
        level = 0.0
    else:
        level = np.quantile(flat, PARTIAL_QUANTILE, axis=1, method="linear")[:, None]
    out = flat.copy()
    np.put_along_axis(out, band, level, axis=1)
    return out


def _counts(fraction: float, sizes: np.ndarray) -> np.ndarray:
    """round_half_away(fraction * size) for every size."""
    return np.floor(fraction * sizes + 0.5).astype(np.int64)


def _synth_remove(flat: np.ndarray, scheme: ModScheme) -> np.ndarray:
    """Zero a uniformly random subset of each map's positive support.

    The subset holds round(fraction * support size) features.  Removing a
    map's entire support would leave nothing to evaluate, so that is an
    error, reported for the first such map.  Renormalization is off by
    default: zeroing cannot raise the maximum, so the output is already a
    valid normalized map, and rescaling the survivors is a separate,
    recorded choice.
    """
    positive = flat > 0
    sizes = np.count_nonzero(positive, axis=1)
    ks = _counts(scheme.fraction, sizes)
    bad = np.flatnonzero(ks >= sizes)
    if bad.size:
        if sizes[bad[0]] == 0:
            raise DataError("map has no positive support")
        raise DataError("fraction removes the entire support")
    out = flat.copy()
    rows = np.flatnonzero(ks)
    for i, rng in zip(rows, substreams(scheme.seed, "modify", rows)):
        out[i, rng.choice(np.flatnonzero(positive[i]), size=int(ks[i]), replace=False)] = 0.0
    return _rescale(out) if scheme.renormalize else out


def _synth_introduce(
    flat: np.ndarray, informative: np.ndarray, scheme: ModScheme, magnitude: float
) -> np.ndarray:
    """Plant attribution on features that carry no signal.

    A map's candidates are its features with zero attribution that are also
    outside the oracle's informative set; round(fraction * candidate count)
    of them get values drawn uniformly from (0, magnitude].  Each map is then
    renormalized so downstream value thresholds keep their meaning.
    """
    candidates = (flat == 0) & ~informative
    ks = _counts(scheme.fraction, np.count_nonzero(candidates, axis=1))
    out = flat.copy()
    rows = np.flatnonzero(ks)
    for i, rng in zip(rows, substreams(scheme.seed, "modify", rows)):
        chosen = rng.choice(np.flatnonzero(candidates[i]), size=int(ks[i]), replace=False)
        out[i, chosen] = magnitude * (1.0 - rng.random(int(ks[i])))  # uniform in (0, magnitude]
    return _rescale(out)


def apply_scheme(
    maps: MapSet, scheme: ModScheme, oracle: Optional[OracleInfo] = None
) -> MapSet:
    """Apply one scheme to every map of the set.

    The random draws run map by map, map i's from ``substream(seed,
    "modify", i)``.  Those generators come from ``substreams``, which derives
    the seeds of all the maps that draw in one pass and builds each generator
    as its map is reached.  Shifting, band rewrites, rescaling, the final clip
    to [0, 1] and validation run once on the whole stack.
    """
    mag = scheme.resolved_magnitude()
    values = maps.values
    flat = values.reshape(len(maps), -1)
    if scheme.kind == "constant":
        out = values - mag if scheme.direction == "remove" else values + mag
    elif scheme.kind == "random":
        lo, hi = (-mag, 0.0) if scheme.direction == "remove" else (0.0, mag)
        out = values + _random_shift(values.shape, lo, hi, scheme.seed)
    elif scheme.kind == "partial":
        out = _partial(flat, scheme.direction)
    elif scheme.kind == "synth_remove":
        out = _synth_remove(flat, scheme)
    else:
        if oracle is None:
            raise ConfigError("synth_introduce needs oracle information")
        if oracle.informative.shape[0] != len(maps):
            raise DataError("need one oracle entry per map")
        if mag <= 0:
            raise ConfigError("magnitude must be positive")
        informative = oracle.informative.reshape(len(maps), -1)
        if informative.shape != flat.shape:
            raise DataError("oracle shape does not match the map")
        out = _synth_introduce(flat, informative, scheme, mag)
    return MapSet(np.clip(out, 0.0, 1.0).reshape(values.shape), normalized=True)
