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

A kind's options and their defaults are its function's keyword-only
parameters, as a metric's are; ``SCHEMES`` names the functions.  Each key
has one rule, by name, the same in every kind that takes it; ``ModScheme``
applies the rules and refuses a key its kind does not read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import (
    ConfigError,
    DataError,
    MapSet,
    check_count,
    check_flag,
    check_keys,
    check_non_negative,
    check_one_of,
    check_real,
    keyword_defaults,
)
from .perturb import round_half_away
from .rng import substreams
from .synthetic import OracleInfo

DIRECTIONS = ("remove", "introduce")

PARTIAL_REMOVE_BAND = (0.6, 0.8)
PARTIAL_INTRODUCE_BAND = (0.0, 0.4)
PARTIAL_QUANTILE = 0.8
PARTIAL_MIN_FEATURES = 5


def _rescale(flat: np.ndarray) -> np.ndarray:
    """Each row divided by its maximum, rows without a positive entry as they are."""
    peak = flat.max(axis=1, keepdims=True)
    return flat / np.where(peak > 0, peak, 1.0)


def _constant(
    flat: np.ndarray, oracle, *, direction: str = "remove", magnitude: float = 0.6
) -> np.ndarray:
    """Shift every attribution down (remove) or up (introduce) by ``magnitude``."""
    return flat - magnitude if direction == "remove" else flat + magnitude


def _random(
    flat: np.ndarray, oracle, *, direction: str = "remove", magnitude: float = 0.6, seed: int = 0
) -> np.ndarray:
    """Shift each attribution by its own uniform draw from [-magnitude, 0]
    (remove) or [0, magnitude] (introduce), map i's from its own stream."""
    lo, hi = (-magnitude, 0.0) if direction == "remove" else (0.0, magnitude)
    shift = np.empty(flat.shape)
    for i, rng in enumerate(substreams(seed, "modify", range(flat.shape[0]))):
        shift[i] = rng.uniform(lo, hi, size=flat.shape[1])
    return flat + shift


def _partial(flat: np.ndarray, oracle, *, direction: str = "remove") -> np.ndarray:
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


def _synth_remove(
    flat: np.ndarray, oracle, *, fraction: float = 0.3, seed: int = 0, renormalize: bool = False
) -> np.ndarray:
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
    ks = _counts(fraction, sizes)
    bad = np.flatnonzero(ks >= sizes)
    if bad.size:
        if sizes[bad[0]] == 0:
            raise DataError("map has no positive support")
        raise DataError("fraction removes the entire support")
    out = flat.copy()
    rows = np.flatnonzero(ks)
    for i, rng in zip(rows, substreams(seed, "modify", rows)):
        out[i, rng.choice(np.flatnonzero(positive[i]), size=int(ks[i]), replace=False)] = 0.0
    return _rescale(out) if renormalize else out


def _synth_introduce(
    flat: np.ndarray,
    oracle: Optional[OracleInfo],
    *,
    fraction: float = 0.3,
    magnitude: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Plant attribution on features that carry no signal.

    A map's candidates are its features with zero attribution that are also
    outside the oracle's informative set; round(fraction * candidate count)
    of them get values drawn uniformly from (0, magnitude], so the magnitude
    must be positive.  Each map is then renormalized so downstream value
    thresholds keep their meaning.
    """
    if oracle is None:
        raise ConfigError("synth_introduce needs oracle information")
    if oracle.informative.shape[0] != flat.shape[0]:
        raise DataError("need one oracle entry per map")
    if magnitude <= 0:
        raise ConfigError("magnitude must be positive")
    informative = oracle.informative.reshape(flat.shape[0], -1)
    if informative.shape != flat.shape:
        raise DataError("oracle shape does not match the map")
    candidates = (flat == 0) & ~informative
    ks = _counts(fraction, np.count_nonzero(candidates, axis=1))
    out = flat.copy()
    rows = np.flatnonzero(ks)
    for i, rng in zip(rows, substreams(seed, "modify", rows)):
        chosen = rng.choice(np.flatnonzero(candidates[i]), size=int(ks[i]), replace=False)
        out[i, chosen] = magnitude * (1.0 - rng.random(int(ks[i])))  # uniform in (0, magnitude]
    return _rescale(out)


# each kind's function: it takes the maps as (n, d) and the oracle, which
# only synth_introduce reads, and its options are its keyword-only parameters
SCHEMES = {
    "constant": _constant,
    "random": _random,
    "partial": _partial,
    "synth_remove": _synth_remove,
    "synth_introduce": _synth_introduce,
}
SCHEME_KINDS = tuple(SCHEMES)


def _fraction(value, key: str) -> float:
    value = check_real(value, key)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must lie in [0, 1]")
    return value


# each key's rule, by name, so a key has the same rule in every kind that takes it
_RULES = {
    "direction": partial(check_one_of, DIRECTIONS),
    "magnitude": check_non_negative,
    "fraction": _fraction,
    "seed": check_count,
    "renormalize": check_flag,
}


def scheme_rules(kind: str) -> dict:
    """The keys ``ModScheme(kind, ...)`` takes, each with its rule: the
    keyword-only parameters of the kind's function; ``seed``, which every
    kind takes, as every metric does, since a run passes its seed to each
    scheme; and on a synthetic kind ``direction``, limited to the one its
    name states."""
    if not isinstance(kind, str) or kind not in SCHEMES:
        raise ConfigError(f"unknown scheme kind {kind!r}")
    rules = {key: _RULES[key] for key in (*keyword_defaults(SCHEMES[kind]), "seed")}
    if kind.startswith("synth_"):
        rules["direction"] = partial(check_one_of, (kind.removeprefix("synth_"),))
    return rules


@dataclass(frozen=True, init=False)
class ModScheme:
    """One modification recipe, applied to a map set via apply_scheme.

    ``ModScheme(kind, **options)`` checks each option by its key's rule
    (``scheme_rules``); a key the kind does not take is a ``ConfigError``.
    ``options`` holds every option the kind's function reads, a key left out
    at its default.
    """

    kind: str
    options: dict

    def __init__(self, kind: str, **options) -> None:
        rules = scheme_rules(kind)
        check_keys(options, rules, f"scheme {kind}")
        given = {key: rules[key](value, key) for key, value in options.items()}
        defaults = keyword_defaults(SCHEMES[kind])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "options", {key: given.get(key, value) for key, value in defaults.items()}
        )


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
    values = maps.values
    out = SCHEMES[scheme.kind](values.reshape(len(maps), -1), oracle, **scheme.options)
    return MapSet(np.clip(out, 0.0, 1.0).reshape(values.shape), normalized=True)
