"""The literal per-sample oracles, kept from before the batched data model.

These are the ranking, masking and map-modification functions as the
package wrote them one sample or one map at a time, moved here unchanged
(only ``apply_scheme`` is renamed ``apply_scheme_per_map``).  Tests check
the batched code in ``soco`` against them; nothing in the package imports
this module.
"""

from typing import Optional, Sequence

import numpy as np

from soco.core import AttributionMap, ConfigError, DataError, Mask
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


# -- ranking and masking ---------------------------------------------------------


def rank_features(attr_map: AttributionMap) -> np.ndarray:
    """Flat feature indices sorted by ascending attribution, ties by ascending index."""
    return np.argsort(attr_map.flat(), axis=0, kind="stable")


def mask_by_ratio(attr_map: AttributionMap, ratio: float) -> Mask:
    """Mask exactly round(ratio * d) lowest-attribution features.

    The unmasked complement is therefore the top-attribution set of the map.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio outside [0, 1]: {ratio}")
    k = round_half_away(ratio * attr_map.size)
    order = rank_features(attr_map)
    flat = np.zeros(attr_map.size, dtype=bool)
    flat[order[:k]] = True
    return flat.reshape(attr_map.values.shape)


def mask_by_threshold(attr_map: AttributionMap, threshold: float) -> Mask:
    """Mask features with attribution strictly greater than ``threshold``."""
    return attr_map.values > threshold


# -- map modification ------------------------------------------------------------


def _as_map(values: np.ndarray) -> AttributionMap:
    return AttributionMap(values=np.clip(values, 0.0, 1.0), normalized=True)


def modify_constant(attr_map: AttributionMap, delta: float, direction: str) -> AttributionMap:
    """Shift every value by a constant, clipping back into [0, 1]."""
    if direction == "remove":
        return _as_map(attr_map.values - delta)
    if direction == "introduce":
        return _as_map(attr_map.values + delta)
    raise ConfigError(f"unknown direction {direction!r}")


def modify_random(
    attr_map: AttributionMap, lo: float, hi: float, seed: int, key: Sequence[int] = ()
) -> AttributionMap:
    """Independent per-feature uniform shift in [lo, hi], clipped to [0, 1]."""
    if lo > hi:
        raise ConfigError("lo must not exceed hi")
    rng = substream(seed, "modify", *key)
    shift = rng.uniform(lo, hi, size=attr_map.values.shape)
    return _as_map(attr_map.values + shift)


def modify_partial(attr_map: AttributionMap, direction: str) -> AttributionMap:
    """Rewrite one rank band of the map.

    Remove zeroes the features ranked (ascending) in [0.6N, 0.8N); introduce
    lifts the bottom [0, 0.4N) ranks to the 0.8-quantile of the values.
    """
    n = attr_map.size
    if n < PARTIAL_MIN_FEATURES:
        raise DataError("map too small for partial scheme")
    order = rank_features(attr_map)
    flat = attr_map.flat().copy()
    if direction == "remove":
        lo, hi = PARTIAL_REMOVE_BAND
        flat[order[round_half_away(lo * n) : round_half_away(hi * n)]] = 0.0
    elif direction == "introduce":
        lo, hi = PARTIAL_INTRODUCE_BAND
        level = float(np.quantile(attr_map.flat(), PARTIAL_QUANTILE, method="linear"))
        flat[order[round_half_away(lo * n) : round_half_away(hi * n)]] = level
    else:
        raise ConfigError(f"unknown direction {direction!r}")
    return _as_map(flat.reshape(attr_map.values.shape))


def synth_remove(
    attr_map: AttributionMap,
    fraction: float,
    seed: int,
    key: Sequence[int] = (),
    renormalize: bool = False,
) -> AttributionMap:
    """Zero a uniformly random subset of the positive-support features.

    The subset holds round(fraction * support size) features.  Removing the
    entire support would leave nothing to evaluate, so that is an error.
    Renormalization is off by default: zeroing cannot raise the maximum, so
    the output is already a valid normalized map, and rescaling the
    survivors is a separate, recorded choice.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("fraction must lie in [0, 1]")
    support = np.flatnonzero(attr_map.flat() > 0)
    if support.size == 0:
        raise DataError("map has no positive support")
    k = round_half_away(fraction * support.size)
    if k >= support.size:
        raise DataError("fraction removes the entire support")
    flat = attr_map.flat().copy()
    if k > 0:
        rng = substream(seed, "modify", *key)
        drop = rng.choice(support, size=k, replace=False)
        flat[drop] = 0.0
    if renormalize:
        peak = flat.max()
        flat = flat / peak
    return _as_map(flat.reshape(attr_map.values.shape))


def synth_introduce(
    attr_map: AttributionMap,
    oracle: OracleInfo,
    fraction: float,
    magnitude: float,
    seed: int,
    key: Sequence[int] = (),
) -> AttributionMap:
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
    flat = attr_map.flat().copy()
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
    return _as_map(flat.reshape(attr_map.values.shape))


def apply_scheme_per_map(
    maps: Sequence[AttributionMap],
    scheme: ModScheme,
    oracle: Optional[Sequence[OracleInfo]] = None,
) -> list[AttributionMap]:
    """Apply one scheme to every map, with an independent stream per map."""
    mag = scheme.resolved_magnitude()
    if scheme.kind == "synth_introduce":
        if oracle is None:
            raise ConfigError("synth_introduce needs oracle information")
        if len(oracle) != len(maps):
            raise DataError("need one oracle entry per map")
    out = []
    for i, attr_map in enumerate(maps):
        if scheme.kind == "constant":
            out.append(modify_constant(attr_map, mag, scheme.direction))
        elif scheme.kind == "random":
            lo, hi = (-mag, 0.0) if scheme.direction == "remove" else (0.0, mag)
            out.append(modify_random(attr_map, lo, hi, scheme.seed, key=(i,)))
        elif scheme.kind == "partial":
            out.append(modify_partial(attr_map, scheme.direction))
        elif scheme.kind == "synth_remove":
            out.append(
                synth_remove(
                    attr_map,
                    scheme.fraction,
                    scheme.seed,
                    key=(i,),
                    renormalize=scheme.renormalize,
                )
            )
        else:
            out.append(
                synth_introduce(
                    attr_map, oracle[i], scheme.fraction, mag, scheme.seed, key=(i,)
                )
            )
    return out
