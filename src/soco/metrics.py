"""Soundness and completeness metrics plus order-based baseline curves.

Soundness sweeps mask ratios from high to low, so the included (unmasked)
top-attribution set grows step by step.  Whenever a growth step fails to
buy at least ``epsilon`` accuracy, the newly included features are booked
as false attribution.  The per-sample soundness ratio at a step is

    q = (w(included) - w(false)) / w(included)

where w() sums attribution values over the set ("attribution" weighting)
or counts features ("cardinality" weighting).

Completeness removes high-attribution features above a threshold and
reports the accuracy drop.  Order-based curves (deletion, insertion, ROAD)
consume only the feature ranking, never the values; the pair of schemes in
the modify module exists to demonstrate exactly that blindness.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import parallel
from .core import (
    ConfigError,
    DataError,
    Dataset,
    EvalCurve,
    MapSet,
    Model,
    accuracy_from_probs,
    predict_many,
)
from .perturb import Imputer, impute_grid, round_half_away
from .rng import substream

DEFAULT_MASK_RATIOS = tuple(round(0.99 - 0.01 * i, 2) for i in range(99))
DEFAULT_THRESHOLDS = tuple(round(0.9 - 0.1 * i, 1) for i in range(9))
DEFAULT_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(11))

WEIGHTINGS = ("attribution", "cardinality")
ORDER_MODES = ("deletion", "insertion")
RANK_ORDERS = ("MoRF", "LeRF")


class SoundnessPoint(NamedTuple):
    accuracy_level: float
    mean_soundness: float


def _check_descending(values: Sequence[float], name: str) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError(f"{name} must be non-empty")
    if np.any(arr <= 0) or np.any(arr >= 1):
        raise ConfigError(f"{name} must lie strictly inside (0, 1)")
    if np.any(np.diff(arr) >= 0):
        raise ConfigError(f"{name} must be strictly descending")


@dataclass(frozen=True)
class SoundnessConfig:
    mask_ratios: tuple = DEFAULT_MASK_RATIOS
    epsilon: float = 0.01
    imputer: Imputer = field(default_factory=Imputer)
    weighting: str = "attribution"

    def __post_init__(self) -> None:
        _check_descending(self.mask_ratios, "mask_ratios")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r}")


@dataclass(frozen=True)
class CompletenessConfig:
    thresholds: tuple = DEFAULT_THRESHOLDS
    imputer: Imputer = field(default_factory=Imputer)

    def __post_init__(self) -> None:
        _check_descending(self.thresholds, "thresholds")


def _flat_maps(dataset: Dataset, maps: MapSet) -> np.ndarray:
    """The maps as an ``(n, d)`` view, after checking they fit ``dataset``."""
    if len(maps) != len(dataset):
        raise DataError(
            f"need one attribution map per sample "
            f"({len(maps)} maps, {len(dataset)} samples)"
        )
    if maps.feature_shape != dataset.feature_shape:
        raise DataError("attribution map shape does not match the dataset")
    if not maps.normalized and maps.values.max() > 1.0 + 1e-12:
        raise DataError("maps must be normalized to [0, 1]")
    return maps.values.reshape(len(maps), -1)


def _order(keys: np.ndarray) -> np.ndarray:
    """Each row's feature indices by ascending key, ties by ascending index."""
    return np.argsort(keys, axis=1, kind="stable")


def _ranks(order: np.ndarray) -> np.ndarray:
    """Each feature's position in its row of ``order`` (the inverse permutation)."""
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(order.shape[1]), axis=1)
    return ranks


def _masks(keys: np.ndarray, cut, shape: tuple) -> np.ndarray:
    """One step's masks, in ``shape``: True where a feature's key is below ``cut``.

    Ratio steps key the features by rank (``_ranks``) and cut at a count k,
    masking the k first-ranked features of each row; threshold steps key
    them by negated attribution and cut at -t, masking the features
    attributed above t (negation is exact, so this is ``values > t``).
    """
    return (keys < cut).reshape(shape)


def _predrawn_noise(
    dataset: Dataset, imputer: Imputer, seed: int, keep: np.ndarray
) -> Optional[np.ndarray]:
    """Noise drawn once per metric run and reused at every sweep step.

    Sharing the draw across steps keeps accuracy trajectories monotone in
    the included set instead of jittering point to point, and makes results
    independent of sweep order and worker scheduling.
    """
    if imputer.noise_std == 0.0:
        return None
    rng = substream(seed, "noise")
    full = imputer.noise_std * rng.standard_normal(
        (len(dataset),) + dataset.feature_shape
    )
    return full[keep]


def _constant_fill(imputer: Imputer, dataset: Dataset):
    """The value a zero or mean imputer puts in place of a masked feature."""
    return 0.0 if imputer.kind == "zero" else dataset.feature_means


def _impute_grids(features: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``impute_grid`` on every sample, stacked in sample order.

    The samples are solved on up to one thread per usable CPU; SuperLU
    releases the GIL, so their solves overlap.  The results are stacked in
    sample order, so the output does not depend on scheduling, and an
    exception from any sample reaches the caller as raised.  The pool lives
    only for this call, so no thread outlives it.  With one CPU or one
    sample the solves run inline: on one CPU a one-thread pool costs about
    0.15-0.2 ms more per call (one 28x28 sample: 0.93 against 1.16 ms).
    """
    threads = min(parallel._usable_cpus(), features.shape[0])
    if threads <= 1:
        return np.stack([impute_grid(f, m) for f, m in zip(features, masks)])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.stack(list(pool.map(impute_grid, features, masks)))


def _fill(
    features: np.ndarray,
    masks: np.ndarray,
    imputer: Imputer,
    dataset: Dataset,
    noise: Optional[np.ndarray],
) -> np.ndarray:
    """Features with every masked entry replaced by its fill plus noise.

    The noisy-linear fill solves its samples on threads, up to the CPUs the
    process may use (``_impute_grids``); there is no setting for this, and
    the result is byte-identical to solving them one after another.
    """
    if imputer.kind == "noisy_linear":
        if not dataset.is_grid:
            raise ConfigError("noisy_linear requires grid-shaped samples")
        fill = _impute_grids(features, masks)
    else:
        fill = _constant_fill(imputer, dataset)
    if noise is not None:
        fill = fill + noise
    return np.where(masks, fill, features)


def _sweep(
    model: Model,
    dataset: Dataset,
    features: np.ndarray,
    labels: np.ndarray,
    order: np.ndarray,
    ks: Sequence[int],
    imputer: Imputer,
    noise: Optional[np.ndarray],
    mask_prefix: bool,
) -> list[float]:
    """Model accuracy at each cut-off k of a monotone sweep.

    ``features`` and ``order`` are ``(n, d)``; row i's features are ranked
    by ``order[i]``.  At cut-off k the first k ranked features are masked
    when ``mask_prefix`` is set (soundness, deletion) and the other d - k
    otherwise (insertion).  A k equal to the previous step's repeats that
    step's mask and noise, so its accuracy is reused without a model call.
    The distinct steps reach the model as one lazy iterable (``predict_many``),
    so a pipelining model can overlap them.

    Zero and mean fills keep one ``(n, d)`` buffer and rewrite only the
    features ranked between the previous and the current cut-off: newly
    masked ones get fill plus noise, newly unmasked ones their own value.
    The noisy-linear solve depends on the whole mask, so that fill is
    rebuilt at every distinct step, its samples solved on threads up to the
    usable CPUs (see ``_fill``); the curve is byte-identical to a serial
    solve.  The model always gets a read-only array.
    """
    n, d = features.shape
    shape = (n,) + dataset.feature_shape
    if imputer.kind == "noisy_linear":
        ranks = _ranks(order)

        def filled(k: int) -> np.ndarray:
            prefix = _masks(ranks, k, shape)
            masks = prefix if mask_prefix else ~prefix
            out = _fill(features.reshape(shape), masks, imputer, dataset, noise)
            out.flags.writeable = False
            return out

    else:
        replacement = np.broadcast_to(_constant_fill(imputer, dataset), shape)
        if noise is not None:
            replacement = replacement + noise
        masked_src = np.ascontiguousarray(replacement).reshape(-1)
        open_src = features.reshape(-1)
        row_start = (np.arange(n) * d)[:, None]
        # start from whichever end state, all or none of the features in the
        # prefix, lies nearer the first cut-off
        k_prev = d if 2 * ks[0] > d else 0
        start = masked_src if (k_prev == d) == mask_prefix else open_src
        buf = start.copy()
        view = buf.reshape(shape)
        view.flags.writeable = False

        def filled(k: int) -> np.ndarray:
            nonlocal k_prev
            lo, hi = sorted((k, k_prev))
            idx = (order[:, lo:hi] + row_start).reshape(-1)
            src = masked_src if (k > k_prev) == mask_prefix else open_src
            buf[idx] = src[idx]
            k_prev = k
            return view

    runs = [(k, len(list(repeats))) for k, repeats in groupby(ks)]
    probs = predict_many(model, (filled(k) for k, _ in runs))
    accs = (accuracy_from_probs(p, labels) for p in probs)
    return [acc for acc, (_, n_repeats) in zip(accs, runs) for _ in range(n_repeats)]


def soundness_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    cfg: Optional[SoundnessConfig] = None,
    seed: int = 0,
) -> EvalCurve:
    """Accuracy level versus mean per-sample soundness ratio.

    The raw sweep visits every configured mask ratio, but saturated stretches
    repeat the same accuracy, so the returned curve keeps only the first
    point (largest mask ratio, smallest included set) observed for each
    distinct accuracy value.  The full sweep is preserved under
    ``meta["sweep"]`` as (mask_ratio, accuracy, mean_soundness) triples.
    All-zero maps carry no attribution mass to score, so those samples are
    skipped and counted in ``meta["skipped"]``.

    With zero and mean fills the sweep keeps one filled copy of the inputs:
    each step rewrites only the features whose rank lies between the
    previous and the current cut-off.  Ratios whose mask count round(m * d)
    equals the previous one's (common when d < 99) repeat that step's
    accuracy without a model call.
    """
    cfg = cfg or SoundnessConfig()
    values = _flat_maps(dataset, maps)
    keep = values.sum(axis=1) > 0
    n_skipped = int(np.count_nonzero(~keep))
    if n_skipped:
        warnings.warn(f"skipping {n_skipped} all-zero attribution map(s)")
    if not np.any(keep):
        raise DataError("empty evaluation set")

    values = values[keep]
    n, d = values.shape
    features = dataset.feature_matrix()[keep].reshape(n, d)
    labels = dataset.labels()[keep]
    noise = _predrawn_noise(dataset, cfg.imputer, seed, keep)

    order = _order(values)
    sorted_vals = np.take_along_axis(values, order, axis=1)
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(sorted_vals, axis=1)], axis=1)
    total = prefix[:, -1]

    ks = [round_half_away(m * d) for m in cfg.mask_ratios]
    if max(ks) >= d:
        raise ConfigError(
            f"mask ratio {cfg.mask_ratios[int(np.argmax(ks))]} masks every "
            f"feature of a {d}-feature map"
        )

    accs = _sweep(
        model, dataset, features, labels, order, ks, cfg.imputer, noise, mask_prefix=True
    )
    sweep: list[tuple[float, float, float]] = []
    false_mass = np.zeros(n)
    false_card = 0
    s_prev = 0.0
    k_prev = d
    for m, k, s_m in zip(cfg.mask_ratios, ks, accs):
        if s_m - s_prev < cfg.epsilon:
            false_mass += prefix[:, k_prev] - prefix[:, k]
            false_card += k_prev - k
        if cfg.weighting == "attribution":
            included = total - prefix[:, k]
            q = float(np.mean((included - false_mass) / included))
        else:
            q = ((d - k) - false_card) / (d - k)
        sweep.append((float(m), s_m, q))
        s_prev = s_m
        k_prev = k

    first_seen: dict[float, float] = {}
    for _, s_m, q in sweep:
        if s_m not in first_seen:
            first_seen[s_m] = q
    points = tuple(SoundnessPoint(s, first_seen[s]) for s in sorted(first_seen))
    return EvalCurve(
        metric_kind="soundness",
        x_axis="accuracy_level",
        points=points,
        meta={
            "sweep": [list(t) for t in sweep],
            "skipped": n_skipped,
            "n_samples": n,
            "weighting": cfg.weighting,
            "epsilon": cfg.epsilon,
            "imputer": cfg.imputer.kind,
            "noise_std": cfg.imputer.noise_std,
        },
    )


def align_soundness(
    curve: EvalCurve, levels: Sequence[float]
) -> list[tuple[float, float]]:
    """Soundness read off at fixed accuracy levels by linear interpolation.

    Levels outside the observed accuracy range are omitted rather than
    extrapolated, so comparisons across methods only use levels every
    method actually reached.
    """
    xs, ys = curve.xs(), curve.ys()
    out = []
    for level in levels:
        if xs[0] <= level <= xs[-1]:
            out.append((float(level), float(np.interp(level, xs, ys))))
    return out


def completeness_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    cfg: Optional[CompletenessConfig] = None,
    seed: int = 0,
) -> EvalCurve:
    """Accuracy drop when features attributed above each threshold are removed."""
    cfg = cfg or CompletenessConfig()
    values = _flat_maps(dataset, maps)
    features = dataset.feature_matrix()
    labels = dataset.labels()
    n = values.shape[0]
    noise = _predrawn_noise(dataset, cfg.imputer, seed, np.ones(n, dtype=bool))
    keys = -values
    shape = (n,) + dataset.feature_shape

    def steps():
        yield features
        for t in cfg.thresholds:
            yield _fill(features, _masks(keys, -t, shape), cfg.imputer, dataset, noise)

    s_0, *s_ts = (accuracy_from_probs(p, labels) for p in predict_many(model, steps()))
    pts = sorted((float(t), s_0 - s_t) for t, s_t in zip(cfg.thresholds, s_ts))
    return EvalCurve(
        metric_kind="completeness",
        x_axis="attribution_threshold",
        points=tuple(pts),
        meta={
            "clean_accuracy": s_0,
            "imputer": cfg.imputer.kind,
            "noise_std": cfg.imputer.noise_std,
        },
    )


def order_based_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    mode: str,
    order: str = "MoRF",
    imputer: Optional[Imputer] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 0,
) -> EvalCurve:
    """Accuracy as growing rank prefixes are deleted or inserted.

    Deletion masks the first round(fraction * d) features in the chosen
    order; insertion starts fully masked and restores that prefix.  Only
    the ranking of each map matters; two maps with equal orderings produce
    bit-identical curves no matter how their values differ.

    Zero and mean fills keep one filled copy of the inputs and rewrite only
    the features ranked between the previous and the current cut-off; the
    noisy-linear solve is redone at every step.  Fractions whose count
    round(fraction * d) equals the previous one's repeat that step's
    accuracy without a model call.
    """
    if mode not in ORDER_MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if order not in RANK_ORDERS:
        raise ConfigError(f"unknown rank order {order!r}")
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.size < 2 or np.any(fr < 0) or np.any(fr > 1) or np.any(np.diff(fr) <= 0):
        raise ConfigError("fractions must be strictly ascending within [0, 1]")
    imputer = imputer or Imputer(kind="zero")

    values = _flat_maps(dataset, maps)
    n, d = values.shape
    features = dataset.feature_matrix().reshape(n, d)
    labels = dataset.labels()
    noise = _predrawn_noise(dataset, imputer, seed, np.ones(n, dtype=bool))
    ranking = _order(-values if order == "MoRF" else values)
    ks = [round_half_away(float(f) * d) for f in fr]

    accs = _sweep(
        model, dataset, features, labels, ranking, ks, imputer, noise,
        mask_prefix=(mode == "deletion"),
    )
    return EvalCurve(
        metric_kind=mode,
        x_axis="masked_fraction",
        points=tuple((float(f), s) for f, s in zip(fr, accs)),
        meta={"order": order, "imputer": imputer.kind, "noise_std": imputer.noise_std},
    )


def road_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    order: str = "MoRF",
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    noise_std: float = 0.0,
    seed: int = 0,
) -> EvalCurve:
    """Deletion with debiased imputation: the neighbor solve on grids, the
    dataset mean on tabular data where pixel adjacency is undefined."""
    kind = "noisy_linear" if dataset.is_grid else "mean"
    base = order_based_curve(
        model,
        dataset,
        maps,
        mode="deletion",
        order=order,
        imputer=Imputer(kind=kind, noise_std=noise_std),
        fractions=fractions,
        seed=seed,
    )
    return EvalCurve(
        metric_kind="road",
        x_axis=base.x_axis,
        points=base.points,
        meta=dict(base.meta),
    )


def auc(curve: EvalCurve) -> float:
    """Trapezoidal area under the curve, normalized by the x span."""
    xs, ys = curve.xs(), curve.ys()
    if xs.size < 2:
        raise DataError("curve too short for an area")
    if np.any(np.diff(xs) == 0):
        raise DataError("duplicate x values")
    return float(np.trapezoid(ys, xs) / (xs[-1] - xs[0]))
