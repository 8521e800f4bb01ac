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

Every metric reads its inputs through one front end, ``_inputs``, and
deletion, insertion and ROAD share one body, ``_rank_curve``.  Every metric
evaluates its nested masks through one engine, ``_sweep``, which takes each
step as the features whose mask state changes: rank cut-offs for soundness
and the order-based curves, thresholds for completeness.

A metric's options and their defaults are its function's keyword-only
parameters; ``METRICS`` names the functions and ``metric_defaults`` reads them.
Each option has one rule, by name, the same in every metric that takes it;
``check_options`` applies the rules for every caller.
"""

from __future__ import annotations

import mmap
import warnings
from functools import partial
from itertools import chain, pairwise
from typing import Iterable, Optional, Sequence

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
    check_count,
    check_keys,
    check_maps_fit,
    check_non_negative,
    check_one_of,
    check_real,
    keyword_defaults,
    predict_many,
)
from .perturb import impute_grid, load_solver, round_half_away
from .rng import substream

DEFAULT_MASK_RATIOS = tuple(round(0.99 - 0.01 * i, 2) for i in range(99))
DEFAULT_THRESHOLDS = tuple(round(0.9 - 0.1 * i, 1) for i in range(9))
DEFAULT_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(11))

# the most bytes of noisy-linear fills that one window of a sweep holds
_WINDOW_BYTES = 64 << 20
# the most bytes of float64 rows that one block of ranking or prefix sums covers
_BLOCK_BYTES = 64 << 10

IMPUTER_KINDS = ("zero", "mean", "noisy_linear")
WEIGHTINGS = ("attribution", "cardinality")
ORDER_MODES = ("deletion", "insertion")
RANK_ORDERS = ("MoRF", "LeRF")


def _reals(value, at: str) -> tuple:
    """``value`` as a tuple of floats if it is a list, tuple or 1-D array of
    finite reals."""
    if not isinstance(value, (list, tuple)) and not (
        isinstance(value, np.ndarray) and value.ndim == 1
    ):
        raise ConfigError(f"{at} must be a list of finite real numbers, got {value!r}")
    return tuple(check_real(item, f"{at}[{i}]") for i, item in enumerate(value))


def _descending(value, at: str) -> tuple:
    """Mask ratios or thresholds: a non-empty list strictly descending inside (0, 1)."""
    values = _reals(value, at)
    if not values or not all(a > b for a, b in pairwise((1.0, *values, 0.0))):
        raise ConfigError(f"{at} must be a non-empty list strictly descending inside (0, 1)")
    return values


def _ascending(value, at: str) -> tuple:
    """Fractions: at least two, strictly ascending within [0, 1]."""
    values = _reals(value, at)
    if len(values) < 2 or not (
        0 <= values[0] and values[-1] <= 1 and all(a < b for a, b in pairwise(values))
    ):
        raise ConfigError(f"{at} must be at least two values strictly ascending within [0, 1]")
    return values


def _positive(value, at: str) -> float:
    value = check_real(value, at)
    if value <= 0:
        raise ConfigError(f"{at} must be positive")
    return value


# each option's rule, by name, so an option has the same rule in every metric
_RULES = {
    "mask_ratios": _descending,
    "thresholds": _descending,
    "fractions": _ascending,
    "epsilon": _positive,
    "noise_std": check_non_negative,
    "imputer": partial(check_one_of, IMPUTER_KINDS),
    "weighting": partial(check_one_of, WEIGHTINGS),
    "order": partial(check_one_of, RANK_ORDERS),
}


def _require_grid(dataset: Dataset) -> None:
    """The noisy-linear fill solves pixel neighborhoods, so it needs grids."""
    if not dataset.is_grid:
        raise ConfigError("noisy_linear requires grid-shaped samples")


def mask_counts(mask_ratios: Sequence[float], d: int) -> list[int]:
    """Each mask ratio's feature count round(m * d), after checking that
    none masks all ``d`` features: soundness needs an included set."""
    ks = [round_half_away(m * d) for m in mask_ratios]
    if max(ks) >= d:
        raise ConfigError(
            f"mask ratio {mask_ratios[int(np.argmax(ks))]} masks every "
            f"feature of a {d}-feature map"
        )
    return ks


def fill_kind(name: str, options: dict, dataset: Dataset) -> str:
    """The imputer kind metric ``name`` fills with, given its checked
    ``options`` (``check_options``) and ``dataset``: its ``imputer`` option,
    or ROAD's fixed fill, the neighbor solve on grids and the mean on
    tabular data."""
    if name == "road":
        return "noisy_linear" if dataset.is_grid else "mean"
    return options["imputer"]


def check_options(name: str, options: dict, dataset: Optional[Dataset] = None) -> dict:
    """Metric ``name``'s ``options`` merged with its defaults, each checked by
    its option's rule (``_RULES``) and given in the form the metric uses:
    lists as tuples of floats, reals as floats.  An error names the option as
    ``metrics.<name>.<key>``.  With a ``dataset``, the rules that depend on
    the data apply too: the noisy-linear fill needs grids, and no mask ratio
    may mask every feature.  The metric functions, ``soco run`` and
    ``soco eval`` all check their options here."""
    where = f"metrics.{name}"
    defaults = metric_defaults(name)
    check_keys(options, defaults, where)
    checked = {
        key: _RULES[key](value, f"{where}.{key}")
        for key, value in {**defaults, **options}.items()
    }
    if dataset is not None:
        if fill_kind(name, checked, dataset) == "noisy_linear":
            _require_grid(dataset)
        if "mask_ratios" in checked:
            mask_counts(checked["mask_ratios"], dataset.n_features)
    return checked


def check_maps(dataset: Dataset, maps: MapSet) -> np.ndarray:
    """The maps as an ``(n, d)`` view, after checking that every metric can
    score them: they fit ``dataset`` and lie in [0, 1]."""
    check_maps_fit(maps, dataset)
    if not maps.normalized and maps.values.max() > 1.0 + 1e-12:
        raise DataError("maps must be normalized to [0, 1]")
    return maps.values.reshape(len(maps), -1)


def _inputs(name: str, dataset: Dataset, maps: MapSet, seed: int, options: dict):
    """Metric ``name``'s ``options`` checked once (``check_options``), its
    fill (``fill_kind``), its maps and features as ``(n, d)`` views, the
    labels, and the noise pre-drawn from ``seed`` (``_predrawn_noise``)."""
    opts = check_options(name, options, dataset)
    values = check_maps(dataset, maps)
    features = dataset.feature_matrix().reshape(values.shape)
    noise = _predrawn_noise(dataset, opts["noise_std"], seed)
    return opts, fill_kind(name, opts, dataset), values, features, dataset.labels(), noise


def _row_blocks(n: int, d: int):
    """Slices of the ``n`` rows of an ``(n, d)`` array, each covering at most
    ``_BLOCK_BYTES`` of float64s (one row at the least)."""
    rows = max(1, _BLOCK_BYTES // (8 * d))
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def _order(values: np.ndarray, descending: bool = False) -> np.ndarray:
    """Each row's feature indices by ascending value (descending with
    ``descending``), ties by ascending index.  The rows are sorted block by
    block (``_row_blocks``) into one int32 array (int64 when d >= 2**31), so
    the ranking holds half an ``(n, d)`` float64 array and no full-size
    temporary."""
    n, d = values.shape
    order = np.empty((n, d), dtype=np.int32 if d < 2**31 else np.int64)
    for rows in _row_blocks(n, d):
        block = values[rows]
        order[rows] = np.argsort(-block if descending else block, axis=1, kind="stable")
    return order


def _cut_sums(values: np.ndarray, order: np.ndarray, cuts: Sequence[int]) -> dict:
    """Each row's sum of its first k values in ``order``, as an ``(n,)``
    array per cut-off k in the ascending ``cuts``.

    The sums are the columns of one ``(n, len(cuts))`` array.  They are read
    off a running sum (``np.cumsum``, which adds along a row one value at a
    time) of each block of rows (``_row_blocks``) in sorted order, so a sum
    has the bits of the whole row's running sum at k, without a sorted or
    summed ``(n, d)`` array.
    """
    n, d = values.shape
    sums = np.zeros((n, len(cuts)))
    first = int(cuts[0] == 0)  # the empty prefix sums to 0.0
    at = [k - 1 for k in cuts[first:]]
    for rows in _row_blocks(n, d):
        running = np.cumsum(np.take_along_axis(values[rows], order[rows], axis=1), axis=1)
        sums[rows, first:] = running[:, at]
    return dict(zip(cuts, sums.T))


def _predrawn_noise(dataset: Dataset, noise_std: float, seed: int) -> Optional[np.ndarray]:
    """Noise drawn once per metric run and reused at every sweep step, one
    value per feature of every sample, or None when ``noise_std`` is zero.

    Sharing the draw across steps keeps accuracy trajectories monotone in
    the included set instead of jittering point to point, and makes results
    independent of sweep order and worker scheduling.  ``seed`` is checked
    even when there is no noise, so every metric refuses a bad seed.  The
    draw is scaled in place, so the noise is one ``(n, d)`` float64 array at
    its peak too, with the bits of ``noise_std * draw``.
    """
    check_count(seed, "seed")
    if noise_std == 0.0:
        return None
    noise = substream(seed, "noise").standard_normal((len(dataset),) + dataset.feature_shape)
    noise *= noise_std
    return noise


def _rank_steps(order: np.ndarray, ks: Sequence[int], mask_prefix: bool):
    """``_sweep``'s start state and change sets for the cut-offs ``ks``.

    At cut-off k the first k features of each row of ``order`` are masked
    when ``mask_prefix`` is set (soundness, deletion, ROAD) and the other
    d - k otherwise (insertion), so a step changes the features ranked
    between the previous and the current cut-off.  The sweep starts from
    whichever end state, all or none of the prefix, lies nearer ``ks[0]``.
    """
    n, d = order.shape
    row_start = (np.arange(n) * d)[:, None]
    k_start = d if 2 * ks[0] > d else 0
    changes = (
        ((order[:, min(a, b) : max(a, b)] + row_start).reshape(-1), (b > a) == mask_prefix)
        for a, b in pairwise([k_start, *ks])
    )
    return (k_start == d) == mask_prefix, changes


def _threshold_steps(values: np.ndarray, thresholds: Sequence[float]):
    """``_sweep``'s start state and change sets for completeness.

    Nothing is masked at first; an empty step gives the clean accuracy, and
    each descending threshold t then masks the features newly above it, so
    the masked set at t is ``values > t``.
    """
    unmasked = np.zeros(values.shape, dtype=bool)
    above = chain([unmasked, unmasked], (values > t for t in thresholds))
    return False, ((np.flatnonzero(cur & ~prev), True) for prev, cur in pairwise(above))


def _grid_fills(
    features: np.ndarray,
    dataset: Dataset,
    noise: Optional[np.ndarray],
    start_masked: bool,
    steps: Sequence[tuple[np.ndarray, bool]],
):
    """The noisy-linear fill of each step, as read-only arrays in step order.

    The steps are cut into windows of at most ``_WINDOW_BYTES`` of fills, so
    memory does not grow with the sweep length.  One window's fills live in
    one array in anonymous shared memory, reused for every window.  The rows
    are split into one contiguous share per usable lane
    (``parallel.run_shares``): the caller fills the first share itself while
    one forked lane fills each other share, so a window forks one process
    fewer than there are lanes, and none with one lane.  A share replays the
    window's change sets on its rows' mask and, at every step, writes its
    rows straight into the shared array, which the lanes inherit across the
    fork: the features, then ``impute_grid``'s solve for each row with a
    masked entry, then the noise on the masked entries alone.  Nothing is
    sent back but warnings and errors.  Each step's fill is yielded as a
    read-only view of that array, which the next window overwrites: a
    consumer uses up one batch before it draws the next.  The fill does not
    depend on the lanes.  The solver, scipy's LAPACK extension alone
    (``load_solver``, about 3 MiB), is loaded before the lanes fork, so that
    no lane loads it itself.
    """
    load_solver()
    n, d = features.shape
    grids = features.reshape((n,) + dataset.feature_shape)
    mask = np.full((n, d), start_masked)  # the mask at the start of a window
    lanes = min(n, parallel.usable_lanes())
    bounds = [i * n // lanes for i in range(lanes + 1)]
    shares = [slice(lo, hi) for lo, hi in pairwise(bounds)]
    window_steps = max(1, _WINDOW_BYTES // (8 * n * d))
    held = min(window_steps, len(steps))
    fills = np.frombuffer(mmap.mmap(-1, 8 * held * n * d), dtype=np.float64)
    fills = fills.reshape((held,) + grids.shape)
    shown = fills.view()
    shown.flags.writeable = False
    for start in range(0, len(steps), window_steps):
        window = steps[start : start + window_steps]

        def fill_share(rows: slice) -> None:
            lo, hi = rows.start * d, rows.stop * d
            part = grids[rows]
            part_noise = None if noise is None else noise[rows]
            local = mask[rows].copy()
            part_mask = local.reshape(part.shape)
            for step, (idx, masked) in enumerate(window):
                local.reshape(-1)[idx[(idx >= lo) & (idx < hi)] - lo] = masked
                out = fills[step, rows]
                out[...] = part
                for i in np.flatnonzero(local.any(axis=1)):
                    out[i] = impute_grid(part[i], part_mask[i])
                if part_noise is not None:
                    np.add(out, part_noise, out=out, where=part_mask)

        parallel.run_shares(fill_share, shares)
        for step, (idx, masked) in enumerate(window):
            mask.reshape(-1)[idx] = masked
            yield shown[step]


def _sweep(
    model: Model,
    dataset: Dataset,
    features: np.ndarray,
    labels: np.ndarray,
    kind: str,
    noise: Optional[np.ndarray],
    start_masked: bool,
    changes: Iterable[tuple[np.ndarray, bool]],
) -> list[float]:
    """Model accuracy at each step of a sweep of nested masks.

    ``features`` is ``(n, d)``.  Every feature starts masked or none does
    (``start_masked``); each change set holds one step's flat indices into
    the ``(n, d)`` mask and whether those features become masked.  A step
    after the first whose change set is empty repeats the previous mask, so
    its accuracy is reused without a model call.  The other steps reach the
    model as one lazy iterable of read-only arrays (``predict_many``), so a
    pipelining model can overlap them.

    ``kind`` is the fill, one of ``IMPUTER_KINDS``, and ``noise`` the
    pre-drawn noise that masked entries get on top of it, or None.  Zero and
    mean fills keep one ``(n, d)`` buffer, built in place as the fill of the
    start mask, and rewrite only the changed entries: a masked feature j
    gets ``fill[j] + noise``, computed for the change set alone, where the
    zero fill is 0.0, so a noise value of -0.0 fills as +0.0.  Beyond its
    inputs and the noise such a sweep holds that buffer and one step's change
    set; ``scripts/memory_probe.py`` prints each metric's peak in ``(n, d)``
    float64 arrays.  The noisy-linear solve depends on the
    whole mask, so that fill is redone at every step
    (``_grid_fills``): window by window into one shared array, the caller
    filling the first row share and one forked lane each other share when
    there are CPUs for them.  The model still runs here, on read-only views
    of that array, and sees the same arrays as with no lanes at all.
    """
    repeats: list[int] = []  # the steps each model call answers

    def fresh_steps():
        for idx, masked in changes:
            if repeats and idx.size == 0:
                repeats[-1] += 1
            else:
                repeats.append(1)
                yield idx, masked

    if kind == "noisy_linear":
        steps = list(fresh_steps())
        batches = _grid_fills(features, dataset, noise, start_masked, steps)
    else:
        d = features.shape[1]
        # a masked feature j is fill[j], then its noise added: the zero fill
        # adds to 0.0, so a noise value of -0.0 fills as +0.0
        fill = np.zeros(d) if kind == "zero" else dataset.feature_means.reshape(-1)
        flat_noise = None if noise is None else noise.reshape(-1)
        clean = features.reshape(-1)
        buf = np.empty_like(clean)
        rows = buf.reshape(features.shape)
        rows[...] = fill if start_masked else features
        if start_masked and noise is not None:
            rows += noise.reshape(features.shape)
        view = buf.reshape((len(features),) + dataset.feature_shape)
        view.flags.writeable = False

        def step(idx: np.ndarray, masked: bool) -> np.ndarray:
            if not masked:
                buf[idx] = clean[idx]
                return view
            fills = fill[idx % d]
            if flat_noise is not None:
                fills += flat_noise[idx]
            buf[idx] = fills
            return view

        batches = (step(idx, masked) for idx, masked in fresh_steps())

    # predict_many draws every batch, so ``repeats`` is complete once it ends
    accs = [accuracy_from_probs(p, labels) for p in predict_many(model, batches)]
    return [acc for acc, count in zip(accs, repeats) for _ in range(count)]


def soundness_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    *,
    mask_ratios: Sequence[float] = DEFAULT_MASK_RATIOS,
    epsilon: float = 0.01,
    imputer: str = "mean",
    noise_std: float = 0.0,
    weighting: str = "attribution",
    seed: int = 0,
) -> EvalCurve:
    """Accuracy level versus mean per-sample soundness ratio.

    The raw sweep visits every configured mask ratio, but saturated stretches
    repeat the same accuracy, so the returned curve keeps only the first
    point (largest mask ratio, smallest included set) observed for each
    distinct accuracy value.  The full sweep is preserved under
    ``meta["sweep"]`` as (mask_ratio, accuracy, mean soundness) triples.
    All-zero maps carry no attribution mass to score, so those samples are
    skipped and counted in ``meta["skipped"]``.

    With zero and mean fills the sweep keeps one filled copy of the inputs:
    each step rewrites only the features whose rank lies between the
    previous and the current cut-off.  Ratios whose mask count round(m * d)
    equals the previous one's (common when d < 99) repeat that step's
    accuracy without a model call.

    Beyond its inputs, soundness then holds that copy (``_sweep``), the
    ranking as int32 (``_order``, half an ``(n, d)`` float64 array), the
    attribution sums at the cut-offs alone, an ``(n, steps + 1)`` array
    (``_cut_sums``), and with noise the noise draw, one more ``(n, d)``
    array: a peak of about 1.6 ``(n, d)`` arrays on 200 samples of 32×32×3
    with the mean fill, 2.6 with noise (``scripts/memory_probe.py``).
    """
    opts, fill, values, features, labels, noise = _inputs("soundness", dataset, maps, seed, {
        "mask_ratios": mask_ratios, "epsilon": epsilon, "imputer": imputer,
        "noise_std": noise_std, "weighting": weighting,
    })
    mask_ratios, epsilon = opts["mask_ratios"], opts["epsilon"]

    keep = values.sum(axis=1) > 0
    n_skipped = int(np.count_nonzero(~keep))
    if n_skipped:
        warnings.warn(f"skipping {n_skipped} all-zero attribution map(s)")
    if not np.any(keep):
        raise DataError("empty evaluation set")

    if n_skipped:
        values, features, labels = values[keep], features[keep], labels[keep]
        noise = None if noise is None else noise[keep]
    n, d = values.shape

    ks = mask_counts(mask_ratios, d)
    order = _order(values)
    prefix = _cut_sums(values, order, sorted({*ks, d}))
    total = prefix[d]

    accs = _sweep(model, dataset, features, labels, fill, noise, *_rank_steps(order, ks, True))
    sweep: list[tuple[float, float, float]] = []
    false_mass = np.zeros(n)
    false_card = 0
    s_prev = 0.0
    k_prev = d
    for m, k, s_m in zip(mask_ratios, ks, accs):
        if s_m - s_prev < epsilon:
            false_mass += prefix[k_prev] - prefix[k]
            false_card += k_prev - k
        if weighting == "attribution":
            included = total - prefix[k]
            q = float(np.mean((included - false_mass) / included))
        else:
            q = ((d - k) - false_card) / (d - k)
        sweep.append((m, s_m, q))
        s_prev = s_m
        k_prev = k

    first_seen: dict[float, float] = {}
    for _, s_m, q in sweep:
        if s_m not in first_seen:
            first_seen[s_m] = q
    return EvalCurve(
        metric_kind="soundness",
        points=tuple(sorted(first_seen.items())),
        meta={
            "sweep": [list(t) for t in sweep],
            "skipped": n_skipped,
            "n_samples": n,
            "weighting": weighting,
            "epsilon": epsilon,
            "imputer": fill,
            "noise_std": opts["noise_std"],
        },
    )


def completeness_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    *,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    imputer: str = "mean",
    noise_std: float = 0.0,
    seed: int = 0,
) -> EvalCurve:
    """Accuracy drop when features attributed above each threshold are removed.

    A threshold that masks the same features as the next higher one repeats
    that step's accuracy without a model call.
    """
    opts, fill, values, features, labels, noise = _inputs("completeness", dataset, maps, seed, {
        "thresholds": thresholds, "imputer": imputer, "noise_std": noise_std,
    })
    thresholds = opts["thresholds"]
    s_0, *s_ts = _sweep(
        model, dataset, features, labels, fill, noise, *_threshold_steps(values, thresholds)
    )
    pts = sorted((t, s_0 - s_t) for t, s_t in zip(thresholds, s_ts))
    return EvalCurve(
        metric_kind="completeness",
        points=tuple(pts),
        meta={"clean_accuracy": s_0, "imputer": fill, "noise_std": opts["noise_std"]},
    )


def _rank_curve(
    name: str, model: Model, dataset: Dataset, maps: MapSet, seed: int, options: dict
) -> EvalCurve:
    """Rank metric ``name``'s curve for its unchecked ``options``: insertion
    restores each map's growing rank prefixes, deletion and ROAD mask them."""
    opts, fill, values, features, labels, noise = _inputs(name, dataset, maps, seed, options)
    ranking = _order(values, descending=opts["order"] == "MoRF")
    ks = [round_half_away(f * values.shape[1]) for f in opts["fractions"]]
    accs = _sweep(
        model, dataset, features, labels, fill, noise,
        *_rank_steps(ranking, ks, name != "insertion"),
    )
    return EvalCurve(
        metric_kind=name,
        points=tuple(zip(opts["fractions"], accs)),
        meta={"order": opts["order"], "imputer": fill, "noise_std": opts["noise_std"]},
    )


def order_based_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    mode: str,
    *,
    order: str = "MoRF",
    imputer: str = "zero",
    noise_std: float = 0.0,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 0,
) -> EvalCurve:
    """Accuracy as growing rank prefixes are deleted or inserted.

    Deletion masks the first round(fraction * d) features in the chosen
    order; insertion starts fully masked and restores that prefix.  Only
    the ranking of each map matters; two maps with equal orderings produce
    bit-identical curves no matter how their values differ.  Fractions
    whose count round(fraction * d) equals the previous one's repeat that
    step's accuracy without a model call.
    """
    if mode not in ORDER_MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    return _rank_curve(mode, model, dataset, maps, seed, {
        "order": order, "imputer": imputer, "noise_std": noise_std, "fractions": fractions,
    })


def road_curve(
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    *,
    order: str = "MoRF",
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    noise_std: float = 0.0,
    seed: int = 0,
) -> EvalCurve:
    """Deletion with ROAD's fixed fill (``fill_kind``): the neighbor solve on
    grids, the dataset mean on tabular data where pixel adjacency is undefined."""
    return _rank_curve("road", model, dataset, maps, seed, {
        "order": order, "fractions": fractions, "noise_std": noise_std,
    })


METRICS = {
    "soundness": soundness_curve,
    "completeness": completeness_curve,
    "deletion": partial(order_based_curve, mode="deletion"),
    "insertion": partial(order_based_curve, mode="insertion"),
    "road": road_curve,
}


def metric_defaults(name: str) -> dict:
    """The options of metric ``name`` with their defaults: the keyword-only
    parameters of its function in ``METRICS`` but the mode the table fixes
    and ``seed``, which a run passes itself."""
    if name not in METRICS:
        raise ConfigError(f"unknown metric {name!r}")
    defaults = keyword_defaults(METRICS[name])
    return {key: value for key, value in defaults.items() if key not in ("mode", "seed")}
