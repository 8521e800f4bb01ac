"""Executable acceptance criteria.

Each test checks one numbered criterion end to end at its stated tolerance
and records a single PASS/FAIL line (echoed in the terminal summary).  The
heavyweight shared inputs (the full-size synthetic world and the 100-trial
validation run) are session fixtures so they are computed once.
"""

import time

import numpy as np
import pytest

from soco import (
    CurveSet,
    Dataset,
    EvalCurve,
    LinearStepModel,
    MapSet,
    ModScheme,
    ValidationSettings,
    apply_scheme,
    completeness_curve,
    generate_synthetic,
    ground_truth_attribution,
    hausdorff_distance,
    impute_grid,
    min_pairwise_hausdorff,
    oracle_info,
    order_based_curve,
    parse_config,
    road_curve,
    run_experiment,
    run_validation,
    soundness_curve,
    substream,
)
from soco import metrics
from soco.perturb import round_half_away

from per_sample import applied_masks, mask_by_ratio, swept_fill

SMALL_RATIOS = tuple(round(0.9 - 0.1 * i, 1) for i in range(9))  # 0.9 .. 0.1


@pytest.fixture(scope="session")
def world():
    dataset = generate_synthetic(1000, 200, seed=7)
    return {
        "dataset": dataset,
        "model": LinearStepModel(),
        "gt": ground_truth_attribution(dataset),
        "oracle": oracle_info(dataset),
    }


@pytest.fixture(scope="session")
def validation():
    # the full harness: 100 trials of remove/introduce corruption, scored
    # with noisy soundness and noiseless completeness
    return run_validation(ValidationSettings())


# -- A1: ground-truth soundness saturation ------------------------------------------


def test_a1_gt_soundness_saturation(world, record_criterion):
    record = record_criterion
    started = time.perf_counter()
    default = soundness_curve(world["model"], world["dataset"], world["gt"], seed=7)
    tight = soundness_curve(
        world["model"], world["dataset"], world["gt"], epsilon=1e-6, seed=7
    )
    elapsed = time.perf_counter() - started
    min_default = min(q for _, q in default.points)
    worst_tight = max(abs(q - 1.0) for _, q in tight.points)
    ok = min_default >= 0.99 and worst_tight <= 1e-9 and elapsed < 60.0
    record(
        "A1",
        ok,
        f"min q {min_default:.6f} (>=0.99), tight-eps deviation {worst_tight:.2e} "
        f"(<=1e-9), runtime {elapsed:.2f}s (<60s)",
    )


# -- A2: validation harness orderings ------------------------------------------------


def test_a2_soundness_ordering(validation, record_criterion):
    record = record_criterion
    aligned = validation.aligned_soundness
    gt, rm, intro = aligned["original"], aligned["remove"], aligned["introduce"]
    saturation = max(
        abs(stats[0] - 1.0) for m in (gt, rm) for stats in m.values()
    )
    shared_gt = sorted(set(gt) & set(intro))
    shared_rm = sorted(set(rm) & set(intro))
    strict = all(intro[l][0] < gt[l][0] for l in shared_gt) and all(
        intro[l][0] < rm[l][0] for l in shared_rm
    )
    ok = (
        saturation <= 0.01
        and strict
        and len(shared_gt) >= 6
        and len(intro) >= 6
    )
    intro_range = (
        min(v[0] for v in intro.values()),
        max(v[0] for v in intro.values()),
    )
    record(
        "A2-soundness",
        ok,
        f"GT/Remove within {saturation:.4f} of 1.0 (<=0.01); Introduce mean "
        f"{intro_range[0]:.3f}..{intro_range[1]:.3f} strictly below both at all "
        f"{len(shared_gt)} shared aligned levels",
    )


def test_a2_completeness_ordering(validation, record_criterion):
    # both degradations are less complete than the ground truth: Remove hides
    # part of the predictive support (its removal set is a subset of GT's at
    # every threshold), Introduce spends mass on non-predictive features; so
    # GT's mean drop bounds both, strictly wherever GT is not saturated
    record = record_criterion
    comp = validation.completeness
    gt = comp["original"].mean
    tol = 1e-12
    unsaturated = gt < validation.clean_accuracy - tol
    legs = {}
    for method in ("remove", "introduce"):
        gap = gt - comp[method].mean
        legs[method] = (
            bool(np.all(gap >= -tol) and np.all(gap[unsaturated] > tol)),
            float(gap[unsaturated].min()) if unsaturated.any() else float("nan"),
        )
    n_open = int(unsaturated.sum())
    ok = all(holds for holds, _ in legs.values()) and n_open >= 6
    record(
        "A2-completeness",
        ok,
        f"GT>=Remove {legs['remove'][0]}, GT>=Introduce {legs['introduce'][0]} at "
        f"all {gt.size} thresholds, strict at {n_open} unsaturated (need >=6); "
        f"smallest gap Remove {legs['remove'][1]:.3f}, "
        f"Introduce {legs['introduce'][1]:.3f}",
    )


# -- A3: order-blindness demonstration ------------------------------------------------


def test_a3_order_blindness(world, record_criterion):
    record = record_criterion
    dataset, model, gt = world["dataset"], world["model"], world["gt"]
    variants = {
        "original": gt,
        "remove": apply_scheme(
            gt, ModScheme(kind="constant", direction="remove", magnitude=0.6)
        ),
        "introduce": apply_scheme(
            gt, ModScheme(kind="constant", direction="introduce", magnitude=0.6)
        ),
    }
    fracs = (0.0, 0.3, 0.6, 0.9, 1.0)

    mins = {}
    mins["deletion"] = min_pairwise_hausdorff(
        CurveSet(
            {
                n: order_based_curve(model, dataset, m, mode="deletion", fractions=fracs)
                for n, m in variants.items()
            }
        )
    )
    mins["road"] = min_pairwise_hausdorff(
        CurveSet(
            {n: road_curve(model, dataset, m, fractions=fracs) for n, m in variants.items()}
        )
    )
    mins["soundness"] = min_pairwise_hausdorff(
        CurveSet(
            {
                n: soundness_curve(model, dataset, m, imputer="mean", noise_std=1.0, seed=7)
                for n, m in variants.items()
            }
        )
    )
    mins["completeness"] = min_pairwise_hausdorff(
        CurveSet(
            {n: completeness_curve(model, dataset, m) for n, m in variants.items()}
        )
    )
    ok = (
        mins["deletion"] <= 1e-9
        and mins["road"] <= 1e-9
        and mins["soundness"] > 0.02
        and mins["completeness"] > 0.02
    )
    record(
        "A3",
        ok,
        f"min pairwise: deletion {mins['deletion']:.2e}, road {mins['road']:.2e} "
        f"(<=1e-9); soundness {mins['soundness']:.3f}, completeness "
        f"{mins['completeness']:.3f} (>0.02)",
    )


# -- A4: soundness oracle equivalence on tiny instances --------------------------------


def tiny_antisymmetric_dataset(d: int, seed: int) -> Dataset:
    # samples come in (x, -x) pairs so every feature mean is exactly zero
    # and mean imputation never moves a sample across the decision boundary
    rng = substream(seed, "data")
    base = rng.standard_normal((4, d))
    feats = np.empty((8, d))
    feats[0::2] = base
    feats[1::2] = -base
    labels = (feats.sum(axis=1) > 0).astype(int)
    return Dataset(feats, labels, n_classes=2)


def staircase_instance(seed: int):
    """d=10 instance whose accuracy trajectory walks five distinct levels.

    Roles live at ranks of a shared (permuted) map, so sweep step t unmasks
    role 10-t for every sample at once: rank 9 is a positive anchor that
    makes everyone correct immediately, ranks 8/7 carry large negatives that
    flip pairs 0/1 wrong, rank 6 is positive for all and large enough to flip
    them back, ranks 5/4 flip pairs down to accuracy 0, ranks 3..1 are inert
    tiny negatives, and rank 0 (never unmasked) is positive ballast keeping
    every clean label consistent with the model.  Each unmasking window is
    therefore purely informative exactly when dataset accuracy rises, so the
    algorithm's false-feature bookkeeping must agree with the oracle at every
    emitted point.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(10)
    scale = rng.uniform(0.5, 2.0)
    flip = rng.uniform(4.0, 6.0, size=4)

    phi = -rng.uniform(0.004, 0.010, size=(4, 10))
    phi[:, 9] = 1.0
    phi[0, 8] = -flip[0]
    phi[1, 7] = -flip[1]
    phi[:, 6] = rng.uniform(0.004, 0.010, size=4)
    phi[0, 6] = phi[1, 6] = flip.max() + 1.0 + rng.uniform(0.0, 1.0)
    phi[0, 5] = -flip[0] - 2.0
    phi[2, 5] = -flip[2]
    phi[3, 5] = -flip[3]
    phi[1, 4] = -flip[1] - 2.0
    phi[:, 0] = np.maximum(0.0, -phi[:, 1:].sum(axis=1)) + 1.0 + rng.uniform(0, 1, 4)
    phi = phi * scale

    phys = np.empty((4, 10))
    phys[:, perm] = phi
    feats = np.empty((8, 10))
    feats[0::2] = phys
    feats[1::2] = -phys
    labels = (feats.sum(axis=1) > 0).astype(int)
    v = np.cumsum(rng.uniform(0.02, 0.1, size=10))
    map_vals = np.empty(10)
    map_vals[perm] = v / v[-1]
    maps = MapSet(np.tile(map_vals, (8, 1)))
    return Dataset(feats, labels, n_classes=2), maps


def test_a4_soundness_oracle_equivalence(record_criterion):
    record = record_criterion
    model = LinearStepModel()
    worst = 0.0
    n_points = 0
    analytic_lo, analytic_hi = 1.0, 0.0
    for i in range(20):
        if i < 12:
            dataset, maps = staircase_instance(500 + i)
        else:
            # saturated plateau: one emitted point, precision exactly 1
            dataset = tiny_antisymmetric_dataset(8 + (i % 5), seed=100 + i)
            maps = ground_truth_attribution(dataset)
        oracle = oracle_info(dataset)
        curve = soundness_curve(model, dataset, maps, mask_ratios=SMALL_RATIOS, seed=i)
        assert len(curve.points) == (5 if i < 12 else 1)
        for level, q in curve.points:
            # dedup keeps the first sweep step per accuracy value; recompute
            # the included set at that step's ratio and score it against the
            # oracle's informative mass
            ratio = next(r for r, s, _ in curve.meta["sweep"] if s == level)
            per_sample = []
            for m, informative in zip(maps.values, oracle.informative):
                included = ~mask_by_ratio(m, ratio)
                inc_mass = m[included].sum()
                inf_mass = m[included & informative].sum()
                per_sample.append(inf_mass / inc_mass)
            analytic = float(np.mean(per_sample))
            worst = max(worst, abs(q - analytic))
            n_points += 1
            analytic_lo = min(analytic_lo, analytic)
            analytic_hi = max(analytic_hi, analytic)
    ok = worst <= 0.05 and n_points >= 68 and analytic_lo < 0.6
    record(
        "A4",
        ok,
        f"20 tiny instances, worst |algorithm - analytic| = {worst:.2e} (<=0.05) "
        f"over {n_points} emitted points, analytic precision spans "
        f"[{analytic_lo:.3f}, {analytic_hi:.3f}]",
    )


# -- A5: completeness ordering against the oracle --------------------------------------


def test_a5_completeness_oracle_ordering(world, record_criterion):
    record = record_criterion
    dataset, model, gt, oracle = (
        world["dataset"],
        world["model"],
        world["gt"],
        world["oracle"],
    )
    t = 0.5  # the metric's fraction-sensitive regime on this world
    phis = list(zip(oracle.phi, oracle.informative))
    phi_informative = np.array([phi[informative].sum() for phi, informative in phis])

    def drop_and_ratio(maps):
        drop = completeness_curve(model, dataset, maps, thresholds=(t,), imputer="mean").points[0][1]
        masses = [
            phi[(values > t) & informative].sum()
            for values, (phi, informative) in zip(maps.values, phis)
        ]
        return drop, float(np.mean(np.array(masses) / phi_informative))

    rng = np.random.default_rng(77)
    decided = agree = 0
    for pair in range(200):
        f1, f2 = rng.uniform(0.05, 0.7, size=2)
        a = apply_scheme(
            gt, ModScheme(kind="synth_remove", fraction=float(f1), seed=2 * pair)
        )
        b = apply_scheme(
            gt, ModScheme(kind="synth_remove", fraction=float(f2), seed=2 * pair + 1)
        )
        drop_a, ratio_a = drop_and_ratio(a)
        drop_b, ratio_b = drop_and_ratio(b)
        if abs(drop_a - drop_b) > 0.05:
            decided += 1
            if (drop_a > drop_b) == (ratio_a > ratio_b):
                agree += 1
    rate = agree / decided if decided else 0.0
    ok = decided >= 50 and rate >= 0.95
    record(
        "A5",
        ok,
        f"200 map pairs, {decided} decided (gap>0.05), ordering agreement "
        f"{rate:.1%} (>=95%)",
    )


# -- A6: imputation correctness ---------------------------------------------------------


def neighbor_weights(h, w, r, c):
    # independent reconstruction: direct neighbors 1/6, diagonal 1/12,
    # renormalized over the neighbors that exist
    out = {}
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == dc == 0:
                continue
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w:
                out[(rr, cc)] = 1 / 6 if dr == 0 or dc == 0 else 1 / 12
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def test_a6_imputation_correctness(record_criterion):
    record = record_criterion
    rng = np.random.default_rng(41)

    worst_residual = 0.0
    for _ in range(100):
        h, w = rng.integers(4, 11, size=2)
        grid = rng.standard_normal((h, w))
        mask = rng.random((h, w)) < 0.25
        mask[0, 0] = False  # keep at least one known pixel
        out = impute_grid(grid, mask)
        for r in range(h):
            for c in range(w):
                if mask[r, c]:
                    want = sum(
                        wt * out[rr, cc]
                        for (rr, cc), wt in neighbor_weights(h, w, r, c).items()
                    )
                    worst_residual = max(worst_residual, abs(out[r, c] - want))

    worst_const = 0.0
    for _ in range(20):
        h, w = rng.integers(3, 9, size=2)
        grid = np.full((h, w), 0.7)
        mask = rng.random((h, w)) < 0.4
        mask[0, 0] = False
        worst_const = max(worst_const, float(np.abs(impute_grid(grid, mask) - 0.7).max()))

    worst_dense = 0.0
    for _ in range(20):
        h, w = rng.integers(3, 9, size=2)
        grid = rng.standard_normal((h, w))
        mask = rng.random((h, w)) < 0.3
        mask[0, 0] = False
        out = impute_grid(grid, mask)
        # dense reference solve built from the same literal weight rule
        n = h * w
        weights = np.zeros((n, n))
        for r in range(h):
            for c in range(w):
                for (rr, cc), wt in neighbor_weights(h, w, r, c).items():
                    weights[r * w + c, rr * w + cc] = wt
        flat_mask = mask.reshape(-1)
        unknown = np.flatnonzero(flat_mask)
        known = np.flatnonzero(~flat_mask)
        system = np.eye(len(unknown)) - weights[np.ix_(unknown, unknown)]
        rhs = weights[np.ix_(unknown, known)] @ grid.reshape(-1)[known]
        solved = np.linalg.solve(system, rhs)
        worst_dense = max(
            worst_dense, float(np.abs(out.reshape(-1)[unknown] - solved).max())
        )

    ok = worst_residual < 1e-6 and worst_const <= 1e-12 and worst_dense <= 1e-9
    record(
        "A6",
        ok,
        f"neighbor residual {worst_residual:.2e} (<1e-6), constant field "
        f"{worst_const:.2e} (exact), dense-solve gap {worst_dense:.2e} (<=1e-9)",
    )


# -- A7: metric-space properties ---------------------------------------------------------


def test_a7_hausdorff_metric_properties(record_criterion):
    record = record_criterion
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        curves = []
        for _ in range(3):
            n = rng.integers(3, 9)
            xs = np.sort(rng.random(n)) + np.arange(n) * 1e-9
            ys = rng.random(n)
            curves.append(
                EvalCurve("deletion", tuple(zip(xs, ys)))
            )
        a, b, c = curves
        if hausdorff_distance(a, b) != hausdorff_distance(b, a):
            violations += 1
        if hausdorff_distance(a, a) != 0.0:
            violations += 1
        if hausdorff_distance(a, b) > (
            hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
        ):
            violations += 1
    record("A7", violations == 0, f"{violations} violations over 1000 triples (need 0)")


# -- A8: determinism and parallel invariance ------------------------------------------------


def test_a8_determinism_and_worker_invariance(tmp_path, record_criterion):
    record = record_criterion
    def config(out, workers):
        return parse_config(
            {
                "seed": 11,
                "output_dir": out,
                "workers": workers,
                "dataset": {"synthetic": {"n_samples": 200, "n_features": 100}},
                "model": {"builtin": "linear_step"},
                "maps": {
                    "source": "ground_truth",
                    "variants": {
                        "original": [],
                        "remove": [{"kind": "synth_remove", "fraction": 0.3}],
                    },
                },
                "metrics": {
                    "soundness": {"noise_std": 1.0},
                    "completeness": {},
                    "deletion": {},
                },
            },
            base_dir=tmp_path,
        )

    runs = ["w1", "w1-again", "w2", "w8"]
    for out, workers in zip(runs, (1, 1, 2, 8)):
        run_experiment(config(out, workers))
    names = sorted(
        p.name for p in (tmp_path / "w1").iterdir() if p.name.endswith(".curve.json")
    )
    identical = all(
        (tmp_path / "w1" / name).read_bytes() == (tmp_path / other / name).read_bytes()
        for name in names
        for other in runs[1:]
    )
    record(
        "A8",
        identical and len(names) == 6,
        f"{len(names)} curve files byte-identical across rerun and workers 1/2/8: "
        f"{identical}",
    )


# -- A9: mask property suite -----------------------------------------------------------------


def test_a9_mask_properties(record_criterion):
    # the masks and the fill are the metrics' own: the masks come from
    # applying the change sets of metrics._rank_steps and _threshold_steps in
    # order, and the mean fill is the batch metrics._sweep hands the model
    record = record_criterion
    rng = np.random.default_rng(99)
    violations = 0
    for case in range(10_000):
        d = int(rng.integers(3, 41))
        values = (rng.random(d) * (rng.random(d) < 0.8))[None]
        order = metrics._order(values)
        ranks = np.argsort(order, axis=1)  # each feature's position in its order

        t_lo, t_hi = np.sort(rng.uniform(0.01, 0.99, size=2))
        if t_lo < t_hi:
            # higher threshold masks a subset of what a lower one masks
            _, hi_mask, lo_mask = applied_masks(
                *metrics._threshold_steps(values, (t_hi, t_lo)), d
            )
            if (
                np.any(hi_mask & ~lo_mask)
                or not np.array_equal(hi_mask, values[0] > t_hi)
                or not np.array_equal(lo_mask, values[0] > t_lo)
            ):
                violations += 1

        r_lo, r_hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        ks = [round_half_away(r_lo * d), round_half_away(r_hi * d)]
        lo_mask, mask = applied_masks(*metrics._rank_steps(order, ks, True), d)
        if (
            np.any(lo_mask & ~mask)
            or not np.array_equal(lo_mask, ranks[0] < ks[0])
            or not np.array_equal(mask, ranks[0] < ks[1])
        ):
            violations += 1

        feats = rng.standard_normal((1, d))
        mask = mask[None]
        # the second row sets the dataset's means apart from the sample
        dataset = Dataset(np.concatenate([feats, rng.standard_normal((1, d))]), [0, 1], 2)
        noise = 0.5 * substream(9, "noise", case).standard_normal((1, d))
        out = swept_fill("mean", dataset, feats, mask, noise)
        if not np.array_equal(out[~mask], feats[~mask]) or not np.array_equal(
            out[mask], (dataset.feature_means + noise)[mask]
        ):
            violations += 1
    record("A9", violations == 0, f"{violations} violations over 10000 cases (need 0)")
