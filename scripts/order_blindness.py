#!/usr/bin/env python3
"""Show that rank-only baselines cannot see value-level map corruption.

Shifts every ground-truth attribution value by a constant (down for
"remove", up for "introduce"), which changes the attributed mass
everywhere but preserves the feature ranking.  Deletion and ROAD consume
only the ranking, so their curves for all three variants coincide to
machine precision, while the soundness and completeness curves move.

Usage:
    python scripts/order_blindness.py [--samples N] [--features D] [--shift S]
"""

import argparse
import sys

from soco import (
    CurveSet,
    LinearStepModel,
    ModScheme,
    apply_scheme,
    completeness_curve,
    generate_synthetic,
    ground_truth_attribution,
    order_based_curve,
    pairwise_hausdorff,
    road_curve,
    soundness_curve,
)

FRACTIONS = (0.0, 0.3, 0.6, 0.9, 1.0)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--features", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--shift", type=float, default=0.6)
    args = p.parse_args(argv)

    dataset = generate_synthetic(args.samples, args.features, args.seed)
    model = LinearStepModel()
    gt = ground_truth_attribution(dataset)
    variants = {
        "original": gt,
        "shift-down": apply_scheme(
            gt, ModScheme(kind="constant", direction="remove", magnitude=args.shift)
        ),
        "shift-up": apply_scheme(
            gt, ModScheme(kind="constant", direction="introduce", magnitude=args.shift)
        ),
    }

    curve_sets = {
        "deletion": CurveSet(
            {
                name: order_based_curve(
                    model, dataset, maps, mode="deletion", fractions=FRACTIONS
                )
                for name, maps in variants.items()
            }
        ),
        "road": CurveSet(
            {
                name: road_curve(model, dataset, maps, fractions=FRACTIONS)
                for name, maps in variants.items()
            }
        ),
        "soundness": CurveSet(
            {
                name: soundness_curve(
                    model, dataset, maps, imputer="mean", noise_std=1.0, seed=args.seed
                )
                for name, maps in variants.items()
            }
        ),
        "completeness": CurveSet(
            {
                name: completeness_curve(model, dataset, maps)
                for name, maps in variants.items()
            }
        ),
    }

    print(f"pairwise Hausdorff distances, {args.samples} x {args.features}, "
          f"constant shift {args.shift}")
    for metric, curve_set in curve_sets.items():
        print(f"\n{metric}:")
        for (a, b), dist in pairwise_hausdorff(curve_set).items():
            print(f"  {a:<11} vs {b:<11} {dist:.9f}")
    print("\nrank-only metrics collapse the variants; value-aware metrics do not.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
