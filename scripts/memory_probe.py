#!/usr/bin/env python3
"""Print each metric's peak memory above its inputs, in (n, d) array units.

Builds a random dataset of ``--samples`` samples of ``--shape`` features, a
random map per sample and a 2-layer MLP, then runs soundness, completeness,
deletion and insertion with the mean fill, each under ``tracemalloc``.  A
metric's peak is the most memory numpy and Python held at once during the
call beyond what existed before it, divided by the bytes of one ``(n, d)``
float64 array, so 1.0 is one more copy of the features.  The inputs, the
model and the dataset's feature means are built before the call and are not
counted; the noise a metric draws (``--noise-std``) is.  ``--zero-maps K``
makes the first K maps all zero, which soundness skips, so its peak shows
what skipping rows costs.

Usage:
    python scripts/memory_probe.py [--samples N] [--shape H W C] [--noise-std S]
                                   [--zero-maps K]
"""

import argparse
import sys
import tracemalloc
import warnings

import numpy as np

from soco import (
    Dataset,
    completeness_curve,
    normalize_attribution,
    order_based_curve,
    soundness_curve,
)
from soco.models import Layer, MlpModel, MlpWeights

HIDDEN = 32
N_CLASSES = 10


def probe_inputs(samples: int, shape: tuple, zero_maps: int = 0):
    """A random dataset, one random normalized map per sample (the first
    ``zero_maps`` of them all zero), and a 2-layer MLP."""
    rng = np.random.default_rng(0)
    d = int(np.prod(shape))
    dataset = Dataset(
        rng.standard_normal((samples,) + shape),
        rng.integers(0, N_CLASSES, samples),
        n_classes=N_CLASSES,
    )
    values = rng.random((samples,) + shape)
    values[:zero_maps] = 0.0
    maps = normalize_attribution(values)
    layers = (
        Layer(rng.standard_normal((HIDDEN, d)) / np.sqrt(d), np.zeros(HIDDEN), "relu"),
        Layer(rng.standard_normal((N_CLASSES, HIDDEN)), np.zeros(N_CLASSES)),
    )
    return dataset, maps, MlpModel(MlpWeights(layers=layers, n_classes=N_CLASSES))


def metric_peaks(
    samples: int, shape: tuple, noise_std: float = 0.0, zero_maps: int = 0
) -> dict:
    """Each metric's tracemalloc peak above its inputs, in (n, d) float64 arrays."""
    dataset, maps, model = probe_inputs(samples, shape, zero_maps)
    fill = {"imputer": "mean", "noise_std": noise_std}
    runs = {
        "soundness": lambda: soundness_curve(model, dataset, maps, **fill),
        "completeness": lambda: completeness_curve(model, dataset, maps, **fill),
        "deletion": lambda: order_based_curve(model, dataset, maps, "deletion", **fill),
        "insertion": lambda: order_based_curve(model, dataset, maps, "insertion", **fill),
    }
    unit = 8 * samples * int(np.prod(shape))
    peaks = {}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="skipping")  # soundness's zero maps
        for name, run in runs.items():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run()
                peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / unit
            finally:
                tracemalloc.stop()
    return peaks


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--shape", type=int, nargs="+", default=[32, 32, 3],
                   help="feature shape of one sample: D, or H W C")
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--zero-maps", type=int, default=0,
                   help="how many maps, from the first, are all zero")
    args = p.parse_args(argv)

    shape = tuple(args.shape)
    unit_mib = 8 * args.samples * int(np.prod(shape)) / 2**20
    print(f"{args.samples} x {shape}, noise_std {args.noise_std}, "
          f"{args.zero_maps} all-zero maps: one (n, d) float64 array is {unit_mib:.2f} MiB")
    peaks = metric_peaks(args.samples, shape, args.noise_std, args.zero_maps)
    for name, peak in peaks.items():
        print(f"{name:<13} {peak:5.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
