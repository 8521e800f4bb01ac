"""Golden curves of the noisy-linear fill.

The literals below were recorded before the neighbour solve moved from a
sparse LU factorisation to a banded Cholesky, and every solver change since
has kept them.  A solver that flips one model decision on these small grids
changes a curve here; such a change is a finding to report, not a literal to
re-record.
"""

import numpy as np
import pytest

from soco import Dataset, MlpModel, MlpWeights, normalize_attribution
from soco.metrics import completeness_curve, road_curve, soundness_curve
from soco.models import Layer

# the noisy-linear fills fork lanes on any machine with two usable CPUs
pytestmark = pytest.mark.usefixtures("no_leftovers")

N_SAMPLES = 16


def grid_problem(shape, seed):
    """A small grid set labelled by a random two-layer MLP's own predictions,
    so every masking step can move the accuracy, and smooth-ish maps."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N_SAMPLES,) + shape)
    d = feats[0].size
    hidden = Layer(
        weight=rng.standard_normal((12, d)) / np.sqrt(d), bias=np.zeros(12), activation="relu"
    )
    out = Layer(weight=rng.standard_normal((3, 12)), bias=rng.standard_normal(3))
    model = MlpModel(MlpWeights(layers=(hidden, out), n_classes=3))
    labels = model.predict_probs(feats.reshape(N_SAMPLES, -1)).argmax(axis=1)
    ds = Dataset(feats, labels, n_classes=3)
    raw = np.abs(feats + 0.5 * np.roll(feats, 1, axis=1) + 0.5 * np.roll(feats, 1, axis=2))
    return model, ds, normalize_attribution(raw)


def golden_curves():
    """Each curve's points, keyed by a name that says what it is."""
    curves = {}
    # a wide plane (w > h) and a tall three-channel one
    for shape, seed in (((6, 10, 1), 11), ((7, 5, 3), 12)):
        model, ds, maps = grid_problem(shape, seed)
        tag = "x".join(map(str, shape))
        for order, noise_std in (("MoRF", 0.0), ("LeRF", 0.5)):
            curve = road_curve(model, ds, maps, order=order, noise_std=noise_std, seed=5)
            curves[f"road-{order}-{tag}"] = curve.points
        curve = completeness_curve(model, ds, maps, imputer="noisy_linear", seed=5)
        curves[f"completeness-{tag}"] = curve.points
        if shape[2] == 1:
            for weighting in ("attribution", "cardinality"):
                curve = soundness_curve(
                    model, ds, maps, imputer="noisy_linear", noise_std=0.3,
                    weighting=weighting, seed=5,
                )
                curves[f"soundness-{weighting}-{tag}"] = curve.points
    return curves


GOLDEN = {
    "road-MoRF-6x10x1": (
        (0.0, 1.0), (0.1, 0.8125), (0.2, 0.875), (0.3, 0.8125), (0.4, 0.625),
        (0.5, 0.75), (0.6, 0.6875), (0.7, 0.5625), (0.8, 0.4375), (0.9, 0.5),
        (1.0, 0.5),
    ),
    "road-LeRF-6x10x1": (
        (0.0, 1.0), (0.1, 0.8125), (0.2, 0.8125), (0.3, 0.75), (0.4, 0.5),
        (0.5, 0.5625), (0.6, 0.5), (0.7, 0.4375), (0.8, 0.5625), (0.9, 0.6875),
        (1.0, 0.5625),
    ),
    "completeness-6x10x1": (
        (0.1, 0.5), (0.2, 0.3125), (0.3, 0.25), (0.4, 0.25), (0.5, 0.3125),
        (0.6, 0.125), (0.7, 0.125), (0.8, 0.1875), (0.9, 0.1875),
    ),
    "soundness-attribution-6x10x1": (
        (0.4375, 0.49280384948642286), (0.5, 0.542097806473852), (0.5625, 1.0),
        (0.625, 0.5991951776104244), (0.6875, 0.7487219148130304),
        (0.75, 0.7919889965945184), (0.8125, 0.3810998515075973),
        (0.875, 0.36523446707916113),
    ),
    "soundness-cardinality-6x10x1": (
        (0.4375, 0.45454545454545453), (0.5, 0.5), (0.5625, 1.0),
        (0.625, 0.5714285714285714), (0.6875, 0.75), (0.75, 0.8), (0.8125, 0.35),
        (0.875, 0.3157894736842105),
    ),
    "road-MoRF-7x5x3": (
        (0.0, 1.0), (0.1, 0.5625), (0.2, 0.4375), (0.3, 0.375), (0.4, 0.3125),
        (0.5, 0.25), (0.6, 0.3125), (0.7, 0.375), (0.8, 0.1875), (0.9, 0.375),
        (1.0, 0.1875),
    ),
    "road-LeRF-7x5x3": (
        (0.0, 1.0), (0.1, 0.8125), (0.2, 0.8125), (0.3, 0.625), (0.4, 0.6875),
        (0.5, 0.75), (0.6, 0.625), (0.7, 0.5625), (0.8, 0.5), (0.9, 0.5), (1.0, 0.25),
    ),
    "completeness-7x5x3": (
        (0.1, 0.625), (0.2, 0.8125), (0.3, 0.6875), (0.4, 0.625), (0.5, 0.5625),
        (0.6, 0.3125), (0.7, 0.375), (0.8, 0.3125), (0.9, 0.1875),
    ),
}


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_noisy_linear_curves_match_the_recorded_literals():
    got = golden_curves()
    assert set(got) == set(GOLDEN)
    for name, points in GOLDEN.items():
        assert got[name] == points, name
