"""Golden curves: the noisy-linear fill's points, and every metric's bytes.

The literals below were recorded before the neighbour solve moved from a
sparse LU factorisation to a banded Cholesky, and every solver change since
has kept them.  A solver that flips one model decision on these small grids
changes a curve here; such a change is a finding to report, not a literal to
re-record.
"""

import hashlib

import numpy as np
import pytest

from soco import (
    Dataset,
    LinearStepModel,
    MapSet,
    MlpModel,
    MlpWeights,
    generate_synthetic,
    ground_truth_attribution,
    normalize_attribution,
)
from soco.io import canonical_json, curve_to_dict
from soco.metrics import METRICS, completeness_curve, road_curve, soundness_curve
from soco.models import Layer

# the noisy-linear fills fork lanes on any machine with two usable CPUs
pytestmark = pytest.mark.usefixtures("no_leftovers")

N_SAMPLES = 16


def mlp_problem(feats, rng):
    """A random two-layer MLP drawn from ``rng``, and ``feats`` labelled by
    its own predictions."""
    d = feats[0].size
    hidden = Layer(
        weight=rng.standard_normal((12, d)) / np.sqrt(d), bias=np.zeros(12), activation="relu"
    )
    out = Layer(weight=rng.standard_normal((3, 12)), bias=rng.standard_normal(3))
    model = MlpModel(MlpWeights(layers=(hidden, out), n_classes=3))
    labels = model.predict_probs(feats.reshape(len(feats), -1)).argmax(axis=1)
    return model, Dataset(feats, labels, n_classes=3)


def grid_problem(shape, seed):
    """A small grid set labelled by a random two-layer MLP's own predictions,
    so every masking step can move the accuracy, and smooth-ish maps."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N_SAMPLES,) + shape)
    model, ds = mlp_problem(feats, rng)
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


# -- curve digests ------------------------------------------------------------

def digest_problems():
    """(name, model, dataset, maps, fills): ground-truth maps on a tabular
    set; the same maps rounded to one decimal, which ties them, under an
    MLP that the order of tied features moves; and a grid set under an
    MLP."""
    tabular = generate_synthetic(n_samples=48, n_features=64, seed=3)
    truth = ground_truth_attribution(tabular)
    tied = MapSet(np.round(truth.values, 1), normalized=True)
    tied_model, tied_ds = mlp_problem(tabular.feature_matrix(), np.random.default_rng(14))
    model, ds, maps = grid_problem((8, 7, 2), 17)
    return (
        ("tabular", LinearStepModel(), tabular, truth, ("zero", "mean")),
        ("ties", tied_model, tied_ds, tied, ("zero", "mean")),
        ("grid", model, ds, maps, ("zero", "mean", "noisy_linear")),
    )


def curve_digests():
    """Each curve's bytes as the sha256 of its canonical JSON, points and
    meta alike, keyed by a name that says what the curve is."""
    digests = {}
    for tag, model, ds, maps, fills in digest_problems():
        runs = [
            (f"road-{order}-{noise_std}", "road", {"order": order, "noise_std": noise_std})
            for order, noise_std in (("MoRF", 0.0), ("LeRF", 0.3))
        ]
        for fill in fills:
            for weighting, noise_std in (("attribution", 0.0), ("cardinality", 0.3)):
                runs.append((f"soundness-{fill}-{weighting}-{noise_std}", "soundness",
                             {"imputer": fill, "weighting": weighting, "noise_std": noise_std}))
            for noise_std in (0.0, 0.3):
                runs.append((f"completeness-{fill}-{noise_std}", "completeness",
                             {"imputer": fill, "noise_std": noise_std}))
            for mode in ("deletion", "insertion"):
                for order, noise_std in (("MoRF", 0.0), ("LeRF", 0.3)):
                    runs.append((f"{mode}-{fill}-{order}-{noise_std}", mode,
                                 {"imputer": fill, "order": order, "noise_std": noise_std}))
        for name, metric, options in runs:
            curve = METRICS[metric](model, ds, maps, **options, seed=5)
            blob = canonical_json(curve_to_dict(curve)).encode()
            digests[f"{tag}-{name}"] = hashlib.sha256(blob).hexdigest()
    return digests


CURVE_DIGESTS = {
    "tabular-road-MoRF-0.0":
        "027e91d2363ceedb478cdb5062c0fb3ee33f2c9798d28ba5a6f10fc9fe08d18c",
    "tabular-road-LeRF-0.3":
        "55b066bd10aecc6772b2788710515b1e881b0f60b17ba4420f6001498478c7b6",
    "tabular-soundness-zero-attribution-0.0":
        "69109d0aa63352d5b319bfdc4b9a3abd62597702a70a2e493282d90ca8bd6505",
    "tabular-soundness-zero-cardinality-0.3":
        "92a1aa16b64ecff2366c114cc57c530b3072be32b8ec0543e52fc0d1dacc0dd7",
    "tabular-completeness-zero-0.0":
        "f266d55bc57a31ff6085a81243abddc4bc2b058b21698eadbe9c7d9773504cfd",
    "tabular-completeness-zero-0.3":
        "68bdaefc8f5c42f059eb8885204097029d3848e7585edc8178438713e159825f",
    "tabular-deletion-zero-MoRF-0.0":
        "569d1d795e70f273c33200da41eebe92a7fd7f7e92f42f404780122400740d93",
    "tabular-deletion-zero-LeRF-0.3":
        "90733c64adefa561dbb5c8e7edd5b08401a364c749070a3a09e56d7ec175e468",
    "tabular-insertion-zero-MoRF-0.0":
        "2480b3ada60c4cf4b7a0edbb1ee312621b33fd80d112f19c7e4d5a7e498aded0",
    "tabular-insertion-zero-LeRF-0.3":
        "3da0ea681d1cb3e1ca0ecf173cdfaff883e1443d525090d74ef924335078936f",
    "tabular-soundness-mean-attribution-0.0":
        "5c4e8e92bba8e45d7268ed737a2a0e8390cb7ef5a5f06b3f9e29e6e3107f7646",
    "tabular-soundness-mean-cardinality-0.3":
        "69d42185060a3e3c1544aac78a3f46d2bc5c23903623b4e69fb5ff5c82b98a6b",
    "tabular-completeness-mean-0.0":
        "7f2641b51510b527432c2835a65d195d4ff13d1179a89c1036c573cb662a4a0d",
    "tabular-completeness-mean-0.3":
        "c17f7bef08c572cefedc87a2801c7432ebe60642d487515c351c91ce67dfb122",
    "tabular-deletion-mean-MoRF-0.0":
        "c04c451d8f478ba8d040bba4647d97ee9dd5b160f09a8295e846b7885420ff85",
    "tabular-deletion-mean-LeRF-0.3":
        "38a887438adcecab08c5b99a2586d2cfd94cda4c8f9c7d76da15d8580a4ac21d",
    "tabular-insertion-mean-MoRF-0.0":
        "9fb0ed13625ab9d4a7af41239309c40913f6b18a65cd7f7dff83097d07d174e8",
    "tabular-insertion-mean-LeRF-0.3":
        "bdee5e364fc278f67076bc8173ad64e8e82ff98da473e8a8c44e5de2ce62f77e",
    "ties-road-MoRF-0.0":
        "fb487e60aeb8330f80517f92d3dc2acad03c2561f463a1427b8b3905a207d94e",
    "ties-road-LeRF-0.3":
        "1e529df442105a8295133366b02e854b03d4b3e361d7097564669ed99aa3fb79",
    "ties-soundness-zero-attribution-0.0":
        "82b975718377484a8da6cee7ab69cd73dcb45f3cdae70d5d664b393ebcb86a52",
    "ties-soundness-zero-cardinality-0.3":
        "b1b2f02fbad3e7ed653fa2a9dafac2348f5f388102906968dbe5b409cca25cfa",
    "ties-completeness-zero-0.0":
        "72414227f5376f4d49b10eae451c107f178f52da086be7cfd3a637b3041f0d42",
    "ties-completeness-zero-0.3":
        "ff5efdda23a035eb971de966fcd90959261882d734d8858102f21db3e0830ade",
    "ties-deletion-zero-MoRF-0.0":
        "4999f94bd8ba11eb5001a2c6a219b7b013740fce4daaf2b52b6f54ea81f411f2",
    "ties-deletion-zero-LeRF-0.3":
        "d86942873d0fe63bdcb9b3373177b4be1bd53b3cd3eaa1c4855adf1a69720288",
    "ties-insertion-zero-MoRF-0.0":
        "f73704cf620f2fc3ea2cf9999d64b5444009c436a9a4dc45396973bc1fb683d3",
    "ties-insertion-zero-LeRF-0.3":
        "923a6ca519b0d62e2378ca0e51328ec419d999e783dbe5d56ca1e6e92a3971c3",
    "ties-soundness-mean-attribution-0.0":
        "33f7e8e4ebc0e2e0d98aa37c7e9d4015af99d23044a7e60d83225d4d17e7c63a",
    "ties-soundness-mean-cardinality-0.3":
        "b9ce826a6648694265eefb208fab55eb08d0a7d461b35629e1beba5d47f7ce28",
    "ties-completeness-mean-0.0":
        "b5352e4628d3a25127b11b1d4e1cc782d79118a9444b48065d51034a34ff612f",
    "ties-completeness-mean-0.3":
        "21f359350a9db806e6921d15301af465a031c74d5fc45fefdc57824c203e4b40",
    "ties-deletion-mean-MoRF-0.0":
        "8f0cc5ca0fb9ffa3170840e7ef96655b30ea5ccd433022ec32531edb8c0e9eba",
    "ties-deletion-mean-LeRF-0.3":
        "f13da789e2c315ddf3294ead77a56f4a30ff4419a0f35b23e6bb9cb9870326d5",
    "ties-insertion-mean-MoRF-0.0":
        "b2a308365a86fac0243a833023ebecb6e6395252d037da29c987bd899a591758",
    "ties-insertion-mean-LeRF-0.3":
        "37d57d37d37fc7aa0b64a07d302d00a105cbb8cea14a3fb8ba36c6b9c990b0c6",
    "grid-road-MoRF-0.0":
        "a5a694823b2e583dccc1078a658ec1a402ccc886284ff4bd3a9929687b4ef985",
    "grid-road-LeRF-0.3":
        "c04bcd947792d255305d79e478a0349536cd285a7f95bc4e5ed95c8e323ec8de",
    "grid-soundness-zero-attribution-0.0":
        "cc98a31d55c8b4ab5641da83f793cd682ee3eee64a6f37e1acf8c018bd3613f7",
    "grid-soundness-zero-cardinality-0.3":
        "69f398270883cf8e6ac823e633a35f288c3bea8739c02de3929468e50dd10fed",
    "grid-completeness-zero-0.0":
        "135684bf634544f564da4afe0154a007febb343e5ea0bca1c7e0756ef3ba82c6",
    "grid-completeness-zero-0.3":
        "f4c6c2d3d125c7eaa7f446b4c108057682fd8a37bb7f8613cef131fb78a07a0b",
    "grid-deletion-zero-MoRF-0.0":
        "dc086ec2494277d4b5f5c55d1c248b3e7876798c58f3e7f3e88093c729c9bcda",
    "grid-deletion-zero-LeRF-0.3":
        "e6cbef2b8ff12bf12515f7cf0f45270c3db06cbaa7e58412eb89935aa04273d4",
    "grid-insertion-zero-MoRF-0.0":
        "982f78d59459500ae4ec4952bbddb505c5846950702b8a4d12b2c08932faf945",
    "grid-insertion-zero-LeRF-0.3":
        "c58b53cdb1777413f4f5f8bb591d4df11888c186b9be2123eca34b425153bf8e",
    "grid-soundness-mean-attribution-0.0":
        "71afa68eca9f08d404c5829c9835e0b59bf07f1ac60eb920806ee71e657c081b",
    "grid-soundness-mean-cardinality-0.3":
        "041729a67c60636df6d45747e717da0fde67006b7209c8b00e5e48593ebcb4df",
    "grid-completeness-mean-0.0":
        "119ff2666ee23a211540e14c9248b9ab92e64bff1f56d539f13819ed256ee7a5",
    "grid-completeness-mean-0.3":
        "c989819774684fd44a2dae47fe0e89191fcfda50960228d416a6d6f8739912a0",
    "grid-deletion-mean-MoRF-0.0":
        "e8f8e1bc4a85907657fed515916f7a15c85b278f967eb59f295a1f2f40a41584",
    "grid-deletion-mean-LeRF-0.3":
        "e1755ddfbf3ab386dcffdd736dbe12457525b3aede602a0d996a53a0e0a94d98",
    "grid-insertion-mean-MoRF-0.0":
        "c7a796a7316d9de8975f05a21d5b9258fcd2101af6afec3777dddf7fb71f5581",
    "grid-insertion-mean-LeRF-0.3":
        "e5aced12c902414244e4b6525279b39ecf924e15b520d713a4e47cc1fe8775f1",
    "grid-soundness-noisy_linear-attribution-0.0":
        "b49f3e817c3258d159f182e7003411d76223b7f21f6310144c6db07785fda210",
    "grid-soundness-noisy_linear-cardinality-0.3":
        "76738636872b7ca94f5d6a6069801e9fba7a5fb3fc724c3e46c6b393cd5ac740",
    "grid-completeness-noisy_linear-0.0":
        "de5d183b73842c33341f3a21b7e0f9bdde20319da98c897777e5f9e273b88ec2",
    "grid-completeness-noisy_linear-0.3":
        "9334683ceb413b576bf0c161a87c212c9b6c1bcdfecbe3b38584de389d3f3b21",
    "grid-deletion-noisy_linear-MoRF-0.0":
        "dd128d89c9204ecdbfa11618bb216dea5a28b75739afd52eb5928cdf0594d878",
    "grid-deletion-noisy_linear-LeRF-0.3":
        "ac81efd65446c18782f5a1dcc6e91ddc048eb7f9568c8356f2bd9cb23d39c4c4",
    "grid-insertion-noisy_linear-MoRF-0.0":
        "946da56aa7e686d614c2922379024de56689f6c24020c5dccf02ad1a549048c1",
    "grid-insertion-noisy_linear-LeRF-0.3":
        "81aa35dada980c82ff3b129984e8a258d0dee8b17d809f939e97897843900ba1",
}


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_every_metric_writes_its_pinned_curve_bytes():
    # recorded before the metrics shared one front end; a changed digest is
    # a changed curve file, to be explained, not re-recorded
    got = curve_digests()
    assert got.keys() == CURVE_DIGESTS.keys()
    for name, digest in CURVE_DIGESTS.items():
        assert got[name] == digest, name
