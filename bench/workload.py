"""The benchmark's workloads, their checks, and the loop that measures one.

Run through bench/run.py, which gives this process its environment:

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1

One run builds its inputs from the seed, does one untimed warm-up round,
then measures whole rounds until ``--seconds`` have passed (and at least
MIN_ROUNDS of them).  A round sets the workload up SETUPS_PER_ROUND times,
then evaluates once; the outputs of every round are checked outside the
timed sections.  With ``--trace 1`` untraced and traced rounds alternate,
and the per-layer figures are the medians over the traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import oracles
from tracer import PER_LAYER, Tracer

import soco
import soco.cli as soco_cli
import soco.experiment as soco_experiment
import soco.io as soco_io
import soco.metrics as soco_metrics
import soco.models as soco_models
import soco.perturb as soco_perturb
import soco.synthetic as soco_synthetic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_ROUNDS = 3
SETUPS_PER_ROUND = 3
TOL = 1e-12

VALIDATION_TRIALS = 3

ROAD_SHAPES = ((28, 28, 1, 16), (32, 32, 3, 8))  # (h, w, c, grids)
ROAD_HIDDEN = 32
ROAD_CLASSES = 10
ROAD_RELABEL = 0.2  # share of labels redrawn at random, so clean accuracy < 1
ROAD_IMPUTE_FRACTIONS = (0.3, 0.7, 1.0)
IMPUTE_TOL = 1e-9

BRIDGE_SAMPLES = 100
BRIDGE_FEATURES = 64  # below 99, so the 99 soundness ratios collide
BRIDGE_WORKERS = 2
BRIDGE_VARIANTS = {
    "original": [],
    "remove": [{"kind": "synth_remove", "fraction": 0.3}],
    "introduce": [
        {"kind": "synth_introduce", "direction": "introduce", "fraction": 0.3, "magnitude": 1.0}
    ],
}
BRIDGE_METRICS = {"soundness": {}, "completeness": {}, "deletion": {}, "insertion": {}}


class Workload:
    """Hooks of the measuring loop that a workload may leave as they are."""

    def check_program(self) -> list:
        """Errors found by checks of the program that need no round's output."""
        return []

    def before_eval(self) -> None:
        """Untimed preparation before each round."""


# -- validation ------------------------------------------------------------------


def check_validation(result, expected_drops: dict) -> list:
    """Errors in a ValidationResult: clean accuracy, the original maps'
    completeness against the oracle, soundness range, and A2's ordering."""
    errors = []
    if result.clean_accuracy != 1.0:
        errors.append(f"clean accuracy {result.clean_accuracy} != 1.0")
    comp = result.completeness
    original = comp["original"]
    if sorted(float(x) for x in original.x_grid) != sorted(expected_drops):
        errors.append("completeness thresholds differ from the configured ones")
    for x, mean in zip(original.x_grid, original.mean):
        want = expected_drops.get(float(x))
        if want is None or not abs(float(mean) - want) <= TOL:
            errors.append(f"original completeness drop at {x}: {mean} != oracle {want}")
    soundness = result.aligned_soundness
    for method, levels in soundness.items():
        if not levels:
            errors.append(f"{method}: no aligned soundness level reached")
        for level, (mean, _std, _count) in levels.items():
            if not -TOL <= mean <= 1.0 + TOL:
                errors.append(f"{method} soundness {mean} at level {level} outside [0, 1]")
    for other in ("remove", "introduce"):
        for level in sorted(set(soundness["original"]) & set(soundness[other])):
            if soundness["original"][level][0] < soundness[other][level][0] - TOL:
                errors.append(f"soundness at {level}: original below {other}")
        gap = np.asarray(original.mean) - np.asarray(comp[other].mean)
        if np.any(gap < -TOL):
            errors.append(f"completeness: original below {other} (gap {gap.min():.3g})")
    return errors


class Validation(Workload):
    """A reduced run_validation: the whole synthetic harness, few trials."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.settings = soco_experiment.ValidationSettings(seed=seed, n_trials=VALIDATION_TRIALS)
        s = self.settings
        rows, labels = oracles.synthetic_world(s.n_samples, s.n_features, s.seed)
        maps = oracles.ground_truth_maps(rows, labels)
        clean, self.expected_drops = oracles.completeness_drops(rows, labels, maps, s.thresholds)
        if clean != 1.0:
            raise RuntimeError("oracle: the step model must fit its own labels")

    def setup(self):
        """What run_validation builds before its first metric call."""
        s = self.settings
        dataset = soco_synthetic.generate_synthetic(s.n_samples, s.n_features, s.seed)
        soco_synthetic.ground_truth_attribution(dataset)
        soco_synthetic.oracle_info(dataset)
        soco_synthetic.LinearStepModel()
        return None

    def evaluate(self, _state):
        return soco_experiment.run_validation(self.settings)

    def check(self, result) -> list:
        return check_validation(result, self.expected_drops)

# -- road_grid -------------------------------------------------------------------


def check_road(curve, clean_accuracy: float, zero_share: float, fractions) -> list:
    """Errors in a ROAD curve: its grid, range, and the two end points."""
    errors = []
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    if xs != [float(f) for f in fractions]:
        errors.append(f"road fractions {xs} != {list(fractions)}")
        return errors
    if any(not 0.0 <= y <= 1.0 for y in ys):
        errors.append("road accuracy outside [0, 1]")
    if ys[0] != clean_accuracy:
        errors.append(f"road at 0.0: {ys[0]} != clean accuracy {clean_accuracy}")
    if ys[-1] != zero_share:
        errors.append(f"road at 1.0: {ys[-1]} != zero-input class share {zero_share}")
    return errors


def check_impute(impute_grid, cases, W: np.ndarray) -> list:
    """Errors of impute_grid against the dense neighbour solve."""
    errors = []
    for grid, mask in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = impute_grid(grid, mask)
        gap = float(np.max(np.abs(got - oracles.impute_dense(grid, mask, W))))
        if not gap <= IMPUTE_TOL:
            errors.append(f"impute_grid on {grid.shape} differs from the dense solve by {gap:.3g}")
    return errors


def _smooth_grids(rng, n, h, w, c) -> np.ndarray:
    coarse = rng.random((n, h // 4 + 1, w // 4 + 1, c))
    fine = coarse.repeat(4, axis=1).repeat(4, axis=2)[:, :h, :w, :]
    return (fine + 0.1 * rng.random((n, h, w, c))).astype(np.float32)


def _blob_maps(rng, n, h, w, c) -> np.ndarray:
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out = np.empty((n, h, w, c))
    for i in range(n):
        r0, c0 = rng.uniform(0, h), rng.uniform(0, w)
        width = rng.uniform(2.0, h / 3)
        bump = np.exp(-((rows - r0) ** 2 + (cols - c0) ** 2) / (2 * width**2))
        out[i] = bump[..., None] * rng.uniform(0.5, 1.0, c) + 0.05 * rng.random((h, w, c))
        out[i] /= out[i].max()
    return out.astype(np.float32)


class RoadGrid(Workload):
    """ROAD with an in-process MLP on grid datasets loaded from containers."""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        self.impute_cases = {}
        for h, w, c, n in ROAD_SHAPES:
            grids = _smooth_grids(rng, n, h, w, c)
            d = h * w * c
            layers = [
                (rng.standard_normal((ROAD_HIDDEN, d)) / np.sqrt(d),
                 0.1 * rng.standard_normal(ROAD_HIDDEN), "relu"),
                (rng.standard_normal((ROAD_CLASSES, ROAD_HIDDEN)) / np.sqrt(ROAD_HIDDEN),
                 0.1 * rng.standard_normal(ROAD_CLASSES), "identity"),
            ]
            feats = grids.astype(np.float64)
            labels = oracles.mlp_classes(layers, feats)
            redraw = rng.random(n) < ROAD_RELABEL
            labels[redraw] = rng.integers(0, ROAD_CLASSES, int(redraw.sum()))
            maps = _blob_maps(rng, n, h, w, c)

            stem = workdir / f"grid{h}x{w}x{c}"
            data_path, maps_path, weights_path = (
                stem.with_suffix(".data.soco"), stem.with_suffix(".maps.soco"),
                stem.with_suffix(".weights.json"))
            data_path.write_bytes(oracles.dataset_container(grids, labels, ROAD_CLASSES))
            digest = oracles.container_digest(grids, labels, ROAD_CLASSES)
            maps_path.write_bytes(oracles.maps_container(maps, digest))
            weights_path.write_text(json.dumps({
                "n_classes": ROAD_CLASSES,
                "layers": [{"weight": wt.tolist(), "bias": b.tolist(), "activation": act}
                           for wt, b, act in layers],
            }))

            clean = np.count_nonzero(oracles.mlp_classes(layers, feats) == labels) / n
            zero_class = oracles.mlp_classes(layers, np.zeros((1, d)))[0]
            self.cases.append({
                "paths": (data_path, maps_path, weights_path),
                "clean": clean,
                "zero_share": np.count_nonzero(labels == zero_class) / n,
            })
            pick = rng.choice(n, size=len(ROAD_IMPUTE_FRACTIONS), replace=False)
            self.impute_cases[(h, w)] = [
                (feats[i], oracles.morf_masks(maps[i : i + 1].astype(np.float64), f)[0])
                for i, f in zip(pick, ROAD_IMPUTE_FRACTIONS)
            ]

    def check_program(self) -> list:
        errors = []
        for (h, w), cases in self.impute_cases.items():
            errors += check_impute(soco_perturb.impute_grid, cases, oracles.neighbor_matrix(h, w))
        return errors

    def setup(self):
        state = []
        for case in self.cases:
            data_path, maps_path, weights_path = case["paths"]
            dataset = soco_io.read_dataset(data_path)
            maps = soco_io.read_maps(maps_path, dataset)
            model = soco_models.MlpModel(soco_models.MlpWeights.from_json(weights_path))
            state.append((dataset, maps, model))
        return state

    def evaluate(self, state):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="fully masked grid")
            return [soco_metrics.road_curve(model, ds, maps) for ds, maps, model in state]

    def check(self, curves) -> list:
        errors = []
        for curve, case in zip(curves, self.cases):
            errors += check_road(curve, case["clean"], case["zero_share"],
                                 soco_metrics.DEFAULT_FRACTIONS)
        return errors


# -- run_bridge ------------------------------------------------------------------


def read_curve_files(out_dir: Path) -> dict:
    """Every curve file of a run directory, parsed as plain JSON."""
    return {p.name: json.loads(p.read_text()) for p in sorted(out_dir.glob("*.curve.json"))}


def check_bridge(curves: dict, reference: dict, zero_share: float) -> list:
    """Errors in a run's curve files: each must equal the builtin model's
    curve, deletion and insertion must hit their fixed end points, and every
    clean baseline must be 1.0."""
    errors = []
    if sorted(curves) != sorted(reference) or not curves:
        errors.append(f"curve files {sorted(curves)} != {sorted(reference)}")
    for name, curve in sorted(curves.items()):
        ref = reference.get(name, {})
        for field in ("metric_kind", "x_axis", "points", "meta"):
            if curve.get(field) != ref.get(field):
                errors.append(f"{name}: {field} differs from the builtin model's curve")
        points = {x: y for x, y in curve["points"]}
        kind = curve["metric_kind"]
        if kind == "deletion":
            want = {0.0: 1.0, 1.0: zero_share}
        elif kind == "insertion":
            want = {0.0: zero_share, 1.0: 1.0}
        else:
            want = {}
        for x, y in want.items():
            if points.get(x) != y:
                errors.append(f"{name}: point at {x} is {points.get(x)}, expected {y}")
        if kind == "completeness" and curve["meta"].get("clean_accuracy") != 1.0:
            errors.append(f"{name}: clean accuracy {curve['meta'].get('clean_accuracy')} != 1.0")
    return errors


class RunBridge(Workload):
    """`soco run` through cli.main with an external step-model server."""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        feats = rng.standard_normal((BRIDGE_SAMPLES, BRIDGE_FEATURES)).astype(np.float32)
        labels = oracles.step_classes(feats.astype(np.float64))
        aligned = np.where(labels[:, None] == 1, feats, -feats)
        raw = np.maximum(aligned + 0.5 * rng.standard_normal(feats.shape), 0.0)
        raw[np.arange(BRIDGE_SAMPLES), np.argmax(aligned, axis=1)] += 1.0  # never all zero
        maps = raw / raw.max(axis=1, keepdims=True)

        self.data_path = workdir / "bridge.data.soco"
        self.maps_path = workdir / "bridge.maps.soco"
        self.data_path.write_bytes(oracles.dataset_container(feats, labels, 2))
        digest = oracles.container_digest(feats, labels, 2)
        self.maps_path.write_bytes(oracles.maps_container(maps, digest))
        self.server = (sys.executable, str(BENCH_DIR / "step_server.py"))
        self.zero_share = np.count_nonzero(labels == 0) / BRIDGE_SAMPLES

        def config(out: str, model: dict) -> dict:
            return {
                "seed": seed,
                "output_dir": out,
                "workers": BRIDGE_WORKERS,
                "dataset": {"path": self.data_path.name},
                "model": model,
                "maps": {"source": self.maps_path.name, "variants": BRIDGE_VARIANTS},
                "metrics": BRIDGE_METRICS,
            }

        self.config_path = workdir / "bridge.json"
        self.config_path.write_text(json.dumps(
            config("bridge_out", {"external": {"command": list(self.server), "timeout_s": 60}})))
        self.out_dir = workdir / "bridge_out"
        ref_path = workdir / "builtin.json"
        ref_path.write_text(json.dumps(config("builtin_out", {"builtin": "linear_step"})))
        self._run(ref_path)
        self.reference = read_curve_files(workdir / "builtin_out")

    @staticmethod
    def _run(config_path: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = soco_cli.main(["run", "--config", str(config_path)])
        if code != 0:
            raise RuntimeError(f"soco run --config {config_path.name} exited {code}")

    def before_eval(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def setup(self):
        """Load the config, dataset and maps, and start the model server."""
        soco_experiment.load_config(self.config_path)
        dataset = soco_io.read_dataset(self.data_path)
        soco_io.read_maps(self.maps_path, dataset)
        model = soco_models.ExternalModel(soco_models.ExternalModelSpec(command=self.server))
        try:
            model.predict_probs(dataset.feature_matrix()[:1])
        finally:
            model.close()
        return None

    def evaluate(self, _state):
        self._run(self.config_path)
        return read_curve_files(self.out_dir)

    def check(self, curves) -> list:
        return check_bridge(curves, self.reference, self.zero_share)


WORKLOADS = {"validation": Validation, "road_grid": RoadGrid, "run_bridge": RunBridge}


# -- measurement -----------------------------------------------------------------


def measure(workload, seconds: float, trace: bool, trace_path: Path) -> dict:
    errors = workload.check_program()
    workload.before_eval()
    errors += workload.check(workload.evaluate(workload.setup()))  # warm-up

    tracer = Tracer() if trace else None
    setups, evals, traced_evals, layers = [], [], [], []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS * (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 1
        workload.before_eval()
        gc.collect()  # every round starts from a collected heap
        if traced:
            tracer.reset()
            tracer.install()
        try:
            times = []
            for _ in range(SETUPS_PER_ROUND):
                started = time.perf_counter()
                state = workload.setup()
                times.append(time.perf_counter() - started)
            started = time.perf_counter()
            out = workload.evaluate(state)
            eval_s = time.perf_counter() - started
        finally:
            if traced:
                tracer.uninstall()
        del state
        if traced:
            traced_evals.append(eval_s)
            layers.append(tracer.summary())
            tracer.write(trace_path)
        else:
            setups += times
            evals.append(eval_s)
        errors += workload.check(out)
        del out
        rounds += 1

    for message in dict.fromkeys(errors):
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(traced_evals) - statistics.median(evals)
            else:
                value = statistics.median(layer[name] for layer in layers)
                value = value if unit == "s" else int(round(value))
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "eval_s": {"value": statistics.median(evals), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    return {"correct": not errors, "attempted": rounds, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not Path(soco.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"soco imported from {soco.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = measure(workload, args.seconds, bool(args.trace),
                         OUT_DIR / f"trace.{args.workload}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
