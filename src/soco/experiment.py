"""Experiment configuration, orchestration, and the validation preset.

A run is described by one JSON document.  Every key is checked; anything
unrecognized is a config error, because silently ignored options are how
experiments stop meaning what their configs say.

    {
      "seed": 7,
      "output_dir": "out",
      "workers": 1,
      "dataset": {"synthetic": {"n_samples": 1000, "n_features": 200}},
      "model": {"builtin": "linear_step"},
      "maps": {
        "source": "ground_truth",
        "variants": {
          "original": [],
          "remove": [{"kind": "synth_remove", "fraction": 0.3}]
        }
      },
      "metrics": {
        "soundness": {"noise_std": 1.0},
        "completeness": {}
      }
    }

``dataset.path`` / ``maps.source: <file>`` load container files instead;
``model`` alternatives are ``{"mlp_weights": <file>}`` and ``{"external":
{"command": [...], "timeout_s": 30, "batch_limit": 64}}``.  Each variant is
a pipeline of modification schemes applied to the base maps in order.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, ContextManager, Optional, Union

import numpy as np

from . import parallel
from ._version import __version__
from .analysis import aggregate_trials
from .core import ConfigError, Dataset, EvalCurve, MapSet, Model
from .io import (
    atomic_write,
    canonical_json,
    config_digest,
    dataset_digest,
    make_dir,
    read_dataset,
    read_maps,
    write_curve,
)
from .metrics import (
    DEFAULT_FRACTIONS,
    DEFAULT_MASK_RATIOS,
    DEFAULT_THRESHOLDS,
    CompletenessConfig,
    SoundnessConfig,
    align_soundness,
    completeness_curve,
    order_based_curve,
    road_curve,
    soundness_curve,
)
from .models import ExternalModel, ExternalModelSpec, MlpModel, MlpWeights
from .modify import ModScheme, apply_scheme
from .perturb import Imputer
from .synthetic import (
    LinearStepModel,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

METRIC_KEYS = {
    "soundness": {"mask_ratios", "epsilon", "imputer", "noise_std", "weighting"},
    "completeness": {"thresholds", "imputer", "noise_std"},
    "deletion": {"order", "imputer", "noise_std", "fractions"},
    "insertion": {"order", "imputer", "noise_std", "fractions"},
    "road": {"order", "noise_std", "fractions"},
}
SCHEME_KEYS = {"kind", "direction", "magnitude", "fraction", "seed", "renormalize"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    seed: int
    output_dir: Path
    workers: int
    dataset_spec: dict
    model_spec: dict
    map_source: str  # "ground_truth" or a file path
    variants: dict  # name -> tuple of ModScheme
    metrics: dict  # metric name -> raw option dict
    base_dir: Path

    def digest(self) -> str:
        """Hash of the scientific content only.

        Output location changes where results appear, never what they are,
        so two configs differing only there share a digest (and produce
        byte-identical curve files).  The same holds for ``workers``, the
        most (variant, metric) jobs run at once, each on its own worker
        process; the count is capped at the usable CPUs and never changes a
        result.
        """
        content = {k: v for k, v in self.raw.items() if k not in ("workers", "output_dir")}
        return config_digest(content)


def parse_config(raw: dict, base_dir: Union[str, Path] = ".") -> ExperimentConfig:
    base_dir = Path(base_dir)
    _check_keys(
        raw,
        {"seed", "output_dir", "workers", "dataset", "model", "maps", "metrics"},
        "config",
    )
    seed = int(raw.get("seed", 0))
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    workers = int(raw.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if "output_dir" not in raw:
        raise ConfigError("config needs an output_dir")
    output_dir = base_dir / raw["output_dir"]

    dataset_spec = raw.get("dataset", {"synthetic": {}})
    _check_keys(dataset_spec, {"synthetic", "path"}, "dataset")
    if ("synthetic" in dataset_spec) == ("path" in dataset_spec):
        raise ConfigError("dataset needs exactly one of 'synthetic' or 'path'")
    if "synthetic" in dataset_spec:
        _check_keys(
            dataset_spec["synthetic"],
            {"n_samples", "n_features", "seed"},
            "dataset.synthetic",
        )
    else:
        if not (base_dir / dataset_spec["path"]).exists():
            raise ConfigError(f"dataset file not found: {dataset_spec['path']}")

    model_spec = raw.get("model", {"builtin": "linear_step"})
    _check_keys(model_spec, {"builtin", "mlp_weights", "external"}, "model")
    if len(model_spec) != 1:
        raise ConfigError("model needs exactly one of builtin/mlp_weights/external")
    if "builtin" in model_spec and model_spec["builtin"] != "linear_step":
        raise ConfigError(f"unknown builtin model {model_spec['builtin']!r}")
    if "mlp_weights" in model_spec and not (base_dir / model_spec["mlp_weights"]).exists():
        raise ConfigError(f"weights file not found: {model_spec['mlp_weights']}")
    if "external" in model_spec:
        _check_keys(
            model_spec["external"],
            {"command", "timeout_s", "batch_limit"},
            "model.external",
        )

    maps_spec = raw.get("maps", {"source": "ground_truth"})
    _check_keys(maps_spec, {"source", "variants"}, "maps")
    map_source = maps_spec.get("source", "ground_truth")
    if map_source != "ground_truth" and not (base_dir / map_source).exists():
        raise ConfigError(f"maps file not found: {map_source}")
    variants = {}
    for name, pipeline in maps_spec.get("variants", {"original": []}).items():
        if not _NAME_RE.match(name):
            raise ConfigError(f"variant name {name!r} is not filename-safe")
        if not isinstance(pipeline, list):
            raise ConfigError(f"variant {name!r} must be a list of schemes")
        schemes = []
        for entry in pipeline:
            _check_keys(entry, SCHEME_KEYS, f"variant {name!r}")
            if "kind" not in entry:
                raise ConfigError(f"scheme in variant {name!r} needs a kind")
            schemes.append(ModScheme(seed=entry.get("seed", seed), **{
                k: v for k, v in entry.items() if k != "seed"
            }))
        variants[name] = tuple(schemes)
    if not variants:
        raise ConfigError("maps.variants must not be empty")

    metrics = raw.get("metrics", {})
    if not isinstance(metrics, dict) or not metrics:
        raise ConfigError("nothing to run")
    for name, options in metrics.items():
        if name not in METRIC_KEYS:
            raise ConfigError(f"unknown metric {name!r}")
        _check_keys(options, METRIC_KEYS[name], f"metrics.{name}")

    return ExperimentConfig(
        raw=raw,
        seed=seed,
        output_dir=output_dir,
        workers=workers,
        dataset_spec=dataset_spec,
        model_spec=model_spec,
        map_source=map_source,
        variants=variants,
        metrics=metrics,
        base_dir=base_dir,
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw, base_dir=path.parent)


def _model_opener(cfg: ExperimentConfig) -> Callable[[], ContextManager[Model]]:
    """What opens the run's model in each lane (see ``parallel.run_jobs``).

    A builtin or MLP model is built here, once, so a bad weights file fails
    before any lane starts, and the lanes share it.  An external model is
    one server per lane, started on first use and closed when the lane ends.
    """
    spec = cfg.model_spec
    if "external" in spec:
        ext = spec["external"]
        ext_spec = ExternalModelSpec(
            command=tuple(ext["command"]),
            timeout_s=float(ext.get("timeout_s", 30.0)),
            batch_limit=int(ext.get("batch_limit", 64)),
        )
        return lambda: ExternalModel(ext_spec)
    if "builtin" in spec:
        model = LinearStepModel()
    else:
        model = MlpModel(MlpWeights.from_json(cfg.base_dir / spec["mlp_weights"]))
    return lambda: nullcontext(model)


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    if "synthetic" in cfg.dataset_spec:
        opts = cfg.dataset_spec["synthetic"]
        return generate_synthetic(
            n_samples=int(opts.get("n_samples", 1000)),
            n_features=int(opts.get("n_features", 200)),
            seed=int(opts.get("seed", cfg.seed)),
        )
    return read_dataset(cfg.base_dir / cfg.dataset_spec["path"])


def _metric_imputer(options: dict, default_kind: str = "mean") -> Imputer:
    return Imputer(
        kind=options.get("imputer", default_kind),
        noise_std=float(options.get("noise_std", 0.0)),
    )


def evaluate_metric(
    name: str,
    options: dict,
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    seed: int,
) -> EvalCurve:
    """Run one named metric with its option dict (already key-checked)."""
    if name == "soundness":
        cfg = SoundnessConfig(
            mask_ratios=tuple(options.get("mask_ratios", DEFAULT_MASK_RATIOS)),
            epsilon=float(options.get("epsilon", 0.01)),
            imputer=_metric_imputer(options),
            weighting=options.get("weighting", "attribution"),
        )
        return soundness_curve(model, dataset, maps, cfg, seed=seed)
    if name == "completeness":
        cfg = CompletenessConfig(
            thresholds=tuple(options.get("thresholds", DEFAULT_THRESHOLDS)),
            imputer=_metric_imputer(options),
        )
        return completeness_curve(model, dataset, maps, cfg, seed=seed)
    if name == "road":
        return road_curve(
            model,
            dataset,
            maps,
            order=options.get("order", "MoRF"),
            fractions=tuple(options.get("fractions", DEFAULT_FRACTIONS)),
            noise_std=float(options.get("noise_std", 0.0)),
            seed=seed,
        )
    if name in ("deletion", "insertion"):
        return order_based_curve(
            model,
            dataset,
            maps,
            mode=name,
            order=options.get("order", "MoRF"),
            imputer=_metric_imputer(options, default_kind="zero"),
            fractions=tuple(options.get("fractions", DEFAULT_FRACTIONS)),
            seed=seed,
        )
    raise ConfigError(f"unknown metric {name!r}")


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    tool_version: str
    seed: int
    dataset_digest: str
    outputs: dict  # variant -> metric -> path string
    timings_s: dict  # "variant/metric" -> seconds
    skipped: dict  # "variant/metric" -> skipped sample count

    def to_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "dataset_digest": self.dataset_digest,
            "outputs": self.outputs,
            "timings_s": self.timings_s,
            "skipped": self.skipped,
        }


def _sweep_length(metric: str, options: dict) -> int:
    """The steps of one metric's sweep, the cost by which jobs are ordered."""
    if metric == "soundness":
        return len(options.get("mask_ratios", DEFAULT_MASK_RATIOS))
    if metric == "completeness":
        return len(options.get("thresholds", DEFAULT_THRESHOLDS))
    return len(options.get("fractions", DEFAULT_FRACTIONS))


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute every (variant, metric) pair and write curves plus a manifest.

    The dataset, every variant's maps and the model are built first; only
    then is the output directory made.  The (variant, metric) jobs run on up
    to ``cfg.workers`` lanes, capped at the usable CPUs, longest sweep first
    (``parallel.run_jobs``).  Curve files are deterministic given the master
    seed, whatever the lane count; the manifest is written last so its
    presence marks a completed run.
    """
    out_dir = cfg.output_dir
    digest = cfg.digest()

    dataset = _build_dataset(cfg)
    open_model = _model_opener(cfg)
    if cfg.map_source == "ground_truth":
        base_maps = ground_truth_attribution(dataset)
    else:
        base_maps = read_maps(cfg.base_dir / cfg.map_source, dataset)
    needs_oracle = any(
        s.kind == "synth_introduce" for pipe in cfg.variants.values() for s in pipe
    )
    oracle = oracle_info(dataset) if needs_oracle else None
    variant_maps = {}
    for variant, pipeline in sorted(cfg.variants.items()):
        maps = base_maps
        for scheme in pipeline:
            maps = apply_scheme(maps, scheme, oracle)
        variant_maps[variant] = maps
    make_dir(out_dir)

    def evaluate(model: Model, job: tuple) -> tuple:
        variant, metric = job
        started = time.perf_counter()
        curve = evaluate_metric(
            metric, cfg.metrics[metric], model, dataset, variant_maps[variant], cfg.seed
        )
        return curve, time.perf_counter() - started

    @contextmanager
    def open_lane():
        with open_model() as model:
            yield partial(evaluate, model)

    jobs = sorted(
        ((variant, metric) for variant in variant_maps for metric in sorted(cfg.metrics)),
        key=lambda job: -_sweep_length(job[1], cfg.metrics[job[1]]),
    )
    outputs: dict = {variant: {} for variant in variant_maps}
    timings: dict = {}
    skipped: dict = {}
    for (variant, metric), (curve, seconds) in zip(
        jobs, parallel.run_jobs(open_lane, jobs, cfg.workers)
    ):
        path = out_dir / f"{variant}.{metric}.curve.json"
        write_curve(replace(curve, config_digest=digest), path)
        outputs[variant][metric] = str(path)
        timings[f"{variant}/{metric}"] = seconds
        skipped[f"{variant}/{metric}"] = int(curve.meta.get("skipped", 0))

    manifest = RunManifest(
        config_digest=digest,
        tool_version=__version__,
        seed=cfg.seed,
        dataset_digest=dataset_digest(dataset),
        outputs=outputs,
        timings_s=timings,
        skipped=skipped,
    )
    atomic_write(out_dir / "manifest.json", canonical_json(manifest.to_dict()))
    return manifest


# -- validation preset --------------------------------------------------------

ALIGNED_LEVELS = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)


@dataclass(frozen=True)
class ValidationSettings:
    """The synthetic validation pipeline, with defaults frozen after the
    ordering-stability sweep (scripts/sweep_modifications.py)."""

    n_samples: int = 1000
    n_features: int = 200
    seed: int = 7
    n_trials: int = 100
    remove_fraction: float = 0.3
    introduce_fraction: float = 0.3
    introduce_magnitude: float = 1.0
    noise_std: float = 1.0
    epsilon: float = 0.01
    mask_ratios: tuple = DEFAULT_MASK_RATIOS
    thresholds: tuple = DEFAULT_THRESHOLDS
    aligned_levels: tuple = ALIGNED_LEVELS


@dataclass(frozen=True)
class ValidationResult:
    """Per-method aggregates over the validation trials.

    aligned_soundness maps method -> {level: (mean, std, count)} built from
    per-trial curves interpolated at the aligned accuracy levels; methods
    whose curves never reach a level contribute nothing there.
    completeness maps method -> TrialSummary over the threshold grid.
    """

    settings: ValidationSettings
    aligned_soundness: dict
    completeness: dict
    clean_accuracy: float


VALIDATION_METHODS = ("original", "remove", "introduce")


def run_validation(
    settings: ValidationSettings = ValidationSettings(),
    out_dir: Optional[Union[str, Path]] = None,
) -> ValidationResult:
    """Modify ground-truth maps many times and score every variant.

    One fixed dataset; each trial redraws the removal and introduction
    modifications (and the soundness imputation noise) from trial-keyed
    streams.  Completeness runs noiseless, so the unmodified maps'
    completeness curve is the same in every trial and is computed once.
    The (trial, method) jobs run on the usable CPUs (``parallel.run_jobs``);
    each draws only from its own streams, so the result does not depend on
    the CPU count.  Returns aggregate orderings; optionally writes
    per-method summaries under ``out_dir``.
    """
    dataset = generate_synthetic(settings.n_samples, settings.n_features, settings.seed)
    model = LinearStepModel()
    gt = ground_truth_attribution(dataset)
    oracle = oracle_info(dataset)

    s_cfg = SoundnessConfig(
        mask_ratios=settings.mask_ratios,
        epsilon=settings.epsilon,
        imputer=Imputer(kind="mean", noise_std=settings.noise_std),
    )
    c_cfg = CompletenessConfig(
        thresholds=settings.thresholds, imputer=Imputer(kind="mean")
    )
    original_completeness = completeness_curve(model, dataset, gt, c_cfg)

    def trial_job(job: tuple) -> tuple:
        """Aligned soundness and, for modified maps, the completeness curve."""
        trial, method = job
        if method == "original":
            maps = gt
        elif method == "remove":
            maps = apply_scheme(
                gt,
                ModScheme(kind="synth_remove", fraction=settings.remove_fraction, seed=trial),
            )
        else:
            maps = apply_scheme(
                gt,
                ModScheme(
                    kind="synth_introduce",
                    direction="introduce",
                    fraction=settings.introduce_fraction,
                    magnitude=settings.introduce_magnitude,
                    seed=trial,
                ),
                oracle,
            )
        s_curve = soundness_curve(model, dataset, maps, s_cfg, seed=settings.seed + trial)
        c_curve = None if maps is gt else completeness_curve(model, dataset, maps, c_cfg)
        return align_soundness(s_curve, settings.aligned_levels), c_curve

    # the unmodified maps' jobs are the shortest (no modification, no
    # completeness), so they go last and fill the lanes' tails
    jobs = [(trial, method) for method in VALIDATION_METHODS[::-1] for trial in range(settings.n_trials)]
    outcomes = parallel.run_jobs(
        lambda: nullcontext(trial_job), jobs, parallel._usable_cpus()
    )
    aligned: dict = {m: {lvl: [] for lvl in settings.aligned_levels} for m in VALIDATION_METHODS}
    completeness_curves: dict = {m: [] for m in VALIDATION_METHODS}
    for (_, method), (levels, c_curve) in zip(jobs, outcomes):
        for level, value in levels:
            aligned[method][level].append(value)
        completeness_curves[method].append(original_completeness if c_curve is None else c_curve)
    clean_accuracy = (
        float(original_completeness.meta["clean_accuracy"]) if settings.n_trials else None
    )

    grid = sorted(settings.thresholds)
    summary_soundness = {
        method: {
            level: (
                float(np.mean(vals)),
                float(np.std(vals, ddof=1)) if len(vals) > 1 else float("nan"),
                len(vals),
            )
            for level, vals in per_level.items()
            if vals
        }
        for method, per_level in aligned.items()
    }
    summary_completeness = {
        method: aggregate_trials(curves, grid)
        for method, curves in completeness_curves.items()
    }
    result = ValidationResult(
        settings=settings,
        aligned_soundness=summary_soundness,
        completeness=summary_completeness,
        clean_accuracy=clean_accuracy,
    )
    if out_dir is not None:
        _write_validation(result, Path(out_dir))
    return result


def _write_validation(result: ValidationResult, out_dir: Path) -> None:
    from .io import emit_plot_data  # deferred: io does not depend on experiment

    make_dir(out_dir)
    payload = {
        "settings": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(result.settings).items()
        },
        "clean_accuracy": result.clean_accuracy,
        "aligned_soundness": {
            method: {str(level): list(stats) for level, stats in levels.items()}
            for method, levels in result.aligned_soundness.items()
        },
        "completeness_mean": {
            method: {
                "x": summary.x_grid.tolist(),
                "mean": summary.mean.tolist(),
                "std": summary.std.tolist(),
                "n": summary.counts.tolist(),
            }
            for method, summary in result.completeness.items()
        },
    }
    atomic_write(out_dir / "validation_summary.json", canonical_json(payload))
    for method, summary in result.completeness.items():
        emit_plot_data(summary, out_dir / f"completeness.{method}.csv", format="csv")
