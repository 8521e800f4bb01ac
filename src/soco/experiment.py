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
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, ContextManager, Optional, Union

import numpy as np

from . import parallel
from ._version import __version__
from .analysis import aggregate_trials
from .core import ConfigError, Dataset, EvalCurve, MapSet, Model, check_count, check_real
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
    DEFAULT_MASK_RATIOS,
    DEFAULT_THRESHOLDS,
    METRICS,
    align_soundness,
    check_options_fit,
    completeness_curve,
    metric_defaults,
    soundness_curve,
)
from .models import ExternalModel, ExternalModelSpec, MlpModel, MlpWeights
from .modify import ModScheme, apply_scheme
from .perturb import load_solver
from .synthetic import (
    LinearStepModel,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

SCHEME_KEYS = {"kind", "direction", "magnitude", "fraction", "seed", "renormalize"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _check_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _check_metric_options(name: str, options: dict) -> None:
    """Check metric ``name``'s option keys, and each value against the type
    of its default: a string, a list of finite reals, or a finite real."""
    where = f"metrics.{name}"
    defaults = metric_defaults(name)
    _check_keys(options, set(defaults), where)
    for key, value in options.items():
        default, at = defaults[key], f"{where}.{key}"
        if isinstance(default, str):
            _check_string(value, at)
        elif isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{at} must be a list of finite real numbers, got {value!r}")
            for i, item in enumerate(value):
                check_real(item, f"{at}[{i}]")
        else:
            check_real(value, at)


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
    seed = check_count(raw.get("seed", 0), "seed")
    workers = check_count(raw.get("workers", 1), "workers")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if "output_dir" not in raw:
        raise ConfigError("config needs an output_dir")
    output_dir = base_dir / _check_string(raw["output_dir"], "output_dir")

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
        for key, value in dataset_spec["synthetic"].items():
            check_count(value, f"dataset.synthetic.{key}")
    else:
        if not (base_dir / _check_string(dataset_spec["path"], "dataset.path")).exists():
            raise ConfigError(f"dataset file not found: {dataset_spec['path']}")

    model_spec = raw.get("model", {"builtin": "linear_step"})
    _check_keys(model_spec, {"builtin", "mlp_weights", "external"}, "model")
    if len(model_spec) != 1:
        raise ConfigError("model needs exactly one of builtin/mlp_weights/external")
    if "builtin" in model_spec and model_spec["builtin"] != "linear_step":
        raise ConfigError(f"unknown builtin model {model_spec['builtin']!r}")
    if "mlp_weights" in model_spec:
        weights = _check_string(model_spec["mlp_weights"], "model.mlp_weights")
        if not (base_dir / weights).exists():
            raise ConfigError(f"weights file not found: {weights}")
    if "external" in model_spec:
        _check_keys(
            model_spec["external"],
            {"command", "timeout_s", "batch_limit"},
            "model.external",
        )
        _external_spec(model_spec["external"])

    maps_spec = raw.get("maps", {"source": "ground_truth"})
    _check_keys(maps_spec, {"source", "variants"}, "maps")
    map_source = _check_string(maps_spec.get("source", "ground_truth"), "maps.source")
    if map_source != "ground_truth" and not (base_dir / map_source).exists():
        raise ConfigError(f"maps file not found: {map_source}")
    variant_spec = maps_spec.get("variants", {"original": []})
    if not isinstance(variant_spec, dict):
        raise ConfigError(f"maps.variants must be an object, got {variant_spec!r}")
    variants = {}
    for name, pipeline in variant_spec.items():
        if not _NAME_RE.match(name):
            raise ConfigError(f"variant name {name!r} is not filename-safe")
        if not isinstance(pipeline, list):
            raise ConfigError(f"variant {name!r} must be a list of schemes")
        schemes = []
        for entry in pipeline:
            _check_keys(entry, SCHEME_KEYS, f"variant {name!r}")
            if "kind" not in entry:
                raise ConfigError(f"scheme in variant {name!r} needs a kind")
            try:
                schemes.append(ModScheme(seed=entry.get("seed", seed), **{
                    k: v for k, v in entry.items() if k != "seed"
                }))
            except ConfigError as exc:
                raise ConfigError(f"variant {name!r}: {exc}") from None
        variants[name] = tuple(schemes)
    if not variants:
        raise ConfigError("maps.variants must not be empty")

    metrics = raw.get("metrics", {})
    if not isinstance(metrics, dict) or not metrics:
        raise ConfigError("nothing to run")
    for name, options in metrics.items():
        _check_metric_options(name, options)

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


def _external_spec(ext: dict) -> ExternalModelSpec:
    """The ``model.external`` entry as a spec, its field types checked."""
    command = ext.get("command")
    if not isinstance(command, list) or not all(isinstance(part, str) for part in command):
        raise ConfigError("model.external.command must be a list of strings")
    return ExternalModelSpec(
        command=tuple(command),
        timeout_s=check_real(ext.get("timeout_s", 30.0), "model.external.timeout_s"),
        batch_limit=check_count(ext.get("batch_limit", 64), "model.external.batch_limit"),
    )


def _model_opener(cfg: ExperimentConfig) -> Callable[[], ContextManager[Model]]:
    """What opens the run's model in each lane (see ``parallel.run_jobs``).

    A builtin or MLP model is built here, once, so a bad weights file fails
    before any lane starts, and the lanes share it.  An external model is
    one server per lane, started on first use and closed when the lane ends.
    """
    spec = cfg.model_spec
    if "external" in spec:
        ext_spec = _external_spec(spec["external"])
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
            n_samples=opts.get("n_samples", 1000),
            n_features=opts.get("n_features", 200),
            seed=opts.get("seed", cfg.seed),
        )
    return read_dataset(cfg.base_dir / cfg.dataset_spec["path"])


def evaluate_metric(
    name: str,
    options: dict,
    model: Model,
    dataset: Dataset,
    maps: MapSet,
    seed: int,
) -> EvalCurve:
    """Run one named metric with its option dict, whose keys and value types
    are checked first."""
    _check_metric_options(name, options)
    return METRICS[name](model, dataset, maps, seed=seed, **options)


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    tool_version: str
    seed: int
    dataset_digest: str
    outputs: dict  # variant -> metric -> path string
    timings_s: dict  # "variant/metric" -> seconds
    skipped: dict  # "variant/metric" -> skipped sample count


def _sweep_length(metric: str, options: dict) -> int:
    """The steps of one metric's sweep, the cost by which jobs are ordered."""
    defaults = metric_defaults(metric)
    axis = next(k for k in ("mask_ratios", "thresholds", "fractions") if k in defaults)
    return len(options.get(axis, defaults[axis]))


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute every (variant, metric) pair and write curves plus a manifest.

    The dataset is built first and each metric's options are checked against
    it (``metrics.check_options_fit``); then every variant's maps and the
    model are built, and only then is the output directory made, so a config
    or data error leaves no directory behind.  The (variant, metric) jobs
    run on up to ``cfg.workers`` lanes, capped at the usable CPUs, longest
    sweep first (``parallel.run_jobs``).  On grid data scipy is loaded
    before the lanes fork (``perturb.load_solver``), so no lane imports it
    itself.  Curve files are deterministic given the master seed, whatever
    the lane count; the manifest is written last so its presence marks a
    completed run.
    """
    out_dir = cfg.output_dir
    digest = cfg.digest()

    dataset = _build_dataset(cfg)
    for metric, options in cfg.metrics.items():
        check_options_fit(metric, options, dataset)
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
    if dataset.is_grid:
        load_solver()
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
    atomic_write(out_dir / "manifest.json", canonical_json(asdict(manifest)))
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

    original_completeness = completeness_curve(model, dataset, gt, thresholds=settings.thresholds)

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
        s_curve = soundness_curve(
            model, dataset, maps, mask_ratios=settings.mask_ratios, epsilon=settings.epsilon,
            noise_std=settings.noise_std, seed=settings.seed + trial,
        )
        c_curve = None if maps is gt else completeness_curve(
            model, dataset, maps, thresholds=settings.thresholds
        )
        return align_soundness(s_curve, settings.aligned_levels), c_curve

    # the unmodified maps' jobs are the shortest (no modification, no
    # completeness), so they go last and fill the lanes' tails
    jobs = [(trial, method) for method in VALIDATION_METHODS[::-1] for trial in range(settings.n_trials)]
    outcomes = parallel.run_jobs(
        lambda: nullcontext(trial_job), jobs, parallel.usable_lanes()
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
