"""Experiment configuration, orchestration, and the validation preset.

A run is described by one JSON document.  Every key is checked; anything
unrecognized is a config error, because silently ignored options are how
experiments stop meaning what their configs say.

    {
      "seed": 7,
      "output_dir": "out",
      "workers": 1,
      "dataset": {"synthetic": {"n_samples": 500}},
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
{"command": [...]}}``, which may also set ``timeout_s`` and ``batch_limit``.
Each variant is a pipeline of modification schemes applied to the base maps
in order.  A key left out is not passed on, so it takes the default of the
library call it feeds: ``generate_synthetic`` (whose ``seed`` is the run's
seed), ``ExternalModelSpec``, ``ModScheme`` or the metric function.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, ContextManager, Optional, Union

from . import parallel
from ._version import __version__
from .analysis import aggregate_trials
from .core import ConfigError, Dataset, Model, check_count, check_keys
from .io import (
    atomic_write,
    canonical_json,
    config_digest,
    dataset_digest,
    emit_plot_data,
    make_dir,
    read_dataset,
    read_maps,
    write_curve,
)
from .metrics import (
    DEFAULT_MASK_RATIOS,
    DEFAULT_THRESHOLDS,
    METRICS,
    check_maps,
    check_options,
    completeness_curve,
    fill_kind,
    mask_counts,
    soundness_curve,
)
from .models import BridgeProcessFailed, ExternalModel, ExternalModelSpec, MlpModel, MlpWeights
from .modify import SCHEME_KINDS, ModScheme, apply_scheme, scheme_rules
from .perturb import load_solver
from .synthetic import (
    DEFAULT_N_FEATURES,
    DEFAULT_N_SAMPLES,
    LinearStepModel,
    check_synthetic,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

SCHEME_KEYS = {"kind"}.union(*map(scheme_rules, SCHEME_KINDS))
SYNTHETIC_KEYS = set(inspect.signature(generate_synthetic).parameters)
EXTERNAL_KEYS = {field.name for field in fields(ExternalModelSpec)}


def _check_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    seed: int
    output_dir: Path
    workers: int
    dataset_spec: dict
    model_spec: dict  # the model entry, an external one as its ExternalModelSpec
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
    check_keys(
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
    check_keys(dataset_spec, {"synthetic", "path"}, "dataset")
    if ("synthetic" in dataset_spec) == ("path" in dataset_spec):
        raise ConfigError("dataset needs exactly one of 'synthetic' or 'path'")
    if "synthetic" in dataset_spec:
        check_keys(dataset_spec["synthetic"], SYNTHETIC_KEYS, "dataset.synthetic")
    else:
        if not (base_dir / _check_string(dataset_spec["path"], "dataset.path")).exists():
            raise ConfigError(f"dataset file not found: {dataset_spec['path']}")

    model_spec = raw.get("model", {"builtin": "linear_step"})
    check_keys(model_spec, {"builtin", "mlp_weights", "external"}, "model")
    if len(model_spec) != 1:
        raise ConfigError("model needs exactly one of builtin/mlp_weights/external")
    if "builtin" in model_spec and model_spec["builtin"] != "linear_step":
        raise ConfigError(f"unknown builtin model {model_spec['builtin']!r}")
    if "mlp_weights" in model_spec:
        weights = _check_string(model_spec["mlp_weights"], "model.mlp_weights")
        if not (base_dir / weights).exists():
            raise ConfigError(f"weights file not found: {weights}")
    if "external" in model_spec:
        check_keys(model_spec["external"], EXTERNAL_KEYS, "model.external")
        model_spec = {"external": _external_spec(model_spec["external"])}

    maps_spec = raw.get("maps", {"source": "ground_truth"})
    check_keys(maps_spec, {"source", "variants"}, "maps")
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
            check_keys(entry, SCHEME_KEYS, f"variant {name!r}")
            if "kind" not in entry:
                raise ConfigError(f"scheme in variant {name!r} needs a kind")
            try:
                schemes.append(ModScheme(**{"seed": seed, **entry}))
            except ConfigError as exc:
                raise ConfigError(f"variant {name!r}: {exc}") from None
        variants[name] = tuple(schemes)
    if not variants:
        raise ConfigError("maps.variants must not be empty")

    metrics = raw.get("metrics", {})
    if not isinstance(metrics, dict) or not metrics:
        raise ConfigError("nothing to run")
    for name, options in metrics.items():
        check_options(name, options)

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
    """The ``model.external`` entry as a spec; an error names its key."""
    command = ext.get("command")
    if not isinstance(command, list) or not all(isinstance(part, str) for part in command):
        raise ConfigError("model.external.command must be a list of strings")
    try:
        return ExternalModelSpec(**{**ext, "command": tuple(command)})
    except ConfigError as exc:
        raise ConfigError(f"model.external.{exc}") from None


def _model_opener(cfg: ExperimentConfig, dataset: Dataset) -> Callable[[], ContextManager[Model]]:
    """What opens the run's model in each lane (see ``parallel.run_jobs``).

    A builtin or MLP model is built here, once, so a bad weights file or a
    network that does not fit ``dataset`` (``MlpWeights.check_fit``) fails
    before any lane starts, and the lanes share it.  An external model is
    one server per lane, started on first use and closed when the lane ends;
    a launch command that names no executable fails here, before any lane.
    """
    spec = cfg.model_spec
    if "external" in spec:
        ext_spec = spec["external"]
        if shutil.which(ext_spec.command[0]) is None:
            raise BridgeProcessFailed(
                f"could not launch model server: no executable {ext_spec.command[0]!r}"
            )
        return lambda: ExternalModel(ext_spec)
    weights = None if "builtin" in spec else cfg.base_dir / spec["mlp_weights"]
    model = in_process_model(dataset, weights)
    return lambda: nullcontext(model)


def in_process_model(dataset: Dataset, mlp_weights: Optional[Union[str, Path]] = None) -> Model:
    """The builtin step model, or the MLP read from ``mlp_weights`` once it is
    checked to fit ``dataset`` (``MlpWeights.check_fit``): the model of
    ``soco eval`` and of a run without an external model."""
    if mlp_weights is None:
        return LinearStepModel()
    weights = MlpWeights.from_json(mlp_weights)
    weights.check_fit(dataset)
    return MlpModel(weights)


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    """The run's dataset; a synthetic one's error names its key."""
    if "synthetic" in cfg.dataset_spec:
        try:
            return generate_synthetic(**{"seed": cfg.seed, **cfg.dataset_spec["synthetic"]})
        except ConfigError as exc:
            raise ConfigError(f"dataset.synthetic.{exc}") from None
    return read_dataset(cfg.base_dir / cfg.dataset_spec["path"])


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    tool_version: str
    seed: int
    dataset_digest: str
    outputs: dict  # variant -> metric -> path string
    timings_s: dict  # "variant/metric" -> seconds
    skipped: dict  # "variant/metric" -> skipped sample count


def _sweep_length(options: dict) -> int:
    """The steps of a metric's sweep, given its checked options: the cost by
    which jobs are ordered."""
    axis = next(k for k in ("mask_ratios", "thresholds", "fractions") if k in options)
    return len(options[axis])


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute every (variant, metric) pair and write curves plus a manifest.

    The dataset is built first and each metric's options are checked against
    it (``metrics.check_options``); then the model is built (an MLP must fit
    the dataset, an external model's command must name an executable) and
    every variant's maps are built and checked as the metrics check them
    (``metrics.check_maps``), and only then is the output directory made,
    so a config, data or launch error leaves no directory behind.  The
    (variant, metric) jobs run on up to ``cfg.workers`` lanes, capped at the
    usable CPUs, longest sweep first (``parallel.run_jobs``).  When a metric
    fills with the neighbor solve (``metrics.fill_kind``), scipy's LAPACK
    extension, about 3 MiB, is loaded before the lanes fork
    (``perturb.load_solver``), so no lane loads it itself; other runs never
    load scipy.  Curve files are deterministic given the master seed,
    whatever the lane count; the manifest is written last so its presence
    marks a completed run.
    """
    out_dir = cfg.output_dir
    digest = cfg.digest()

    dataset = _build_dataset(cfg)
    options = {metric: check_options(metric, opts, dataset) for metric, opts in cfg.metrics.items()}
    open_model = _model_opener(cfg, dataset)
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
        check_maps(dataset, maps)
        variant_maps[variant] = maps
    if any(fill_kind(metric, opts, dataset) == "noisy_linear" for metric, opts in options.items()):
        load_solver()
    make_dir(out_dir)

    def evaluate(model: Model, job: tuple) -> tuple:
        variant, metric = job
        started = time.perf_counter()
        curve = METRICS[metric](
            model, dataset, variant_maps[variant], seed=cfg.seed, **options[metric]
        )
        return curve, time.perf_counter() - started

    @contextmanager
    def open_lane():
        with open_model() as model:
            yield partial(evaluate, model)

    jobs = sorted(
        ((variant, metric) for variant in variant_maps for metric in sorted(cfg.metrics)),
        key=lambda job: -_sweep_length(options[job[1]]),
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

    n_samples: int = DEFAULT_N_SAMPLES
    n_features: int = DEFAULT_N_FEATURES
    seed: int = 7
    n_trials: int = 100
    remove_fraction: float = 0.3
    introduce_fraction: float = 0.3
    introduce_magnitude: float = 1.0
    noise_std: float = 1.0
    thresholds: tuple = DEFAULT_THRESHOLDS


@dataclass(frozen=True)
class ValidationResult:
    """Per-method aggregates over the validation trials.

    aligned_soundness maps method -> {level: (mean, std, count)}, the
    ``aggregate_trials`` summary of its soundness curves at ALIGNED_LEVELS,
    holding only the levels that at least one trial reached.
    completeness maps method -> TrialSummary over the threshold grid.
    """

    settings: ValidationSettings
    aligned_soundness: dict
    completeness: dict
    clean_accuracy: float


VALIDATION_METHODS = ("original", "remove", "introduce")


def _check_validation(settings: ValidationSettings) -> dict:
    """Check every setting ``run_validation`` reads and return the
    modification scheme of each modified method, which its jobs reseed by
    trial.  The checks are the trial count, the synthetic world's size and
    seed (``check_synthetic``), the completeness thresholds, the schemes'
    options, the soundness noise, and that soundness's default mask ratios
    each leave a feature unmasked.  So a bad setting fails before the world
    is built or a lane forked, with the message the step that reads it
    would give."""
    if check_count(settings.n_trials, "n_trials") < 2:
        raise ConfigError(f"n_trials must be at least 2, got {settings.n_trials}")
    check_synthetic(settings.n_samples, settings.n_features, settings.seed)
    check_options("completeness", {"thresholds": settings.thresholds})
    schemes = {
        "remove": ModScheme("synth_remove", fraction=settings.remove_fraction),
        "introduce": ModScheme(
            "synth_introduce",
            fraction=settings.introduce_fraction,
            magnitude=settings.introduce_magnitude,
        ),
    }
    check_options("soundness", {"noise_std": settings.noise_std})
    mask_counts(DEFAULT_MASK_RATIOS, settings.n_features)
    return schemes


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
    per-method summaries under ``out_dir``.  ``n_trials`` must be at least
    two, so that each method has a spread to aggregate.
    """
    schemes = _check_validation(settings)
    dataset = generate_synthetic(settings.n_samples, settings.n_features, settings.seed)
    model = LinearStepModel()
    gt = ground_truth_attribution(dataset)
    oracle = oracle_info(dataset)

    original_completeness = completeness_curve(model, dataset, gt, thresholds=settings.thresholds)

    def trial_job(job: tuple) -> tuple:
        """The soundness curve without its meta and, for modified maps, the completeness curve."""
        trial, method = job
        if method == "original":
            maps = gt
        else:
            scheme = schemes[method]
            trial_scheme = ModScheme(scheme.kind, **{**scheme.options, "seed": trial})
            maps = apply_scheme(gt, trial_scheme, oracle)
        s_curve = soundness_curve(
            model, dataset, maps, noise_std=settings.noise_std, seed=settings.seed + trial
        )
        c_curve = None if maps is gt else completeness_curve(
            model, dataset, maps, thresholds=settings.thresholds
        )
        return replace(s_curve, meta={}), c_curve

    # the unmodified maps' jobs are the shortest (no modification, no
    # completeness), so they go last and fill the lanes' tails
    jobs = [(trial, method) for method in VALIDATION_METHODS[::-1] for trial in range(settings.n_trials)]
    outcomes = parallel.run_jobs(
        lambda: nullcontext(trial_job), jobs, parallel.usable_lanes()
    )
    soundness_curves: dict = {m: [] for m in VALIDATION_METHODS}
    completeness_curves: dict = {m: [] for m in VALIDATION_METHODS}
    for (_, method), (s_curve, c_curve) in zip(jobs, outcomes):
        soundness_curves[method].append(s_curve)
        completeness_curves[method].append(original_completeness if c_curve is None else c_curve)
    clean_accuracy = float(original_completeness.meta["clean_accuracy"])

    summary_soundness = {}
    for method, curves in soundness_curves.items():
        summary = aggregate_trials(curves, ALIGNED_LEVELS)
        summary_soundness[method] = {
            float(level): (float(mean), float(std), int(count))
            for level, mean, std, count in zip(
                summary.x_grid, summary.mean, summary.std, summary.counts
            )
            if count
        }
    grid = sorted(settings.thresholds)
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


def _json_floats(values) -> list:
    """``values`` with each NaN (a spread of fewer than two trials) as None,
    written as JSON's null, as ``emit_plot_data`` writes it."""
    return [None if isinstance(v, float) and math.isnan(v) else v for v in values]


def _write_validation(result: ValidationResult, out_dir: Path) -> None:
    make_dir(out_dir)
    payload = {
        "settings": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(result.settings).items()
        },
        "clean_accuracy": result.clean_accuracy,
        "aligned_soundness": {
            method: {str(level): _json_floats(stats) for level, stats in levels.items()}
            for method, levels in result.aligned_soundness.items()
        },
        "completeness_mean": {
            method: {
                "x": summary.x_grid.tolist(),
                "mean": _json_floats(summary.mean.tolist()),
                "std": _json_floats(summary.std.tolist()),
                "n": summary.counts.tolist(),
            }
            for method, summary in result.completeness.items()
        },
    }
    atomic_write(out_dir / "validation_summary.json", canonical_json(payload))
    for method, summary in result.completeness.items():
        emit_plot_data(summary, out_dir / f"completeness.{method}.csv", format="csv")
