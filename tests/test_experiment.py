import functools
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import sys
from unittest import mock

import numpy as np
import pytest

from soco import (
    ConfigError,
    MapSet,
    ModScheme,
    ValidationSettings,
    experiment,
    generate_synthetic,
    ground_truth_attribution,
    load_config,
    parallel,
    parse_config,
    run_experiment,
    run_validation,
    write_dataset,
    write_maps,
)
from soco.metrics import METRICS, metric_defaults
from soco.io import canonical_json, dataset_digest
from soco.models import ExternalModelSpec

pytestmark = pytest.mark.usefixtures("no_leftovers")


def base_config(**overrides):
    cfg = {
        "seed": 3,
        "output_dir": "out",
        "dataset": {"synthetic": {"n_samples": 20, "n_features": 80}},
        "model": {"builtin": "linear_step"},
        "maps": {
            "source": "ground_truth",
            "variants": {"original": []},
        },
        "metrics": {"deletion": {"fractions": [0.0, 0.5, 1.0]}},
    }
    cfg.update(overrides)
    return cfg


# -- config parsing -----------------------------------------------------------------


def test_parse_round_trip_fields(tmp_path):
    cfg = parse_config(base_config(), base_dir=tmp_path)
    assert cfg.seed == 3
    assert cfg.workers == 1
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.map_source == "ground_truth"
    assert set(cfg.variants) == {"original"}
    assert set(cfg.metrics) == {"deletion"}


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['extra'\]"):
        parse_config(base_config(extra=1))


def test_empty_metrics_has_nothing_to_run():
    with pytest.raises(ConfigError, match="nothing to run"):
        parse_config(base_config(metrics={}))


def test_unknown_metric_and_option():
    with pytest.raises(ConfigError, match="unknown metric"):
        parse_config(base_config(metrics={"fidelity": {}}))
    with pytest.raises(ConfigError, match="metrics.soundness"):
        parse_config(base_config(metrics={"soundness": {"order": "MoRF"}}))


METRIC_OPTION_KEYS = {
    "soundness": {"mask_ratios", "epsilon", "imputer", "noise_std", "weighting"},
    "completeness": {"thresholds", "imputer", "noise_std"},
    "deletion": {"order", "imputer", "noise_std", "fractions"},
    "insertion": {"order", "imputer", "noise_std", "fractions"},
    "road": {"order", "noise_std", "fractions"},
}


@pytest.mark.parametrize("metric", sorted(METRIC_OPTION_KEYS))
def test_each_metric_takes_exactly_its_option_keys(metric):
    keys = METRIC_OPTION_KEYS[metric]
    assert set(metric_defaults(metric)) == keys
    parse_config(base_config(metrics={metric: metric_defaults(metric)}))
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['seed'\] in metrics.{metric}"):
        parse_config(base_config(metrics={metric: {"seed": 1}}))


def test_integer_options_are_written_as_floats(small_dataset, gt_maps, step_model):
    options = {"noise_std": 1, "epsilon": 1, "mask_ratios": [0.5]}
    curve = METRICS["soundness"](step_model, small_dataset, gt_maps, **options)
    assert curve.meta["noise_std"] == 1.0 and isinstance(curve.meta["noise_std"], float)
    assert isinstance(curve.meta["epsilon"], float)


def test_dataset_needs_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base_config(dataset={}))
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(
            base_config(dataset={"synthetic": {}, "path": "x.soco"}), tmp_path
        )
    with pytest.raises(ConfigError, match="not found"):
        parse_config(base_config(dataset={"path": "missing.soco"}), tmp_path)


def test_missing_output_dir():
    cfg = base_config()
    del cfg["output_dir"]
    with pytest.raises(ConfigError, match="output_dir"):
        parse_config(cfg)


def test_variant_name_must_be_filename_safe():
    with pytest.raises(ConfigError, match="filename-safe"):
        parse_config(
            base_config(
                maps={"source": "ground_truth", "variants": {"bad name!": []}}
            )
        )


def test_scheme_entries_are_validated():
    with pytest.raises(ConfigError, match="needs a kind"):
        parse_config(
            base_config(
                maps={"source": "ground_truth", "variants": {"x": [{"fraction": 0.2}]}}
            )
        )
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            base_config(
                maps={
                    "source": "ground_truth",
                    "variants": {"x": [{"kind": "constant", "oops": 1}]},
                }
            )
        )
    with pytest.raises(ConfigError, match="must be a list"):
        parse_config(
            base_config(
                maps={"source": "ground_truth", "variants": {"x": {"kind": "constant"}}}
            )
        )


def test_scheme_seed_defaults_to_master_seed():
    cfg = parse_config(
        base_config(
            maps={
                "source": "ground_truth",
                "variants": {"x": [{"kind": "synth_remove", "fraction": 0.2}]},
            }
        )
    )
    assert cfg.variants["x"][0].options["seed"] == 3


def test_scheme_entries_as_the_bridge_bench_writes_them_parse():
    # a synthetic kind may repeat the direction its name states
    cfg = parse_config(base_config(maps={"variants": {
        "original": [],
        "remove": [{"kind": "synth_remove", "fraction": 0.3}],
        "introduce": [
            {"kind": "synth_introduce", "direction": "introduce", "fraction": 0.3, "magnitude": 1.0}
        ],
    }}))
    assert cfg.variants["introduce"] == (
        ModScheme(kind="synth_introduce", fraction=0.3, magnitude=1.0, seed=3),
    )


def test_config_keys_left_out_take_the_library_defaults():
    command = [sys.executable, "server.py"]
    cfg = parse_config(base_config(model={"external": {"command": command}}))
    assert cfg.model_spec["external"] == ExternalModelSpec(tuple(command))
    given = {"command": command, "timeout_s": 5, "batch_limit": 3}
    cfg = parse_config(base_config(model={"external": given}))
    assert cfg.model_spec["external"] == ExternalModelSpec(tuple(command), 5, 3)
    # a synthetic dataset's seed is the run's seed unless given
    cfg = parse_config(base_config(dataset={"synthetic": {}}))
    dataset = experiment._build_dataset(cfg)
    assert dataset_digest(dataset) == dataset_digest(generate_synthetic(seed=3))


@pytest.mark.parametrize(
    "where, given",
    [
        ("dataset.synthetic", {"n_samples": 20, "n_features": 80, "seed": 1}),
        ("model.external", {"command": ["server"], "timeout_s": 5, "batch_limit": 3}),
    ],
)
def test_library_entries_take_exactly_their_calls_keys(where, given):
    # each entry's keys are its library call's parameters, no more, no fewer
    section, entry = where.split(".")
    parse_config(base_config(**{section: {entry: given}}))
    with pytest.raises(ConfigError) as info:
        parse_config(base_config(**{section: {entry: {**given, "extra": 1}}}))
    assert str(info.value) == f"unknown key(s) ['extra'] in {where}"


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_digest_ignores_execution_keys():
    a = parse_config(base_config())
    b = parse_config(base_config(workers=8, output_dir="elsewhere"))
    c = parse_config(base_config(seed=4))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# -- running ------------------------------------------------------------------------


def test_run_experiment_manifest_and_files(tmp_path):
    cfg = parse_config(base_config(), base_dir=tmp_path)
    manifest = run_experiment(cfg)
    out = tmp_path / "out"
    assert manifest.config_digest == cfg.digest()
    assert manifest.seed == 3
    assert manifest.outputs["original"]["deletion"] == str(
        out / "original.deletion.curve.json"
    )
    assert (out / "original.deletion.curve.json").exists()
    assert manifest.skipped["original/deletion"] == 0
    assert manifest.timings_s["original/deletion"] >= 0
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["config_digest"] == cfg.digest()
    assert saved["dataset_digest"] == dataset_digest(
        generate_synthetic(20, 80, seed=3)
    )
    curve = json.loads((out / "original.deletion.curve.json").read_text())
    assert curve["config_digest"] == cfg.digest()


def test_rerun_is_byte_identical(tmp_path):
    first = parse_config(base_config(output_dir="a"), base_dir=tmp_path)
    second = parse_config(base_config(output_dir="b"), base_dir=tmp_path)
    run_experiment(first)
    run_experiment(second)
    a = (tmp_path / "a" / "original.deletion.curve.json").read_bytes()
    b = (tmp_path / "b" / "original.deletion.curve.json").read_bytes()
    assert a == b


def test_worker_count_never_changes_results(tmp_path):
    serial = parse_config(base_config(output_dir="w1"), base_dir=tmp_path)
    pooled = parse_config(base_config(output_dir="w3", workers=3), base_dir=tmp_path)
    run_experiment(serial)
    run_experiment(pooled)
    a = (tmp_path / "w1" / "original.deletion.curve.json").read_bytes()
    b = (tmp_path / "w3" / "original.deletion.curve.json").read_bytes()
    assert a == b


def test_lane_warnings_reach_the_caller(tmp_path):
    dataset = generate_synthetic(20, 80, seed=3)
    values = ground_truth_attribution(dataset).values.copy()
    values[[2, 7]] = 0.0
    write_dataset(dataset, tmp_path / "data.soco")
    write_maps(MapSet(values), tmp_path / "maps.soco", dataset=dataset)
    skipped = {}
    for workers in (1, 2):
        cfg = parse_config(
            base_config(
                output_dir=f"w{workers}",
                workers=workers,
                dataset={"path": "data.soco"},
                maps={"source": "maps.soco", "variants": {"original": [], "again": []}},
                metrics={"soundness": {"mask_ratios": [0.8, 0.5, 0.2]}, "deletion": {}},
            ),
            base_dir=tmp_path,
        )
        with pytest.warns(UserWarning, match="skipping 2 all-zero") as record:
            skipped[workers] = run_experiment(cfg).skipped
        assert len([w for w in record if "all-zero" in str(w.message)]) == 2
    assert skipped[1] == skipped[2] == {
        "again/deletion": 0,
        "again/soundness": 2,
        "original/deletion": 0,
        "original/soundness": 2,
    }


def log_pid(log, function):
    """``function`` that first appends its process id to ``log``."""

    @functools.wraps(function)  # keeps the signature that metric_defaults reads
    def logged(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return function(*args, **kwargs)

    return logged


def test_forked_runs_never_run_a_job_in_the_caller(tmp_path, monkeypatch):
    # the caller holds every result; a job of its own would add the job's
    # peak memory to it
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    log = tmp_path / "jobs.log"
    monkeypatch.setitem(METRICS, "deletion", log_pid(log, METRICS["deletion"]))
    cfg = base_config(
        workers=2,
        maps={"source": "ground_truth", "variants": {"original": [], "again": []}},
    )
    run_experiment(parse_config(cfg, base_dir=tmp_path))
    pids = log.read_text().split()
    assert len(pids) == 2 and str(os.getpid()) not in pids

    log.unlink()
    monkeypatch.setattr(experiment, "soundness_curve", log_pid(log, experiment.soundness_curve))
    run_validation(ValidationSettings(n_samples=40, n_features=100, n_trials=2))
    pids = log.read_text().split()
    assert len(pids) == 6 and str(os.getpid()) not in pids


@pytest.mark.parametrize("n_trials", [0, 1])
def test_validation_with_fewer_than_two_trials_starts_no_job(monkeypatch, n_trials):
    monkeypatch.setattr(parallel, "run_jobs", mock.Mock(side_effect=AssertionError("a job ran")))
    with pytest.raises(ConfigError, match=f"^n_trials must be at least 2, got {n_trials}$"):
        run_validation(ValidationSettings(n_samples=40, n_features=100, n_trials=n_trials))


@pytest.mark.parametrize("field, value, message", [
    ("n_samples", 0, "n_samples must be at least 1, got 0"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("thresholds", (0.5, 0.7),
     "metrics.completeness.thresholds must be a non-empty list strictly descending inside (0, 1)"),
    ("remove_fraction", 2.0, "fraction must lie in [0, 1]"),
    ("introduce_fraction", -0.5, "fraction must lie in [0, 1]"),
    ("introduce_magnitude", math.nan, "magnitude must be a finite real number, got nan"),
    ("noise_std", -1.0, "metrics.soundness.noise_std must be non-negative"),
    ("n_features", 50, "mask ratio 0.99 masks every feature of a 50-feature map"),
])
def test_a_bad_validation_setting_fails_before_the_world_is_built(
    monkeypatch, field, value, message
):
    # each message is the one the step that reads the setting gives; only
    # the check moved before the synthetic world, the completeness of the
    # unmodified maps and the trial lanes
    monkeypatch.setattr(
        experiment, "generate_synthetic", mock.Mock(side_effect=AssertionError("world built"))
    )
    settings = ValidationSettings(**{"n_samples": 40, "n_features": 100, "n_trials": 2, field: value})
    with pytest.raises(ConfigError) as info:
        run_validation(settings)
    assert str(info.value) == message
    experiment.generate_synthetic.assert_not_called()


def test_mlp_weights_model_config(tmp_path, rng):
    from soco import MlpWeights
    from soco.models import Layer

    w = np.vstack([-np.ones(80), np.ones(80)]) * 50.0
    MlpWeights(
        layers=(Layer(weight=w, bias=np.zeros(2)),), n_classes=2
    ).to_json(tmp_path / "net.json")
    cfg = parse_config(
        base_config(model={"mlp_weights": "net.json"}), base_dir=tmp_path
    )
    manifest = run_experiment(cfg)
    assert (tmp_path / "out" / "original.deletion.curve.json").exists()
    assert manifest.outputs["original"]["deletion"]


# -- validation preset ----------------------------------------------------------------


def test_micro_validation_run(tmp_path):
    settings = ValidationSettings(n_samples=40, n_features=100, n_trials=2)
    result = run_validation(settings, out_dir=tmp_path / "val")
    assert result.clean_accuracy == 1.0
    for method in ("original", "remove", "introduce"):
        assert method in result.aligned_soundness
        assert result.completeness[method].n_trials == 2
    # the planted-attribution maps must score below ground truth wherever
    # both were aligned; the margin is the point of the whole harness
    original = result.aligned_soundness["original"]
    introduce = result.aligned_soundness["introduce"]
    shared = set(original) & set(introduce)
    assert shared
    assert all(original[lvl][0] > introduce[lvl][0] for lvl in shared)
    summary = json.loads((tmp_path / "val" / "validation_summary.json").read_text())
    assert summary["clean_accuracy"] == 1.0
    assert (tmp_path / "val" / "completeness.remove.csv").exists()


def test_validation_summary_is_strict_json(tmp_path):
    # the pinned settings reach level 0.6 for introduce in one trial, so its std is NaN
    settings = ValidationSettings(n_samples=300, n_features=60, seed=5, n_trials=3)
    result = run_validation(settings, out_dir=tmp_path)
    assert math.isnan(result.aligned_soundness["introduce"][0.6][1])

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    text = (tmp_path / "validation_summary.json").read_text()
    summary = json.loads(text, parse_constant=refuse)
    assert summary["aligned_soundness"]["introduce"]["0.6"][1] is None


def test_validation_summaries_keep_their_pinned_bytes():
    # 3 trials reach level 0.6 for introduce alone, in one trial (std NaN),
    # and every other level in all three; recorded before soundness levels
    # were summarised by aggregate_trials
    result = run_validation(ValidationSettings(n_samples=300, n_features=60, seed=5, n_trials=3))
    payload = {
        "aligned_soundness": {
            method: [[level, *stats] for level, stats in levels.items()]
            for method, levels in result.aligned_soundness.items()
        },
        "completeness": {
            method: [summary.n_trials] + [
                column.tolist()
                for column in (summary.x_grid, summary.mean, summary.std, summary.counts)
            ]
            for method, summary in result.completeness.items()
        },
        "clean_accuracy": result.clean_accuracy,
    }
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    assert digest == "05dd7334e34ee7964616d31bf9c5cc688ff0af97af7f3a9579e21c1172f12698"


@pytest.mark.parametrize("seed", [7, 201])
def test_validation_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch, seed):
    settings = ValidationSettings(seed=seed, n_trials=3)
    pooled = run_validation(settings, out_dir=tmp_path / "pooled")
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    inline = run_validation(settings, out_dir=tmp_path / "inline")
    # byte-equal pickles: every float, NaN included, and every array equal
    assert pickle.dumps(pooled) == pickle.dumps(inline)
    for name in ("validation_summary.json", "completeness.remove.csv"):
        assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()


def test_metric_functions_check_option_types(small_dataset, gt_maps, step_model):
    with pytest.raises(ConfigError, match=r"metrics.soundness.mask_ratios\[1\]"):
        METRICS["soundness"](step_model, small_dataset, gt_maps, mask_ratios=[0.5, "0.2"])
    with pytest.raises(ConfigError, match="metrics.deletion.noise_std"):
        METRICS["deletion"](step_model, small_dataset, gt_maps, noise_std=True)
