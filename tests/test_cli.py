import argparse
import contextlib
import copy
import io
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soco import (
    ConfigError,
    LinearStepModel,
    MapSet,
    MlpWeights,
    ModScheme,
    apply_scheme,
    emit_plot_data,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
    parallel,
    read_curve,
    read_dataset,
    read_maps,
    write_curve,
    write_dataset,
    write_maps,
)
from soco import models
from soco.cli import build_parser, main
from soco.metrics import IMPUTER_KINDS, METRICS, RANK_ORDERS, WEIGHTINGS, metric_defaults
from soco.models import Layer
from soco.core import keyword_defaults
from soco.experiment import SCHEME_KEYS
from soco.modify import SCHEME_KINDS, SCHEMES
from soco.io import MAGIC, canonical_json

from external_servers import unreaped

pytestmark = pytest.mark.usefixtures("no_leftovers")

SERVER = str(Path(__file__).parent / "external_servers.py")


@pytest.fixture
def workdir(tmp_path):
    rc = main(
        [
            "gen-synthetic",
            "--out", str(tmp_path / "data.soco"),
            "--n-samples", "30",
            "--n-features", "60",
            "--seed", "3",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "attribute",
            "--dataset", str(tmp_path / "data.soco"),
            "--out", str(tmp_path / "maps.soco"),
        ]
    )
    assert rc == 0
    return tmp_path


def test_gen_and_attribute(workdir):
    ds = read_dataset(workdir / "data.soco")
    assert len(ds) == 30
    maps = read_maps(workdir / "maps.soco", ds)
    assert len(maps) == 30


def test_gen_json_format(tmp_path):
    out = tmp_path / "data.json"
    rc = main(
        [
            "gen-synthetic",
            "--out", str(out),
            "--n-samples", "5",
            "--n-features", "8",
            "--format", "json",
        ]
    )
    assert rc == 0
    assert json.loads(out.read_text())["kind"] == "dataset"
    assert len(read_dataset(out)) == 5


def test_modify_writes_shifted_maps(workdir):
    rc = main(
        [
            "modify",
            "--maps", str(workdir / "maps.soco"),
            "--out", str(workdir / "mod.soco"),
            "--kind", "constant",
            "--magnitude", "0.4",
            "--dataset", str(workdir / "data.soco"),
        ]
    )
    assert rc == 0
    ds = read_dataset(workdir / "data.soco")
    before = read_maps(workdir / "maps.soco", ds)
    after = read_maps(workdir / "mod.soco", ds)
    assert np.all(after.values <= before.values + 1e-6)


def test_modify_synth_introduce_needs_dataset(workdir):
    rc = main(
        [
            "modify",
            "--maps", str(workdir / "maps.soco"),
            "--out", str(workdir / "mod.soco"),
            "--kind", "synth_introduce",
        ]
    )
    assert rc == 2


def test_eval_soundness_defaults_to_ground_truth(workdir):
    out = workdir / "s.curve.json"
    rc = main(
        [
            "eval",
            "--metric", "soundness",
            "--dataset", str(workdir / "data.soco"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    curve = read_curve(out)
    assert curve.metric_kind == "soundness"
    assert curve.points  # non-empty


def test_eval_deletion_on_modified_maps(workdir):
    main(
        [
            "modify",
            "--maps", str(workdir / "maps.soco"),
            "--out", str(workdir / "mod.soco"),
            "--kind", "constant",
            "--magnitude", "0.4",
        ]
    )
    rc = main(
        [
            "eval",
            "--metric", "deletion",
            "--dataset", str(workdir / "data.soco"),
            "--maps", str(workdir / "mod.soco"),
            "--out", str(workdir / "del.curve.json"),
        ]
    )
    assert rc == 0
    assert read_curve(workdir / "del.curve.json").metric_kind == "deletion"


def test_option_flags_are_the_library_keys():
    # modify's flags but its files are the scheme keys; eval's options are metric keys
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        verb: {action.dest for action in parser._actions if action.option_strings} - {"help"}
        for verb, parser in verbs.choices.items()
    }
    assert flags["modify"] - {"maps", "out", "dataset", "format"} == SCHEME_KEYS
    metric_keys = set().union(*(keyword_defaults(function) for function in METRICS.values()))
    assert flags["eval"] - {"metric", "dataset", "maps", "out", "mlp_weights"} <= metric_keys


def test_no_flag_of_any_verb_has_a_default():
    # a flag left out must pass nothing, so the library signature's default holds
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [
        f"{verb} {action.option_strings[0]}"
        for verb, parser in verbs.choices.items()
        for action in parser._actions
        if action.option_strings and action.default is not argparse.SUPPRESS
    ] == []


def test_flags_left_out_take_the_library_defaults(workdir):
    cli, lib = workdir / "cli", workdir / "lib"
    assert main(["gen-synthetic", "--out", str(cli)]) == 0
    write_dataset(generate_synthetic(), lib)
    assert cli.read_bytes() == lib.read_bytes()

    dataset = read_dataset(workdir / "data.soco")
    write_maps(ground_truth_attribution(dataset), lib, dataset=dataset)
    assert lib.read_bytes() == (workdir / "maps.soco").read_bytes()  # the fixture's `attribute`

    curve = workdir / "c.json"
    maps = read_maps(workdir / "maps.soco")
    write_curve(METRICS["deletion"](LinearStepModel(), dataset, maps), curve)
    assert main(["emit-plot", "--curve", str(curve), "--out", str(cli)]) == 0
    emit_plot_data(read_curve(curve), lib)
    assert cli.read_bytes() == lib.read_bytes()


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_modify_with_only_a_kind_applies_the_library_scheme(workdir, kind):
    dataset = read_dataset(workdir / "data.soco")
    cli, lib = workdir / "cli.soco", workdir / "lib.soco"
    assert main([
        "modify", "--maps", str(workdir / "maps.soco"), "--out", str(cli), "--kind", kind,
        "--dataset", str(workdir / "data.soco"),
    ]) == 0
    oracle = oracle_info(dataset) if kind == "synth_introduce" else None
    maps = apply_scheme(read_maps(workdir / "maps.soco"), ModScheme(kind=kind), oracle)
    write_maps(maps, lib, dataset=dataset)
    assert cli.read_bytes() == lib.read_bytes()


def without_digest(path):
    payload = json.loads(path.read_text())
    payload.pop("config_digest")
    return canonical_json(payload)


@pytest.mark.parametrize(
    "metric", ["soundness", "completeness", "deletion", "insertion", "road"]
)
def test_library_eval_and_run_share_each_metric_default(workdir, metric):
    # one default per option: no options in the library call, no metric flag
    # on `soco eval` and an empty option object in a `soco run` config
    dataset = read_dataset(workdir / "data.soco")
    maps = read_maps(workdir / "maps.soco", dataset)
    write_curve(METRICS[metric](LinearStepModel(), dataset, maps), workdir / "lib.json")
    assert main([
        "eval", "--metric", metric, "--dataset", str(workdir / "data.soco"),
        "--maps", str(workdir / "maps.soco"), "--out", str(workdir / "eval.json"),
    ]) == 0
    cfg = {
        "output_dir": "out",
        "dataset": {"path": "data.soco"},
        "maps": {"source": "maps.soco"},
        "metrics": {metric: {}},
    }
    (workdir / "exp.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(workdir / "exp.json")]) == 0
    run_curve = workdir / "out" / f"original.{metric}.curve.json"
    assert (workdir / "eval.json").read_bytes() == (workdir / "lib.json").read_bytes()
    assert without_digest(run_curve) == without_digest(workdir / "lib.json")


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_eval_and_run_score_ground_truth_maps_under_any_model(workdir, metric):
    # no maps file means the ground-truth maps, on both verbs and whatever the model
    rng = np.random.default_rng(8)
    layer = Layer(weight=rng.standard_normal((2, 60)), bias=rng.standard_normal(2))
    MlpWeights(layers=(layer,), n_classes=2).to_json(workdir / "net.json")
    assert main([
        "eval", "--metric", metric, "--dataset", str(workdir / "data.soco"),
        "--mlp-weights", str(workdir / "net.json"), "--out", str(workdir / "eval.json"),
    ]) == 0
    cfg = {
        "output_dir": "out",
        "dataset": {"path": "data.soco"},
        "model": {"mlp_weights": "net.json"},
        "metrics": {metric: {}},
    }
    (workdir / "exp.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(workdir / "exp.json")]) == 0
    run_curve = workdir / "out" / f"original.{metric}.curve.json"
    assert without_digest(run_curve) == without_digest(workdir / "eval.json")


@pytest.mark.parametrize(
    "metric, flag, value", [("road", "--imputer", "zero"), ("completeness", "--epsilon", "0.5")]
)
def test_eval_rejects_a_flag_its_metric_does_not_take(workdir, metric, flag, value):
    out = workdir / "c.json"
    proc = run_cli_process(
        "eval", "--metric", metric, "--dataset", str(workdir / "data.soco"),
        "--out", str(out), flag, value,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr and flag in proc.stderr
    assert not out.exists()


NEGATIVE_FLAGS = [
    ("gen-synthetic", "--n-samples", ()),
    ("gen-synthetic", "--n-features", ()),
    ("gen-synthetic", "--seed", ()),
    ("eval", "--seed", ()),
    ("eval", "--seed", ("--noise-std", "1")),
]


@pytest.mark.parametrize(
    "verb, flag, extra", NEGATIVE_FLAGS, ids=[f"{v}{f}{''.join(e)}" for v, f, e in NEGATIVE_FLAGS]
)
def test_a_negative_integer_flag_is_exit_2_naming_the_flag(workdir, capsys, verb, flag, extra):
    out = workdir / "out.soco"
    args = [verb, "--out", str(out), flag, "-5", *extra]
    if verb == "eval":
        args += ["--metric", "soundness", "--dataset", str(workdir / "data.soco")]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"config error: {flag} must be a non-negative integer, got -5\n"
    )
    assert not out.exists()


FLAG_DOMAINS = [
    ("eval", "--epsilon", "nan", "--epsilon must be a finite real number, got nan"),
    ("eval", "--noise-std", "-1", "--noise-std must be non-negative"),
    ("eval", "--epsilon", "0", "--epsilon must be positive"),
    ("modify", "--seed", "-1", "--seed must be a non-negative integer, got -1"),
    ("modify", "--fraction", "2", "--fraction must lie in [0, 1]"),
    ("modify", "--magnitude", "nan", "--magnitude must be a finite real number, got nan"),
    ("gen-synthetic", "--n-samples", "0", "--n-samples must be at least 1, got 0"),
    ("gen-synthetic", "--n-features", "0", "--n-features must be at least 1, got 0"),
]


@pytest.mark.parametrize(
    "verb, flag, value, message", FLAG_DOMAINS, ids=[f"{v}{f}={x}" for v, f, x, _ in FLAG_DOMAINS]
)
def test_a_flag_outside_its_domain_is_exit_2_naming_the_flag(
    workdir, capsys, verb, flag, value, message
):
    out = workdir / "out.soco"
    args = [verb, "--out", str(out), flag, value]
    if verb == "eval":
        args += ["--metric", "soundness", "--dataset", str(workdir / "data.soco")]
    elif verb == "modify":
        args += ["--maps", str(workdir / "maps.soco"), "--kind", reader(flag[2:])]
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# a flag the chosen kind or metric does not read, and a value its kind refuses
UNREAD_FLAGS = [
    ("modify", "constant", ["--fraction", "0.3"], "--kind constant takes no --fraction"),
    ("modify", "constant", ["--renormalize"], "--kind constant takes no --renormalize"),
    ("modify", "random", ["--fraction", "0.3"], "--kind random takes no --fraction"),
    ("modify", "random", ["--renormalize"], "--kind random takes no --renormalize"),
    ("modify", "partial", ["--magnitude", "0.5"], "--kind partial takes no --magnitude"),
    ("modify", "partial", ["--fraction", "0.3"], "--kind partial takes no --fraction"),
    ("modify", "partial", ["--renormalize"], "--kind partial takes no --renormalize"),
    ("modify", "synth_remove", ["--magnitude", "0.5"], "--kind synth_remove takes no --magnitude"),
    ("modify", "synth_introduce", ["--renormalize"],
     "--kind synth_introduce takes no --renormalize"),
    ("modify", "synth_remove", ["--direction", "introduce"],
     "--direction must be one of ['remove'], got 'introduce'"),
    ("modify", "synth_introduce", ["--direction", "remove"],
     "--direction must be one of ['introduce'], got 'remove'"),
    ("modify", "constant", ["--magnitude", "-0.3"], "--magnitude must be non-negative"),
    ("modify", "random", ["--magnitude", "-0.3"], "--magnitude must be non-negative"),
    ("modify", "synth_introduce", ["--magnitude", "0"], "--magnitude must be positive"),
    ("eval", "road", ["--imputer", "mean"], "--metric road takes no --imputer"),
    ("eval", "completeness", ["--order", "LeRF"], "--metric completeness takes no --order"),
]


@pytest.mark.parametrize(
    "verb, choice, flags, message", UNREAD_FLAGS,
    ids=[f"{v}-{c}{''.join(f)}" for v, c, f, _ in UNREAD_FLAGS],
)
def test_a_flag_the_choice_does_not_read_is_exit_2_naming_it(
    workdir, capsys, monkeypatch, verb, choice, flags, message
):
    # each is refused before any file is read
    for name in ("read_dataset", "read_maps"):
        monkeypatch.setattr(f"soco.cli.{name}", mock.Mock(side_effect=AssertionError("read")))
    out = workdir / "out.soco"
    args = [verb, "--out", str(out), "--dataset", str(workdir / "data.soco"), *flags]
    if verb == "eval":
        args += ["--metric", choice]
    else:
        args += ["--maps", str(workdir / "maps.soco"), "--kind", choice]
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_compare_prints_pairwise_and_min(workdir, capsys):
    for name, order in (("a", "MoRF"), ("b", "LeRF")):
        rc = main(
            [
                "eval",
                "--metric", "deletion",
                "--dataset", str(workdir / "data.soco"),
                "--out", str(workdir / f"{name}.curve.json"),
                "--order", order,
            ]
        )
        assert rc == 0
    rc = main(
        ["compare", str(workdir / "a.curve.json"), str(workdir / "b.curve.json")]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("a vs b: ")
    rc = main(
        [
            "compare",
            str(workdir / "a.curve.json"),
            str(workdir / "b.curve.json"),
            "--min-hausdorff",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(printed) >= 0.0


def test_compare_deduplicates_labels(workdir, tmp_path, capsys):
    src = workdir / "a.curve.json"
    main(
        [
            "eval",
            "--metric", "deletion",
            "--dataset", str(workdir / "data.soco"),
            "--out", str(src),
        ]
    )
    twin = tmp_path / "copy" / "a.curve.json"
    twin.parent.mkdir()
    twin.write_bytes(src.read_bytes())
    rc = main(["compare", str(src), str(twin)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a vs a~2: 0.000000000" in out


def test_run_config_end_to_end(workdir, capsys):
    cfg = {
        "seed": 3,
        "output_dir": "out",
        "dataset": {"synthetic": {"n_samples": 20, "n_features": 80}},
        "model": {"builtin": "linear_step"},
        "maps": {
            "source": "ground_truth",
            "variants": {
                "original": [],
                "remove": [{"kind": "synth_remove", "fraction": 0.3}],
            },
        },
        "metrics": {"deletion": {}, "completeness": {}},
    }
    cfg_path = workdir / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    out_dir = workdir / "out"
    assert (out_dir / "manifest.json").exists()
    for variant in ("original", "remove"):
        for metric in ("deletion", "completeness"):
            assert (out_dir / f"{variant}.{metric}.curve.json").exists()


def test_run_external_bridge_failure_is_exit_3(workdir):
    cfg = {
        "seed": 0,
        "output_dir": "out",
        "dataset": {"synthetic": {"n_samples": 4, "n_features": 10}},
        "model": {
            "external": {
                "command": [sys.executable, SERVER, "always-crash"],
                "timeout_s": 5.0,
            }
        },
        "maps": {"source": "ground_truth", "variants": {"original": []}},
        "metrics": {"deletion": {"fractions": [0.0, 1.0]}},
    }
    cfg_path = workdir / "ext.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 3


def test_bad_data_file_is_exit_4(tmp_path):
    bad = tmp_path / "junk.soco"
    bad.write_bytes(b"not a container at all")
    rc = main(
        ["attribute", "--dataset", str(bad), "--out", str(tmp_path / "maps.soco")]
    )
    assert rc == 4


def run_cli_process(*args):
    """``python -m soco.cli ARGS`` in a fresh interpreter, soco from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "soco.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_missing_dataset_is_exit_4_without_traceback(tmp_path):
    proc = run_cli_process(
        "eval",
        "--metric", "soundness",
        "--dataset", str(tmp_path / "nonexistent.soco"),
        "--out", str(tmp_path / "c.json"),
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert "data error" in proc.stderr


def test_missing_config_is_exit_2_without_traceback(tmp_path):
    proc = run_cli_process("run", "--config", str(tmp_path / "nonexistent.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr
    assert "nonexistent.json" in proc.stderr


def test_missing_maps_is_exit_4(workdir, capsys):
    rc = main(
        [
            "eval",
            "--metric", "soundness",
            "--dataset", str(workdir / "data.soco"),
            "--maps", str(workdir / "nonexistent.soco"),
            "--out", str(workdir / "c.json"),
        ]
    )
    assert rc == 4
    assert "nonexistent.soco" in capsys.readouterr().err


def test_emit_plot(workdir):
    main(
        [
            "eval",
            "--metric", "completeness",
            "--dataset", str(workdir / "data.soco"),
            "--out", str(workdir / "c.curve.json"),
        ]
    )
    rc = main(
        [
            "emit-plot",
            "--curve", str(workdir / "c.curve.json"),
            "--out", str(workdir / "c.csv"),
        ]
    )
    assert rc == 0
    header = (workdir / "c.csv").read_text().splitlines()[0]
    assert header == "attribution_threshold,completeness:accuracy_drop"


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("mode", ["ragged", "nonnumeric"])
def test_run_bad_probability_matrix_is_exit_3_without_traceback(tmp_path, mode):
    cfg = {
        "seed": 0,
        "output_dir": "out",
        "dataset": {"synthetic": {"n_samples": 4, "n_features": 10}},
        "model": {"external": {"command": [sys.executable, SERVER, mode], "timeout_s": 5.0}},
        "maps": {"source": "ground_truth", "variants": {"original": []}},
        "metrics": {"deletion": {"fractions": [0.0, 1.0]}},
    }
    cfg_path = tmp_path / "ext.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli_process("run", "--config", str(cfg_path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "not a numeric matrix" in proc.stderr


def no_traceback(proc, code: int, prefix: str) -> bool:
    return proc.returncode == code and "Traceback" not in proc.stderr and prefix in proc.stderr


def test_run_answer_that_is_not_utf8_is_exit_3_leaving_no_server(tmp_path):
    pids = tmp_path / "pids"
    pids.mkdir()
    cfg = {
        "seed": 0,
        "output_dir": "out",
        "dataset": {"synthetic": {"n_samples": 4, "n_features": 10}},
        "model": {"external": {
            "command": [sys.executable, SERVER, "notutf8", "--pid-dir", str(pids)],
            "timeout_s": 5.0,
        }},
        "maps": {"source": "ground_truth", "variants": {"original": []}},
        "metrics": {"deletion": {"fractions": [0.0, 1.0]}},
    }
    cfg_path = tmp_path / "ext.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli_process("run", "--config", str(cfg_path))
    assert no_traceback(proc, 3, "model bridge error: bad response line"), proc.stderr
    assert len(list(pids.iterdir())) == 1
    assert unreaped_servers(tmp_path) == []


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("attribute", {"kind": "dataset", "labels": [0], "n_classes": 2}),
        ("attribute", [{"kind": "dataset"}]),
        ("attribute", {"kind": "dataset", "features": [[1.0], [2.0]], "labels": [1],
                       "n_classes": 2}),
        ("attribute", {"kind": "dataset", "features": [[1.0, 2.0], [3.0]], "labels": [1, 1],
                       "n_classes": 2}),
        ("modify", {"kind": "maps"}),
        ("modify", "maps"),
        ("modify", {"kind": "maps", "values": [[0.5, 1.0], [0.5]]}),
    ],
    ids=["dataset-missing-key", "dataset-not-object", "dataset-few-labels",
         "dataset-ragged", "maps-missing-key", "maps-not-object", "maps-ragged"],
)
def test_malformed_json_container_is_exit_4_without_traceback(tmp_path, verb, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if verb == "attribute":
        args = ["attribute", "--dataset", str(bad)]
    else:
        args = ["modify", "--maps", str(bad), "--kind", "constant"]
    proc = run_cli_process(*args, "--out", str(tmp_path / "out.soco"))
    assert no_traceback(proc, 4, "data error"), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


WELL_FORMED = {
    "dataset": {"kind": "dataset", "features": [[1.0, -2.0, 0.5], [3.0, 4.0, -1.0]],
                "labels": [0, 1], "n_classes": 2, "sample_ids": [7, 9]},
    "maps": {"kind": "maps", "values": [[1.0, 0.5, 0.0], [0.25, 1.0, 0.5]]},
    "curve": {"metric_kind": "deletion", "x_axis": "masked_fraction",
              "points": [[0.0, 1.0], [1.0, 0.5]]},
}


def huge_container(kind: int, fields: bytes) -> bytes:
    """A container of ``kind`` (1 dataset, 2 maps) whose dims multiply past
    int64, with a few payload bytes after its header ``fields``."""
    dims = (1, 2**32 - 1, 2**32 - 1, 2)
    return MAGIC + struct.pack("<HBB4I", 1, kind, len(dims), *dims) + fields + bytes(16)


def malformed(role: str, **fields) -> tuple:
    return role, {**WELL_FORMED[role], **fields}


# the kind's header fields of the WELL_FORMED dataset and maps in a container
CONTAINER_FIELDS = {
    "dataset": struct.pack("<H", 2) + np.array([0, 1, 7, 9], "<u4").tobytes(),
    "maps": struct.pack("<B", 0),
}


def container(role: str, fields: bytes = b"", trailer: bytes = b"") -> bytes:
    """The WELL_FORMED ``role`` file as a binary container whose header
    fields are ``fields`` (by default the file's own), then ``trailer``."""
    values = np.array(WELL_FORMED[role]["features" if role == "dataset" else "values"], "<f4")
    head = MAGIC + struct.pack("<HBB2I", 1, 1 if role == "dataset" else 2, 2, *values.shape)
    return head + (fields or CONTAINER_FIELDS[role]) + values.tobytes() + trailer


# each file the readers must refuse, by the role it plays: a dataset given to
# ``eval``, maps given to ``eval`` and ``modify`` (which reads them without a
# dataset), or a curve given to ``compare`` and ``emit-plot``
MALFORMED = {
    "labels-fractional": malformed("dataset", labels=[0.5, 1.7]),
    "labels-bool": malformed("dataset", labels=[False, True]),
    "labels-numeric-string": malformed("dataset", labels=["0", "1"]),
    "labels-past-int64": malformed("dataset", labels=[0, 2**63]),
    "n-classes-fractional": malformed("dataset", n_classes=2.9),
    "n-classes-past-int64": malformed("dataset", n_classes=2**70),
    "n-classes-past-u16": malformed("dataset", n_classes=70000),
    "sample-ids-fractional": malformed("dataset", sample_ids=[0.5, 1.5]),
    "features-bool-among-numbers": malformed(
        "dataset", features=[[True, -2.0, 0.5], [3.0, 4.0, -1.0]]),
    "features-numeric-string": malformed(
        "dataset", features=[["0.5", -2.0, 0.5], [3.0, 4.0, -1.0]]),
    "dataset-dims-past-int64": ("dataset", huge_container(1, struct.pack("<HII", 2, 0, 0))),
    "values-bool": malformed("maps", values=[[True, 0.5, 0.0], [0.25, 1.0, 0.5]]),
    "values-numeric-string": malformed("maps", values=[["1", 0.5, 0.0], [0.25, 1.0, 0.5]]),
    "maps-dims-past-int64": ("maps", huge_container(2, struct.pack("<B", 0))),
    "maps-digest-not-ascii": ("maps", container("maps", fields=b"\x02\xff\xfe")),
    "maps-digest-not-string": malformed("maps", dataset_digest=5),
    "dataset-bytes-past-payload": ("dataset", container("dataset", trailer=bytes(8))),
    "maps-bytes-past-payload": ("maps", container("maps", trailer=bytes(8))),
    "point-of-one-number": malformed("curve", points=[[0.0], [1.0, 0.5]]),
    "points-string": malformed("curve", points="0.0,1.0"),
    "points-null": malformed("curve", points=None),
    "points-nested": malformed("curve", points=[[[0.0], [1.0]], [1.0, 0.5]]),
    "points-bool": malformed("curve", points=[[0.0, True], [1.0, False]]),
    "curve-top-level-list": ("curve", [WELL_FORMED["curve"]]),
    "unknown-metric-kind": malformed("curve", metric_kind="oracle"),
    "metric-kind-list": malformed("curve", metric_kind=["deletion"]),
    "metric-kind-object": malformed("curve", metric_kind={}),
    "axis-not-its-kinds": malformed("curve", x_axis="accuracy_level"),
}


def verb_args(verb: str, role: str, path: Path, tmp_path: Path) -> list:
    """The arguments that make ``verb`` read ``path`` in ``role``, the
    other inputs well-formed."""
    good = {}
    for other, payload in WELL_FORMED.items():
        good[other] = tmp_path / f"good.{other}.json"
        good[other].write_text(json.dumps(payload))
    good[role] = path
    out = str(tmp_path / "out.json")
    if verb == "eval":
        return ["eval", "--metric", "deletion", "--dataset", str(good["dataset"]),
                "--maps", str(good["maps"]), "--out", out]
    if verb == "modify":
        return ["modify", "--maps", str(good["maps"]), "--kind", "constant", "--out", out]
    if verb == "compare":
        return ["compare", str(good["curve"]), str(tmp_path / "good.curve.json")]
    return ["emit-plot", "--curve", str(good["curve"]), "--out", out]


VERBS = {"dataset": ("eval",), "maps": ("eval", "modify"), "curve": ("compare", "emit-plot")}


def test_well_formed_files_pass_every_verb(tmp_path):
    # the control for the table below: its files differ from these in one field
    for role, verbs in VERBS.items():
        for verb in verbs:
            path = tmp_path / f"good.{role}.json"
            assert main(verb_args(verb, role, path, tmp_path)) == 0
    ds = read_dataset(tmp_path / "good.dataset.json")
    assert ds.feature_matrix().tolist() == WELL_FORMED["dataset"]["features"]
    assert ds.labels().tolist() == [0, 1] and ds.sample_ids.tolist() == [7, 9]
    assert ds.n_classes == 2


def test_well_formed_containers_read_as_their_json_files(tmp_path):
    # the control for the containers in the table below
    for role, reader in (("dataset", read_dataset), ("maps", read_maps)):
        (tmp_path / f"{role}.soco").write_bytes(container(role))
        (tmp_path / f"{role}.json").write_text(json.dumps(WELL_FORMED[role]))
        binary, text = reader(tmp_path / f"{role}.soco"), reader(tmp_path / f"{role}.json")
        assert vars(binary).keys() == vars(text).keys()
        for key, value in vars(binary).items():
            np.testing.assert_array_equal(value, vars(text)[key])


@pytest.mark.parametrize(
    "case, verb",
    [(case, verb) for case, (role, _) in MALFORMED.items() for verb in VERBS[role]],
)
def test_a_malformed_file_is_a_data_error_on_every_verb(tmp_path, capsys, case, verb):
    # in process, a raw traceback would be an exception escaping main
    role, content = MALFORMED[case]
    bad = tmp_path / f"bad.{role}"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(json.dumps(content))
    assert main(verb_args(verb, role, bad, tmp_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err, err
    assert role != "curve" or str(bad) in err  # a curve error names its file
    assert not (tmp_path / "out.json").exists()


BAD_WEIGHTS = {
    "missing-file": None,
    "invalid-json": "{not json",
    "not-object": "[1, 2]",
    "no-layers": json.dumps({"n_classes": 2}),
    "no-bias": json.dumps({"n_classes": 2, "layers": [{"weight": [[1.0, 0.0]]}]}),
}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
@pytest.mark.parametrize("verb", ["eval", "run"])
def test_bad_weights_file_is_exit_2_without_traceback(workdir, verb, case):
    weights = workdir / "weights.json"
    if BAD_WEIGHTS[case] is not None:
        weights.write_text(BAD_WEIGHTS[case])
    if verb == "eval":
        proc = run_cli_process(
            "eval", "--metric", "deletion", "--dataset", str(workdir / "data.soco"),
            "--maps", str(workdir / "maps.soco"), "--mlp-weights", str(weights),
            "--out", str(workdir / "c.json"),
        )
    else:
        cfg = {
            "output_dir": "out",
            "dataset": {"path": "data.soco"},
            "model": {"mlp_weights": weights.name},
            "maps": {"source": "maps.soco"},
            "metrics": {"deletion": {}},
        }
        (workdir / "exp.json").write_text(json.dumps(cfg))
        proc = run_cli_process("run", "--config", str(workdir / "exp.json"))
    assert no_traceback(proc, 2, "config error"), proc.stderr
    assert not (workdir / "c.json").exists()
    assert not (workdir / "out").exists()


MISFIT_NETWORKS = [
    (61, 2, "feature dimension 60 does not match network input 61"),
    (60, 1, "network predicts 1 of the dataset's 2 classes"),
]


@pytest.mark.parametrize("width, n_classes, message", MISFIT_NETWORKS, ids=["wide", "one-class"])
@pytest.mark.parametrize("verb", ["eval", "run"])
def test_a_network_that_does_not_fit_the_dataset_is_exit_4_before_any_model_call(
    workdir, capsys, monkeypatch, verb, width, n_classes, message
):
    layer = Layer(weight=np.ones((n_classes, width)), bias=np.zeros(n_classes))
    MlpWeights(layers=(layer,), n_classes=n_classes).to_json(workdir / "net.json")
    monkeypatch.setattr(models, "mlp_predict", mock.Mock(side_effect=AssertionError("called")))
    if verb == "eval":
        args = [
            "eval", "--metric", "deletion", "--dataset", str(workdir / "data.soco"),
            "--mlp-weights", str(workdir / "net.json"), "--out", str(workdir / "c.json"),
        ]
    else:
        cfg = {
            "output_dir": "out",
            "dataset": {"path": "data.soco"},
            "model": {"mlp_weights": "net.json"},
            "metrics": {"deletion": {}},
        }
        (workdir / "exp.json").write_text(json.dumps(cfg))
        args = ["run", "--config", str(workdir / "exp.json")]
    assert main(args) == 4
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not (workdir / "c.json").exists()
    assert not (workdir / "out").exists()


def test_a_network_with_more_classes_than_the_dataset_is_scored(workdir):
    layer = Layer(weight=np.ones((3, 60)), bias=np.arange(3.0))
    MlpWeights(layers=(layer,), n_classes=3).to_json(workdir / "net.json")
    assert main([
        "eval", "--metric", "deletion", "--dataset", str(workdir / "data.soco"),
        "--mlp-weights", str(workdir / "net.json"), "--out", str(workdir / "c.json"),
    ]) == 0


def test_run_with_maps_above_one_is_exit_4_leaving_no_output(workdir, capsys):
    dataset = read_dataset(workdir / "data.soco")
    doubled = MapSet(2.0 * read_maps(workdir / "maps.soco", dataset).values)
    write_maps(doubled, workdir / "doubled.soco", dataset=dataset)
    cfg = {
        "output_dir": "out",
        "dataset": {"path": "data.soco"},
        "maps": {"source": "doubled.soco", "variants": {"original": []}},
        "metrics": {"deletion": {}},
    }
    (workdir / "exp.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(workdir / "exp.json")]) == 4
    assert capsys.readouterr().err == "data error: maps must be normalized to [0, 1]\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"layers": []}, "no field 'n_classes'"),
        ({"n_classes": 2, "layers": [{"bias": [0.0, 0.0]}]}, "no field 'weight'"),
        ({"n_classes": 2, "layers": ["dense"]}, "malformed"),
        ({"n_classes": 2, "layers": [{"weight": [[1.0], [2.0, 3.0]], "bias": [0.0, 0.0]}]},
         "malformed"),
        ({"n_classes": 2.7, "layers": [{"weight": [[1.0], [2.0]], "bias": [0.0, 0.0]}]},
         r"n_classes in weights file .*w\.json must be a non-negative integer, got 2\.7"),
        ({"n_classes": "2", "layers": [{"weight": [[1.0], [2.0]], "bias": [0.0, 0.0]}]},
         r"n_classes in weights file .*w\.json must be a non-negative integer, got '2'"),
        ({"n_classes": 2, "layers": [{"weight": [[1.0], ["1"]], "bias": [0.0, 0.0]}]},
         r"malformed weights file .*w\.json: field 'weight' must be a rectangular array"),
        ({"n_classes": 2, "layers": [{"weight": [[1.0], [True]], "bias": [0.0, 0.0]}]},
         r"malformed weights file .*w\.json: field 'weight' must be a rectangular array"),
        ({"n_classes": 2, "layers": [{"weight": [[1.0], [2.0]], "bias": ["0", 0.0]}]},
         r"malformed weights file .*w\.json: field 'bias' must be a rectangular array"),
        ({"n_classes": 2, "layers": [{"weight": [[1.0], [2.0]], "bias": [0.0, False]}]},
         r"malformed weights file .*w\.json: field 'bias' must be a rectangular array"),
    ],
)
def test_weights_reader_reports_every_malformation(tmp_path, payload, message):
    from soco import ConfigError, MlpWeights

    path = tmp_path / "w.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=message):
        MlpWeights.from_json(path)
    with pytest.raises(ConfigError, match="cannot read weights"):
        MlpWeights.from_json(tmp_path)  # a directory


@pytest.mark.parametrize("verb", ["gen-synthetic", "eval", "run"])
def test_unwritable_output_is_exit_4_without_traceback(workdir, verb):
    (workdir / "afile").write_text("a regular file, not a directory")
    before = sorted(p.name for p in workdir.rglob("*"))
    if verb == "gen-synthetic":
        proc = run_cli_process(
            "gen-synthetic", "--n-samples", "5", "--n-features", "8",
            "--out", str(workdir / "afile" / "data.soco"),
        )
    elif verb == "eval":
        proc = run_cli_process(
            "eval", "--metric", "deletion", "--dataset", str(workdir / "data.soco"),
            "--out", str(workdir / "missing" / "c.json"),
        )
    else:
        cfg = {
            "output_dir": "afile/out",
            "dataset": {"path": "data.soco"},
            "maps": {"source": "maps.soco"},
            "metrics": {"deletion": {}},
        }
        (workdir / "exp.json").write_text(json.dumps(cfg))
        before.append("exp.json")
        proc = run_cli_process("run", "--config", str(workdir / "exp.json"))
    assert no_traceback(proc, 4, "cannot write"), proc.stderr
    assert sorted(p.name for p in workdir.rglob("*")) == sorted(before)


# -- `soco run` on forked lanes ---------------------------------------------------

needs_two_cpus = pytest.mark.skipif(
    parallel._usable_cpus() < 2, reason="forked lanes need two usable CPUs"
)


def lane_config(workdir, workers, mode, maps="maps.soco", out="out"):
    """A run_bridge-style config: containers, three variants, four metrics and
    an external server that records its pid under workdir/pids."""
    pids = workdir / "pids"
    pids.mkdir(exist_ok=True)
    cfg = {
        "seed": 5,
        "output_dir": out,
        "workers": workers,
        "dataset": {"path": "data.soco"},
        "model": {"external": {
            "command": [sys.executable, SERVER, mode, "--pid-dir", str(pids)],
            "timeout_s": 10.0,
        }},
        "maps": {"source": maps, "variants": {
            "original": [],
            "remove": [{"kind": "synth_remove", "fraction": 0.3}],
            "introduce": [{"kind": "synth_introduce", "direction": "introduce",
                           "fraction": 0.3, "magnitude": 1.0}],
        }},
        "metrics": {"soundness": {}, "completeness": {}, "deletion": {}, "insertion": {}},
    }
    path = workdir / f"{out}.json"
    path.write_text(json.dumps(cfg))
    return path


def unreaped_servers(workdir) -> list:
    """Pids of recorded servers that still exist (running or unreaped)."""
    return unreaped(workdir / "pids")


@needs_two_cpus
def test_run_on_two_lanes_matches_one_lane_byte_for_byte(workdir):
    for workers in (1, 2):
        config = lane_config(workdir, workers, "step", out=f"w{workers}")
        assert main(["run", "--config", str(config)]) == 0
        assert multiprocessing.active_children() == []
    assert len(list((workdir / "pids").iterdir())) == 3  # one server, then one per lane
    assert unreaped_servers(workdir) == []
    names = sorted(p.name for p in (workdir / "w1").glob("*.curve.json"))
    assert len(names) == 12
    for name in names:
        assert (workdir / "w1" / name).read_bytes() == (workdir / "w2" / name).read_bytes()


LANE_FAILURES = {
    # case: (server mode, maps file, exit code, message prefix)
    "server-dies-twice": ("always-crash", "maps.soco", 3, "model bridge error"),
    "malformed-maps": ("step", "bad.json", 4, "data error"),
    "lane-killed": ("kill-parent", "maps.soco", 5, "worker error"),
}


@needs_two_cpus
@pytest.mark.parametrize("in_process", [False, True], ids=["subprocess", "in-process"])
@pytest.mark.parametrize("case", sorted(LANE_FAILURES))
def test_lane_failures_keep_their_exit_codes_and_leave_nothing_running(
    workdir, capfd, case, in_process
):
    mode, maps, code, prefix = LANE_FAILURES[case]
    (workdir / "bad.json").write_text(json.dumps({"kind": "maps"}))
    config = lane_config(workdir, 2, mode, maps=maps)
    threads = threading.active_count()
    if in_process:
        rc = main(["run", "--config", str(config)])
        err = capfd.readouterr().err
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
    else:
        proc = run_cli_process("run", "--config", str(config))
        rc, err = proc.returncode, proc.stderr
    assert rc == code and "Traceback" not in err and prefix in err, err
    assert not (workdir / "out" / "manifest.json").exists()
    if case != "lane-killed":  # a killed lane cannot reap its server
        assert unreaped_servers(workdir) == []


def mistyped(path: tuple, value) -> dict:
    """A small valid run config with the value at ``path`` replaced."""
    cfg = {
        "seed": 3,
        "output_dir": "out",
        "dataset": {"synthetic": {"n_samples": 12, "n_features": 10}},
        "maps": {"variants": {"mod": [{"kind": "synth_remove"}]}},
        "metrics": {"deletion": {}},
    }
    if path[0] == "model":
        cfg["model"] = {"external": {"command": [sys.executable, SERVER, "step"]}}
    node = cfg
    for step in path[:-1]:
        node = node[step]
    if path[:-1] == SCHEME:
        node["kind"] = reader(path[-1])
    node[path[-1]] = value
    return cfg


def reader(key: str) -> str:
    """The first scheme kind whose function reads ``key``, so that a bad
    value is refused by the key's own rule."""
    return next(kind for kind in SCHEME_KINDS if key in keyword_defaults(SCHEMES[kind]))


SCHEME = ("maps", "variants", "mod", 0)
MISTYPED = [
    (("seed",), "3", "seed"),
    (("seed",), 1.5, "seed"),
    (("seed",), True, "seed"),
    (("workers",), 1.5, "workers"),
    (("workers",), True, "workers"),
    (("workers",), 0, "workers must be at least 1, got 0"),
    (("dataset", "synthetic", "n_samples"), 1.5, "dataset.synthetic.n_samples"),
    (("dataset", "synthetic", "n_samples"), True, "dataset.synthetic.n_samples"),
    (("dataset", "synthetic", "n_features"), 1.5, "dataset.synthetic.n_features"),
    (("dataset", "synthetic", "n_features"), True, "dataset.synthetic.n_features"),
    (("dataset", "synthetic", "n_samples"), 0, "dataset.synthetic.n_samples must be at least 1"),
    (("dataset", "synthetic", "n_features"), 0, "dataset.synthetic.n_features must be at least 1"),
    (("dataset", "synthetic", "seed"), 1.5, "dataset.synthetic.seed"),
    (("dataset", "synthetic", "seed"), True, "dataset.synthetic.seed"),
    (("dataset", "synthetic", "seed"), -1, "dataset.synthetic.seed"),
    (("dataset", "synthetic", "seed"), "3", "dataset.synthetic.seed"),
    (SCHEME + ("fraction",), "0.3", "fraction"),
    (SCHEME + ("fraction",), None, "fraction"),
    (SCHEME + ("magnitude",), "0.5", "magnitude must be a finite real"),
    (SCHEME + ("magnitude",), None, "magnitude must be a finite real"),
    (SCHEME + ("seed",), "3", "seed"),
    (SCHEME + ("seed",), 1.5, "seed"),
    (SCHEME + ("seed",), True, "seed"),
    (SCHEME + ("renormalize",), 1, "renormalize"),
    (SCHEME + ("renormalize",), "true", "renormalize"),
    (("model", "external", "command"), None, "model.external.command"),
    (("model", "external", "command"), "python server.py", "model.external.command"),
    (("model", "external", "timeout_s"), "30", "model.external.timeout_s"),
    (("model", "external", "batch_limit"), 1.5, "model.external.batch_limit"),
    (("model", "external", "batch_limit"), True, "model.external.batch_limit"),
    (("model", "external", "timeout_s"), 0, "model.external.timeout_s must be positive"),
    (("model", "external", "batch_limit"), 0,
     "model.external.batch_limit must be at least 1, got 0"),
]


@pytest.mark.parametrize(
    "path, value, key", MISTYPED, ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _ in MISTYPED]
)
def test_mistyped_config_value_is_exit_2_naming_the_key(tmp_path, capsys, path, value, key):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(mistyped(path, value)))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err, err
    if path[0] == "maps":
        assert "variant 'mod'" in err
    assert not (tmp_path / "out").exists()


MISTYPED_PATHS = [
    (("output_dir",), 3, "output_dir must be a string, got 3"),
    (("dataset",), {"path": 3}, "dataset.path must be a string, got 3"),
    (("model",), {"mlp_weights": ["w.json"]},
     "model.mlp_weights must be a string, got ['w.json']"),
    (("maps", "source"), None, "maps.source must be a string, got None"),
    (("maps", "variants"), ["mod"], "maps.variants must be an object, got ['mod']"),
]


@pytest.mark.parametrize(
    "path, value, message", MISTYPED_PATHS,
    ids=[".".join(path) for path, _, _ in MISTYPED_PATHS],
)
def test_mistyped_path_or_variants_is_exit_2_naming_the_key(tmp_path, capsys, path, value, message):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(mistyped(path, value)))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


REFUSED_SCHEMES = [
    ({"kind": "constant", "fraction": 0.3}, "unknown key(s) ['fraction'] in scheme constant"),
    ({"kind": "constant", "renormalize": True},
     "unknown key(s) ['renormalize'] in scheme constant"),
    ({"kind": "random", "fraction": 0.3}, "unknown key(s) ['fraction'] in scheme random"),
    ({"kind": "random", "renormalize": True}, "unknown key(s) ['renormalize'] in scheme random"),
    ({"kind": "partial", "magnitude": 0.5}, "unknown key(s) ['magnitude'] in scheme partial"),
    ({"kind": "partial", "fraction": 0.3}, "unknown key(s) ['fraction'] in scheme partial"),
    ({"kind": "partial", "renormalize": True},
     "unknown key(s) ['renormalize'] in scheme partial"),
    ({"kind": "synth_remove", "magnitude": 0.5},
     "unknown key(s) ['magnitude'] in scheme synth_remove"),
    ({"kind": "synth_introduce", "renormalize": True},
     "unknown key(s) ['renormalize'] in scheme synth_introduce"),
    ({"kind": "synth_remove", "direction": "introduce"},
     "direction must be one of ['remove'], got 'introduce'"),
    ({"kind": "synth_introduce", "direction": "remove"},
     "direction must be one of ['introduce'], got 'remove'"),
    ({"kind": "constant", "magnitude": -0.3}, "magnitude must be non-negative"),
    ({"kind": "random", "magnitude": -0.3}, "magnitude must be non-negative"),
    ({"kind": "synth_introduce", "magnitude": 0}, "magnitude must be positive"),
]


@pytest.mark.parametrize(
    "scheme, message", REFUSED_SCHEMES,
    ids=["-".join(map(str, scheme.values())) for scheme, _ in REFUSED_SCHEMES],
)
def test_a_scheme_key_its_kind_refuses_is_exit_2_naming_the_variant(
    tmp_path, capsys, monkeypatch, scheme, message
):
    # each is refused with the config, before the dataset is built
    monkeypatch.setattr(
        "soco.experiment.generate_synthetic", mock.Mock(side_effect=AssertionError("built"))
    )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(mistyped(SCHEME, scheme)))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: variant 'mod': {message}\n"
    assert not (tmp_path / "out").exists()


def test_mistyped_scheme_field_is_exit_2_without_traceback(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(mistyped(SCHEME + ("fraction",), "0.3")))
    proc = run_cli_process("run", "--config", str(cfg_path))
    assert no_traceback(proc, 2, "config error"), proc.stderr
    assert "fraction" in proc.stderr
    assert not (tmp_path / "out").exists()


MISTYPED_OPTIONS = [
    ("completeness", "noise_std", None),
    ("completeness", "thresholds", 0.5),
    ("soundness", "mask_ratios", [0.5, "0.2"]),
    ("deletion", "noise_std", True),
    ("soundness", "epsilon", "0.1"),
    ("deletion", "order", 1),
]


@pytest.mark.parametrize(
    "metric, key, value", MISTYPED_OPTIONS,
    ids=[f"{metric}.{key}={value!r}" for metric, key, value in MISTYPED_OPTIONS],
)
def test_mistyped_metric_option_is_exit_2_without_traceback(tmp_path, metric, key, value):
    cfg = mistyped(("metrics", metric), {key: value})
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli_process("run", "--config", str(cfg_path))
    assert no_traceback(proc, 2, "config error"), proc.stderr
    assert f"metrics.{metric}.{key}" in proc.stderr
    assert not (tmp_path / "out").exists()


DATA_RULES = [
    (20, "soundness", {}, "mask ratio 0.99 masks every feature of a 20-feature map"),
    (50, "soundness", {}, "mask ratio 0.99 masks every feature of a 50-feature map"),
    (60, "soundness", {"mask_ratios": [0.999, 0.5]},
     "mask ratio 0.999 masks every feature of a 60-feature map"),
    (60, "soundness", {"imputer": "noisy_linear"}, "noisy_linear requires grid-shaped samples"),
    (60, "completeness", {"imputer": "noisy_linear"}, "noisy_linear requires grid-shaped samples"),
    (60, "insertion", {"imputer": "noisy_linear"}, "noisy_linear requires grid-shaped samples"),
]


@pytest.mark.parametrize(
    "n_features, metric, options, message", DATA_RULES,
    ids=[f"d{d}-{metric}-{'-'.join(opts) or 'defaults'}" for d, metric, opts, _ in DATA_RULES],
)
def test_an_option_the_data_rules_out_is_exit_2_leaving_no_output(
    tmp_path, capsys, n_features, metric, options, message
):
    # the metric raises the same error when called on the same data
    dataset = generate_synthetic(12, n_features, seed=3)
    with pytest.raises(ConfigError) as info:
        METRICS[metric](LinearStepModel(), dataset, ground_truth_attribution(dataset), **options)
    assert str(info.value) == message
    cfg = mistyped(("metrics",), {"deletion": {}, metric: options})
    cfg["dataset"]["synthetic"]["n_features"] = n_features
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


DOMAIN_RULES = [
    ("completeness", {"thresholds": []},
     "metrics.completeness.thresholds must be a non-empty list strictly descending inside (0, 1)"),
    ("deletion", {"fractions": [0.5]},
     "metrics.deletion.fractions must be at least two values strictly ascending within [0, 1]"),
    ("completeness", {"imputer": "bogus"},
     "metrics.completeness.imputer must be one of ['zero', 'mean', 'noisy_linear'], got 'bogus'"),
    ("soundness", {"weighting": "bogus"},
     "metrics.soundness.weighting must be one of ['attribution', 'cardinality'], got 'bogus'"),
    ("deletion", {"order": "bogus"},
     "metrics.deletion.order must be one of ['MoRF', 'LeRF'], got 'bogus'"),
    ("soundness", {"epsilon": -1}, "metrics.soundness.epsilon must be positive"),
    ("completeness", {"noise_std": -1}, "metrics.completeness.noise_std must be non-negative"),
    ("road", {"fractions": [0.0, 1.5]},
     "metrics.road.fractions must be at least two values strictly ascending within [0, 1]"),
]


@pytest.mark.parametrize(
    "metric, options, message", DOMAIN_RULES,
    ids=[f"{metric}-{'-'.join(f'{k}={v}' for k, v in opts.items())}"
         for metric, opts, _ in DOMAIN_RULES],
)
def test_an_option_outside_its_domain_is_exit_2_leaving_no_output(
    tmp_path, metric, options, message
):
    # the metric raises the same error when called on the same data
    dataset = generate_synthetic(12, 60, seed=3)
    with pytest.raises(ConfigError) as info:
        METRICS[metric](LinearStepModel(), dataset, ground_truth_attribution(dataset), **options)
    assert str(info.value) == message
    cfg = mistyped(("metrics",), {"deletion": {}, metric: options})
    cfg["dataset"]["synthetic"]["n_features"] = 60
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli_process("run", "--config", str(cfg_path))
    assert (proc.returncode, proc.stderr) == (2, f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
NOT_REAL = st.sampled_from([None, True, "0.5", {}, [0.5]])


def is_real(value) -> bool:
    return isinstance(value, float) and np.isfinite(value)


def holds_reals(value) -> bool:
    return isinstance(value, list) and all(is_real(v) for v in value)


def descends(value) -> bool:
    return holds_reals(value) and len(value) > 0 and all(0 < v < 1 for v in value) and all(
        b < a for a, b in zip(value, value[1:])
    )


def ascends(value) -> bool:
    return holds_reals(value) and len(value) > 1 and all(0 <= v <= 1 for v in value) and all(
        b > a for a, b in zip(value, value[1:])
    )


def breaking(valid):
    """Values that break a list rule: not a list, an item that is not a
    finite real, or finite reals outside the rule's domain."""
    item = st.one_of(st.floats(0, 1), FINITE, NON_FINITE, st.sampled_from([None, True, "0.2"]))
    return st.one_of(
        st.sampled_from([None, True, 0.5, "0.5", {}]),
        st.lists(item, max_size=4).filter(lambda v: not valid(v)),
    )


def not_one_of(choices):
    return st.one_of(
        st.sampled_from([1, None, True, [choices[0]]]),
        st.text(max_size=12).filter(lambda v: v not in choices),
    )


# for each option, values its rule rejects: a wrong type, a non-finite
# value, or a value outside its domain
BAD_VALUES = {
    "mask_ratios": breaking(descends),
    "thresholds": breaking(descends),
    "fractions": breaking(ascends),
    "epsilon": st.one_of(NOT_REAL, NON_FINITE, st.floats(max_value=0.0, allow_nan=False)),
    "noise_std": st.one_of(NOT_REAL, NON_FINITE, st.floats(max_value=-1e-12, allow_nan=False)),
    "imputer": not_one_of(IMPUTER_KINDS),
    "weighting": not_one_of(WEIGHTINGS),
    "order": not_one_of(RANK_ORDERS),
}
OPTIONS = [(metric, key) for metric in METRICS for key in metric_defaults(metric)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_bad_option_is_the_same_config_error_on_every_path(data):
    metric, key = data.draw(st.sampled_from(OPTIONS))
    value = data.draw(BAD_VALUES[key])
    dataset = generate_synthetic(12, 60, seed=3)
    call = (LinearStepModel(), dataset, ground_truth_attribution(dataset))
    with pytest.raises(ConfigError) as info:
        METRICS[metric](*call, **{key: value})
    message = str(info.value)
    assert message.startswith(f"metrics.{metric}.{key}"), message
    with tempfile.TemporaryDirectory() as tmp:
        cfg = mistyped(("metrics",), {metric: {key: value}})
        cfg["dataset"]["synthetic"]["n_features"] = 60
        cfg_path = Path(tmp) / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", str(cfg_path)])
        assert (rc, err.getvalue()) == (2, f"config error: {message}\n")
        assert os.listdir(tmp) == ["exp.json"]


def test_an_external_command_that_names_no_executable_is_exit_3_leaving_no_output(tmp_path):
    missing = str(tmp_path / "no-such-server")
    cfg = mistyped(("model",), {"external": {"command": [missing, "step"]}})
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli_process("run", "--config", str(cfg_path))
    assert proc.returncode == 3
    assert proc.stderr == (
        f"model bridge error: could not launch model server: no executable {missing!r}\n"
    )
    assert not (tmp_path / "out").exists()


FUZZ_BASE = {
    "seed": 3,
    "output_dir": "out",
    "workers": 2,
    "dataset": {"synthetic": {"n_samples": 12, "n_features": 10, "seed": 5}},
    "model": {"builtin": "linear_step"},
    "maps": {
        "source": "ground_truth",
        "variants": {
            "original": [],
            "mod": [{
                "kind": "synth_introduce", "direction": "introduce", "fraction": 0.3,
                "magnitude": 1.0, "seed": 1, "renormalize": False,
            }],
        },
    },
    "metrics": {
        "soundness": {
            "mask_ratios": [0.5, 0.2], "epsilon": 0.01, "imputer": "mean",
            "noise_std": 0.0, "weighting": "attribution",
        },
        "completeness": {"thresholds": [0.5, 0.1], "imputer": "zero", "noise_std": 0.5},
        "deletion": {"order": "MoRF", "fractions": [0.0, 0.5, 1.0], "imputer": "zero"},
        "insertion": {"order": "LeRF"},
        "road": {"fractions": [0.0, 1.0]},
    },
}


def config_paths(node, prefix=()):
    """Every key or list index path into ``node``, outermost first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from config_paths(value, prefix + (key,))


DROP = object()
# wrong types, and values out of range for some key or other; 2**50 rows or
# features cannot be allocated, so no example takes much memory
FUZZ_VALUES = [
    None, True, False, 0, 1, 2, -1, 2**50, 2**64, 0.0, -0.0, 0.5, 1.0, 1.5, -1.0, 1e308,
    -1e-300, float("nan"), float("inf"), "", "bogus", "noisy_linear", "MoRF", "mean",
    "synth_remove", "introduce", [], [0.5], [0.5, 0.5], [1.5, 0.5], [0.0, 1.0], [0.9, 0.0],
    ["a"], [None], [[]], {}, {"x": 1}, {"kind": "synth_remove"},
]
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(list(config_paths(FUZZ_BASE))),
        st.sampled_from([DROP] + FUZZ_VALUES),
    ),
    min_size=1,
    max_size=4,
)


def holds(node, key) -> bool:
    return (isinstance(node, dict) and key in node) or (
        isinstance(node, list) and isinstance(key, int) and key < len(node)
    )


def mutated(mutations) -> dict:
    """``FUZZ_BASE`` with each (path, value) applied in turn: the value
    replaces the entry, or ``DROP`` deletes it; a path that an earlier
    mutation took away is passed over."""
    cfg = copy.deepcopy(FUZZ_BASE)
    for path, value in mutations:
        node = cfg
        for key in path[:-1]:
            if not holds(node, key):
                break
            node = node[key]
        else:
            key = path[-1]
            if value is DROP and holds(node, key):
                del node[key]
            elif value is not DROP and (holds(node, key) or isinstance(node, dict)):
                node[key] = copy.deepcopy(value)
    return cfg


@settings(max_examples=300, deadline=None)
@given(mutations=MUTATIONS)
def test_a_mutated_config_exits_cleanly(mutations):
    # each example runs in its own directory, so a run leaves nothing for the next
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exp.json"
        cfg_path.write_text(json.dumps(mutated(mutations)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", str(cfg_path)])
        assert rc in (0, 2, 3, 4), (rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc:
            assert sorted(os.listdir(tmp)) == ["exp.json"], err.getvalue()
