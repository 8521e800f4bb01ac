import contextlib
import copy
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soco import (
    ConfigError,
    LinearStepModel,
    completeness_curve,
    generate_synthetic,
    ground_truth_attribution,
    order_based_curve,
    parallel,
    read_curve,
    read_dataset,
    read_maps,
    road_curve,
    soundness_curve,
    write_curve,
)
from soco.cli import main
from soco.metrics import METRICS
from soco.io import canonical_json

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


def library_curve(metric, model, dataset, maps):
    """``metric`` through its library function, with no options."""
    if metric in ("deletion", "insertion"):
        return order_based_curve(model, dataset, maps, metric)
    fn = {"soundness": soundness_curve, "completeness": completeness_curve, "road": road_curve}
    return fn[metric](model, dataset, maps)


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
    write_curve(library_curve(metric, LinearStepModel(), dataset, maps), workdir / "lib.json")
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
    assert without_digest(workdir / "eval.json") == without_digest(workdir / "lib.json")
    assert without_digest(run_curve) == without_digest(workdir / "lib.json")


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
    else:
        args += ["--maps", str(workdir / "maps.soco"), "--kind", "synth_remove"]
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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"layers": []}, "no field 'n_classes'"),
        ({"n_classes": 2, "layers": [{"bias": [0.0, 0.0]}]}, "no field 'weight'"),
        ({"n_classes": 2, "layers": ["dense"]}, "malformed"),
        ({"n_classes": 2, "layers": [{"weight": [[1.0], [2.0, 3.0]], "bias": [0.0, 0.0]}]},
         "malformed"),
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
    node[path[-1]] = value
    return cfg


SCHEME = ("maps", "variants", "mod", 0)
MISTYPED = [
    (("seed",), "3", "seed"),
    (("seed",), 1.5, "seed"),
    (("seed",), True, "seed"),
    (("workers",), 1.5, "workers"),
    (("workers",), True, "workers"),
    (("dataset", "synthetic", "n_samples"), 1.5, "dataset.synthetic.n_samples"),
    (("dataset", "synthetic", "n_samples"), True, "dataset.synthetic.n_samples"),
    (("dataset", "synthetic", "n_features"), 1.5, "dataset.synthetic.n_features"),
    (("dataset", "synthetic", "n_features"), True, "dataset.synthetic.n_features"),
    (("dataset", "synthetic", "seed"), 1.5, "dataset.synthetic.seed"),
    (("dataset", "synthetic", "seed"), True, "dataset.synthetic.seed"),
    (("dataset", "synthetic", "seed"), -1, "dataset.synthetic.seed"),
    (("dataset", "synthetic", "seed"), "3", "dataset.synthetic.seed"),
    (SCHEME + ("fraction",), "0.3", "fraction"),
    (SCHEME + ("fraction",), None, "fraction"),
    (SCHEME + ("magnitude",), "0.5", "magnitude"),
    (SCHEME + ("magnitude",), None, "magnitude"),
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
    ("completeness", {"thresholds": []}, "thresholds must be non-empty"),
    ("deletion", {"fractions": [0.5]}, "fractions must be strictly ascending within [0, 1]"),
    ("completeness", {"imputer": "bogus"}, "unknown imputer kind 'bogus'"),
    ("soundness", {"weighting": "bogus"}, "unknown weighting 'bogus'"),
    ("deletion", {"order": "bogus"}, "unknown rank order 'bogus'"),
    ("soundness", {"epsilon": -1}, "epsilon must be positive"),
    ("completeness", {"noise_std": -1}, "noise_std must be non-negative"),
    ("road", {"fractions": [0.0, 1.5]}, "fractions must be strictly ascending within [0, 1]"),
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
