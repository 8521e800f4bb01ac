import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from soco import parallel, read_curve, read_dataset, read_maps
from soco.cli import main

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
    alive = []
    for entry in (workdir / "pids").iterdir():
        try:
            os.kill(int(entry.name), 0)
        except ProcessLookupError:
            continue
        alive.append(int(entry.name))
    return alive


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
