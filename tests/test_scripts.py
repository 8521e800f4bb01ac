"""Smoke tests of the scripts under scripts/ and of the package's exports.

Each script's ``main(argv)`` runs once at a tiny size, so a renamed or
deleted API breaks a test here before it breaks a script.  The sizes keep
at least 51 features, because the default 0.99 mask ratio must leave one
feature unmasked, and at least two trials where a trial spread is taken.
"""

import importlib.util
from pathlib import Path

import pytest

import soco

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SMALL_RUNS = {
    "memory_probe.py": ["--samples", "20", "--shape", "6", "5", "3", "--noise-std", "0.5"],
    "order_blindness.py": ["--samples", "40", "--features", "60"],
    "run_validation.py": ["--samples", "40", "--features", "60", "--trials", "2"],
    "sweep_modifications.py": ["--samples", "30", "--features", "51", "--trials", "2"],
}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name[: -len(".py")], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_has_a_small_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_script_runs_at_a_small_size(name, tmp_path, capsys):
    argv = SMALL_RUNS[name]
    if name == "run_validation.py":
        argv = argv + ["--out", str(tmp_path / "validation")]
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out.strip()
    if name == "run_validation.py":
        assert (tmp_path / "validation" / "validation_summary.json").is_file()


def test_every_export_resolves():
    missing = [name for name in soco.__all__ if not hasattr(soco, name)]
    assert missing == []
    assert len(set(soco.__all__)) == len(soco.__all__)
