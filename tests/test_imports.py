"""scipy is loaded only by a process that solves grids, and before it forks.

Each check runs in a fresh interpreter, since this test process has long
imported scipy itself.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def run_fresh(script: str, cwd: Path) -> str:
    """Standard output of ``script`` run by a fresh interpreter, soco from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_validation_and_a_tabular_run_never_load_scipy(tmp_path):
    (tmp_path / "exp.json").write_text(json.dumps({
        "output_dir": "out",
        "workers": 2,
        "dataset": {"synthetic": {"n_samples": 30, "n_features": 60}},
        "maps": {"variants": {"original": [], "mod": [{"kind": "synth_remove"}]}},
        "metrics": {"soundness": {}, "completeness": {}, "deletion": {}, "road": {}},
    }))
    out = run_fresh("""
        import json
        import sys

        import soco
        import soco.cli

        # any scipy submodule imports the package itself
        seen = ["scipy" in sys.modules]
        settings = soco.ValidationSettings(n_samples=40, n_features=60, n_trials=2)
        soco.run_validation(settings)
        seen.append("scipy" in sys.modules)
        assert soco.cli.main(["run", "--config", "exp.json"]) == 0
        seen.append("scipy" in sys.modules)
        print(json.dumps(seen))
    """, tmp_path)
    assert (tmp_path / "out" / "manifest.json").exists()
    # after the imports, after run_validation, and after soco run
    assert json.loads(out.splitlines()[-1]) == [False, False, False], out


def test_grid_solving_lanes_inherit_scipy(tmp_path):
    # two lanes are forced, as tests/test_metrics.py does, whatever the CPUs
    out = run_fresh("""
        import os
        import sys

        import numpy as np

        from soco import Dataset, MlpModel, MlpWeights, metrics, normalize_attribution, parallel
        from soco.models import Layer

        assert "scipy" not in sys.modules
        parallel._usable_cpus = lambda: 2
        impute_grid = metrics.impute_grid

        def logged(features, mask):
            with open("solves.log", "a") as log:
                log.write(f"{os.getpid()} {'scipy.sparse.linalg' in sys.modules}\\n")
            return impute_grid(features, mask)

        metrics.impute_grid = logged
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((8, 16, 16, 1))
        ds = Dataset(feats, (feats.sum(axis=(1, 2, 3)) > 0).astype(int), n_classes=2)
        maps = normalize_attribution(np.abs(rng.standard_normal(feats.shape)))
        layer = Layer(weight=rng.standard_normal((2, 256)), bias=np.zeros(2))
        model = MlpModel(MlpWeights(layers=(layer,), n_classes=2))
        metrics.road_curve(model, ds, maps, noise_std=0.5)
        print(os.getpid())
    """, tmp_path)
    caller = out.split()[-1]
    solves = [line.split() for line in (tmp_path / "solves.log").read_text().splitlines()]
    lanes = {pid for pid, _ in solves}
    assert len(lanes) == 2 and caller not in lanes
    assert {loaded for _, loaded in solves} == {"True"}
