"""scipy is loaded only by a process that solves grids, and before it forks;
the solve loads scipy's LAPACK extension alone, never the scipy.linalg or
scipy.sparse packages.

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


def test_a_grid_run_loads_scipy_only_for_the_neighbor_solve(tmp_path):
    # zero and mean fills on a grid set load no scipy; ROAD, whose grid fill
    # is the neighbor solve, loads the LAPACK extension and no scipy package
    out = run_fresh("""
        import json
        import sys

        import numpy as np

        import soco
        import soco.cli
        from soco.models import Layer

        rng = np.random.default_rng(5)
        feats = rng.standard_normal((10, 6, 6, 2))
        ds = soco.Dataset(feats, (feats.sum(axis=(1, 2, 3)) > 0).astype(int), n_classes=2)
        soco.write_dataset(ds, "grid.soco")
        maps = soco.normalize_attribution(np.abs(rng.standard_normal(feats.shape)))
        soco.write_maps(maps, "maps.soco", dataset=ds)
        layer = Layer(weight=rng.standard_normal((2, 72)), bias=np.zeros(2))
        soco.MlpWeights(layers=(layer,), n_classes=2).to_json("net.json")
        constant = {
            "soundness": {"mask_ratios": [0.5, 0.2], "imputer": "zero"},
            "completeness": {},
            "deletion": {"imputer": "mean"},
            "insertion": {},
        }
        seen = []
        for out, metrics in (("constant", constant), ("road", {"road": {}})):
            with open(out + ".json", "w") as f:
                json.dump({
                    "output_dir": out,
                    "workers": 2,
                    "dataset": {"path": "grid.soco"},
                    "model": {"mlp_weights": "net.json"},
                    "maps": {"source": "maps.soco"},
                    "metrics": metrics,
                }, f)
            assert soco.cli.main(["run", "--config", out + ".json"]) == 0
            seen.append(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
            seen.append("scipy" in sys.modules)
        print(json.dumps(seen))
    """, tmp_path)
    assert (tmp_path / "road" / "manifest.json").exists()
    assert json.loads(out.splitlines()[-1]) == [[], False, ["scipy.linalg._flapack"], True], out


def test_grid_solving_lanes_inherit_scipy(tmp_path):
    # two lanes are forced, as tests/test_metrics.py does, whatever the CPUs
    out = run_fresh("""
        import os
        import sys

        import numpy as np

        from soco import Dataset, MlpModel, MlpWeights, metrics, normalize_attribution, parallel
        from soco.models import Layer
        from soco.perturb import load_solver

        PACKAGES = ("scipy.linalg", "scipy.sparse")

        assert "scipy" not in sys.modules
        parallel._usable_cpus = lambda: 2
        impute_grid = metrics.impute_grid

        def logged(features, mask):
            # the solver is loaded before the solve; no scipy package after it
            loaded = load_solver.cache_info().currsize == 1
            filled = impute_grid(features, mask)
            packages = any(name in sys.modules for name in PACKAGES)
            with open("solves.log", "a") as log:
                log.write(f"{os.getpid()} {loaded} {packages}\\n")
            return filled

        metrics.impute_grid = logged
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((8, 16, 16, 1))
        ds = Dataset(feats, (feats.sum(axis=(1, 2, 3)) > 0).astype(int), n_classes=2)
        maps = normalize_attribution(np.abs(rng.standard_normal(feats.shape)))
        layer = Layer(weight=rng.standard_normal((2, 256)), bias=np.zeros(2))
        model = MlpModel(MlpWeights(layers=(layer,), n_classes=2))
        metrics.road_curve(model, ds, maps, noise_std=0.5)
        print(os.getpid(), any(name in sys.modules for name in PACKAGES))
    """, tmp_path)
    caller, caller_packages = out.split()[-2:]
    solves = [line.split() for line in (tmp_path / "solves.log").read_text().splitlines()]
    lanes = {pid for pid, _, _ in solves}
    assert len(lanes) == 2 and caller not in lanes
    # every lane inherits the loaded solver, and no process imports a scipy package
    assert {(loaded, packages) for _, loaded, packages in solves} == {("True", "False")}
    assert caller_packages == "False"


SOLVE_BANDS = """
    import sys

    import numpy as np

    def bands():
        # random symmetric bands, most of them positive definite, then one
        # that is not: LAPACK stops at its second pivot (info 2)
        rng = np.random.default_rng(18)
        for _ in range(200):
            n, kd = int(rng.integers(1, 40)), int(rng.integers(0, 6))
            band = rng.uniform(-1 / 6, 0, (kd + 1, n))
            band[0] = rng.uniform(0.5, 1.5, n) + 0.5 * kd
            yield np.asfortranarray(band), rng.standard_normal(n)
        yield np.array([[1.0, 1.0], [2.0, 0.0]]), np.ones(2)

    def solved(dpbsv):
        out = []
        for band, rhs in bands():
            c, x, info = dpbsv(band, rhs, lower=1)
            out.append(c.tobytes().hex() + x.tobytes().hex() + f" {info}")
        return out
"""


def test_the_loaded_solver_is_scipys_dpbsv_bit_for_bit(tmp_path):
    # one process solves with load_solver, the other with the package's
    # dpbsv, so neither can hand the other its module
    lean = run_fresh(SOLVE_BANDS + """
    from soco.perturb import load_solver

    print("\\n".join(solved(load_solver())))
    assert "scipy.linalg" not in sys.modules
    """, tmp_path).splitlines()
    package = run_fresh(SOLVE_BANDS + """
    from scipy.linalg.lapack import dpbsv

    print("\\n".join(solved(dpbsv)))
    """, tmp_path).splitlines()
    assert len(lean) == 201
    assert lean == package
    assert lean[-1].endswith(" 2") and all(line.endswith(" 0") for line in lean[:-1])
