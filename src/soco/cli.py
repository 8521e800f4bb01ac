"""Command-line surface.

Verbs mirror the library layers: data generation, attribution, map
modification, single-metric evaluation, curve comparison, full config-driven
runs, and plot-data export.  Exit codes: 0 success, 2 bad configuration or
arguments, 3 model bridge failure, 4 bad data, 5 a worker process died.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .analysis import CurveSet, min_pairwise_hausdorff, pairwise_hausdorff
from .core import ConfigError, DataError, ModelBridgeError, WorkerError
from .experiment import SCHEME_KEYS, load_config, run_experiment
from .io import (
    emit_plot_data,
    read_curve,
    read_dataset,
    read_maps,
    write_curve,
    write_dataset,
    write_maps,
)
from .metrics import IMPUTER_KINDS, METRICS, RANK_ORDERS, WEIGHTINGS, metric_defaults
from .models import MlpModel, MlpWeights
from .modify import DIRECTIONS, SCHEME_KINDS, ModScheme, apply_scheme
from .synthetic import LinearStepModel, generate_synthetic, ground_truth_attribution, oracle_info


def _given(args, names) -> dict:
    """The flags among ``names`` that were given, by their library names.  A
    flag left out is not passed, so it takes the library's own default."""
    return {key: value for key, value in vars(args).items() if key in names}


def _cmd_gen_synthetic(args) -> int:
    dataset = generate_synthetic(**_given(args, ("n_samples", "n_features", "seed")))
    write_dataset(dataset, args.out, **_given(args, ("format",)))
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def _cmd_attribute(args) -> int:
    dataset = read_dataset(args.dataset)
    maps = ground_truth_attribution(dataset)
    write_maps(maps, args.out, dataset=dataset, **_given(args, ("format",)))
    print(f"wrote {len(maps)} ground-truth maps to {args.out}")
    return 0


def _cmd_modify(args) -> int:
    dataset = read_dataset(args.dataset) if vars(args).get("dataset") else None
    maps = read_maps(args.maps, dataset)
    scheme = ModScheme(**_given(args, SCHEME_KEYS))
    oracle = None
    if scheme.kind == "synth_introduce":
        if dataset is None:
            raise ConfigError("synth_introduce needs --dataset for oracle information")
        oracle = oracle_info(dataset)
    out = apply_scheme(maps, scheme, oracle)
    write_maps(out, args.out, dataset=dataset, **_given(args, ("format",)))
    print(f"wrote {len(out)} modified maps to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    options = _given(args, {key for name in METRICS for key in metric_defaults(name)})
    unknown = sorted(set(options) - set(metric_defaults(args.metric)))
    if unknown:
        raise ConfigError(f"--metric {args.metric} takes no --{unknown[0].replace('_', '-')}")
    dataset = read_dataset(args.dataset)
    weights = vars(args).get("mlp_weights")
    model = MlpModel(MlpWeights.from_json(weights)) if weights else LinearStepModel()
    if vars(args).get("maps"):
        maps = read_maps(args.maps, dataset)
    else:
        maps = ground_truth_attribution(dataset)
    curve = METRICS[args.metric](model, dataset, maps, **options, **_given(args, ("seed",)))
    write_curve(curve, args.out)
    print(f"wrote {args.metric} curve ({len(curve.points)} points) to {args.out}")
    return 0


def _curve_label(path: Path, taken: set) -> str:
    name = path.name
    for suffix in (".curve.json", ".json"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    label = name
    bump = 1
    while label in taken:
        bump += 1
        label = f"{name}~{bump}"
    return label


def _cmd_compare(args) -> int:
    curves = {}
    for raw in args.curves:
        path = Path(raw)
        curves[_curve_label(path, set(curves))] = read_curve(path)
    curve_set = CurveSet(curves)
    if vars(args).get("min_hausdorff"):
        print(f"{min_pairwise_hausdorff(curve_set):.9f}")
        return 0
    for (a, b), dist in sorted(pairwise_hausdorff(curve_set).items()):
        print(f"{a} vs {b}: {dist:.9f}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    manifest = run_experiment(cfg)
    print(f"run complete; manifest at {cfg.output_dir / 'manifest.json'}")
    for variant, metrics in sorted(manifest.outputs.items()):
        for metric, path in sorted(metrics.items()):
            print(f"  {variant}/{metric}: {path}")
    return 0


def _cmd_emit_plot(args) -> int:
    emit_plot_data(read_curve(args.curve), args.out, **_given(args, ("format",)))
    print(f"wrote plot data to {args.out}")
    return 0


def _flag_named(message: str, args) -> str:
    """``message`` with the option key it starts with, as the library names
    it (``noise_std``, ``metrics.soundness.epsilon``), named as the flag
    that set it (``--noise-std``, ``--epsilon``); only a flag that was
    given is in ``args``."""
    key, sep, rest = message.partition(" must ")
    key = key.rpartition(".")[2]
    if sep and key in vars(args):
        return f"--{key.replace('_', '-')}{sep}{rest}"
    return message


def build_parser() -> argparse.ArgumentParser:
    """The ``soco`` parser.  No verb's flag has a default: a flag left out is
    absent from the parsed arguments and passes nothing, so the library's
    signature supplies the default."""
    parser = argparse.ArgumentParser(
        prog="soco", description="Attribution-map faithfulness evaluation."
    )
    parser.add_argument("--version", action="version", version=f"soco {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = verb("gen-synthetic", _cmd_gen_synthetic, "generate the synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-features", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("binary", "json"))

    p = verb("attribute", _cmd_attribute, "write ground-truth attribution maps")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("binary", "json"))

    p = verb("modify", _cmd_modify, "apply a modification scheme to maps")
    p.add_argument("--maps", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=SCHEME_KINDS)
    p.add_argument("--direction", choices=DIRECTIONS)
    p.add_argument("--magnitude", type=float)
    p.add_argument("--fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--renormalize", action="store_true")
    p.add_argument("--dataset", help="required for synth_introduce; validates alignment")
    p.add_argument("--format", choices=("binary", "json"))

    p = verb("eval", _cmd_eval, "evaluate one metric")
    p.add_argument("--metric", required=True, choices=tuple(METRICS))
    p.add_argument("--dataset", required=True)
    p.add_argument("--maps", help="map file; omitted = ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--mlp-weights")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--imputer", choices=IMPUTER_KINDS)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--weighting", choices=WEIGHTINGS)
    p.add_argument("--order", choices=RANK_ORDERS)
    p.add_argument("--seed", type=int)

    p = verb("compare", _cmd_compare, "Hausdorff distances between curves")
    p.add_argument("curves", nargs="+")
    p.add_argument(
        "--min-hausdorff",
        action="store_true",
        help="print only the minimum pairwise distance",
    )

    p = verb("run", _cmd_run, "run a full experiment config")
    p.add_argument("--config", required=True)

    p = verb("emit-plot", _cmd_emit_plot, "export a curve as CSV or JSON columns")
    p.add_argument("--curve", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelBridgeError as exc:
        print(f"model bridge error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {_flag_named(str(exc), args)}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
