"""Spans and counters at soco's layer boundaries, installed from outside.

The tracer rebinds a fixed table of soco entry points (module functions in
every ``soco.*`` namespace that imported them, and methods on their classes)
to wrappers that record one span per call: name, layer key, start, end and
parent.  A span's self time is its duration minus the durations of its
child spans, and a layer's time is the sum of its spans' self times.  Work
inside a layer that has no traced entry point (the mean and zero fill in
``metrics``, for instance) stays in its caller's self time.

Spans are recorded on the main thread only.  A model call made from another
thread (the pool inside ``experiment._ChunkedModel``) happens while the
outer model span is open, so its time is already covered by that span.
Nested model calls are not counted twice: only the outermost model call of
a chain counts towards ``models.calls``, ``models.rows`` and
``models.duplicate_rows``.

Nothing here runs at import time; ``Tracer.install`` patches and
``Tracer.uninstall`` restores every binding it changed.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

# (module, function, time key)
FUNCTIONS = (
    ("soco.synthetic", "generate_synthetic", "synthetic.generate_s"),
    ("soco.synthetic", "ground_truth_attribution", "synthetic.generate_s"),
    ("soco.synthetic", "oracle_info", "synthetic.generate_s"),
    ("soco.io", "read_dataset", "io.read_s"),
    ("soco.io", "read_maps", "io.read_s"),
    ("soco.io", "read_curve", "io.read_s"),
    ("soco.io", "write_dataset", "io.write_s"),
    ("soco.io", "write_maps", "io.write_s"),
    ("soco.io", "write_curve", "io.write_s"),
    ("soco.io", "atomic_write", "io.write_s"),
    ("soco.io", "emit_plot_data", "io.write_s"),
    ("soco.modify", "apply_scheme", "modify.apply_s"),
    ("soco.metrics", "soundness_curve", "metrics.self_s"),
    ("soco.metrics", "completeness_curve", "metrics.self_s"),
    ("soco.metrics", "order_based_curve", "metrics.self_s"),
    ("soco.metrics", "road_curve", "metrics.self_s"),
    ("soco.metrics", "align_soundness", "metrics.self_s"),
    ("soco.metrics", "auc", "metrics.self_s"),
    ("soco.perturb", "impute_grid", "perturb.impute_grid_s"),
    ("soco.analysis", "aggregate_trials", "analysis.s"),
    ("soco.analysis", "hausdorff_distance", "analysis.s"),
    ("soco.analysis", "pairwise_hausdorff", "analysis.s"),
    ("soco.analysis", "min_pairwise_hausdorff", "analysis.s"),
    ("soco.experiment", "run_experiment", "experiment.self_s"),
    ("soco.experiment", "run_validation", "experiment.self_s"),
    ("soco.experiment", "evaluate_metric", "experiment.self_s"),
    ("soco.experiment", "load_config", "experiment.self_s"),
    ("soco.experiment", "parse_config", "experiment.self_s"),
)

# (module, class, method, time key); every predict_probs is a model call
METHODS = (
    ("soco.core", "Dataset", "feature_matrix", "core.feature_matrix_s"),
    ("soco.synthetic", "LinearStepModel", "predict_probs", "models.predict_s"),
    ("soco.models", "MlpModel", "predict_probs", "models.predict_s"),
    ("soco.models", "ExternalModel", "predict_probs", "models.predict_s"),
    ("soco.experiment", "_ChunkedModel", "predict_probs", "models.predict_s"),
    ("soco.models", "MlpWeights", "from_json", "models.load_s"),
)

# (module, function, count key): counted per call, no span
COUNTED = (("soco.rng", "substream", "rng.substreams"),)

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("synthetic.generate_s", "s"),
    ("io.read_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_read", "bytes"),
    ("core.feature_matrix_calls", "count"),
    ("core.feature_matrix_s", "s"),
    ("rng.substreams", "count"),
    ("modify.apply_s", "s"),
    ("modify.maps", "count"),
    ("metrics.self_s", "s"),
    ("metrics.sweep_steps", "count"),
    ("perturb.impute_grid_calls", "count"),
    ("perturb.impute_grid_s", "s"),
    ("perturb.fully_masked", "count"),
    ("models.calls", "count"),
    ("models.rows", "count"),
    ("models.predict_s", "s"),
    ("models.duplicate_rows", "count"),
    ("models.load_s", "s"),
    ("analysis.s", "s"),
    ("experiment.self_s", "s"),
    ("trace.overhead_s", "s"),
)

_HASH_KEY = "trace.hash_s"  # the tracer's own row hashing, kept out of every layer


def _soco_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "soco" or name.startswith("soco."))]


class Tracer:
    """Records spans and counts for one traced round at a time."""

    def __init__(self) -> None:
        self._main = threading.main_thread()
        self._patches: list = []  # (owner, attribute, previous value)
        self._model_depth = 0
        self._metrics_depth = 0
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans: list = []  # [name, key, start, end, parent index, child seconds]
        self._stack: list = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._row_keys: list = []

    def _open(self, name: str, key: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, key, time.perf_counter(), None, parent, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        self._stack.pop()
        span[3] = end
        duration = end - span[2]
        self.self_s[span[1]] += duration - span[5]
        if span[4] >= 0:
            self.spans[span[4]][5] += duration

    def _record_rows(self, batch) -> None:
        from soco.core import batch_features

        idx = self._open("row_hash", _HASH_KEY)
        try:
            feats = batch_features(batch)
            rows = np.ascontiguousarray(feats.reshape(feats.shape[0], -1))
            # Python's keyed 64-bit bytes hash: among a million distinct rows
            # the chance of one false match is below 1e-7
            keys = np.fromiter((hash(row.tobytes()) for row in rows), np.int64, rows.shape[0])
            self._row_keys.append(keys)
            self.counts["models.calls"] += 1
            self.counts["models.rows"] += rows.shape[0]
        finally:
            self._close(idx)

    def summary(self) -> dict:
        """Per-layer figures of the round recorded since the last reset."""
        out = {}
        for name, unit in PER_LAYER:
            if unit == "s":
                out[name] = float(self.self_s.get(name, 0.0))
            else:
                out[name] = int(self.counts.get(name, 0))
        if self._row_keys:
            keys = np.concatenate(self._row_keys)
            out["models.duplicate_rows"] = int(keys.size - np.unique(keys).size)
        del out["trace.overhead_s"]  # a difference of two runs, filled in by the caller
        return out

    def write(self, path) -> None:
        """Spans of the current round as JSON rows [name, start, end, parent]."""
        rows = [[s[0], s[2], s[3], s[4]] for s in self.spans]
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, handle)
        os.replace(tmp, path)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, key: str):
        tracer = self
        hook = _HOOKS.get(key)

        def traced(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            if key == "metrics.self_s":
                tracer._metrics_depth += 1
            if hook is not None:
                hook(tracer, args, kwargs)
            idx = tracer._open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if key == "metrics.self_s":
                    tracer._metrics_depth -= 1
            if key == "metrics.self_s" and tracer._metrics_depth == 0:
                tracer.counts["metrics.sweep_steps"] += _sweep_steps(result)
            elif key == "modify.apply_s":
                tracer.counts["modify.maps"] += len(result)
            return result

        return traced

    def _model_wrapper(self, fn, name: str):
        tracer = self

        def traced(model, batch, *args, **kwargs):
            if tracer._model_depth or threading.current_thread() is not tracer._main:
                return fn(model, batch, *args, **kwargs)
            tracer._model_depth += 1
            idx = tracer._open(name, "models.predict_s")
            try:
                result = fn(model, batch, *args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._model_depth -= 1
            tracer._record_rows(batch)
            return result

        return traced

    def _count_wrapper(self, fn, key: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in _soco_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, fn_name, key in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is not None:
                self._rebind(original, self._span_wrapper(original, f"{mod_name}.{fn_name}", key))
        for mod_name, fn_name, key in COUNTED:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is not None:
                self._rebind(original, self._count_wrapper(original, key))
        for mod_name, cls_name, meth, key in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            raw = vars(cls)[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span_wrapper(raw.__func__, name, key))
            elif key == "models.predict_s":
                wrapped = self._model_wrapper(raw, name)
            else:
                wrapped = self._span_wrapper(raw, name, key)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _sweep_steps(result) -> int:
    """Masked evaluations behind one outermost metric call."""
    points = getattr(result, "points", None)
    if points is None:
        return 0
    sweep = getattr(result, "meta", {}).get("sweep")
    return len(sweep) if sweep is not None else len(points)


def _count_read(tracer: Tracer, args, kwargs) -> None:
    path = args[0] if args else kwargs.get("path")
    try:
        tracer.counts["io.bytes_read"] += os.path.getsize(path)
    except (OSError, TypeError):
        pass


def _count_feature_matrix(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["core.feature_matrix_calls"] += 1


def _count_impute(tracer: Tracer, args, kwargs) -> None:
    features = np.asarray(args[0] if args else kwargs["features"])
    mask = np.asarray(args[1] if len(args) > 1 else kwargs["mask"], dtype=bool)
    tracer.counts["perturb.impute_grid_calls"] += 1
    channels = features.shape[2] if features.ndim == 3 else 1
    if mask.ndim == 3:
        planes = int(np.count_nonzero(mask.reshape(-1, mask.shape[2]).all(axis=0)))
    else:
        planes = channels if mask.all() else 0
    tracer.counts["perturb.fully_masked"] += planes


_HOOKS = {
    "io.read_s": _count_read,
    "core.feature_matrix_s": _count_feature_matrix,
    "perturb.impute_grid_s": _count_impute,
}
