"""Model backends beyond the built-in synthetic step model.

Two backends live here: a small feed-forward network loaded from a JSON
weights file, and a bridge that talks to an external model server over the
child process's standard input and output.

Server protocol, one JSON object per line:

    request:  {"id": <uint>, "inputs": [[<real>, ...], ...]}
    response: {"id": <uint>, "probs": [[<real>, ...], ...]}

Grid samples are flattened row-major (channel last) before sending.  The
child may answer requests in any order but must answer each exactly once.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import ConfigError, DataError, ModelBridgeError, Sample, batch_features

ACTIVATIONS = ("relu", "identity")
PROB_SUM_TOL = 1e-6


class BridgeTimeout(ModelBridgeError):
    """No response arrived within the configured request timeout."""


class BridgeMalformed(ModelBridgeError):
    """Response line was not valid protocol JSON."""


class BridgeUnknownId(ModelBridgeError):
    """Response id does not match any outstanding request."""


class BridgeBadProbs(ModelBridgeError):
    """Response probabilities fail validation (shape, finiteness, or sum)."""


class BridgeProcessFailed(ModelBridgeError):
    """Child process died and the one permitted restart was already spent."""


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ConfigError("layer weight must be 2-d and bias 1-d")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ConfigError("layer bias length must match output dimension")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class MlpWeights:
    layers: tuple[Layer, ...]
    n_classes: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ConfigError("adjacent layer dimensions do not chain")
        if self.layers[-1].weight.shape[0] != self.n_classes:
            raise ConfigError("final layer must emit one logit per class")

    @property
    def input_dim(self) -> int:
        return int(self.layers[0].weight.shape[1])

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "MlpWeights":
        raw = json.loads(Path(path).read_text())
        layers = tuple(
            Layer(
                weight=np.array(entry["weight"], dtype=np.float64),
                bias=np.array(entry["bias"], dtype=np.float64),
                activation=entry.get("activation", "identity"),
            )
            for entry in raw["layers"]
        )
        return cls(layers=layers, n_classes=int(raw["n_classes"]))

    def to_json(self, path: Union[str, Path]) -> None:
        payload = {
            "n_classes": self.n_classes,
            "layers": [
                {
                    "weight": layer.weight.tolist(),
                    "bias": layer.bias.tolist(),
                    "activation": layer.activation,
                }
                for layer in self.layers
            ],
        }
        Path(path).write_text(json.dumps(payload))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def mlp_predict(weights: MlpWeights, batch: Union[Sequence[Sample], np.ndarray]) -> np.ndarray:
    """Forward pass with softmax output; float64 throughout."""
    feats = batch_features(batch).reshape(len(batch), -1)
    if feats.shape[1] != weights.input_dim:
        raise DataError(
            f"feature dimension {feats.shape[1]} does not match "
            f"network input {weights.input_dim}"
        )
    acts = feats
    for layer in weights.layers:
        acts = acts @ layer.weight.T + layer.bias
        if layer.activation == "relu":
            acts = np.maximum(acts, 0.0)
    return _softmax(acts)


@dataclass(frozen=True)
class MlpModel:
    weights: MlpWeights

    def predict_probs(self, batch: Union[Sequence[Sample], np.ndarray]) -> np.ndarray:
        return mlp_predict(self.weights, batch)


@dataclass(frozen=True)
class ExternalModelSpec:
    command: tuple[str, ...]
    timeout_s: float = 30.0
    batch_limit: int = 64

    def __post_init__(self) -> None:
        if not self.command:
            raise ConfigError("external model needs a launch command")
        if self.timeout_s <= 0:
            raise ConfigError("timeout must be positive")
        if self.batch_limit < 1:
            raise ConfigError("batch limit must be at least 1")


_EOF = object()


class _Reader(threading.Thread):
    """Pumps child stdout lines into a queue so waits can time out."""

    def __init__(self, stream, out: "queue.Queue") -> None:
        super().__init__(daemon=True)
        self._stream = stream
        self._out = out

    def run(self) -> None:
        for line in self._stream:
            self._out.put(line)
        self._out.put(_EOF)


class ExternalModel:
    """Serial bridge to a model server child process.

    All calls funnel through one lock; request ids are unique per bridge
    instance so out-of-order responses can be matched back.  A crashed
    child is restarted at most once over the bridge's lifetime, after which
    the bridge fails hard rather than risk quietly dropping results.
    """

    def __init__(self, spec: ExternalModelSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[_Reader] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._next_id = 0
        self._restarted = False

    # -- process management -------------------------------------------------

    def _launch(self) -> None:
        try:
            self._proc = subprocess.Popen(
                list(self.spec.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise BridgeProcessFailed(f"could not launch model server: {exc}") from exc
        self._queue = queue.Queue()
        self._reader = _Reader(self._proc.stdout, self._queue)
        self._reader.start()

    def _stop(self) -> None:
        """Close the child's pipes and reap it, killing it if it lingers."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._reader.join(timeout=2.0)
        if not self._reader.is_alive():  # a grandchild may still hold the pipe
            proc.stdout.close()

    def _ensure_running(self) -> None:
        if self._proc is None:
            self._launch()
            return
        if self._proc.poll() is not None:
            self._handle_death()

    def _handle_death(self) -> None:
        code = self._proc.poll() if self._proc else None
        if self._restarted:
            raise BridgeProcessFailed(
                f"model server died again (exit code {code}); giving up"
            )
        self._restarted = True
        self._stop()
        self._launch()

    def close(self) -> None:
        with self._lock:
            self._stop()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- protocol -----------------------------------------------------------

    def _send(self, req_id: int, rows: np.ndarray) -> None:
        msg = json.dumps({"id": req_id, "inputs": rows.tolist()})
        try:
            self._proc.stdin.write(msg + "\n")
            self._proc.stdin.flush()
        except OSError:
            self._handle_death()  # restarts once, raises after that
            try:
                self._proc.stdin.write(msg + "\n")
                self._proc.stdin.flush()
            except OSError as exc:
                raise BridgeProcessFailed(
                    f"model server died again (exit code {self._proc.poll()}); giving up"
                ) from exc

    def _parse(self, line: str) -> tuple[int, list]:
        try:
            obj = json.loads(line)
            req_id = int(obj["id"])
            probs = obj["probs"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise BridgeMalformed(f"bad response line: {line[:200]!r}") from exc
        if not isinstance(probs, list):
            raise BridgeMalformed("probs must be a list of per-sample vectors")
        return req_id, probs

    def _validate_probs(self, probs: list, n_rows: int) -> np.ndarray:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != n_rows:
            raise BridgeBadProbs(
                f"expected {n_rows} probability vectors, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise BridgeBadProbs("probabilities must be finite and non-negative")
        sums = arr.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if worst > PROB_SUM_TOL:
            raise BridgeBadProbs(f"probabilities do not sum to 1 (off by {worst:.3g})")
        return arr

    def predict_probs(self, batch: Union[Sequence[Sample], np.ndarray]) -> np.ndarray:
        feats = batch_features(batch)
        rows = feats.reshape(feats.shape[0], -1)
        with self._lock:
            self._ensure_running()
            pending: dict[int, tuple[int, int]] = {}
            chunks: dict[int, np.ndarray] = {}
            for start in range(0, rows.shape[0], self.spec.batch_limit):
                stop = min(start + self.spec.batch_limit, rows.shape[0])
                req_id = self._next_id
                self._next_id += 1
                pending[req_id] = (start, stop)
                chunks[req_id] = rows[start:stop]
                self._send(req_id, rows[start:stop])
            out = np.empty(0)
            while pending:
                try:
                    item = self._queue.get(timeout=self.spec.timeout_s)
                except queue.Empty:
                    raise BridgeTimeout(
                        f"no response within {self.spec.timeout_s}s "
                        f"({len(pending)} request(s) outstanding)"
                    ) from None
                if item is _EOF:
                    self._handle_death()
                    for req_id in sorted(pending):  # re-issue what was lost
                        self._send(req_id, chunks[req_id])
                    continue
                req_id, probs = self._parse(item)
                if req_id not in pending:
                    raise BridgeUnknownId(f"response for unknown request id {req_id}")
                start, stop = pending.pop(req_id)
                arr = self._validate_probs(probs, stop - start)
                if out.size == 0:
                    out = np.empty((rows.shape[0], arr.shape[1]), dtype=np.float64)
                elif arr.shape[1] != out.shape[1]:
                    raise BridgeBadProbs("responses disagree on the number of classes")
                out[start:stop] = arr
            return out


def external_model_call(
    spec: ExternalModelSpec, batch: Sequence[Sample]
) -> np.ndarray:
    """One-shot convenience wrapper owning a short-lived bridge."""
    with ExternalModel(spec) as model:
        return model.predict_probs(batch)
