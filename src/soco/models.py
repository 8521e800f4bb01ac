"""Model backends beyond the built-in synthetic step model.

Two backends live here: a small feed-forward network loaded from a JSON
weights file, and a bridge that talks to an external model server over the
child process's standard input and output.

Server protocol, one JSON object per line:

    request:  {"id": <uint>, "inputs": [[<real>, ...], ...]}
    response: {"id": <uint>, "probs": [[<real>, ...], ...]}

Grid samples are flattened row-major (channel last) before sending.  The
child may answer requests in any order but must answer each exactly once.
Requests are pipelined: a batch larger than ``batch_limit`` rows is split
into several requests, and a sweep's consecutive steps are sent without
waiting for earlier answers, up to ``MAX_IN_FLIGHT`` unanswered requests.
A server must therefore keep reading while its answers are outstanding.
The bridge starts no thread: the calling thread writes each request to the
child's non-blocking stdin and reads its answers from stdout in one ``poll``
loop, reading while it writes, so neither side blocks the other on a full
pipe.  ``timeout_s`` bounds sending a request as well as waiting for an
answer.  This needs POSIX pipes, as forked lanes need ``fork``.

Each request line is byte for byte ``json.dumps`` of the request above.  It
is rendered as an edit of the last request sent in the same slot (the same
first row within a batch), which a sweep's next step changes in few cells;
the bridge keeps at most ``ENCODE_CELLS`` cells for this, about 7 MiB.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .core import (
    ConfigError,
    DataError,
    Dataset,
    ModelBridgeError,
    batch_features,
    check_at_least,
    check_count,
    check_positive,
)
from .io import json_array

ACTIVATIONS = ("relu", "identity")
PROB_SUM_TOL = 1e-6
MAX_IN_FLIGHT = 8  # unanswered requests per bridge; only these are re-sent after a restart
ENCODE_CELLS = 1 << 16  # request cells the encoder keeps per bridge, about 7 MiB when full
STOP_TIMEOUT_S = 2.0  # how long a closed server may take to exit before it is killed


class BridgeTimeout(ModelBridgeError):
    """The server took no request, or sent no response, within the request timeout."""


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

    def _check_width(self, width: int) -> None:
        if width != self.input_dim:
            raise DataError(
                f"feature dimension {width} does not match network input {self.input_dim}"
            )

    def check_fit(self, dataset: Dataset) -> None:
        """Refuse ``dataset`` before any forward pass when this network cannot
        score it: its samples are not ``input_dim`` features wide, or it has
        classes the network never predicts.  More classes are allowed."""
        self._check_width(dataset.n_features)
        if self.n_classes < dataset.n_classes:
            raise DataError(
                f"network predicts {self.n_classes} of the dataset's {dataset.n_classes} classes"
            )

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "MlpWeights":
        """Load a weights file; one that cannot be read or parsed is a config error."""
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read weights {path}: {exc.strerror or exc}") from None
        except ValueError as exc:  # invalid JSON or text
            raise ConfigError(f"weights file {path} is not valid JSON: {exc}") from None

        try:
            layers = tuple(
                Layer(
                    weight=json_array(entry["weight"], np.float64, "weight"),
                    bias=json_array(entry["bias"], np.float64, "bias"),
                    activation=entry.get("activation", "identity"),
                )
                for entry in raw["layers"]
            )
            n_classes = check_count(raw["n_classes"], f"n_classes in weights file {path}")
        except KeyError as exc:
            raise ConfigError(f"weights file {path} has no field {exc}") from None
        except (AttributeError, TypeError, ValueError, DataError) as exc:
            raise ConfigError(f"malformed weights file {path}: {exc}") from None
        return cls(layers=layers, n_classes=n_classes)

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


def mlp_predict(weights: MlpWeights, batch: np.ndarray) -> np.ndarray:
    """Forward pass with softmax output; float64 throughout."""
    feats = batch_features(batch).reshape(len(batch), -1)
    weights._check_width(feats.shape[1])
    acts = feats
    for layer in weights.layers:
        acts = acts @ layer.weight.T + layer.bias
        if layer.activation == "relu":
            acts = np.maximum(acts, 0.0)
    return _softmax(acts)


@dataclass(frozen=True)
class MlpModel:
    weights: MlpWeights

    def predict_probs(self, batch: np.ndarray) -> np.ndarray:
        return mlp_predict(self.weights, batch)


@dataclass(frozen=True)
class ExternalModelSpec:
    """How to launch a model server; ``command`` is its argument vector."""

    command: tuple[str, ...]
    timeout_s: float = 30.0
    batch_limit: int = 64

    def __post_init__(self) -> None:
        command = self.command
        if not isinstance(command, (list, tuple)) or not command or not all(
            isinstance(part, str) for part in command
        ):
            raise ConfigError(f"command must be a non-empty list of strings, got {command!r}")
        object.__setattr__(self, "command", tuple(command))
        check_positive(self.timeout_s, "timeout_s")
        check_at_least(self.batch_limit, "batch_limit", 1)


def _render(values: np.ndarray) -> list[str]:
    """The JSON text of each float64 in ``values``, in one ``json.dumps`` call."""
    # a float's JSON text never contains ", ", so the list splits cleanly
    return json.dumps(values.tolist())[1:-1].split(", ")


class _RequestEncoder:
    """Renders request lines as edits of the last request sent in each slot.

    ``encode(i, rows, slot)`` returns exactly ``json.dumps({"id": i,
    "inputs": rows.tolist()}) + "\\n"``.  A slot is a request's row range
    within its batch (its first row), so the consecutive steps of a sweep
    meet the same slot, and they differ in few cells.  Each slot keeps the
    float64 bit patterns of its last rows and the text of each of their
    cells and rows.  A request of the same shape renders only the cells
    whose bits changed (so ``0.0`` against ``-0.0`` is a change, and an
    unchanged NaN is not) and re-joins only the rows they touch; a new slot
    or a new shape is rendered whole.  At most ``max_cells`` cells are kept
    over all slots; a slot that would pass that bound is rendered by plain
    ``json.dumps`` and not kept.
    """

    def __init__(self, max_cells: int = ENCODE_CELLS) -> None:
        self.max_cells = max_cells
        self.cells = 0  # cells kept over all slots
        # slot -> (bit patterns, text of each cell row-major, text of each row)
        self._slots: dict[int, tuple[np.ndarray, list[str], list[str]]] = {}

    def encode(self, req_id: int, rows: np.ndarray, slot: int) -> str:
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        n, d = rows.shape
        bits = rows.view(np.uint64)
        kept = self._slots.get(slot)
        if kept is not None and kept[0].shape == rows.shape:
            last, cells, texts = kept
            changed = np.flatnonzero(bits != last)
            if changed.size:
                for i, text in zip(changed.tolist(), _render(rows.reshape(-1)[changed])):
                    cells[i] = text
                for r in dict.fromkeys((changed // d).tolist()):
                    texts[r] = ", ".join(cells[r * d : (r + 1) * d])
                last[...] = bits
        else:
            if kept is not None:
                del self._slots[slot]
                self.cells -= kept[0].size
            if rows.size == 0 or self.cells + rows.size > self.max_cells:
                return json.dumps({"id": req_id, "inputs": rows.tolist()}) + "\n"
            cells = _render(rows.reshape(-1))
            texts = [", ".join(cells[i : i + d]) for i in range(0, n * d, d)]
            self._slots[slot] = (bits.copy(), cells, texts)
            self.cells += rows.size
        body = "], [".join(texts)
        return f'{{"id": {req_id}, "inputs": [[{body}]]}}\n'


class _Request(NamedTuple):
    batch: int  # index of the batch within one predict_probs_many call
    start: int
    stop: int
    line: bytes  # the encoded request, kept for re-issue after a restart


class ExternalModel:
    """Pipelined bridge to a model server child process.

    All calls funnel through one lock; request ids are unique per bridge
    instance so out-of-order responses can be matched back.  A crashed
    child is restarted at most once over the bridge's lifetime, after which
    the bridge fails hard rather than risk quietly dropping results.
    """

    def __init__(self, spec: ExternalModelSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._lines: deque = deque()  # complete answer lines not yet taken
        self._partial = bytearray()  # the bytes read after the last newline
        self._encoder = _RequestEncoder()
        self._next_id = 0
        self._restarted = False

    # -- process management -------------------------------------------------

    def _launch(self) -> None:
        try:
            self._proc = subprocess.Popen(
                list(self.spec.command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise BridgeProcessFailed(f"could not launch model server: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._lines = deque()
        self._partial = bytearray()

    def _stop(self) -> None:
        """Close the child's pipes and reap it, killing it if it lingers.  Its
        output ends when it exits, so reading to that end is the wait."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()  # holds no buffered bytes, so this cannot fail on a dead child
        poller = select.poll()
        poller.register(proc.stdout, select.POLLIN)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while (left := deadline - time.monotonic()) > 0 and poller.poll(left * 1000):
            if not os.read(proc.stdout.fileno(), 1 << 16):
                break
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        with self._lock:
            self._stop()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- protocol -----------------------------------------------------------

    def _pump(self, out: bytes = b"") -> bool:
        """Write all of ``out``, or with no ``out`` wait for an answer line,
        reading the child's output into ``_lines`` all the while; False when
        the child is gone.  Either raises ``BridgeTimeout`` after ``timeout_s``."""
        deadline = time.monotonic() + self.spec.timeout_s
        view = memoryview(out)
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        poller = select.poll()
        poller.register(stdout, select.POLLIN)
        if view:
            poller.register(stdin, select.POLLOUT)
        while view if out else not self._lines:
            left = deadline - time.monotonic()
            if left <= 0 or not (ready := poller.poll(left * 1000)):
                what = "request not taken" if view else "no response"
                raise BridgeTimeout(f"{what} within {self.spec.timeout_s}s")
            for fd, _ in ready:
                if fd == stdout:
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        return False
                    self._partial += chunk  # amortised, so a long line costs linear time
                    if b"\n" in chunk:
                        *lines, self._partial = self._partial.split(b"\n")
                        self._lines.extend(lines)
                else:
                    try:
                        view = view[os.write(stdin, view) :]
                    except BrokenPipeError:
                        return False
        return True

    def _restart(self, pending: dict[int, _Request]) -> None:
        """Restart a dead child and re-send every unanswered request; a child
        that dies after the bridge's one restart is a hard failure."""
        if self._restarted:
            raise BridgeProcessFailed(
                f"model server died again (exit code {self._proc.poll()}); giving up"
            )
        self._restarted = True
        self._stop()
        self._launch()
        for req_id in sorted(pending):
            if not self._pump(pending[req_id].line):
                return self._restart(pending)  # raises: the one restart is spent

    def _parse(self, line: bytes) -> tuple[int, list]:
        try:
            obj = json.loads(line)
            req_id = int(obj["id"])
            probs = obj["probs"]
        except (KeyError, TypeError, ValueError) as exc:  # bad JSON or UTF-8 included
            text = line[:200].decode(errors="replace")
            raise BridgeMalformed(f"bad response line: {text!r}") from exc
        if not isinstance(probs, list):
            raise BridgeMalformed("probs must be a list of per-sample vectors")
        return req_id, probs

    def _validate_probs(self, probs: list, n_rows: int) -> np.ndarray:
        try:
            arr = np.asarray(probs, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged rows or non-numeric entries
            raise BridgeBadProbs(f"probabilities are not a numeric matrix: {exc}") from None
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

    def _receive(self, pending: dict[int, _Request], outs: list) -> None:
        """Take one response, reading it if none is buffered, into its batch's output."""
        if not self._lines and not self._pump():
            self._restart(pending)
            return
        req_id, probs = self._parse(self._lines.popleft())
        if req_id not in pending:
            raise BridgeUnknownId(f"response for unknown request id {req_id}")
        req = pending.pop(req_id)
        arr = self._validate_probs(probs, req.stop - req.start)
        out = outs[req.batch]
        if out.size == 0:
            out = outs[req.batch] = np.empty((out.shape[0], arr.shape[1]), dtype=np.float64)
        elif arr.shape[1] != out.shape[1]:
            raise BridgeBadProbs("responses disagree on the number of classes")
        out[req.start : req.stop] = arr

    def predict_probs_many(self, batches: Iterable[np.ndarray]) -> list[np.ndarray]:
        """Probabilities for each batch, with consecutive batches in flight together.

        Each batch is split into requests of at most ``batch_limit`` rows,
        and they are encoded and written as soon as the batch is drawn,
        before the iterator advances; a caller may rewrite one buffer for
        every batch.  At most ``MAX_IN_FLIGHT`` requests wait for an answer
        at a time, and only those are kept for re-issue after a restart.
        A call that raises stops a child that is still running, so no late
        answer of that call can reach the next one.
        """
        with self._lock:
            if self._proc is None:
                self._launch()
            elif self._proc.poll() is not None:
                self._restart({})
            pending: dict[int, _Request] = {}
            outs: list[np.ndarray] = []
            try:
                for batch in batches:
                    feats = batch_features(batch)
                    rows = feats.reshape(feats.shape[0], -1)
                    # rows but no classes yet: _receive sizes it on the first answer
                    outs.append(np.empty((rows.shape[0], 0)))
                    for start in range(0, rows.shape[0], self.spec.batch_limit):
                        while len(pending) >= MAX_IN_FLIGHT:
                            self._receive(pending, outs)
                        stop = min(start + self.spec.batch_limit, rows.shape[0])
                        req_id = self._next_id
                        self._next_id += 1
                        line = self._encoder.encode(req_id, rows[start:stop], start).encode()
                        pending[req_id] = _Request(len(outs) - 1, start, stop, line)
                        if not self._pump(line):
                            self._restart(pending)
                while pending:
                    self._receive(pending, outs)
            except BaseException:
                if self._proc is not None and self._proc.poll() is None:
                    # a live child still owes this call answers; the next call
                    # launches a fresh one instead, which spends no restart
                    self._stop()
                raise
        return [out if out.size else np.empty(0) for out in outs]

    def predict_probs(self, batch: np.ndarray) -> np.ndarray:
        return self.predict_probs_many([batch])[0]
