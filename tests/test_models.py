import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from soco import (
    ConfigError,
    DataError,
    Dataset,
    ExternalModel,
    ExternalModelSpec,
    LinearStepModel,
    MlpModel,
    MlpWeights,
    mlp_predict,
    normalize_attribution,
    road_curve,
    write_curve,
)
from soco import metrics, parallel
from soco.models import (
    MAX_IN_FLIGHT,
    STOP_TIMEOUT_S,
    BridgeBadProbs,
    BridgeMalformed,
    BridgeProcessFailed,
    BridgeTimeout,
    Layer,
    _RequestEncoder,
)
from soco.perturb import impute_grid

from external_servers import unreaped

SERVER = str(Path(__file__).parent / "external_servers.py")


def server_spec(mode, *args, **kwargs):
    return ExternalModelSpec(
        command=(sys.executable, SERVER, mode, *args), **kwargs
    )


# -- feed-forward network -----------------------------------------------------------


def test_zero_network_is_uniform():
    weights = MlpWeights(
        layers=(Layer(weight=np.zeros((2, 3)), bias=np.zeros(2)),), n_classes=2
    )
    probs = mlp_predict(weights, np.zeros((4, 3)))
    np.testing.assert_allclose(probs, 0.5)


def test_relu_clips_negative_activations():
    # hidden layer flips the sign, relu floors it at zero, so a positive
    # input contributes nothing and the bias decides alone
    hidden = Layer(weight=np.array([[-1.0]]), bias=np.array([0.0]), activation="relu")
    out = Layer(weight=np.array([[2.0], [0.0]]), bias=np.array([0.0, 0.0]))
    weights = MlpWeights(layers=(hidden, out), n_classes=2)
    probs = mlp_predict(weights, np.array([[3.0]]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    probs_neg = mlp_predict(weights, np.array([[-3.0]]))
    assert probs_neg[0, 0] > 0.5  # relu passes 3.0, class 0 logit 6.0


def step_encoding(n_features, gain=50.0):
    w = np.vstack([-np.ones(n_features), np.ones(n_features)]) * gain
    return MlpWeights(
        layers=(Layer(weight=w, bias=np.zeros(2)),), n_classes=2
    )


def test_mlp_can_encode_the_step_rule(rng):
    # independent check: a signed-sum readout reproduces the step labels
    feats = rng.standard_normal((100, 7))
    weights = step_encoding(7)
    probs = mlp_predict(weights, feats)
    want = np.argmax(LinearStepModel().predict_probs(feats), axis=1)
    assert np.array_equal(np.argmax(probs, axis=1), want)


def test_mlp_batch_size_invariance(rng):
    feats = rng.standard_normal((32, 5))
    weights = MlpWeights(
        layers=(
            Layer(weight=rng.standard_normal((8, 5)), bias=rng.standard_normal(8),
                  activation="relu"),
            Layer(weight=rng.standard_normal((3, 8)), bias=rng.standard_normal(3)),
        ),
        n_classes=3,
    )
    whole = mlp_predict(weights, feats)
    parts = np.vstack([mlp_predict(weights, feats[i : i + 8]) for i in range(0, 32, 8)])
    np.testing.assert_allclose(whole, parts, atol=1e-9)


def test_mlp_rejects_wrong_input_dim():
    weights = step_encoding(4)
    with pytest.raises(DataError, match="does not match"):
        mlp_predict(weights, np.zeros((2, 5)))


def test_layer_and_network_validation():
    with pytest.raises(ConfigError):
        Layer(weight=np.zeros(3), bias=np.zeros(3))
    with pytest.raises(ConfigError):
        Layer(weight=np.zeros((2, 3)), bias=np.zeros(3))
    with pytest.raises(ConfigError):
        Layer(weight=np.zeros((2, 3)), bias=np.zeros(2), activation="tanh")
    with pytest.raises(ConfigError):
        MlpWeights(layers=(), n_classes=2)
    with pytest.raises(ConfigError, match="chain"):
        MlpWeights(
            layers=(
                Layer(weight=np.zeros((4, 3)), bias=np.zeros(4)),
                Layer(weight=np.zeros((2, 5)), bias=np.zeros(2)),
            ),
            n_classes=2,
        )
    with pytest.raises(ConfigError, match="one logit per class"):
        MlpWeights(
            layers=(Layer(weight=np.zeros((3, 4)), bias=np.zeros(3)),), n_classes=2
        )


def test_weights_json_round_trip(tmp_path, rng):
    weights = MlpWeights(
        layers=(
            Layer(weight=rng.standard_normal((4, 6)), bias=rng.standard_normal(4),
                  activation="relu"),
            Layer(weight=rng.standard_normal((2, 4)), bias=rng.standard_normal(2)),
        ),
        n_classes=2,
    )
    path = tmp_path / "net.json"
    weights.to_json(path)
    loaded = MlpWeights.from_json(path)
    assert loaded.n_classes == 2
    for a, b in zip(weights.layers, loaded.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_mlp_model_wraps_predict(rng):
    weights = step_encoding(3)
    feats = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(
        MlpModel(weights).predict_probs(feats), mlp_predict(weights, feats)
    )


# -- external bridge ----------------------------------------------------------------


def test_bridge_uniform_round_trip():
    with ExternalModel(server_spec("uniform")) as model:
        probs = model.predict_probs(np.random.default_rng(0).random((5, 3)))
    assert probs.shape == (5, 2)
    np.testing.assert_allclose(probs, 0.5)


def test_bridge_restores_out_of_order_responses():
    # two chunks answered in reverse; rows must land back in request order
    feats = np.zeros((4, 2))
    feats[2:, 0] = 1.0  # second chunk rows answer [0.8, 0.2]
    with ExternalModel(server_spec("shuffle", batch_limit=2)) as model:
        probs = model.predict_probs(feats)
    np.testing.assert_allclose(probs[:2], [[0.2, 0.8]] * 2)
    np.testing.assert_allclose(probs[2:], [[0.8, 0.2]] * 2)


def test_bridge_chunks_large_batches():
    with ExternalModel(server_spec("uniform", batch_limit=3)) as model:
        probs = model.predict_probs(np.ones((8, 2)))
    assert probs.shape == (8, 2)


def test_bridge_flattens_grid_batches():
    grids = np.random.default_rng(1).random((3, 2, 2, 1))
    with ExternalModel(server_spec("uniform")) as model:
        probs = model.predict_probs(grids)
    assert probs.shape == (3, 2)


def test_bridge_rejects_malformed_response():
    with ExternalModel(server_spec("malformed")) as model:
        with pytest.raises(BridgeMalformed):
            model.predict_probs(np.ones((2, 2)))


def test_bridge_rejects_an_answer_that_is_not_utf8():
    # the answer is malformed at once, not after the request timeout
    with ExternalModel(server_spec("notutf8", timeout_s=10.0)) as model:
        started = time.monotonic()
        with pytest.raises(BridgeMalformed, match="bad response line: '{\"id\": 0"):
            model.predict_probs(np.ones((1, 2)))
        assert time.monotonic() - started < 5.0


def test_bridge_rejects_bad_probabilities():
    with ExternalModel(server_spec("badprobs")) as model:
        with pytest.raises(BridgeBadProbs, match="sum to 1"):
            model.predict_probs(np.ones((2, 2)))


@pytest.mark.parametrize("mode", ["ragged", "nonnumeric"])
def test_bridge_rejects_probabilities_that_are_not_a_matrix(mode):
    with ExternalModel(server_spec(mode)) as model:
        with pytest.raises(BridgeBadProbs, match="not a numeric matrix"):
            model.predict_probs(np.ones((3, 2)))


def test_bridge_restarts_crashed_server_once(tmp_path):
    sentinel = str(tmp_path / "crashed")
    with ExternalModel(server_spec("crash-once", sentinel)) as model:
        probs = model.predict_probs(np.ones((3, 2)))
        assert model._restarted
    np.testing.assert_allclose(probs, 0.5)
    assert Path(sentinel).exists()


def test_bridge_restarts_a_server_that_dies_mid_line(tmp_path):
    # half an answer line and then end of file is a crash, not a malformed answer
    sentinel = str(tmp_path / "crashed")
    with ExternalModel(server_spec("half-crash-once", sentinel)) as model:
        probs = model.predict_probs(np.ones((3, 2)))
        assert model._restarted
    np.testing.assert_allclose(probs, 0.5)
    assert Path(sentinel).exists()


def test_bridge_gives_up_after_second_crash():
    with ExternalModel(server_spec("always-crash", timeout_s=5.0)) as model:
        with pytest.raises(BridgeProcessFailed):
            model.predict_probs(np.ones((2, 2)))
        # the restart is spent for the bridge's lifetime, not per call
        with pytest.raises(BridgeProcessFailed):
            model.predict_probs(np.ones((2, 2)))


def test_bridge_fails_when_server_dies_before_reading():
    # the request outgrows the pipe buffer, so both writes hit a dead server
    spec = ExternalModelSpec(command=("python3", "-c", "import sys; sys.exit(1)"))
    with ExternalModel(spec) as model:
        with pytest.raises(BridgeProcessFailed):
            model.predict_probs(np.ones((200, 500)))


RESTART_SCENARIOS = f"""
import sys
import numpy as np
from soco.models import BridgeProcessFailed, ExternalModel, ExternalModelSpec

server = (sys.executable, {SERVER!r})
with ExternalModel(ExternalModelSpec(command=server + ("crash-once", sys.argv[1]))) as model:
    model.predict_probs(np.ones((3, 2)))
    assert model._restarted
for command in (server + ("always-crash",), (sys.executable, "-c", "import sys; sys.exit(1)")):
    with ExternalModel(ExternalModelSpec(command=command, timeout_s=5.0)) as model:
        try:
            model.predict_probs(np.ones((200, 500)))
        except BridgeProcessFailed:
            pass
import gc
gc.collect()
print("done")
"""


def test_bridge_restarts_leave_no_unclosed_pipes(tmp_path):
    # -X dev turns on ResourceWarning, which names any pipe or child left behind
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", RESTART_SCENARIOS, str(tmp_path / "crashed")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"
    assert "ResourceWarning" not in proc.stderr, proc.stderr


def test_bridge_kills_a_server_that_lingers_after_its_input_closes():
    model = ExternalModel(server_spec("linger"))
    np.testing.assert_allclose(model.predict_probs(np.ones((2, 2))), 0.5)
    proc = model._proc
    model.close()
    assert proc.returncode == -signal.SIGKILL
    assert proc.stdout.closed  # the kill ended the server's output too


def test_bridge_times_out_on_silence():
    with ExternalModel(server_spec("silent", timeout_s=0.5)) as model:
        with pytest.raises(BridgeTimeout):
            model.predict_probs(np.ones((2, 2)))
        # with a full window of requests the wait happens inside the send loop
        with pytest.raises(BridgeTimeout):
            model.predict_probs_many(np.ones((2, 2)) for _ in range(2 * MAX_IN_FLIGHT))


def test_bridge_times_out_sending_to_a_server_that_reads_nothing(tmp_path, no_leftovers):
    # the request outgrows the pipe buffer, so only a bounded send returns
    timeout = 1.0
    spec = server_spec("stall", "--pid-dir", str(tmp_path), timeout_s=timeout)
    started = time.monotonic()
    with ExternalModel(spec) as model:
        with pytest.raises(BridgeTimeout, match="request not taken"):
            model.predict_probs(np.ones((64, 3072)))
    assert time.monotonic() - started < timeout + STOP_TIMEOUT_S + 2.0
    assert len(list(tmp_path.iterdir())) == 1
    assert unreaped(tmp_path) == []


def test_bridge_pipelines_consecutive_batches():
    # shuffle answers only after reading two requests, so a bridge that waited
    # for each one-chunk batch's answer before sending the next would time
    # out; the caller rewrites one buffer in place, as the metric sweep does
    buf = np.zeros((1, 2))

    def steps():
        for i in range(2 * MAX_IN_FLIGHT + 2):
            buf[0, 0] = float(i % 3 == 0)
            yield buf

    with ExternalModel(server_spec("shuffle", timeout_s=5.0)) as model:
        probs = model.predict_probs_many(steps())
    assert len(probs) == 2 * MAX_IN_FLIGHT + 2
    for i, p in enumerate(probs):
        np.testing.assert_array_equal(p, [[0.8, 0.2] if i % 3 == 0 else [0.2, 0.8]])


def test_bridge_reissues_every_outstanding_request_after_a_crash(tmp_path):
    sentinel = str(tmp_path / "crashed")
    batches = [np.full((3, 2), float(i)) for i in range(MAX_IN_FLIGHT)]
    with ExternalModel(server_spec("crash-once", sentinel, batch_limit=2)) as model:
        probs = model.predict_probs_many(batches)
        assert model._restarted
    assert Path(sentinel).exists()
    assert len(probs) == len(batches)
    for p in probs:
        np.testing.assert_array_equal(p, np.full((3, 2), 0.5))


def test_bridge_skips_answers_to_an_abandoned_call():
    def failing():
        yield np.ones((2, 2))
        raise RuntimeError("caller gave up")

    with ExternalModel(server_spec("uniform")) as model:
        with pytest.raises(RuntimeError):
            model.predict_probs_many(failing())
        # the first call's answer is still on its way and must not be taken
        # for this call's
        np.testing.assert_array_equal(model.predict_probs(np.ones((3, 2))), 0.5)


@pytest.mark.filterwarnings("ignore:fully masked grid")
def test_grid_fill_forks_lanes_while_a_bridge_is_open(tmp_path, monkeypatch, no_leftovers):
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((12, 6, 5, 2))
    ds = Dataset(feats, (feats.sum(axis=(1, 2, 3)) > 0).astype(int), n_classes=2)
    maps = normalize_attribution(np.abs(feats))
    log = tmp_path / "solver.pids"

    def impute(features, mask):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return impute_grid(features, mask)

    threads = []  # the live threads at each run_shares call
    run_shares = parallel.run_shares

    def counted(work, shares):
        threads.append(threading.active_count())
        return run_shares(work, shares)

    monkeypatch.setattr(metrics, "impute_grid", impute)
    monkeypatch.setattr(parallel, "run_shares", counted)
    pids = tmp_path / "pids"
    pids.mkdir()
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        with ExternalModel(server_spec("step", "--pid-dir", str(pids))) as model:
            curve = road_curve(model, ds, maps, order="MoRF", seed=3)
            proc = model._proc
        # the lanes are joined, so none holds the server's stdin: it exits
        # on its own as the bridge closes, and is not killed
        assert proc.returncode == 0
        assert threading.active_count() == 1
        write_curve(curve, tmp_path / f"{cpus}.curve.json")
        solvers = {int(pid) for pid in log.read_text().split()}
        log.unlink()
        assert os.getpid() in solvers and len(solvers - {os.getpid()}) == cpus - 1
    assert threads == [1, 1]
    assert (tmp_path / "1.curve.json").read_bytes() == (tmp_path / "2.curve.json").read_bytes()
    assert len(list(pids.iterdir())) == 2 and unreaped(pids) == []


SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300, 1e16, 1e22,
    0.1, 1.0, -3.0, 2.0**53, 123456789.0, math.nan, math.inf, -math.inf,
)
# NaNs that differ only in their sign or payload bits
NAN_PAYLOADS = tuple(
    np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
        dtype=np.uint64,
    ).view(np.float64)
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS + NAN_PAYLOADS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(width=32).map(float),
)
SLOTS = (0, 3, 64)


@st.composite
def float_matrices(draw):
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6))
    if draw(st.booleans()):
        rows = draw(arrays(np.float32, shape, elements=st.floats(width=32)))
        return rows if draw(st.booleans()) else rows.astype(np.float64)
    rows = draw(arrays(np.float64, shape, elements=FLOATS))
    return rows.T if draw(st.booleans()) else rows


@st.composite
def request_sequences(draw):
    """(slot, rows) requests: fresh matrices, whose shapes change within a
    slot, and edits of a slot's last rows, some that change only bits such
    as the sign of a zero or a NaN's payload."""
    last, requests = {}, []
    for _ in range(draw(st.integers(1, 10))):
        slot = draw(st.sampled_from(SLOTS))
        prev = last.get(slot)
        edit = draw(st.sampled_from(("new", "values", "bits")))
        if prev is None or prev.size == 0 or edit == "new":
            rows = draw(float_matrices())
        else:
            # a C-ordered copy, so that reshape(-1) below is a view the edits land in
            rows = np.array(prev, dtype=np.float64, order="C")
            cells = draw(st.lists(st.integers(0, rows.size - 1), min_size=1, max_size=4))
            if edit == "values":
                rows.reshape(-1)[cells] = draw(st.lists(FLOATS, min_size=len(cells),
                                                        max_size=len(cells)))
            else:
                flip = draw(st.sampled_from((1 << 63, 1)))  # sign bit, or lowest payload bit
                rows.view(np.uint64).reshape(-1)[cells] ^= np.uint64(flip)
        last[slot] = rows
        requests.append((slot, rows))
    return requests


@settings(max_examples=300, deadline=None)
@given(
    requests=request_sequences(),
    max_cells=st.integers(0, 60),
    req_id=st.integers(0, 2**40),
)
def test_request_encoder_matches_json_dumps(requests, max_cells, req_id):
    # max_cells up to 60 keeps some slots of up to 36 cells and turns others away
    encoder = _RequestEncoder(max_cells=max_cells)
    for i, (slot, rows) in enumerate(requests):
        want = json.dumps({"id": req_id + i, "inputs": rows.tolist()}) + "\n"
        assert encoder.encode(req_id + i, rows, slot) == want
        assert encoder.cells <= max_cells


def test_request_encoder_keeps_at_most_its_bound():
    encoder = _RequestEncoder(max_cells=10)
    kept = []
    for slot, shape in ((0, (2, 3)), (1, (1, 4)), (2, (1, 1)), (0, (1, 3)), (2, (1, 1))):
        rows = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        encoder.encode(0, rows, slot)
        kept.append(encoder.cells)
    # slot 2 did not fit beside 6 + 4 cells; once slot 0 shrank to 3 cells, it did
    assert kept == [6, 10, 10, 7, 8]


def recorded_lines(log: Path) -> list[str]:
    return log.read_text().splitlines(keepends=True)


def expected_lines(batches, batch_limit, first_id=0) -> dict:
    """id -> the line json.dumps renders for that request of ``batches``."""
    want, req_id = {}, first_id
    for batch in batches:
        rows = batch.reshape(len(batch), -1)
        for start in range(0, len(rows), batch_limit):
            want[req_id] = json.dumps(
                {"id": req_id, "inputs": rows[start : start + batch_limit].tolist()}
            ) + "\n"
            req_id += 1
    return want


def sweep_batches(seed, n_steps=6, shape=(7, 5)):
    """Copies of one buffer that a sweep rewrites a few cells at a time:
    masked cells take the fill 0.0, and some zeros flip to -0.0 and back."""
    rng = np.random.default_rng(seed)
    buf = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    batches = []
    for _ in range(n_steps):
        batches.append(buf.copy())
        buf.reshape(-1)[rng.choice(buf.size, 3, replace=False)] = 0.0
        zeros = np.flatnonzero(buf == 0.0)
        buf.reshape(-1)[zeros[: len(zeros) // 2]] *= -1.0
    return batches


def test_bridge_request_lines_equal_json_dumps(tmp_path):
    log = tmp_path / "requests.log"
    first, second = sweep_batches(1), sweep_batches(2)
    second.append(np.ones((2, 5)))  # a shorter batch meets slot 0 in a new shape
    with ExternalModel(server_spec("record", str(log), batch_limit=3)) as model:
        model.predict_probs_many(first)  # 7 rows: slots 0, 3 and 6 per step
        model.predict_probs_many(second)  # the same slots, new values
    want = expected_lines(first, 3)
    want.update(expected_lines(second, 3, first_id=len(want)))
    lines = recorded_lines(log)
    assert [json.loads(line)["id"] for line in lines] == list(want)
    for line in lines:
        assert line == want[json.loads(line)["id"]]


def test_bridge_resends_request_lines_byte_for_byte_after_a_crash(tmp_path):
    log = tmp_path / "requests.log"
    batches = sweep_batches(3)
    with ExternalModel(server_spec("record-crash-once", str(log), batch_limit=3)) as model:
        model.predict_probs_many(batches)
        assert model._restarted
    want = expected_lines(batches, 3)
    lines = recorded_lines(log)
    # the first server read request 0 and died; the second got it again
    assert lines[0] == lines[1] == want[0]
    assert sorted({json.loads(line)["id"] for line in lines}) == list(want)
    for line in lines:
        assert line == want[json.loads(line)["id"]]


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExternalModelSpec(command=())
    for command in ("python3", ["x", 1]):
        with pytest.raises(ConfigError) as info:
            ExternalModelSpec(command=command)
        assert str(info.value) == f"command must be a non-empty list of strings, got {command!r}"
    assert ExternalModelSpec(command=["x", "y"]).command == ("x", "y")
    with pytest.raises(ConfigError):
        ExternalModelSpec(command=("x",), timeout_s=0.0)
    with pytest.raises(ConfigError):
        ExternalModelSpec(command=("x",), batch_limit=0)


SPEC_TYPES = [
    ("timeout_s", float("nan"), "a finite real number"),
    ("timeout_s", float("inf"), "a finite real number"),
    ("batch_limit", 2.5, "a non-negative integer"),
    ("batch_limit", True, "a non-negative integer"),
]


@pytest.mark.parametrize("field, value, kind", SPEC_TYPES)
def test_spec_field_of_the_wrong_type_is_a_config_error(field, value, kind):
    with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got {value!r}$"):
        ExternalModelSpec(command=("x",), **{field: value})
