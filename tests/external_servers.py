"""Line-protocol model servers used by the bridge tests.

Run as: python3 external_servers.py MODE [ARG] [--pid-dir DIR]

With ``--pid-dir DIR`` the server first creates an empty file named after
its process id in DIR, so a test can check that every server it caused to
start has been reaped (``unreaped(DIR)`` lists those still there).

Modes:
    uniform        answer each request with uniform probabilities, in order
    step           answer in order with one-hot probabilities of the step
                   model: class 1 iff the row sums above 0
    kill-parent    kill the process that started the server (SIGKILL) on
                   the first request, then exit
    shuffle        buffer two requests, answer them in reversed order with
                   probabilities derived from each row's first value
    malformed      answer the first request with a non-JSON line
    notutf8        answer the first request with a line holding the byte 0xff,
                   which is not UTF-8
    badprobs       answer with probabilities summing to 1.5
    ragged         answer with probability rows of unequal length
    nonnumeric     answer with an object where a probability belongs
    crash-once ARG exit(1) on the first request unless the sentinel file ARG
                   exists (it is created before crashing), then act uniform
    half-crash-once ARG
                   as crash-once, but first write half an answer line,
                   with no newline
    always-crash   exit(1) immediately
    silent         read requests, never answer
    stall          read nothing, sleep 30 s and exit
    linger         act uniform, but keep running for 30 s once stdin closes
    record ARG     append every request line, as received, to the file ARG,
                   then answer it as uniform does
    record-crash-once ARG
                   as record, but first exit(1) after recording the first
                   request unless the sentinel file ARG.crashed exists (it
                   is created before crashing)
"""

import json
import os
import signal
import sys
import time
from pathlib import Path


def unreaped(pid_dir) -> list:
    """Pids of the servers recorded in ``pid_dir`` that still exist (running
    or unreaped)."""
    alive = []
    for entry in Path(pid_dir).iterdir():
        try:
            os.kill(int(entry.name), 0)
        except ProcessLookupError:
            continue
        alive.append(int(entry.name))
    return alive


def _read_line():
    line = sys.stdin.readline()
    if not line:
        sys.exit(0)
    return line


def _read():
    return json.loads(_read_line())


def _reply(req_id, probs):
    sys.stdout.write(json.dumps({"id": req_id, "probs": probs}) + "\n")
    sys.stdout.flush()


def _uniform(req):
    n = len(req["inputs"])
    return [[0.5, 0.5] for _ in range(n)]


def _content(req):
    # distinguishable per-row answer so reassembly order is testable
    return [[0.8, 0.2] if row[0] > 0.5 else [0.2, 0.8] for row in req["inputs"]]


def _step(req):
    return [[0.0, 1.0] if sum(row) > 0 else [1.0, 0.0] for row in req["inputs"]]


def main() -> None:
    args = sys.argv[1:]
    if "--pid-dir" in args:
        at = args.index("--pid-dir")
        open(os.path.join(args[at + 1], str(os.getpid())), "w").close()
        del args[at : at + 2]
    mode = args[0]
    if mode == "always-crash":
        sys.exit(1)
    if mode in ("crash-once", "half-crash-once"):
        sentinel = args[1]
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as handle:
                handle.write("crashed\n")
            _read()  # consume one request so the caller is mid-wait
            if mode == "half-crash-once":
                sys.stdout.write('{"id": 0, "pro')
                sys.stdout.flush()
            sys.exit(1)
        mode = "uniform"

    if mode == "uniform":
        while True:
            req = _read()
            _reply(req["id"], _uniform(req))
    elif mode == "step":
        while True:
            req = _read()
            _reply(req["id"], _step(req))
    elif mode == "kill-parent":
        _read()
        os.kill(os.getppid(), signal.SIGKILL)
    elif mode == "shuffle":
        while True:
            first = _read()
            second = _read()
            _reply(second["id"], _content(second))
            _reply(first["id"], _content(first))
    elif mode == "malformed":
        _read()
        sys.stdout.write("this is not json\n")
        sys.stdout.flush()
        while True:
            _read()
    elif mode == "notutf8":
        _read()
        sys.stdout.buffer.write(b'{"id": 0, "probs": [[0.5, 0.5]], "note": "\xff"}\n')
        sys.stdout.flush()
        while True:
            _read()
    elif mode == "badprobs":
        while True:
            req = _read()
            _reply(req["id"], [[1.0, 0.5] for _ in req["inputs"]])
    elif mode == "ragged":
        while True:
            req = _read()
            _reply(req["id"], [[0.5, 0.5]] + [[1.0] for _ in req["inputs"][1:]])
    elif mode == "nonnumeric":
        while True:
            req = _read()
            _reply(req["id"], [[{"p": 0.5}, 0.5] for _ in req["inputs"]])
    elif mode == "linger":
        for line in sys.stdin:
            req = json.loads(line)
            _reply(req["id"], _uniform(req))
        time.sleep(30)
    elif mode == "stall":
        time.sleep(30)
    elif mode == "silent":
        while True:
            _read()
    elif mode in ("record", "record-crash-once"):
        log, sentinel = args[1], args[1] + ".crashed"
        crash = mode == "record-crash-once" and not os.path.exists(sentinel)
        if crash:
            open(sentinel, "w").close()
        while True:
            line = _read_line()
            with open(log, "a") as handle:
                handle.write(line)
            if crash:
                sys.exit(1)
            req = json.loads(line)
            _reply(req["id"], _uniform(req))
    else:
        raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    main()
