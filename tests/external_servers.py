"""Line-protocol model servers used by the bridge tests.

Run as: python3 external_servers.py MODE [ARG]

Modes:
    uniform        answer each request with uniform probabilities, in order
    shuffle        buffer two requests, answer them in reversed order with
                   probabilities derived from each row's first value
    malformed      answer the first request with a non-JSON line
    badprobs       answer with probabilities summing to 1.5
    ragged         answer with probability rows of unequal length
    nonnumeric     answer with an object where a probability belongs
    crash-once ARG exit(1) on the first request unless the sentinel file ARG
                   exists (it is created before crashing), then act uniform
    always-crash   exit(1) immediately
    silent         read requests, never answer
"""

import json
import os
import sys


def _read():
    line = sys.stdin.readline()
    if not line:
        sys.exit(0)
    return json.loads(line)


def _reply(req_id, probs):
    sys.stdout.write(json.dumps({"id": req_id, "probs": probs}) + "\n")
    sys.stdout.flush()


def _uniform(req):
    n = len(req["inputs"])
    return [[0.5, 0.5] for _ in range(n)]


def _content(req):
    # distinguishable per-row answer so reassembly order is testable
    return [[0.8, 0.2] if row[0] > 0.5 else [0.2, 0.8] for row in req["inputs"]]


def main() -> None:
    mode = sys.argv[1]
    if mode == "always-crash":
        sys.exit(1)
    if mode == "crash-once":
        sentinel = sys.argv[2]
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as handle:
                handle.write("crashed\n")
            _read()  # consume one request so the caller is mid-wait
            sys.exit(1)
        mode = "uniform"

    if mode == "uniform":
        while True:
            req = _read()
            _reply(req["id"], _uniform(req))
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
    elif mode == "silent":
        while True:
            _read()
    else:
        raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    main()
