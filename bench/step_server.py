"""Model server for the run_bridge workload.

Speaks the line protocol of ``soco.models.ExternalModel`` on stdin/stdout:

    request:  {"id": <uint>, "inputs": [[<real>, ...], ...]}
    response: {"id": <uint>, "probs": [[<real>, ...], ...]}

and answers with the step function of ``soco.synthetic.LinearStepModel``:
class 1 iff the row sum (numpy, row by row) is positive, one-hot
probabilities.  Requests are answered in order; the server exits at EOF.

Run as: python3 step_server.py
"""

import json
import sys

import numpy as np


def answer(request: dict) -> dict:
    rows = np.asarray(request["inputs"], dtype=np.float64)
    positive = rows.sum(axis=1) > 0
    probs = np.zeros((rows.shape[0], 2))
    probs[positive, 1] = 1.0
    probs[~positive, 0] = 1.0
    return {"id": request["id"], "probs": probs.tolist()}


def main() -> None:
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        sys.stdout.write(json.dumps(answer(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
