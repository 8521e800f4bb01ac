import multiprocessing
import threading

import numpy as np
import pytest

from soco import (
    Dataset,
    LinearStepModel,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
)

# one line per acceptance criterion, echoed at the end of the run so the
# verdicts are visible even when everything passes
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def record_criterion():
    def record(criterion: str, ok: bool, detail: str) -> None:
        line = f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    # big enough that accuracies are not degenerate, small enough to stay fast
    return generate_synthetic(n_samples=60, n_features=100, seed=7)


@pytest.fixture(scope="session")
def gt_maps(small_dataset):
    return ground_truth_attribution(small_dataset)


@pytest.fixture(scope="session")
def oracle(small_dataset):
    return oracle_info(small_dataset)


@pytest.fixture(scope="session")
def step_model():
    return LinearStepModel()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def no_leftovers():
    """Every call in the test leaves no child process and no extra thread.

    Modules whose code forks lanes or starts model servers use it for every
    test (``pytestmark``), so a leftover fails the test that left it.
    """
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
