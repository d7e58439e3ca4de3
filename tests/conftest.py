"""Shared fixtures plus the acceptance-criteria summary hook.

Tests marked ``@pytest.mark.acceptance(n, "...")`` roll up into one
``ACCEPTANCE n: PASS/FAIL`` line per criterion at the end of the run, so the
release checklist is readable without grepping the full test log.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fedal.data import PartitionSpec, partition, seed_initial_labels, synth_blobs
from fedal.nn import MlpArchitecture

settings.register_profile(
    "fedal",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fedal")


# --------------------------------------------------------------------------
# acceptance-criteria bookkeeping

_CRITERIA: dict[int, dict] = {}
_NOTES: dict[int, list[str]] = {}


def note_acceptance(criterion: int, text: str) -> None:
    """Attach a measured-value note to a criterion's summary line."""
    _NOTES.setdefault(criterion, []).append(text)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(n, description): test implements numbered acceptance criterion n",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    number, description = marker.args
    entry = _CRITERIA.setdefault(
        number, {"description": description, "passed": 0, "failed": 0, "skipped": 0}
    )
    if report.when == "call":
        if report.failed:
            entry["failed"] += 1
        elif report.skipped:
            entry["skipped"] += 1
        else:
            entry["passed"] += 1
    elif report.when == "setup" and (report.failed or report.skipped):
        entry["failed" if report.failed else "skipped"] += 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        entry = _CRITERIA[number]
        if entry["failed"]:
            status = "FAIL"
        elif entry["passed"]:
            status = "PASS"
        else:
            status = "SKIP"
        line = f"ACCEPTANCE {number:2d}: {status} - {entry['description']}"
        notes = _NOTES.get(number)
        if notes:
            line += f"  [{'; '.join(notes)}]"
        terminalreporter.write_line(line)


@pytest.fixture
def acceptance_note():
    return note_acceptance


# --------------------------------------------------------------------------
# shared builders

def make_world(*, n=150, test_n=60, classes=3, dim=2, spread=0.5, clients=2,
               seed=0, initial_fraction=0.2, hidden=(8,), dropout=0.0,
               layout="circle", elongation=1.0):
    """A small ready-to-run setup: (train, test, pools, arch)."""
    train = synth_blobs(n, classes, dim, spread, seed,
                        layout=layout, elongation=elongation)
    test = synth_blobs(test_n, classes, dim, spread, seed + 1000,
                       layout=layout, elongation=elongation)
    pools = partition(train, PartitionSpec(client_count=clients), seed + 1)
    seed_initial_labels(pools, initial_fraction, seed + 2)
    arch = MlpArchitecture(layer_sizes=(dim, *hidden, classes), dropout_rate=dropout)
    return train, test, pools, arch


@pytest.fixture
def world_factory():
    return make_world


def descend(params, gradient, lr):
    """One plain SGD step, ``params - lr * gradient``: the update of the tests' reference loops."""
    return params - lr * gradient


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
