"""Every task of the benchmark's workloads (perfbench/workloads.py) passes its
own output check when it runs in process, so a change that alters what the
benchmark checks (the closed-form dims, the pinned sweep SHA-256s, the exact
guess and fit lines) fails here and not only in a benchmark run."""

import importlib
import io
import sys
from pathlib import Path

import pytest

from oplab.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["count", "sweep", "analyse"])
def test_every_task_passes_its_check(workload, tmp_path, monkeypatch):
    tasks = load_workloads().build(workload, 1, tmp_path)
    assert tasks
    failures = []
    for task in tasks:
        if task.stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(task.stdin.read_text()))
        out = io.StringIO()
        code = run(list(task.args), out=out)
        reason = f"exit {code}" if code else task.check(out.getvalue())
        if reason is not None:
            failures.append(f"{task.name}: {reason}")
    assert not failures
