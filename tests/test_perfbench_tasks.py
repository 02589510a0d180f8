"""Every task of the benchmark's workloads (perfbench/workloads.py) passes its
own output check when it runs in process, so a change that alters what the
benchmark checks (the closed-form dims, the pinned sweep SHA-256s, the exact
guess and fit lines) fails here and not only in a benchmark run.  No analyse
task's child loads ``fractions``, which would raise its peak memory."""

import importlib
import io
import os
import subprocess
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


SRC = PERFBENCH.parent / "src"


def test_no_analyse_task_loads_fractions(tmp_path):
    # every analyse task reads integer data or an integer or p/q parameter,
    # so its child needs neither fractions nor the decimal and numbers it imports
    code = ("import io, sys, oplab.cli\n_before = set(sys.modules)\n"
            "assert oplab.cli.run(sys.argv[1:], out=io.StringIO()) == 0\n"
            "print(*sorted(set(sys.modules) - _before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    tasks = load_workloads().build("analyse", 1, tmp_path)
    assert len(tasks) == 10
    for task in tasks:
        stdin = task.stdin.read_text() if task.stdin is not None else ""
        loaded = set(subprocess.run([sys.executable, "-c", code, *task.args], input=stdin,
                                    capture_output=True, text=True, env=env,
                                    check=True).stdout.split())
        assert not loaded & {"fractions", "decimal", "numbers"}, task.name
