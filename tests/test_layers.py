"""Every function the traced benchmark wraps (perfbench/launcher.py LAYERS)
must exist in oplab, so a deletion that breaks ``--trace 1`` fails here, and
the CLI must call the wrapped functions when a subcommand runs."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


def test_every_layer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_launcher", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    assert launcher.LAYERS
    for modname, attr, _layer, _mode in launcher.LAYERS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{modname}.{attr} is missing"
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr} is not callable"


SRC = LAUNCHER.parents[1] / "src"

TRACED = [
    (["dims", "--preset", "ex53-1", "--max-arity", "20"], {"monomial.dp"}),
    (["gk", "--preset", "floorpow:3/2", "--N", "200"], {"algebra.presets", "series.gk_estimate"}),
    (["series", "--preset", "ex46-avoidance", "--max", "20"], {"branch.closed_set_counts"}),
]


def traced_spans(tmp_path, argv, preload) -> set[str]:
    """Span names the launcher records for one oplab run in a fresh
    interpreter; with ``preload`` every LAYERS module is imported first."""
    trace = tmp_path / "trace.json"
    code = "import importlib, sys\nsys.path.insert(0, sys.argv[1])\nimport launcher\n"
    if preload:
        code += "for modname, *_ in launcher.LAYERS:\n    importlib.import_module(modname)\n"
    code += "sys.exit(launcher.main(sys.argv[2:]))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code, str(LAUNCHER.parent), str(trace), "--", *argv],
                   capture_output=True, env=env, check=True)
    return {name for name, *_ in json.loads(trace.read_text())["spans"]}


@pytest.mark.parametrize("argv, expected", TRACED)
def test_cli_calls_the_wrapped_functions(tmp_path, argv, expected):
    # the CLI imports its modules when a subcommand runs and reads their
    # functions then, so it calls the launcher's wrappers
    assert {"cli", *expected} <= traced_spans(tmp_path, argv, preload=True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "launcher.install lists the loaded oplab modules before it imports the LAYERS "
    "modules, so it wraps no function of a module that `import oplab.cli` does not load"))
@pytest.mark.parametrize("argv, expected", TRACED)
def test_launcher_records_lazily_imported_layers(tmp_path, argv, expected):
    assert expected <= traced_spans(tmp_path, argv, preload=False)


def test_install_leaves_the_preset_catalog_unchanged():
    # install rebuilds (with dataclasses.replace) a preset whose build is a
    # LAYERS function; every build is a lambda or a closure, so none is touched
    code = (
        "import importlib, sys\nsys.path.insert(0, sys.argv[1])\nimport launcher\n"
        "for modname, *_ in launcher.LAYERS:\n    importlib.import_module(modname)\n"
        "from oplab.cli import CATALOG\n"
        "before = dict(CATALOG)\n"
        "launcher.install(launcher.Tracer())\n"
        "assert list(CATALOG) == list(before)\n"
        "assert all(CATALOG[key] is preset for key, preset in before.items())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, str(LAUNCHER.parent)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
