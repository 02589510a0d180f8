"""Every function the traced benchmark wraps (perfbench/launcher.py LAYERS)
must exist in oplab, so a deletion that breaks ``--trace 1`` fails here."""

import importlib
import importlib.util
from pathlib import Path

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
