"""Source hygiene: every name a module of ``oplab`` imports is used in it."""

import ast
from pathlib import Path

OPLAB = Path(__file__).resolve().parent.parent / "src" / "oplab"


def _imported(tree: ast.Module):
    """(line, bound name) for every import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _referenced(tree: ast.Module) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "TreeMonomial"
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_no_unused_imports_in_oplab():
    unused = []
    for path in sorted(OPLAB.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _referenced(tree)
        unused += [f"{path.name}:{line} {name}" for line, name in _imported(tree)
                   if name not in used]
    assert unused == []
