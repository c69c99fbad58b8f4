import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drguniform"


def _nodes():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _raises_runtime_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "RuntimeError"


def test_no_runtime_error():
    # the CLI maps only GraphError subclasses to exit codes, so a
    # RuntimeError would end a run in a traceback
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_runtime_error(node)
    ]
    assert not found, f"RuntimeError raised in the package: {found}"
