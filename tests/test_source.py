import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drguniform"


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
