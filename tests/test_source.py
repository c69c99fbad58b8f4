import ast
import importlib
import importlib.util
from pathlib import Path

from drguniform import suites

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drguniform"


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


def test_np_roots_only_in_spectrum():
    # rational roots are found exactly; only the residual factor of
    # graph_core.spectrum, which has no rational root and is flagged
    # numeric, may be solved in floating point
    allowed, found = set(), []
    for path, node in _nodes():
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("graph_core.py", "spectrum"):
            allowed.update((path.name, line) for line in range(node.lineno, node.end_lineno + 1))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "roots"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((path.name, node.lineno))
    outside = [f"{name}:{line}" for name, line in found if (name, line) not in allowed]
    assert allowed and not outside, f"np.roots outside graph_core.spectrum: {outside}"


def test_no_two_dimensional_unique():
    # unique(..., axis=...) sorts a void view of every row; a layer system
    # needs no distinct rows, since uniform.layer_gram replaces its rows by
    # their 4x4 Gram matrix
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unique"
        and (any(k.arg == "axis" for k in node.keywords) or len(node.args) >= 5)
    ]
    assert not found, f"unique over an axis in the package: {found}"


def test_no_csgraph_import():
    # distances come from graph_core's breadth-first frontier products;
    # scipy's all-pairs shortest_path runs Dijkstra in float64 and holds an
    # 8-byte n x n transient
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if (isinstance(node, ast.Import) and any(a.name.startswith("scipy.sparse.csgraph") for a in node.names))
        or (
            isinstance(node, ast.ImportFrom)
            and (
                (node.module or "").startswith("scipy.sparse.csgraph")
                or (node.module == "scipy.sparse" and any(a.name == "csgraph" for a in node.names))
            )
        )
    ]
    assert not found, f"scipy.sparse.csgraph imported in the package: {found}"


def test_every_traced_callable_exists():
    # bench/spans.py wraps package callables by name and reports a missing
    # one as absent instead of failing, so a renamed callable would only
    # drop its metric from a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for entry in spans.SPANNED + spans.LEAVES:
        owner = importlib.import_module(f"drguniform.{entry[0]}")
        for part in entry[1].split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{entry[0]}.{entry[1]}")
    assert not missing, f"callables bench/spans.py traces but the package lacks: {missing}"
    assert set(spans.SUITE_NAMES) <= set(suites.SUITES)
