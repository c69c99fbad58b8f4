import ast
import importlib
import importlib.util
from pathlib import Path

from drguniform import Graph, cli, suites, write_edge_list

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


def test_no_random_imports():
    # a run is a function of its inputs; uniform.select_structure still
    # samples seeded points first, until the digests that pin its
    # structures are re-recorded
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if path.name != "uniform.py"
        and (
            isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random"
        )
    ]
    assert not found, f"random imported in the package: {found}"


def test_the_configuration_is_the_vertex_budget():
    # Config holds the vertex budget alone: every other value a run
    # depends on is a constant in config.py, so no module reads a second
    # setting from the shared default or a configuration it is passed
    found = [
        f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
        for path, node in _nodes()
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("DEFAULT", "config", "cfg")
        and node.attr not in ("vertex_budget", "as_dict", "validate")
    ]
    assert not found, f"configuration fields read in the package: {found}"


def test_graph_is_its_csr():
    # the isomorphism search reads the CSR and dense arrays made from it,
    # so Graph keeps no second adjacency: no neighbour tuples or sets
    assert Graph.__slots__ == ("n", "m", "_csr", "_dist", "_counts", "__weakref__")
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr in ("adj", "adjacent")
    ]
    assert not found, f"adjacency attributes read in the package: {found}"


def test_one_memory_bound():
    # the distance sweep and certify_uniform's dense blocks are refused
    # against one bound, graph_core._MEMORY_BYTES, read by check_memory
    found = [
        f"{path.name}: {name.id}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.endswith("_BYTES")
    ]
    assert found == ["graph_core.py: _MEMORY_BYTES"], f"module-level memory bounds: {found}"


def test_no_np_roots():
    # rational roots are found exactly, and graph_core.spectrum keeps the
    # factor with no rational root as integer coefficients: no root of
    # anything is solved in floating point
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "roots"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]
    assert not found, f"np.roots in the package: {found}"


def test_no_float_in_spectra_or_documents():
    # every spectral quantity and every number a document prints is exact
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if path.name in ("graph_core.py", "serialize.py")
        and isinstance(node, ast.Name)
        and node.id == "float"
    ]
    assert not found, f"float in graph_core or serialize: {found}"


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


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_callable_exists():
    # bench/spans.py wraps package callables by name and reports a missing
    # one as absent instead of failing, so a renamed callable would only
    # drop its metric from a traced benchmark run
    spans = _spans()
    missing = []
    for entry in spans.SPANNED + spans.LEAVES:
        owner = importlib.import_module(f"drguniform.{entry[0]}")
        for part in entry[1].split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{entry[0]}.{entry[1]}")
    assert not missing, f"callables bench/spans.py traces but the package lacks: {missing}"
    assert set(spans.SUITE_NAMES) <= set(suites.SUITES)


def test_traced_commands_run_every_hook(tmp_path, h33):
    # the tracer's counter hooks read attributes of what the wrapped
    # callables return (spec.numeric, cert.structure, ...); a hook that
    # reads a removed attribute fails the traced run, which the name
    # check above does not see.  The bipartite graph's first layer-1
    # closure splits, so its decompose runs the traced chain
    # _split_irreducible -> _action_matrices -> _closure
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    bipartite = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (4, 5), (2, 6), (3, 6)])
    runs = [
        (h33, ("analyze", "certify-uniform", "decompose")),
        (c5, ("analyze", "decompose")),
        (bipartite, ("decompose",)),
    ]
    tracer = _spans().Tracer()
    tracer.install()
    numeric = []  # numeric spectra counted per command
    try:
        for g, commands in runs:
            graph = tmp_path / "graph.edges"
            graph.write_text(write_edge_list(g))
            for command in commands:
                before = tracer.counters["graph_core.numeric_spectra"]
                assert cli.main([command, str(graph), "--output", str(tmp_path / "out.json")]) == 0
                numeric.append(tracer.counters["graph_core.numeric_spectra"] - before)
    finally:
        tracer.uninstall()
    assert tracer.absent_metrics() == []
    # H(3,3)'s spectrum is rational, C5's is not, the bipartite graph has none
    assert numeric == [0, 0, 0, 1, 1, 0]
    spans = tracer.spans
    parents = {(span[1], spans[span[4]][1]) for span in spans if span[4] is not None}
    assert ("tmodules._action_matrices", "tmodules._split_irreducible") in parents
    assert ("tmodules._closure", "tmodules._action_matrices") in parents
