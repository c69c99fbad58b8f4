import re
from fractions import Fraction
from functools import cache
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from drguniform import (
    BudgetExceeded,
    ClassicalParameters,
    DisconnectedGraph,
    Graph,
    InvalidParams,
    NegativeKrein,
    NotDistanceRegular,
    ParseError,
    SpectralData,
    bfs_layers,
    classical_parameter_candidates,
    classical_parameters,
    gaussian_binomial,
    intersection_array,
    krein_parameters,
    near_polygon_check,
    q_polynomial_orderings,
    read_edge_list,
    spectrum,
    write_edge_list,
)
from drguniform import graph_core
from drguniform.families import FamilySpec, build_family, shrikhande
from drguniform.errors import GraphError
from drguniform.terwilliger import cartesian_product, flatten

from oracles import (
    brute_intersection_numbers,
    brute_layer_sizes,
    fraction_krein_parameters,
    is_connected,
    loop_adjacency,
    loop_intersection_array,
    loop_q_polynomial_orderings,
    neighbours,
    numpy_spectrum,
    permutation_q_polynomial_orderings,
    p_numbers,
    product_intersection_array,
    scan_k112,
)

P3 = Graph(3, [(0, 1), (1, 2)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def test_bfs_layers_path():
    dp = bfs_layers(P3, 0)
    assert dp.layers == ((0,), (1,), (2,))
    assert dp.eccentricity == 2


def test_bfs_layers_complete():
    dp = bfs_layers(K4, 0)
    assert dp.layers == ((0,), (1, 2, 3))


def test_bfs_layers_hamming(h33):
    dp = bfs_layers(h33, 0)
    assert [len(l) for l in dp.layers] == [1, 6, 12, 8]
    assert brute_layer_sizes(h33, 0) == [1, 6, 12, 8]
    # layers partition the vertex set and respect adjacency
    assert sorted(v for layer in dp.layers for v in layer) == list(range(27))
    for u, v in h33.edges():
        assert abs(dp.dist[u] - dp.dist[v]) <= 1


def test_disconnected_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        bfs_layers(g, 0)
    with pytest.raises(DisconnectedGraph):
        g.distance_matrix()


def test_edge_list_round_trip(h33):
    text = write_edge_list(h33)
    g = read_edge_list(text)
    assert g.n == h33.n and g.edges().tolist() == h33.edges().tolist()


# every input's message, as the reader gave it before the arrays replaced
# its Python ints; a negative edge count has had a message of its own since
_EDGE_LIST_ERRORS = {
    "": "missing header line 'n m'",
    "3": "missing header line 'n m'",
    "0 0": "a graph needs at least one vertex, not 0",
    "2 -1": "a graph needs a nonnegative edge count, not -1",
    "2 -1\n0 1": "a graph needs a nonnegative edge count, not -1",
    "2 2\n0 1": "expected 4 endpoints, found 2",
    "4 2\n0 3\n1 2 5": "expected 4 endpoints, found 5",
    "a b": "non-integer token: invalid literal for int() with base 10: 'a'",
    "2 1\n0 1.5": "non-integer token: invalid literal for int() with base 10: '1.5'",
    "2 1\n18446744073709551616 x": "non-integer token: invalid literal for int() with base 10: 'x'",
    "2 1\n1 0": "edge (1, 0) must satisfy u < v",
    "1 1\n0 0": "edge (0, 0) must satisfy u < v",
    "3 2\n0 1\n1 1": "edge (1, 1) must satisfy u < v",
    "3 2\n0 5\n2 1": "edge (2, 1) must satisfy u < v",
    "3 2\n0 1\n0 -5": "edge (0, -5) must satisfy u < v",
    "2 1\n0 -18446744073709551617": "edge (0, -18446744073709551617) must satisfy u < v",
    "2 1\n0 2": "vertex out of range in edge (0, 2)",
    "2 1\n-1 1": "vertex out of range in edge (-1, 1)",
    "2 1\n0 9223372036854775807": "vertex out of range in edge (0, 9223372036854775807)",
    "2 1\n0 9223372036854775808": "vertex out of range in edge (0, 9223372036854775808)",
    "2 1\n-9223372036854775809 1": "vertex out of range in edge (-9223372036854775809, 1)",
    "2 1\n0 18446744073709551616": "vertex out of range in edge (0, 18446744073709551616)",
    "2 1\n-18446744073709551616 1": "vertex out of range in edge (-18446744073709551616, 1)",
    "2 1\n0 99999999999999999999999999": "vertex out of range in edge (0, 99999999999999999999999999)",
    "3 2\n0 1\n0 1": "duplicate edge (0, 1)",
    "3 3\n0 1\n1 2\n0 1": "duplicate edge (0, 1)",
}


@pytest.mark.parametrize("text", sorted(_EDGE_LIST_ERRORS))
def test_edge_list_errors(text):
    with pytest.raises(ParseError) as info:
        read_edge_list(text)
    assert str(info.value) == _EDGE_LIST_ERRORS[text]


def test_edge_list_header_is_held_to_the_budget():
    # the constructors' rule: more vertices than the budget (the default
    # configuration's when none is given) is BudgetExceeded, before the
    # body is checked or anything of that size allocated
    with pytest.raises(BudgetExceeded, match="^6 vertices exceed the budget of 5$"):
        read_edge_list("6 1\n0 9", budget=5)
    assert read_edge_list("5 1\n0 4", budget=5).n == 5
    for text in ("100001 0", "99999999999999999999 0"):
        with pytest.raises(BudgetExceeded):
            read_edge_list(text)


@st.composite
def edge_lists(draw):
    """Edge lists on up to 8 vertices, with some endpoints out of range
    (far beyond int64 too), self-loops and repeats in either orientation."""
    n = draw(st.integers(min_value=1, max_value=8))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["range", "loop", "repeat"]))
        if kind == "range":
            far = st.sampled_from([-1, n, -(2**70), 2**64, 2**200])
            u, v = draw(st.one_of(vertex, far)), draw(far)
            edges.append((u, v) if draw(st.booleans()) else (v, u))
        elif kind == "loop":
            u = draw(vertex)
            edges.append((u, u))
        elif kind == "repeat" and edges:
            u, v = draw(st.sampled_from(edges))
            edges.append((v, u) if draw(st.booleans()) else (u, v))
        else:
            edges.append((draw(vertex), draw(vertex)))
    return n, edges


@given(edge_lists())
@example((3, [(0, 1), (1, 0)]))
@example((3, [(2, 2), (0, 5)]))
@example((3, [(0, 2**64), (1, 1)]))
@example((3, [(3, 3)]))
@settings(max_examples=400, deadline=None)
def test_graph_checks_match_the_loop(case):
    n, edges = case
    try:
        expected = loop_adjacency(n, edges)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            Graph(n, edges)
        assert str(info.value) == str(exc)
        return
    g = Graph(n, iter(edges))
    assert (neighbours(g), g.m) == expected
    assert g.sparse().data.tolist() == [1] * (2 * g.m)


def test_intersection_array_hamming(h33):
    ia = intersection_array(h33)
    assert ia.c == (1, 2, 3)
    assert ia.b == (6, 4, 2)
    assert ia.a == (0, 1, 2, 3)
    assert ia.layer_sizes() == (1, 6, 12, 8)
    assert ia.n == 27 and ia.k == 6


def test_intersection_array_cycle():
    ia = intersection_array(C5)
    assert ia.c == (1, 1) and ia.a == (0, 0, 1) and ia.b == (2, 1)


def test_intersection_array_rejects():
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    with pytest.raises(NotDistanceRegular):
        intersection_array(k4_minus)


def test_single_vertex_has_no_intersection_array():
    with pytest.raises(InvalidParams, match="diameter 0") as info:
        intersection_array(Graph(1, []))
    assert "\n" not in str(info.value)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_edges_and_degrees_read_the_rows(g):
    edges = g.edges()
    assert edges.dtype == np.int64 and edges.shape == (g.m, 2)
    adj = neighbours(g)
    assert edges.tolist() == [[u, v] for u in range(g.n) for v in adj[u] if u < v]
    assert g.sparse().sum(axis=1).A1.tolist() == [len(nbrs) for nbrs in adj]


@given(random_graphs())
@example(Graph(1, []))
@example(Graph(4, [(0, 1), (2, 3)]))
@settings(max_examples=300, deadline=None)
def test_distance_matrix_matches_shortest_path(g):
    adj = neighbours(g)
    rows = [u for u in range(g.n) for _ in adj[u]]
    cols = [v for u in range(g.n) for v in adj[u]]
    adjacency = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    expected = shortest_path(adjacency, unweighted=True)
    if np.isinf(expected).any():
        with pytest.raises(DisconnectedGraph):
            g.distance_matrix()
    else:
        dist = g.distance_matrix()
        assert dist.dtype == np.int16
        assert np.array_equal(dist, expected.astype(np.int16))


_SHIFT = {"c": -1, "a": 0, "b": 1}


def _count(g, dist, kind, x, y):
    """Neighbours z of y with d(x, z) = d(x, y) + shift(kind)."""
    return sum(1 for z in neighbours(g)[y] if dist[x, z] == dist[x, y] + _SHIFT[kind])


@given(random_graphs())
@settings(max_examples=300, deadline=None)
def test_not_distance_regular_witness(g):
    if g.n == 1 or not is_connected(g):
        return
    dist = g.distance_matrix()
    try:
        ia = intersection_array(g)
    except NotDistanceRegular as exc:
        with pytest.raises(NotDistanceRegular):
            loop_intersection_array(g)
        assert dist[exc.x, exc.y] == exc.i and exc.got != exc.expected
        if exc.kind == "eccentricity":
            assert (exc.got, exc.expected) == (dist[exc.x].max(), dist.max())
        else:
            assert _count(g, dist, exc.kind, exc.x, exc.y) == exc.got
            assert any(
                _count(g, dist, exc.kind, x, y) == exc.expected
                for x, y in zip(*np.nonzero(dist == exc.i))
            )
    else:
        assert (ia.c, ia.a, ia.b) == loop_intersection_array(g)


def _outcome(g):
    """The array of ``g``, or the type and args of what it raises, from the
    library and from the per-kind product oracle."""
    results = []
    for compute in (intersection_array, product_intersection_array):
        try:
            ia = compute(g)
        except (GraphError, ValueError) as exc:
            results.append((type(exc), exc.args))
        else:
            results.append((ia.c, ia.a, ia.b))
    return results


_STAR = Graph(4, [(0, 1), (0, 2), (0, 3)])


@given(random_graphs())
@example(Graph(1, []))
@example(Graph(4, [(0, 1), (2, 3)]))
@example(_STAR)
@example(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_the_product_oracle(g):
    ours, oracle = _outcome(g)
    assert ours == oracle


def test_sweep_matches_the_product_oracle_on_suite_graphs():
    for name, g in _suite_graphs().items():
        ours, oracle = _outcome(g)
        assert ours == oracle and all(type(x) is int for x in ours[0]), name
        flat = flatten(g, 0).graph
        ours, oracle = _outcome(flat)
        assert ours == oracle and ours[0] is NotDistanceRegular, name


def _generalized_petersen(n, k):
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, [(min(e), max(e)) for e in outer + spokes + inner])


@pytest.mark.parametrize(
    "g",
    # distance-regular (the dodecahedron and the Desargues graph), then
    # regular graphs whose counts first differ at t = 1, 2 or 3
    [_generalized_petersen(10, 2), _generalized_petersen(10, 3),
     cartesian_product(K4, C5), cartesian_product(C5, C6), _generalized_petersen(12, 2),
     _generalized_petersen(8, 3), _generalized_petersen(13, 5), _generalized_petersen(24, 5)],
)
@pytest.mark.parametrize("check", [graph_core._CHECK, 50])
def test_sweep_matches_the_product_oracle_past_the_first_layer(g, check):
    fresh = Graph(g.n, g.edges())  # the sweep's results are cached on the graph
    with mock.patch.object(graph_core, "_CHECK", check):
        ours, oracle = _outcome(fresh)
    assert ours == oracle


def test_eccentricity_is_reported_before_the_counts():
    # vertex 0 is the centre: its degree differs from the leaves' at t = 1,
    # but its eccentricity is 1 where theirs is 2
    counts, product = _STAR.layer_counts()
    assert product is not None and len(counts) == 2
    with pytest.raises(NotDistanceRegular) as info:
        intersection_array(_STAR)
    assert info.value.kind == "eccentricity" and (info.value.x, info.value.i) == (0, 1)


def test_complete_graph_with_a_uint16_csr():
    n = 300
    g = Graph(n, list(combinations(range(n), 2)))
    assert g.sparse().dtype == np.uint16
    # the product M_t is uint16 too, so the sweep holds 7 n^2 bytes
    with mock.patch.object(graph_core, "_SWEEP_BYTES", 7 * n * n - 1):
        with pytest.raises(BudgetExceeded):
            g.distance_matrix()
    with mock.patch.object(graph_core, "_SWEEP_BYTES", 7 * n * n):
        ia = intersection_array(g)
    assert (ia.c, ia.a, ia.b) == ((1,), (0, n - 2), (n - 1,))


def _count_products(g, call):
    """How many products of ``g``'s CSR ``call()`` forms."""
    S = g.sparse()
    matmul, counted = type(S).__matmul__, []

    def count(self, other):
        counted.append(self is S)
        return matmul(self, other)

    with mock.patch.object(type(S), "__matmul__", count):
        call()
    return sum(counted)


def test_one_sweep_forms_d_plus_one_products(h33, j94):
    for g in (h33, j94):
        fresh = Graph(g.n, g.edges())
        D = intersection_array(g).D
        assert _count_products(fresh, fresh.distance_matrix) == D + 1
        assert _count_products(fresh, lambda: intersection_array(fresh)) == 0
        again = Graph(g.n, g.edges())
        assert _count_products(again, lambda: intersection_array(again)) == D + 1


@pytest.mark.parametrize(
    "name",
    ["h33", "h34", "h43", "cube3", "j63", "j94", "halved7", "halved8", "shrik",
     "doob11", "gosset_graph", "dp22", "dp23", "her22", "her23"],
)
def test_intersection_array_matches_loop_oracle(request, name):
    g = request.getfixturevalue(name)
    ia = intersection_array(g)
    assert (ia.c, ia.a, ia.b) == loop_intersection_array(g)


def test_intersection_numbers_match_brute_force(h33):
    tensor = brute_intersection_numbers(h33)
    ia = intersection_array(h33)
    p = p_numbers(ia)
    for h, table in tensor.items():
        for i in range(ia.D + 1):
            for j in range(ia.D + 1):
                assert p[h][i][j] == table[i][j]


def test_layer_size_identity(h33, j63):
    for g in (h33, j63):
        ia = intersection_array(g)
        ks = ia.layer_sizes()
        assert sum(ks) == g.n
        for i in range(ia.D):
            assert ks[i] * ia.b[i] == ks[i + 1] * ia.c[i]


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 1) == 4
    assert gaussian_binomial(3, -2) == 3
    assert gaussian_binomial(2, -2) == -1
    assert gaussian_binomial(0, 7) == 0


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=-6, max_value=6))
def test_gaussian_binomial_recurrence(j, q):
    assert gaussian_binomial(j + 1, q) == 1 + q * gaussian_binomial(j, q)


def test_classical_parameters_examples(h33, j94):
    cp = classical_parameters(intersection_array(j94))
    assert (cp.D, cp.q, cp.alpha, cp.beta) == (4, 1, 1, 5)
    cp = classical_parameters(intersection_array(h33))
    assert (cp.D, cp.q, cp.alpha, cp.beta) == (3, 1, 0, 2)
    assert classical_parameters(intersection_array(C6)) is None


@pytest.mark.parametrize(
    "tup",
    [(3, 1, 0, 2), (4, 1, 1, 5), (3, -2, -3, 7), (3, -2, -6, 14), (4, 1, 2, 7)],
)
def test_classical_parameters_partial_inverse(tup):
    D, q, alpha, beta = tup
    cp = ClassicalParameters(D, q, Fraction(alpha), Fraction(beta))
    ia = cp.intersection_array()
    cands = classical_parameter_candidates(ia)
    assert any(
        (c.D, c.q, c.alpha, c.beta) == (D, q, alpha, beta) for c in cands
    )


def test_spectrum_hamming(h33):
    spec = spectrum(intersection_array(h33))
    assert spec.eigenvalues == (6, 3, 0, -3)
    assert spec.multiplicities == (1, 6, 12, 8)
    assert spec.residual == (1,) and not spec.numeric


def test_spectrum_johnson(j63):
    spec = spectrum(intersection_array(j63))
    assert spec.eigenvalues == (9, 3, -1, -3)
    oracle = numpy_spectrum(j63)
    assert all(
        abs(float(a) - b) < 1e-8 for a, b in zip(spec.eigenvalues, oracle)
    )


def test_spectrum_complete():
    spec = spectrum(intersection_array(K4))
    assert spec.eigenvalues == (3, -1)
    assert spec.multiplicities == (1, 3)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_spectrum_numeric_flag():
    # an odd cycle's spectrum is rational only in 2 (and -1 when 3 | n);
    # the rest are the roots of the residual factor
    spec = spectrum(intersection_array(C5))
    assert spec.numeric
    assert spec.eigenvalues == (2,) and spec.multiplicities == (1,)
    assert spec.residual == (-1, 1, 1)
    assert spectrum(intersection_array(cycle(7))).residual == (-1, -2, 1, 1)
    c9 = spectrum(intersection_array(cycle(9)))
    assert c9.eigenvalues == (2, -1) and c9.multiplicities == (1, 2)
    for g in (C5, cycle(7), cycle(9)):
        spec = spectrum(intersection_array(g))
        oracle = numpy_spectrum(g)
        irrational = [x for x in oracle if min(abs(x - float(t)) for t in spec.eigenvalues) > 1e-8]
        assert len(irrational) == len(spec.residual) - 1
        assert all(abs(np.polyval(spec.residual[::-1], x)) < 1e-8 for x in irrational)


def test_irrational_spectrum_blocks_idempotents():
    from drguniform import IrrationalSpectrum

    spec = spectrum(intersection_array(C5))
    with pytest.raises(IrrationalSpectrum):
        spec.idempotent_coefficients()


def test_irrational_spectrum_has_no_eigenmatrix_or_krein_parameters():
    from drguniform import IrrationalSpectrum

    spec = spectrum(intersection_array(C5))
    with pytest.raises(IrrationalSpectrum):
        spec.eigenmatrix()
    with pytest.raises(IrrationalSpectrum):
        krein_parameters(spec)


def test_integral_spectra_of_families(h33, h34, halved7, doob11, gosset_graph):
    for g in (h33, h34, halved7, doob11, gosset_graph):
        assert not spectrum(intersection_array(g)).numeric


def test_primitive_idempotents_k4():
    # E_0 = J/4 = (A_0 + A_1)/4 and E_1 = I - J/4 = 3/4 A_0 - 1/4 A_1
    coeffs = spectrum(intersection_array(K4)).idempotent_coefficients()
    assert coeffs == [[Fraction(1, 4), Fraction(1, 4)], [Fraction(3, 4), Fraction(-1, 4)]]


def test_krein_trace_identity(h33, j63):
    for g in (h33, j63):
        spec = spectrum(intersection_array(g))
        kt = krein_parameters(spec)
        for i in range(spec.D + 1):
            for j in range(spec.D + 1):
                expected = spec.multiplicities[i] if i == j else 0
                assert kt.q[0][i][j] == expected


def test_krein_vanishing_pattern(h33):
    kt = krein_parameters(spectrum(intersection_array(h33)))
    for h in range(4):
        for j in range(4):
            if abs(h - j) > 1:
                assert kt.q[h][1][j] == 0
            if abs(h - j) == 1:
                assert kt.q[h][1][j] != 0


def test_krein_nonnegative_small():
    kt = krein_parameters(spectrum(intersection_array(K4)))
    assert all(x >= 0 for a in kt.q for b in a for x in b)


def test_q_polynomial_orderings(h33):
    kt = krein_parameters(spectrum(intersection_array(h33)))
    orderings = q_polynomial_orderings(kt)
    assert (0, 1, 2, 3) in orderings


def test_near_polygon_bipartite_cycle():
    assert near_polygon_check(C6, intersection_array(C6))  # triangle-free


def test_near_polygon_octahedron():
    # J(4,2): adjacent vertices have two nonadjacent common neighbors
    from drguniform import johnson

    g = johnson(4, 2)
    assert not near_polygon_check(g, intersection_array(g))


def test_near_polygon_hamming(h33):
    assert near_polygon_check(h33, intersection_array(h33))


_WHEEL = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)])
_DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
_TWO_TRIANGLES = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
# The Shrikhande graph is locally a hexagon.  Under this labelling the two
# least neighbours of every vertex are opposite on its hexagon, so in every
# local graph each vertex has one neighbour fewer than its label has
# members, and only the shared label across each local edge tells the
# hexagons from two triangles.
_SHRIKHANDE_LABELS = [9, 1, 10, 3, 5, 8, 7, 13, 12, 2, 14, 0, 4, 11, 6, 15]
_SHRIKHANDE = Graph(16, np.array(_SHRIKHANDE_LABELS)[shrikhande().edges()])


@given(random_graphs(), st.sampled_from([1, 5, graph_core._WEDGES]))
@example(_SHRIKHANDE, graph_core._WEDGES)
@example(_WHEEL, 1)
@example(_DIAMOND, 5)
@example(_TWO_TRIANGLES, 1)
@settings(max_examples=300, deadline=None)
def test_near_polygon_clique_test_matches_the_scan(g, wedges):
    with mock.patch.object(graph_core, "_WEDGES", wedges):
        assert graph_core.k112_free(g) == scan_k112(g)


def _graphs(specs):
    return {f"{tag}{params}": build_family(FamilySpec(tag, params)) for tag, params in specs}


@cache
def _suite_graphs():
    return _graphs([
        ("hamming", (3, 3)), ("hamming", (3, 4)), ("hamming", (4, 3)),
        ("halved_cube", (7,)), ("halved_cube", (8,)), ("doob", (1, 1)),
        ("dual_polar_2a", (2, 3)), ("johnson", (6, 3)), ("johnson", (9, 4)),
        ("gosset", ()), ("hermitian_forms", (2, 3)),
    ])


@cache
def _ladder_graphs():
    """The six graphs of the benchmark's certify_ladder, 256-1024 vertices."""
    return _graphs([
        ("hamming", (4, 4)), ("halved_cube", (9,)), ("hermitian_forms", (2, 3)),
        ("johnson", (12, 5)), ("dual_polar_2a", (2, 3)), ("hamming", (5, 4)),
    ])


def test_near_polygon_check_matches_the_scan_on_suite_graphs():
    graphs = _suite_graphs()
    for name, g in graphs.items():
        scan = scan_k112(g)
        assert graph_core.k112_free(g) == scan, name
        ia = intersection_array(g)
        layers = all(ia.a[i] == ia.a[1] * ia.c_at(i) for i in range(1, ia.D))
        assert near_polygon_check(g, ia) == (layers and scan), name
    # the flattened graphs of the doob suite are not distance-regular
    for name in ("doob(1, 1)", "hamming(3, 4)"):
        flat = flatten(graphs[name], 0).graph
        assert graph_core.k112_free(flat) == scan_k112(flat), name


def test_near_polygon_check_runs_the_clique_test_only_when_a1_exceeds_1():
    # an edge of a distance-regular graph has a_1 common neighbours, and a
    # K_{1,1,2} needs two nonadjacent ones
    graphs = _suite_graphs() | _ladder_graphs()
    for name, runs in (("dual_polar_2a(2, 3)", False), ("hamming(3, 3)", False), ("hamming(4, 4)", True)):
        g = graphs[name]
        ia = intersection_array(g)
        assert (ia.a[1] > 1) == runs, name
        with mock.patch.object(graph_core, "k112_free", wraps=graph_core.k112_free) as clique:
            assert near_polygon_check(g, ia), name
        assert clique.call_count == runs, name


def test_krein_parameters_match_the_fraction_sums():
    graphs = _suite_graphs() | _ladder_graphs() | {"K4": K4}
    for name, g in graphs.items():
        spec = spectrum(intersection_array(g))
        assert krein_parameters(spec).q == fraction_krein_parameters(spec), name


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=3, max_size=3))
@example([Fraction(-3, 2), Fraction(-3, 2), Fraction(-4, 3)])  # P has denominators, every q >= 0
@settings(max_examples=60, deadline=None)
def test_krein_parameters_of_a_fractional_eigenmatrix(thetas):
    # no graph has these eigenvalues: its eigenmatrix is integral, and here
    # the entries of P are fractions and some q may be negative
    spec = SpectralData(
        ia=intersection_array(C6), eigenvalues=(Fraction(2), *thetas), multiplicities=(1, 2, 2, 1), residual=(1,)
    )
    oracle = fraction_krein_parameters(spec)
    negative = [(l, i, j) for l in range(4) for i in range(4) for j in range(4) if oracle[l][i][j] < 0]
    if negative:
        l, i, j = negative[0]
        with pytest.raises(NegativeKrein, match=re.escape(f"q^{l}_{{{i}{j}}} = {oracle[l][i][j]}")):
            krein_parameters(spec)
    else:
        assert krein_parameters(spec).q == oracle


def test_q_polynomial_orderings_match_the_loop():
    graphs = _suite_graphs() | _ladder_graphs() | {"line graph of Petersen": _line_graph_of_petersen()}
    for name, g in graphs.items():
        kt = krein_parameters(spectrum(intersection_array(g)))
        assert q_polynomial_orderings(kt) == loop_q_polynomial_orderings(kt), name


def test_q_polynomial_orderings_match_the_permutation_filter():
    graphs = _suite_graphs() | _ladder_graphs() | _graphs([("hamming", (8, 2))])
    graphs["line graph of Petersen"] = _line_graph_of_petersen()
    for name, g in graphs.items():
        kt = krein_parameters(spectrum(intersection_array(g)))
        assert q_polynomial_orderings(kt) == permutation_q_polynomial_orderings(kt), name


def test_q_polynomial_orderings_test_at_most_d_candidates(monkeypatch):
    # the 10-cube has 10! reorderings; one candidate per sigma(1) is tested
    kt = krein_parameters(spectrum(intersection_array(build_family(FamilySpec("hamming", (10, 2))))))
    pattern, tested = graph_core._triangle_pattern, []

    def counted(nonzero, sigma):
        tested.append(sigma)
        return pattern(nonzero, sigma)

    monkeypatch.setattr(graph_core, "_triangle_pattern", counted)
    orderings = q_polynomial_orderings(kt)
    assert tuple(range(11)) in orderings
    assert len(tested) <= kt.D == 10


def _line_graph_of_petersen():
    from drguniform import johnson

    t5 = neighbours(johnson(5, 2))
    petersen = Graph(
        10,
        [
            (u, v)
            for u in range(10)
            for v in range(u + 1, 10)
            if v not in t5[u]
        ],
    )
    edge_index = {e: i for i, e in enumerate(map(tuple, petersen.edges().tolist()))}
    edges = [
        (i, j)
        for e1, i in edge_index.items()
        for e2, j in edge_index.items()
        if i < j and len(set(e1) & set(e2)) == 1
    ]
    return Graph(15, edges)


def test_non_q_polynomial_graph_has_no_ordering():
    lp = _line_graph_of_petersen()
    ia = intersection_array(lp)
    assert (ia.c, ia.b) == ((1, 1, 4), (4, 2, 1))
    kt = krein_parameters(spectrum(ia))
    assert q_polynomial_orderings(kt) == []
