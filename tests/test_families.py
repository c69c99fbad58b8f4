import hashlib

import numpy as np
import pytest

from drguniform import (
    BudgetExceeded,
    Graph,
    InvalidParams,
    cartesian_product,
    classical_parameters,
    graph_isomorphic,
    intersection_array,
    near_polygon_check,
    spectrum,
)
from drguniform.families import (
    FamilySpec,
    build_family,
    doob,
    dual_polar_2a,
    dual_polar_generator_bases,
    halved_cube,
    hamming,
    johnson,
)
from drguniform.fields import FiniteField, hermitian_inner
from drguniform.graph_core import write_edge_list
from drguniform.tmodules import tightness

from oracles import diameter, is_connected, neighbours, rank_gf, rref_dual_polar_bases, span_points

# SHA-256 of write_edge_list for each constructor at the ladder and suite
# instances, recorded from the pairwise-comparison builders these replaced;
# Hermitian forms (2,2) and (3,2) and the halved 7-cube were recorded from
# the word-by-word builders that the index arithmetic replaced
GOLDEN_EDGE_LISTS = {
    ("hamming", (4, 4)): "dcfa7695e72d9f27daeca3567c6f85b13d28ce5feb77162132af347f84cfa8f9",
    ("hamming", (5, 4)): "f41ab4e498d28c1bf2fe32695393b0077ae42688df8dc8fa9952bdae0d4ff8f9",
    ("halved_cube", (9,)): "eacc1a1e77408caf1ffbeb35c87550a7ff3abb2acb1656fb4221614759becc46",
    ("halved_cube", (7,)): "195cbe7bc7742e891864924aad21d93aebd353e4c350e5b228d8b4424e3a6d34",
    ("hermitian_forms", (2, 2)): "1f5913ca7a41f6259699ca676394f0dacdf43af2f6d3341a7f441814a185cc0e",
    ("hermitian_forms", (3, 2)): "43202ad5ef381a25b5f88635fbc180a250ccbbcab93d0407fe5af630712ce058",
    ("hermitian_forms", (2, 3)): "9ab7783e2d7491679e0b3e7a4ca59dc909ad2775b39c2260c89a95839df9db8d",
    ("johnson", (12, 5)): "8f50693c0a9faa95ba2717d3f06b08de9d54aad399d53a5f05add204385c5305",
    ("johnson", (9, 4)): "31b65e578738351aec55f568235d1179f3ab2bfe16f17d9c4c1f21454d26b077",
    ("johnson", (6, 3)): "3ff1263abf511d6b61ab894b0b9b8bf4c5c12402d2044ba0c2a7a1ae55747d36",
    ("dual_polar_2a", (2, 2)): "33321c19714bc20ea52e994f0a0dda076ab7d800e3112464ccf1233bde0e39ae",
    ("dual_polar_2a", (2, 3)): "89aba05ce33069cc4569a6cc400cc496d2fff8ced2aad606f03301eb8bb0c35f",
    ("gosset", ()): "3208409e99cc0142b9beca98fe04927ffe66062b7baba50c62ce9612de9d31b1",
    ("shrikhande", ()): "9ff56d2d9d8181be880da62e1ed46a0a884157e28ead7a247cf3c05190ef62b1",
    ("doob", (1, 1)): "c762d14516fcca4f50b69e43b6728f128198c50487a9430d233a1a27021cd594",
}


@pytest.mark.parametrize(
    "tag,params",
    sorted(GOLDEN_EDGE_LISTS),
    ids=["-".join(map(str, (tag, *params))) for tag, params in sorted(GOLDEN_EDGE_LISTS)],
)
def test_golden_edge_lists(tag, params):
    text = write_edge_list(build_family(FamilySpec(tag, params)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_EDGE_LISTS[tag, params]


def test_hamming_small_cases():
    k4 = hamming(1, 4)
    assert k4.n == 4 and k4.m == 6
    c4 = hamming(2, 2)
    cycle4 = graph_isomorphic(c4, Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert cycle4 is not None


def test_hamming_array(h33):
    ia = intersection_array(h33)
    assert ia.c == (1, 2, 3) and ia.b == (6, 4, 2)
    assert h33.n == 27 and len(neighbours(h33)[0]) == 6


def test_hamming_is_cartesian_power():
    k3 = hamming(1, 3)
    power = cartesian_product(cartesian_product(k3, k3), k3)
    assert graph_isomorphic(hamming(3, 3), power) is not None


def test_johnson_cases(j94, j63):
    assert johnson(4, 2).n == 6
    assert j94.n == 126
    cp = classical_parameters(intersection_array(j94))
    assert (cp.D, cp.q, cp.alpha, cp.beta) == (4, 1, 1, 5)
    ia = intersection_array(j63)
    sp = spectrum(ia)
    tight, gap = tightness(ia, sp.eigenvalues[1], sp.eigenvalues[-1])
    assert tight and gap == 0
    with pytest.raises(InvalidParams):
        johnson(3, 2)


def test_halved_cube_cases(halved7, halved8):
    hc4 = halved_cube(4)
    assert hc4.n == 8 and diameter(hc4) == 2
    assert halved7.n == 64 and diameter(halved7) == 3
    assert halved8.n == 128 and diameter(halved8) == 4


def test_shrikhande_vs_rook(shrik):
    ia = intersection_array(shrik)
    assert shrik.n == 16 and ia.k == 6
    assert ia.c == (1, 2) and ia.a == (0, 2, 4)  # srg(16, 6, 2, 2)
    h24 = hamming(2, 4)
    assert intersection_array(h24) == ia
    assert graph_isomorphic(shrik, h24) is None


def _local_graph(g, v):
    adj = neighbours(g)
    nbrs = adj[v]
    index = {u: i for i, u in enumerate(nbrs)}
    edges = [
        (index[a], index[b])
        for a in nbrs
        for b in nbrs
        if a < b and b in adj[a]
    ]
    return Graph(len(nbrs), edges)


def test_local_graphs_distinguish_shrikhande(shrik):
    local_s = _local_graph(shrik, 0)
    local_h = _local_graph(hamming(2, 4), 0)
    # hexagon versus two triangles
    assert all(len(nbrs) == 2 for nbrs in neighbours(local_s))
    assert is_connected(local_s)
    assert not is_connected(local_h)


def test_doob_cases(doob11, shrik, h34):
    d10 = doob(1, 0)
    assert graph_isomorphic(d10, shrik) is not None
    assert doob11.n == 64 and diameter(doob11) == 3
    assert intersection_array(doob11) == intersection_array(h34)
    assert graph_isomorphic(doob11, h34) is None  # Doob is not Hamming
    k4 = hamming(1, 4)
    direct = cartesian_product(shrik, k4)
    assert direct.edges().tolist() == doob11.edges().tolist()


def test_gosset_graph(gosset_graph):
    g = gosset_graph
    assert g.n == 56
    assert len(neighbours(g)[0]) == 27
    assert diameter(g) == 3
    ia = intersection_array(g)
    sp = spectrum(ia)
    tight, gap = tightness(ia, sp.eigenvalues[1], sp.eigenvalues[-1])
    assert tight and gap == 0
    cp = classical_parameters(ia)
    assert (cp.D, cp.q) == (3, 1)


def test_dual_polar_small(dp22):
    assert dp22.n == 27
    ia = intersection_array(dp22)
    assert ia.D == 2


def test_dual_polar_891(dp23):
    assert dp23.n == 891
    ia = intersection_array(dp23)
    assert ia.c == (1, 5, 21) and ia.b == (42, 40, 32)
    cp = classical_parameters(ia)
    assert cp.q == -2
    assert near_polygon_check(dp23, ia)


def test_dual_polar_isotropy_post_hoc():
    points, rows, _ = dual_polar_generator_bases(2, 2)
    field = FiniteField(2, 2)
    assert len(rows) == 27
    for basis in points[rows[::5]]:  # sample
        assert len(basis) == 2
        assert rank_gf(field, basis.tolist()) == 2
        assert not hermitian_inner(field, basis[:, None], basis[None, :]).any()


@pytest.mark.parametrize("D", [2, 3])
def test_dual_polar_bases_match_rref_search(D):
    points, rows, _ = dual_polar_generator_bases(2, D)
    bases = [tuple(map(tuple, basis)) for basis in points[rows].tolist()]
    assert bases == rref_dual_polar_bases(2, D)


@pytest.mark.parametrize("r,D", [(2, 2), (2, 3), (3, 2)])
def test_dual_polar_masks_are_spans(r, D):
    # M = M^perp, so the AND of orth over a basis is the point set of its span
    field = FiniteField(r, 2)
    points, rows, masks = dual_polar_generator_bases(r, D)
    labels = [tuple(p) for p in points.tolist()]
    for basis, mask in zip(points[rows].tolist(), masks):
        assert {labels[j] for j in np.flatnonzero(mask)} == span_points(field, basis)


def test_hermitian_forms(her22, her23):
    assert her22.n == 16 and len(neighbours(her22)[0]) == 5
    assert her23.n == 512 and diameter(her23) == 3
    ia = intersection_array(her23)
    cp = classical_parameters(ia)
    assert cp.q == -2
    assert not near_polygon_check(her23, ia)


def test_budgets():
    with pytest.raises(BudgetExceeded):
        hamming(6, 10)
    with pytest.raises(BudgetExceeded):
        hamming(3, 3, budget=10)
    with pytest.raises(BudgetExceeded):
        dual_polar_2a(2, 4)  # ~114k vertices, over the default budget


def test_every_family_distance_regular(
    h33, j63, halved7, shrik, doob11, gosset_graph, dp22, her22
):
    for g in (h33, j63, halved7, shrik, doob11, gosset_graph, dp22, her22):
        ia = intersection_array(g)  # raises if not distance-regular
        assert ia.n == g.n


def test_classical_q_signs(h33, j63, halved7, doob11, gosset_graph, dp23, her23):
    for g in (h33, j63, halved7, doob11, gosset_graph):
        assert classical_parameters(intersection_array(g)).q == 1
    for g in (dp23, her23):
        assert classical_parameters(intersection_array(g)).q == -2
