import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drguniform import (
    BudgetExceeded,
    Graph,
    bfs_layers,
    cartesian_product,
    flatten,
    graph_isomorphic,
    intersection_array,
    lfr_split,
)
from drguniform import terwilliger
from drguniform.families import hamming
from drguniform.uniform import layer_gram

from oracles import (
    TupleSplit,
    block_part,
    f_nonzeros,
    is_bipartite,
    layer_gram_rows,
    loop_bfs_layers,
    loop_flatten_edges,
    loop_product_edges,
    split_dense,
)
from strategies import connected_graphs, relabel

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def test_split_bipartite_has_no_flat():
    split = lfr_split(C6, x=0)
    assert f_nonzeros(split) == 0
    L, F, R = split_dense(split)
    assert not F.any()


def test_split_triangle_counts():
    split = lfr_split(K3, x=0)
    L, F, R = split_dense(split)
    assert int(L.sum()) == 2  # two edges from layer 1 down to the base
    assert int(F.sum()) == 2  # one edge inside layer 1, both directions


def test_split_reassembles_adjacency(h33, j63, shrik):
    for g in (h33, j63, shrik, K3, C6):
        split = lfr_split(g, x=0)
        L, F, R = split_dense(split)
        A = np.zeros((g.n, g.n), dtype=np.int64)
        for u, v in g.edges():
            A[u, v] = A[v, u] = 1
        assert np.array_equal(L + F + R, A)
        assert np.array_equal(R, L.T)
        assert np.array_equal(F, F.T)


def test_split_column_sums_are_c(h33):
    ia = intersection_array(h33)
    split = lfr_split(h33, x=0)
    for i in range(1, 4):
        blk = split.l_block(i)
        assert (blk.sum(axis=0) == ia.c[i - 1]).all()


def test_apply_matches_blocks(h33):
    split = lfr_split(h33, x=0)
    rng = random.Random(7)
    for i in range(1, 4):
        vec = [rng.randint(-5, 5) for _ in split.dp.layers[i]]
        blk = split.l_block(i)
        assert split.apply_L(i, vec) == list(blk @ np.array(vec))
    vec = [rng.randint(-5, 5) for _ in split.dp.layers[1]]
    blk = split.l_block(2)
    assert split.apply_R(1, vec) == list(blk.T @ np.array(vec))


def _loop_apply(ref, gen, i, vec):
    """The exact pure-Python L/F/R products over a ``TupleSplit``; L of
    layer 0 and R of the last layer are empty."""
    if gen == "L":
        return [sum(vec[y] for y in nbrs) for nbrs in ref.lrows[i]] if i else []
    if gen == "F":
        return [sum(vec[y] for y in nbrs) for nbrs in ref.frows[i]]
    if i == ref.eccentricity:
        return []
    out = [0] * len(ref.dp.layers[i + 1])
    for z, nbrs in enumerate(ref.lrows[i + 1]):
        for y in nbrs:
            out[y] += vec[z]
    return out


def _products(split, i, vec):
    yield "F", split.apply_F(i, vec)
    if i >= 1:
        yield "L", split.apply_L(i, vec)
    if i < split.eccentricity:
        yield "R", split.apply_R(i, vec)


def test_int64_fast_path_matches_loop(j63):
    # small ints; magnitudes at and around 2^62, 2^63 and (2^63 - 1) // k
    # for every row count k the blocks have, and 2^100 and 2^300 (the
    # Python-int pass), all one sign (the largest sums) or mixed with
    # negatives
    split = lfr_split(j63, x=0)
    ref = TupleSplit(j63, split.dp)
    rng = random.Random(11)
    edges = [2**62, 2**63 - 1, 2**63, 2**64, 2**100, 2**300]
    edges += [(2**63 - 1) // k for k in range(1, 10)]
    magnitudes = sorted({m + d for m in edges for d in (-1, 0, 1)})
    for i, layer in enumerate(split.dp.layers):
        w = len(layer)
        vecs = [[rng.randint(-5, 5) for _ in range(w)]]
        for m in magnitudes:
            vecs.append([m] * w)
            vecs.append([-m] * w)
            vecs.append([rng.choice((m, -m, -(2**63), 1)) for _ in range(w)])
        for vec in vecs:
            for gen, out in _products(split, i, vec):
                assert out == _loop_apply(ref, gen, i, vec), (gen, i, vec[:3])
                assert all(type(x) is int for x in out)


@given(connected_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_one_product_gives_the_three_images(case, rng):
    # at every layer, the ends included, the L, F and R parts of the one
    # block product are the loop products, in the int64 pass and, with one
    # entry past the block's limit, in the Python-int pass; a block of
    # vectors gives each vector's images, in the pass its largest entry
    # picks
    g, perm, x = case
    h, y = relabel(g, perm), perm[x]
    split = lfr_split(h, x=y)
    ref = TupleSplit(h, split.dp)
    for i, layer in enumerate(split.dp.layers):
        limit = split._block(i)[1]
        small = [[rng.randint(-5, 5) for _ in layer] for _ in range(rng.randint(1, 3))]
        past = [rng.choice((limit + 1, -limit - 1))] + [rng.choice((limit, -limit, 3)) for _ in layer[1:]]
        for block, dtype in ((small, np.int64), (small + [past], object)):
            assert split._product(i, block).dtype == dtype
            images = split.images(i, block)
            assert images == [[_loop_apply(ref, gen, i, vec) for vec in block] for gen in "LFR"]
            assert images == [[split.images(i, [vec], gen)[0][0] for vec in block] for gen in "LFR"]
            assert all(type(v) is int for img in images for vec in img for v in vec)
            vec = block[-1]
            assert [split.apply_L(i, vec), split.apply_F(i, vec), split.apply_R(i, vec)] == [
                img[-1] for img in images
            ]


@pytest.mark.parametrize("name", ["h33", "j63", "shrik", "halved7", "dp22"])
def test_no_lowering_from_the_base_or_raising_from_the_top(request, name):
    # L of layer 0 and R of the last layer are empty, not the images of
    # the layers at the other end
    split = lfr_split(request.getfixturevalue(name), x=0)
    top = split.eccentricity
    assert split.apply_L(0, [1]) == []
    assert split.apply_R(top, [1] * split.layer_sizes()[top]) == []


def test_products_reject_entries_that_are_not_ints(j63):
    # a Fraction, a float or a numpy integer never reaches the int64
    # product, where it could be truncated; whole Fractions are no exception
    split = lfr_split(j63, x=0)
    for i, layer in enumerate(split.dp.layers):
        w = len(layer)
        for vec in (
            [Fraction(1, 2)] * w,
            [1] * (w - 1) + [Fraction(1, 3)],
            [Fraction(2)] * w,
            [0.5] * w,
            [np.int64(1)] * w,
        ):
            gens = ["F"] + ["L"] * (i >= 1) + ["R"] * (i < split.eccentricity)
            for gen in gens:
                with pytest.raises(TypeError):
                    getattr(split, f"apply_{gen}")(i, vec)


def test_flatten_bipartite_fixed_point():
    fl = flatten(C6, 0)
    assert fl.graph.edges().tolist() == C6.edges().tolist()
    assert fl.removed_edges == 0


def test_flatten_triangle():
    fl = flatten(K3, 0)
    assert fl.graph.edges().tolist() == [[0, 1], [0, 2]]
    assert fl.removed_edges == 1


def test_flatten_preserves_partition(h33, shrik, gosset_graph):
    for g in (h33, shrik, gosset_graph):
        dp = bfs_layers(g, 0)
        fl = flatten(g, 0)
        assert is_bipartite(fl.graph)
        dp_f = bfs_layers(fl.graph, 0)  # also proves connectivity
        assert dp_f.layers == dp.layers
        inside = sum(
            1 for u, v in g.edges() if dp.dist[u] == dp.dist[v]
        )
        assert fl.graph.m == g.m - inside
        assert fl.removed_edges == inside


@given(connected_graphs(), connected_graphs(max_n=5))
@settings(max_examples=100, deadline=None)
def test_flatten_and_product_match_the_loops(case, other):
    g, _, x = case
    h = other[0]
    assert flatten(g, x).graph.edges().tolist() == loop_flatten_edges(g, x)
    assert cartesian_product(g, h).edges().tolist() == loop_product_edges(g, h)


def test_cartesian_product_basics():
    k2 = hamming(1, 2)
    c4 = cartesian_product(k2, k2)
    assert graph_isomorphic(c4, Graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)]))
    with pytest.raises(BudgetExceeded):
        cartesian_product(hamming(3, 4), hamming(3, 4), budget=100)


def test_flatten_commutes_with_product():
    k3 = hamming(1, 3)
    prod = cartesian_product(k3, k3)
    lhs = flatten(prod, 0).graph
    rhs = cartesian_product(flatten(k3, 0).graph, flatten(k3, 0).graph)
    assert lhs.edges().tolist() == rhs.edges().tolist()


def test_isomorphic_to_relabeled_self(h33):
    rng = random.Random(20240611)
    perm = list(range(h33.n))
    rng.shuffle(perm)
    relabeled = Graph(
        h33.n, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in h33.edges()]
    )
    mapping = graph_isomorphic(h33, relabeled)
    assert mapping is not None
    for u, v in h33.edges():
        assert relabeled.adjacent(mapping[u], mapping[v])


def test_flattened_shrikhande_vs_product(shrik):
    kk = cartesian_product(hamming(1, 4), hamming(1, 4))
    assert graph_isomorphic(flatten(shrik, 0).graph, flatten(kk, 0).graph)


def test_shrikhande_not_hamming(shrik):
    assert graph_isomorphic(shrik, hamming(2, 4)) is None


def test_isomorphism_budget(monkeypatch):
    monkeypatch.setattr(terwilliger, "ISO_VERTEX_BOUND", 4)
    with pytest.raises(BudgetExceeded):
        graph_isomorphic(hamming(2, 3), hamming(2, 3))


@given(connected_graphs())
# a vertex of layer i - 1 with no neighbour in layer i: first in its
# layer in a path at base 1, last in a spider at base 0
@example((Graph(4, [(0, 1), (1, 2), (2, 3)]), [0, 1, 2, 3], 1))
@example((Graph(7, [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (5, 6)]), [6, 5, 4, 3, 2, 1, 0], 0))
@settings(max_examples=200, deadline=None)
def test_partition_and_blocks_match_loop_oracles(case):
    g, perm, x = case
    sizes = None
    for h, y in ((g, x), (relabel(g, perm), perm[x])):
        dp, ref_dp = bfs_layers(h, y), loop_bfs_layers(h, y)
        assert dp == ref_dp
        assert np.array_equal(dp.dist, ref_dp.dist)  # equality leaves dist out
        assert sizes in (None, [len(layer) for layer in dp.layers])
        sizes = [len(layer) for layer in dp.layers]
        split, ref = lfr_split(h, dp), TupleSplit(h, dp)
        for i in range(dp.eccentricity + 1):
            assert np.array_equal(block_part(split, "F", i).toarray(), ref.f_block(i))
            if i >= 1:
                blk = ref.l_block(i)
                assert np.array_equal(split.l_block(i), blk)
                assert layer_gram(split, i) == layer_gram_rows(ref, i)
                assert np.array_equal(block_part(split, "L", i).toarray(), blk)
                assert np.array_equal(block_part(split, "R", i - 1).toarray(), blk.T)
