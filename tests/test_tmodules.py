import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drguniform import (
    NotThin,
    decompose,
    doob_symbolic_check,
    dual_endpoint,
    endpoint1_census,
    intersection_array,
    ladder_scalars,
    spectrum,
    standard_basis,
    tf_isomorphic,
    theta_tilde,
    tightness,
)
from drguniform.graph_core import Graph
from drguniform.tmodules import INFINITY, group_modules


def test_theta_tilde_basics():
    assert theta_tilde(-1, 4) == INFINITY
    assert theta_tilde(INFINITY, 4) == -1


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.integers(min_value=1, max_value=30),
)
def test_theta_tilde_involution(z, b1):
    if z == -1:
        return
    image = theta_tilde(z, b1)
    if image == INFINITY or image == -1:
        return
    assert theta_tilde(image, b1) == z


def test_theta_tilde_interval(h33):
    spec = spectrum(intersection_array(h33))
    b1 = spec.ia.b[1]
    assert theta_tilde(spec.eigenvalues[1], b1) < -1
    assert theta_tilde(spec.eigenvalues[-1], b1) >= 0


def test_tightness_values(j63, halved7, halved8, h33, gosset_graph):
    expectations = [
        (j63, True),
        (gosset_graph, True),
        (halved8, True),
        (halved7, False),
        (h33, False),
    ]
    for g, expect in expectations:
        ia = intersection_array(g)
        sp = spectrum(ia)
        tight, gap = tightness(ia, sp.eigenvalues[1], sp.eigenvalues[-1])
        assert tight is expect
        assert (gap == 0) is expect


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _check_decomposition(g, algebra):
    mods = decompose(g, 0, algebra)
    assert sum(m.dim for m in mods) == g.n
    assert all(m.exact for m in mods)
    # pairwise orthogonality, layer by layer
    for a in range(len(mods)):
        for b in range(a + 1, len(mods)):
            for layer in mods[a].layers():
                for u in mods[a].slice_basis(layer):
                    for v in mods[b].slice_basis(layer):
                        assert _dot(u, v) == 0
    # the trivial module is the layer-indicator module
    trivial = next(m for m in mods if m.endpoint == 0)
    assert trivial.thin and trivial.diameter == g.diameter()
    for layer in trivial.layers():
        vec = trivial.slice_basis(layer)[0]
        assert len(set(vec)) == 1 and vec[0] != 0
    return mods


def test_decompose_families_small(h33, j63, shrik, dp22, her22):
    for g in (h33, j63, shrik, dp22, her22):
        _check_decomposition(g, "T")
        _check_decomposition(g, "Tf")


def test_hamming_modules_all_thin(h33):
    mods = decompose(h33, 0, "T")
    assert all(m.thin for m in mods)


def test_census_hamming(h33):
    spec = spectrum(intersection_array(h33))
    mods = decompose(h33, 0, "T")
    census = endpoint1_census(h33, 0, mods, spec)
    assert census["all_predictions_ok"]
    assert census["non_thin_endpoint1"] == 0
    etas = {c["eta"] for c in census["classes"]}
    assert etas == {Fraction(-1), Fraction(1)}  # local graph 3 K_3


def test_standard_basis_trivial_module(h33):
    spec = spectrum(intersection_array(h33))
    mods = decompose(h33, 0, "T")
    trivial = next(m for m in mods if m.endpoint == 0)
    assert dual_endpoint(trivial, spec) == 0
    basis = standard_basis(trivial, spec)
    assert len(basis) == 4
    for layer, comp in basis:
        assert len(set(comp)) == 1  # proportional to the layer indicator
    lad = ladder_scalars(trivial.split, basis)
    ia = spec.ia
    assert lad.beta == tuple(Fraction(ia.b[i]) for i in range(3))
    assert lad.gamma == tuple(Fraction(ia.c[i]) for i in range(3))


def test_ladder_hamming_endpoint1(h33):
    spec = spectrum(intersection_array(h33))
    mods = decompose(h33, 0, "T")
    W = next(m for m in mods if m.endpoint == 1 and m.diameter == 2)
    basis = standard_basis(W, spec)
    lad = ladder_scalars(W.split, basis)
    n, d = 3, 2
    assert lad.beta == tuple(Fraction((n - 1) * (d - i + 1)) for i in range(1, d + 1))
    assert lad.gamma == tuple(Fraction(i + 1) for i in range(d))


def test_standard_basis_length_is_diameter_plus_one(h33):
    spec = spectrum(intersection_array(h33))
    for mod in decompose(h33, 0, "T"):
        basis = standard_basis(mod, spec)
        assert len(basis) == mod.diameter + 1
        assert [layer for layer, _ in basis] == list(
            range(mod.endpoint, mod.endpoint + mod.diameter + 1)
        )


def test_standard_basis_needs_thin(her23):
    mods = decompose(her23, 0, "Tf", max_endpoint=1)
    non_thin = next(m for m in mods if not m.thin)
    spec = spectrum(intersection_array(her23))
    with pytest.raises(NotThin):
        standard_basis(non_thin, spec)


def test_full_decomposition_512_vertices(her23):
    mods = decompose(her23, 0, "Tf")
    assert sum(m.dim for m in mods) == 512
    assert all(m.exact for m in mods)
    non_thin = [m for m in mods if not m.thin]
    assert len(non_thin) == 20
    assert all(
        m.endpoint == 1 and m.slice_dims() == {1: 1, 2: 2, 3: 1} for m in non_thin
    )


def test_uniform_graphs_have_thin_flattened_modules(halved7, doob11):
    # supporting a uniform structure forces every irreducible module of
    # the flattened graph to be thin; the converse cross-check is the
    # non-thin witness on the Hermitian forms graph
    for g in (halved7, doob11):
        mods = decompose(g, 0, "Tf")
        assert sum(m.dim for m in mods) == g.n
        assert all(m.thin for m in mods)


def _dual_endpoint_reference(mod, spec):
    """Smallest t with E_t w nonzero for a basis vector w, by Fraction sums
    over the distance matrix."""
    dist = mod.split.g.distance_matrix()
    e = spec.idempotent_coefficients()
    for t in range(spec.D + 1):
        for layer in mod.layers():
            verts = mod.split.dp.layers[layer]
            for vec in mod.slices[layer]:
                for z in range(mod.split.g.n):
                    if sum(e[t][dist[z, v]] * x for v, x in zip(verts, vec)):
                        return t
    return None


def test_dual_endpoint_and_standard_basis_exact_beyond_int64(h33, j63):
    # scaling a module basis by 2^70 leaves the dual endpoint alone and
    # scales the standard basis; the scaled products no longer fit int64
    for g in (h33, j63):
        spec = spectrum(intersection_array(g))
        for mod in decompose(g, 0, "T"):
            for scale in (1, 2**70):
                slices = {
                    i: [[scale * x for x in v] for v in rows]
                    for i, rows in mod.slices.items()
                }
                scaled = dataclasses.replace(mod, slices=slices, dual_endpoint=None)
                assert dual_endpoint(scaled, spec) == _dual_endpoint_reference(mod, spec)
                assert standard_basis(scaled, spec) == [
                    (layer, [scale * x for x in comp])
                    for layer, comp in standard_basis(mod, spec)
                ]


def test_tf_isomorphic_self_and_tight(j63):
    spec = spectrum(intersection_array(j63))
    mods = decompose(j63, 0, "T")
    ep1 = [m for m in mods if m.endpoint == 1]
    W = next(m for m in ep1 if m.local_eigenvalue == Fraction(-2))
    Wp = next(m for m in ep1 if m.local_eigenvalue == Fraction(1))
    lad = ladder_scalars(W.split, standard_basis(W, spec))
    ladp = ladder_scalars(Wp.split, standard_basis(Wp, spec))
    assert tf_isomorphic(W, lad, W, lad)
    # the two extreme classes of a tight graph never merge
    assert not tf_isomorphic(W, lad, Wp, ladp)
    assert lad.beta[0] != ladp.beta[0]
    # basis-independent ladder products: b_2 = 1 for the theta_1 class and
    # b_2 (1+alpha)(1+alpha(D-2))/(1+alpha(D-3)) = 4 for the theta_D class
    assert lad.beta[0] * lad.gamma[0] == Fraction(1)
    assert ladp.beta[0] * ladp.gamma[0] == Fraction(4)


def test_group_modules(h33):
    mods = decompose(h33, 0, "T")
    groups = group_modules(mods)
    assert sum(len(v) for v in groups.values()) == len(mods)
    # isomorphic copies share ladder data; classes have consistent dims
    for key, members in groups.items():
        assert len({m.dim for m in members}) == 1
        assert len({m.endpoint for m in members}) == 1


def test_module_slices_span_subconstituents(h33):
    # per layer, the slice dimensions of an orthogonal decomposition add up
    mods = decompose(h33, 0, "Tf")
    from drguniform import bfs_layers

    dp = bfs_layers(h33, 0)
    for layer, verts in enumerate(dp.layers):
        total = sum(len(m.slice_basis(layer)) for m in mods)
        assert total == len(verts)


def test_halved_cube_endpoint_parity(halved7):
    # endpoints obey r = (D - d - e)/2 with e = 0 for D - d even, else -1
    D = 3
    mods = decompose(halved7, 0, "T")
    for m in mods:
        e = 0 if (D - m.diameter) % 2 == 0 else -1
        assert 2 * m.endpoint == D - m.diameter - e


def test_uniform_graph_iso_classes_determined_by_endpoint_diameter(h33):
    # on a graph with a uniform structure, (r, d) pins the class
    from itertools import combinations

    spec = spectrum(intersection_array(h33))
    mods = decompose(h33, 0, "T")
    for a, b in combinations(mods, 2):
        if (a.endpoint, a.diameter) == (b.endpoint, b.diameter):
            la = ladder_scalars(a.split, standard_basis(a, spec))
            lb = ladder_scalars(b.split, standard_basis(b, spec))
            assert tf_isomorphic(a, la, b, lb)


def test_ladder_consistency_with_lr_products(h33):
    # LR acts on each slice by the product gamma_i beta_{i+1}
    spec = spectrum(intersection_array(h33))
    mods = decompose(h33, 0, "T")
    for mod in mods:
        if not mod.thin:
            continue
        basis = standard_basis(mod, spec)
        lad = ladder_scalars(mod.split, basis)
        for idx in range(len(basis) - 1):
            layer, vec = basis[idx]
            image = mod.split.apply_L(layer + 1, mod.split.apply_R(layer, vec))
            expected = lad.gamma[idx] * lad.beta[idx]
            assert image == [expected * x for x in vec]


def test_doob_symbolic_check_sizes():
    for delta, p in ((0, 0), (1, 1), (3, 2)):
        ok, report = doob_symbolic_check(delta, p)
        assert ok
        for entry in report:
            assert entry["identity_ok"] and entry["closed_form_ok"]


def test_doob_symbolic_lrl_coefficient():
    delta, p = 3, 2
    ok, report = doob_symbolic_check(delta, p)
    assert ok
    for entry in report:
        l, j = entry["source"]
        coeff = entry["coefficients"].get("LRL", {}).get((-1, 0))
        if coeff is None:
            continue
        assert coeff == 9 * (delta - l + 1) * (
            l * (delta - l + 1) + 2 * j * (p - j) + p
        )


def test_doob_symbolic_bound():
    with pytest.raises(ValueError):
        doob_symbolic_check(20, 0)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _slice_digest(mods):
    doc = [
        [
            m.endpoint,
            m.diameter,
            m.thin,
            m.exact,
            sorted(m.slices.items()),
            str(m.local_eigenvalue),
        ]
        for m in mods
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# SHA-256 of every descriptor's (endpoint, diameter, thin, exact, sorted
# slices, local eigenvalue), in decomposition order, recorded from the
# Fraction-arithmetic kernel.  Labelling 0 is the constructor's order;
# 2305 is random.Random(2305).shuffle of it.  Doob D(1,1) is here because
# its T and Tf decompositions differ.
GOLDEN_SLICES = {
    ("h33", "T", 0): "857969f1b4283dec8770461d59e5d7a62faf692f59f98b32a14365a56aba3836",
    ("h33", "T", 2305): "0d63f53f95bcfb75e9e11e7799c0ba28ce52d13866518843434522e6b5e7c132",
    ("h33", "Tf", 0): "857969f1b4283dec8770461d59e5d7a62faf692f59f98b32a14365a56aba3836",
    ("h33", "Tf", 2305): "0d63f53f95bcfb75e9e11e7799c0ba28ce52d13866518843434522e6b5e7c132",
    ("j63", "T", 0): "6fd05283762fe95ec46fd6bea31431289426bbc3a977328ca192277e873111a9",
    ("j63", "T", 2305): "7af9a420b2dee58640806b2f87047bb902eff039b78057d37702560451f89eb1",
    ("j63", "Tf", 0): "6fd05283762fe95ec46fd6bea31431289426bbc3a977328ca192277e873111a9",
    ("j63", "Tf", 2305): "7af9a420b2dee58640806b2f87047bb902eff039b78057d37702560451f89eb1",
    ("her22", "T", 0): "be6f8c2d62112079ea4f59849e2aea561d14fb0fa3ee538a7ea0abef037a0dec",
    ("her22", "T", 2305): "43efacedfb09e5a8c074f051462001786658e03ed9273b58de0317c4ae1ed53b",
    ("her22", "Tf", 0): "be6f8c2d62112079ea4f59849e2aea561d14fb0fa3ee538a7ea0abef037a0dec",
    ("her22", "Tf", 2305): "43efacedfb09e5a8c074f051462001786658e03ed9273b58de0317c4ae1ed53b",
    ("doob11", "T", 0): "d7440a0bd29b789ba5149f80c4485eb7d5de62454fadc15fa7733606297ab373",
    ("doob11", "T", 2305): "cc59c516e7d86a881133d77e977a4d29aa834a8e84612005f173003d5830ed3b",
    ("doob11", "Tf", 0): "befe256c2c1388dbc2bbb420ba4f593c6158b29ee8f68d2fd4c7b920707117fd",
    ("doob11", "Tf", 2305): "e2e5a079444a931ca26cb9e713e950cb98512f6b704e566b37d590705361ae97",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SLICES))
def test_golden_module_slices(request, key):
    name, algebra, labelling = key
    g = request.getfixturevalue(name)
    if labelling:
        g = _relabelled(g, labelling)
    assert _slice_digest(decompose(g, 0, algebra)) == GOLDEN_SLICES[key]
