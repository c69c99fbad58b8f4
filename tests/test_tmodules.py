import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drguniform import (
    IrrationalSpectrum,
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
from drguniform import bfs_layers, families, tmodules
from drguniform.errors import ExactnessError
from drguniform.exactla import IntRowBasis, minimal_polynomial, modular_kernel
from drguniform.graph_core import Graph
from drguniform.terwilliger import LFRSplit, lfr_split
from drguniform.tmodules import INFINITY, group_modules

from oracles import diameter, express_action_matrices, full_matrix_split
from strategies import connected_graphs, relabel


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


def _endpoint_eigenvalue(mod):
    """The eigenvalue of F (for T) or L R (for T_f) shared by every vector
    of the module's endpoint slice."""
    r = mod.endpoint
    values = set()
    for w, img in zip(mod.slices[r], tmodules._seed_images(mod.split, mod.algebra, r, mod.slices[r])):
        p = next(i for i, x in enumerate(w) if x)
        lam = Fraction(img[p], w[p])
        assert img == [lam * x for x in w]
        values.add(lam)
    assert len(values) == 1
    return values.pop()


def _check_direct_sum(mods):
    # every layer's slices are a basis of it
    for layer, size in enumerate(mods[0].split.layer_sizes()):
        basis = IntRowBasis()
        rows = [v for m in mods for v in m.slice_basis(layer)]
        assert len(rows) == size and all(basis.add(v) is not None for v in rows)


def _check_decomposition(g, algebra):
    mods = decompose(g, 0, algebra)
    assert sum(m.dim for m in mods) == g.n
    assert all(m.exact for m in mods)
    _check_direct_sum(mods)
    # orthogonal, layer by layer, across endpoints and endpoint eigenspaces
    spaces = [(m.endpoint, _endpoint_eigenvalue(m)) for m in mods]
    for a in range(len(mods)):
        for b in range(a + 1, len(mods)):
            if spaces[a] == spaces[b]:
                continue
            for layer in mods[a].layers():
                for u in mods[a].slice_basis(layer):
                    for v in mods[b].slice_basis(layer):
                        assert _dot(u, v) == 0
    # the trivial module is the layer-indicator module
    trivial = next(m for m in mods if m.endpoint == 0)
    assert trivial.thin and trivial.diameter == diameter(g)
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
    census = endpoint1_census(mods, spec)
    assert census["all_predictions_ok"]
    assert census["non_thin_endpoint1"] == 0
    etas = {c["eta"] for c in census["classes"]}
    assert etas == {Fraction(-1), Fraction(1)}  # local graph 3 K_3


def test_census_needs_a_rational_spectrum():
    # C5's spectrum holds only the rational eigenvalue 2, so the census
    # cannot read theta_1 and theta_D by position
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    spec = spectrum(intersection_array(c5))
    with pytest.raises(IrrationalSpectrum):
        endpoint1_census(decompose(c5, 0, "T"), spec)


def test_census_refuses_tf_modules(shrik):
    # a thin endpoint-1 T_f module of the Shrikhande graph has no local
    # eigenvalue, and for T_f none would name its class
    mods = decompose(shrik, 0, "Tf", max_endpoint=1)
    assert any(m.endpoint == 1 and m.thin and m.local_eigenvalue is None for m in mods)
    with pytest.raises(ValueError, match="T-modules"):
        endpoint1_census(mods, spectrum(intersection_array(shrik)))


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
            assert all(type(c) is int for w in entry["coefficients"].values() for c in w.values())


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


# bipartite graphs have F = 0, so under T each K_r is one eigenspace
# holding several module classes.  In the first, layer 1's first closure
# has two endpoint vectors and a later seed has a component on one of its
# modules; in the second, such a closure comes after a one-vector closure
# that it contains
_SHARED_EIGENSPACES = (
    Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (4, 5), (2, 6), (3, 6)]),
    Graph(8, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (2, 3), (3, 6), (4, 5), (4, 6), (4, 7)]),
)


@given(connected_graphs(), st.sampled_from(["T", "Tf"]))
@example((_SHARED_EIGENSPACES[0], list(range(7)), 0), "T")
@example((_SHARED_EIGENSPACES[0], [3, 6, 5, 2, 0, 4, 1], 0), "T")
@example((_SHARED_EIGENSPACES[1], list(range(8)), 1), "T")
@example((_SHARED_EIGENSPACES[1], [3, 6, 1, 5, 7, 0, 4, 2], 1), "T")
@settings(max_examples=40, deadline=None)
def test_any_graph_decomposes_as_a_direct_sum(case, algebra):
    # graphs that are not distance-regular give non-thin modules and
    # eigenspaces shared by several module classes; decompose still
    # certifies every layer's slices a basis of it, or raises
    g, perm, x = case
    _check_direct_sum(decompose(_permuted(g, perm), perm[x], algebra))


def test_a_sum_that_is_not_direct_is_refused(h33, monkeypatch):
    # seeding every eigenspace twice finds each of its modules twice, and
    # the layer check of the first such layer refuses the sum
    refine = tmodules._refine_seed
    monkeypatch.setattr(tmodules, "_refine_seed", lambda *args: [g for g in refine(*args) for _ in (0, 1)])
    with pytest.raises(ExactnessError, match="slices of layer 0 are not a basis"):
        decompose(h33, 0, "T")


@pytest.mark.parametrize(
    "width, lower, new, direct",
    [
        # K_r is spanned by (-1, 1), so new[:, free] = [[1]] is nonsingular,
        # yet the new slice is the lower one: the Gram matrix is [[0]]
        (2, [[1, 1]], [[1, 1]], False),
        # a duplicated lower slice: rank 1, so |free| = 2 and 2 + 2 != 3
        (3, [[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1]], False),
        (2, [[1, 1]], [], False),
        (2, [[1, 1]], [[1, -1], [1, 0]], False),
        (2, [[1, 1]], [[1, -1]], True),
        # a new slice outside K_r that completes the lower ones
        (2, [[1, 1]], [[1, 0]], True),
        (2, [], [[1, 2], [3, 4]], True),
        (2, [[1, 2], [3, 4]], [], True),
    ],
)
def test_layer_check(width, lower, new, direct):
    kernel = modular_kernel(lower, width)
    if direct:
        tmodules._certify_layer(1, width, lower, new, kernel)
    else:
        with pytest.raises(ExactnessError, match="slices of layer 1 are not a basis"):
            tmodules._certify_layer(1, width, lower, new, kernel)


def _counted_commutants(monkeypatch):
    """A list that grows by one entry per ``_commutant`` call."""
    calls, commutant = [], tmodules._commutant

    def counted(*args):
        calls.append(None)
        return commutant(*args)

    monkeypatch.setattr(tmodules, "_commutant", counted)
    return calls


def test_irrational_eigenspaces_are_seeded_as_one_group(monkeypatch):
    # the wheel W5: layer 1 is a 5-cycle, whose sum-zero vectors have the
    # eigenvalues (-1 +- sqrt 5)/2, so K_1 has no rational eigenspace and
    # is seeded whole.  Each closure is 2-dimensional, irreducible over Q
    # but with a 2-dimensional endpoint slice and commutant, and the
    # second is seeded from the part of K_1 orthogonal to the first
    g = Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    groups, closures = [], []
    refine, closure = tmodules._refine_seed, tmodules._closure

    def recorded(*args):
        out = refine(*args)
        groups.append([len(group) for _, group in out])
        return out

    def counted(*args):
        closures.extend(args[2])  # the closed seeds
        return closure(*args)

    monkeypatch.setattr(tmodules, "_refine_seed", recorded)
    monkeypatch.setattr(tmodules, "_closure", counted)
    commutants = _counted_commutants(monkeypatch)
    mods = decompose(g, 0, "T")
    assert groups == [[1], [4]] and len(closures) == 3 and len(commutants) == 2
    assert [(m.endpoint, m.dim, m.thin, m.exact) for m in mods] == [
        (0, 2, True, True), (1, 2, False, False), (1, 2, False, False),
    ]


@pytest.mark.parametrize("algebra", ["T", "Tf"])
@pytest.mark.parametrize("name", ["h33", "j63", "her22", "doob11", "halved8"])
def test_one_dimensional_endpoint_slices_form_no_commutant(request, monkeypatch, name, algebra):
    # every closure of these graphs has a one-dimensional endpoint slice,
    # which certifies it irreducible without a commutant
    commutants = _counted_commutants(monkeypatch)
    mods = decompose(request.getfixturevalue(name), 0, algebra)
    assert commutants == [] and all(m.exact for m in mods)
    # the certificate's conclusion: each module's commutant is the scalars
    monkeypatch.undo()
    assert all(len(tmodules._commutant(m.slices, m.actions)) == 1 for m in mods)


def test_a_wide_closure_forms_a_commutant(monkeypatch):
    # the bipartite graph's first layer-1 closure has two endpoint vectors
    # and splits; the split pieces' actions are those of the dense operators
    g = _SHARED_EIGENSPACES[0]
    commutants = _counted_commutants(monkeypatch)
    mods = decompose(g, 0, "T")
    assert commutants and all(m.exact for m in mods)
    split = lfr_split(g, bfs_layers(g, 0))
    assert all(m.actions == express_action_matrices(split, "T", m.slices) for m in mods)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return _permuted(g, perm)


def _permuted(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _module_types(mods):
    # a T module's local eigenvalue is fixed by its class, a T_f module's
    # is not (see tmodules._local_eigenvalue)
    return sorted(
        (m.endpoint, m.diameter, m.dim, str(m.local_eigenvalue) if m.algebra == "T" else "")
        for m in mods
    )


@pytest.mark.parametrize("algebra", ["T", "Tf"])
@pytest.mark.parametrize("name", ["h33", "j63", "j94", "doob11", "halved8", "her22"])
def test_decompose_invariant_under_relabelling(request, name, algebra):
    # the six graphs are vertex-transitive, so every labelling and every
    # base vertex gives the modules of the canonical decomposition
    g = request.getfixturevalue(name)
    canonical = _module_types(decompose(g, 0, algebra))

    @given(st.permutations(range(g.n)), st.integers(0, g.n - 1))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def check(perm, base):
        mods = decompose(_permuted(g, perm), base, algebra)
        assert all(m.exact for m in mods)
        assert _module_types(mods) == canonical

    check()


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
# eigenspace seeding (each K_r split into eigenspaces of F for T, of L R
# for T_f).  Labelling 0 is the constructor's order; 2305 is
# random.Random(2305).shuffle of it.  Doob D(1,1) is here because its T
# and Tf decompositions differ.
GOLDEN_SLICES = {
    ("h33", "T", 0): "f8b9cf35658537ade1989e0c01fc6ca3fb65881c212b2a28961ca9973cacf8fb",
    ("h33", "T", 2305): "23d0f90309a8597dd24d09fc2a3803687a837ed04167f3fed1b47f44810dba3d",
    ("h33", "Tf", 0): "43621329a1466567227145fe41a0c57c6eb1780e5d28b2c00708c1d7db3195da",
    ("h33", "Tf", 2305): "cc74c0c22e0041cde67df160e5f3edd4884c0b827b72f55461e67e068facd693",
    ("j63", "T", 0): "abb6065f0896d34c57410af47f5e747f81cc0f76346698870160c5726918dd2d",
    ("j63", "T", 2305): "d6669c696f0e1b3c602beb48f5a18c8443c83950b03c9f5bafa26d4d2461f208",
    ("j63", "Tf", 0): "abb6065f0896d34c57410af47f5e747f81cc0f76346698870160c5726918dd2d",
    ("j63", "Tf", 2305): "d6669c696f0e1b3c602beb48f5a18c8443c83950b03c9f5bafa26d4d2461f208",
    ("her22", "T", 0): "ae770386bd58d8dd4e2c34a72801b18f1686056f9f82f66c91e7e6be77237ced",
    ("her22", "T", 2305): "4312da7b7033b0f1efab727dd9be9225dabc13e8fcee61dd00bc2c671a411d6a",
    ("her22", "Tf", 0): "ae770386bd58d8dd4e2c34a72801b18f1686056f9f82f66c91e7e6be77237ced",
    ("her22", "Tf", 2305): "4312da7b7033b0f1efab727dd9be9225dabc13e8fcee61dd00bc2c671a411d6a",
    ("doob11", "T", 0): "f11fcc8aae33a9a7ce31664c98b01d25ad63baad6bc7ffa4dd35a405d8c1a82c",
    ("doob11", "T", 2305): "abd89dd0c18c3c39fd086ac5ee4677f907e4094d28484bc01543fb00ddd61e37",
    ("doob11", "Tf", 0): "1897e31ef6ee208e869d4f5b08ce198939ad423b5eb6b609387c16317cf14b02",
    ("doob11", "Tf", 2305): "a7b675685912492655bed3d88fcdc938547cd2b49fb92a2e5cb537bd19695efd",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SLICES))
def test_golden_module_slices(request, key):
    name, algebra, labelling = key
    g = request.getfixturevalue(name)
    if labelling:
        g = _relabelled(g, labelling)
    assert _slice_digest(decompose(g, 0, algebra)) == GOLDEN_SLICES[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_SLICES))
def test_closure_actions_match_the_invariance_check(request, monkeypatch, key):
    # the coordinates a closure records as it forms each generator image,
    # and the action matrices _action_matrices forms from its slices, are
    # the images of the dense operators written in the slices
    name, algebra, labelling = key
    g = request.getfixturevalue(name)
    if labelling:
        g = _relabelled(g, labelling)
    closures = []
    closure = tmodules._closure

    def recorded(split, algebra, seeds):
        out = closure(split, algebra, seeds)
        closures.extend((split, closed) for closed in out)
        return out

    monkeypatch.setattr(tmodules, "_closure", recorded)
    mods = decompose(g, 0, algebra)
    # _action_matrices closes the slices it is given: stop recording first
    monkeypatch.undo()
    assert len(closures) <= len(mods)
    for split, (slices, actions) in closures:
        expected = express_action_matrices(split, algebra, slices)
        assert actions == expected
        assert tmodules._action_matrices(split, algebra, slices) == expected


def test_each_generator_image_is_formed_once(monkeypatch):
    # H(4,4), T: a closure multiplies each basis vector at most once, in
    # a block product that gives its L, F and R images at once, and
    # grouping the modules multiplies none
    g = families.hamming(4, 4)
    products = Counter()  # vectors multiplied
    where = ["decompose"]
    product = LFRSplit._product

    def counted(self, i, vecs):
        products[where[-1]] += len(vecs)
        return product(self, i, vecs)

    def inside(name, fn):
        def run(*args):
            where.append(name)
            try:
                return fn(*args)
            finally:
                where.pop()

        return run

    dims = []
    closure = tmodules._closure

    def recorded(*args):
        out = closure(*args)
        dims.extend(sum(map(len, slices.values())) for slices, _ in out)
        return out

    monkeypatch.setattr(LFRSplit, "_product", counted)
    monkeypatch.setattr(tmodules, "_closure", inside("closure", recorded))
    monkeypatch.setattr(tmodules, "module_class_key", inside("key", tmodules.module_class_key))
    group_modules(decompose(g, 0, "T"))
    assert products["key"] == 0
    assert 0 < products["closure"] <= sum(dims)


def _difference_seeds(g):
    """The layer-1 seeds e_0 - e_j, j > 0, in layer-local coordinates, with
    the graph's split at vertex 0.  Each lies in the complement of the
    trivial module and meets several eigenspaces of F, so its closure
    splits."""
    split = lfr_split(g, bfs_layers(g, 0))
    size = split.layer_sizes()[1]
    return split, [[1] + [-int(i == j) for i in range(1, size)] for j in range(1, size)]


def _seed_pieces(split, seed):
    """The irreducible pieces of a layer-1 seed's closure under T."""
    [(closure, actions)] = tmodules._closure(split, "T", [{1: [seed]}])
    return tmodules._split_irreducible(split, "T", closure, actions)


@pytest.mark.parametrize(
    "name, labelling, splits", [("j94", 0, 19), ("j94", 2305, 20), ("halved8", 0, 27)]
)
def test_endpoint_block_split_matches_the_full_matrix(request, monkeypatch, name, labelling, splits):
    # every candidate's block on the lowest layer has the minimal
    # polynomial of its full matrix, and the closures that split give the
    # pieces the full matrix gives
    g = request.getfixturevalue(name)
    if labelling:
        g = _relabelled(g, labelling)
    calls = []
    split_by = tmodules._split_by

    def recorded(slices, cand):
        pieces = split_by(slices, cand)
        calls.append((slices, cand, pieces))
        return pieces

    monkeypatch.setattr(tmodules, "_split_by", recorded)
    split, seeds = _difference_seeds(g)
    for seed in seeds:
        _seed_pieces(split, seed)
    assert sum(pieces is not None for _, _, pieces in calls) == splits
    for slices, cand, pieces in calls:
        minpoly, full_pieces = full_matrix_split(slices, cand)
        assert minimal_polynomial(cand[min(slices)]) == minpoly
        assert pieces == full_pieces


def test_split_pieces_must_fill_the_subspace(j94, monkeypatch):
    # a polynomial whose factors have no kernel on the subspace, as a
    # minimal polynomial read off the wrong block would, cannot pass
    big = 10**9
    monkeypatch.setattr(tmodules, "minimal_polynomial", lambda m: [big * (big + 1), -(2 * big + 1), 1])
    split, seeds = _difference_seeds(j94)
    with pytest.raises(ExactnessError, match="does not split the module"):
        _seed_pieces(split, seeds[0])


def test_invariance_is_checked_once_per_piece(halved8, monkeypatch):
    # a closure is invariant as built and brings its own action matrices;
    # a piece split from one is projected off the pieces before it, and
    # _action_matrices, closing the piece's slices, is its one invariance
    # check.  On the halved 8-cube each of the 27 layer-1 difference seeds
    # splits in two pieces with one-dimensional endpoint slices: 27 seed
    # closures and commutants, 54 checked pieces, 27 of them projected.
    # _closure counts the seeds it closes
    counts = Counter()
    names = ("_closure", "_action_matrices", "_split_irreducible", "_orthogonalize", "_commutant")
    for name in names:

        def counted(*args, _name=name, _original=getattr(tmodules, name)):
            counts[_name] += len(args[2]) if _name == "_closure" else 1
            return _original(*args)

        monkeypatch.setattr(tmodules, name, counted)
    split, seeds = _difference_seeds(halved8)
    for seed in seeds:
        _seed_pieces(split, seed)
    assert (counts["_split_irreducible"], counts["_commutant"], counts["_orthogonalize"]) == (81, 27, 27)
    assert counts["_action_matrices"] == 54
    # every closure but the seeds' is a piece's invariance check
    assert counts["_closure"] == 27 + counts["_action_matrices"]
    # seeded from eigenspaces, decompose's 70 closures are its 70 modules
    counts.clear()
    assert len(decompose(halved8, 0, "T")) == 70
    assert counts == {"_closure": 70, "_split_irreducible": 70}


def test_projected_pieces_are_checked_again(halved8, monkeypatch):
    # a projection that broke invariance would be caught: the first vertex
    # of the endpoint layer has neighbours one layer down, where the piece
    # has no slice
    orthogonalize = tmodules._orthogonalize

    def broken(slices, siblings):
        out = orthogonalize(slices, siblings)
        r = min(out)
        out[r] = [[1] + [0] * (len(out[r][0]) - 1)] + out[r][1:]
        return out

    monkeypatch.setattr(tmodules, "_orthogonalize", broken)
    split, seeds = _difference_seeds(halved8)
    with pytest.raises(ExactnessError, match="not invariant"):
        _seed_pieces(split, seeds[0])


def _closed_alone_and_together(split, algebra, seeds):
    """Check that closing ``seeds`` in lockstep gives what closing each
    alone gives; return the dtypes of the lockstep's block products."""
    dtypes, product = [], split._product

    def recorded(i, vecs):
        out = product(i, vecs)
        dtypes.append(out.dtype)
        return out

    alone = [tmodules._closure(split, algebra, [seed])[0] for seed in seeds]
    split._product = recorded
    try:
        assert tmodules._closure(split, algebra, seeds) == alone
    finally:
        del split._product
    return dtypes


@given(connected_graphs(), st.sampled_from(["T", "Tf"]), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_lockstep_closures_match_closing_each_seed_alone(case, algebra, rng):
    # closures formed together, one block product per layer per round,
    # insert their rows in the order each would alone, so they have the
    # same slices and actions.  When some layer has two vertices, a last
    # seed there has an entry past its block's int64 limit (and a 1, so
    # that it is its own echelon row), and the rounds that multiply it
    # run in Python ints, for every vector of its layer
    g, perm, x = case
    split = lfr_split(relabel(g, perm), x=perm[x])
    sizes = split.layer_sizes()
    seeds = []
    for _ in range(rng.randint(1, 4)):
        r = rng.randrange(len(sizes))
        seeds.append({r: [[1] + [rng.randint(-3, 3) for _ in range(sizes[r] - 1)]]})
    wide = [r for r, size in enumerate(sizes) if size > 1]
    if wide:
        r = rng.choice(wide)
        seeds.append({r: [[split._block(r)[1] + 1, 1] + [rng.randint(-3, 3) for _ in range(sizes[r] - 2)]]})
    assert (np.dtype(object) in _closed_alone_and_together(split, algebra, seeds)) == bool(wide)


def test_a_batch_with_wide_closures_closes_as_each_alone():
    # the wheel W5 under T: each closure of a layer-1 remainder seed has
    # two endpoint vectors; the trivial module's seed joins the batch
    g = Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    split = lfr_split(g, bfs_layers(g, 0))
    free, basis = tmodules._orthogonal_seed(5, [[1] * 5])
    [(lam, group)] = tmodules._refine_seed(split, "T", 1, free, basis)
    assert lam is None and len(group) == 4
    seeds = [{1: [seed]} for seed in group] + [{0: [[1]]}]
    _closed_alone_and_together(split, "T", seeds)
    closed = tmodules._closure(split, "T", seeds)
    assert [len(slices[1]) for slices, _ in closed] == [2, 2, 2, 2, 1]


@pytest.mark.parametrize("drop", [min, max])
def test_a_piece_whose_closure_grows_is_refused(h33, drop):
    # the trivial module without its bottom or top slice closes back to the
    # trivial module, below its lowest layer or within its layers, so its
    # rows are not invariant
    split = lfr_split(h33, bfs_layers(h33, 0))
    [(trivial, _)] = tmodules._closure(split, "T", [{0: [[1]]}])
    assert tmodules._action_matrices(split, "T", trivial)
    with pytest.raises(ExactnessError, match="module basis is not invariant"):
        tmodules._action_matrices(split, "T", {i: rows for i, rows in trivial.items() if i != drop(trivial)})


def test_a_seed_whose_closure_escapes_is_refused(h33, monkeypatch):
    # the all-ones vector of layer 1 lies in the trivial module, found at
    # endpoint 0, and its closure reaches layer 0
    refine = tmodules._refine_seed

    def ones(split, algebra, r, free, basis):
        if r == 1:
            yield 1, [[1] * split.layer_sizes()[1]]
        yield from refine(split, algebra, r, free, basis)

    monkeypatch.setattr(tmodules, "_refine_seed", ones)
    with pytest.raises(ExactnessError, match="escaped below its endpoint"):
        decompose(h33, 0, "T")
