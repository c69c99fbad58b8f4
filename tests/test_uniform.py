import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drguniform import (
    DEFAULT,
    Config,
    DecompositionUnavailable,
    ExactnessError,
    Graph,
    ParameterMatrix,
    UniformStructure,
    certify_uniform,
    check_parameter_conditions,
    decompose,
    lfr_split,
    non_thin_diagnostic,
    principal_determinant,
    solve_layer,
    verify_given,
    write_edge_list,
)
from drguniform import graph_core, terwilliger, tmodules, uniform
from drguniform.cli import main
from drguniform.exactla import IntRowBasis, solve_affine
from drguniform.families import hamming
from drguniform.serialize import certificate_dict
from drguniform.suites import (
    certificate_matches,
    dual_polar_structure,
    halved_cube_structure,
    hamming_structure,
)
from drguniform.uniform import (
    LayerSolution,
    grid_point,
    layer_gram,
    select_structure,
    structure_at,
    vanishing_conditions,
)

from oracles import (
    TupleSplit,
    dense_det,
    distinct_rows,
    layer_operator_blocks,
    layer_rows,
    polynomial_vanishing_conditions,
    unique_nonzero_rows,
    unique_point_conditions,
)
from strategies import connected_graphs, relabel

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def gram_rows(split):
    """Every layer's Gram rows, formed from the split."""
    return [layer_gram(split, i) for i in range(1, split.eccentricity + 1)]


def test_solve_layer_hamming_interior(h33):
    split = lfr_split(h33, x=0)
    sol = solve_layer(split, 2)
    assert sol.dim == 0
    assert sol.particular == (Fraction(-1, 2), Fraction(-1, 2), Fraction(2))


def test_solve_layer_conventions(h33):
    split = lfr_split(h33, x=0)
    top = solve_layer(split, 3)
    assert top.particular[1] == 0  # e_eps^+ pinned to zero
    assert all(h[1] == 0 for h in top.basis)
    first = solve_layer(split, 1)
    assert first.particular[0] == 0  # e_1^- pinned to zero
    assert all(h[0] == 0 for h in first.basis)
    assert first.dim <= 2


def test_layer_solution_membership(h33):
    split = lfr_split(h33, x=0)
    sol = solve_layer(split, 1)
    assert sol.contains((Fraction(0), Fraction(-1, 2), Fraction(2)))
    assert not sol.contains((Fraction(0), Fraction(-1, 2), Fraction(3)))


def _random_parameter_matrix(rng, eps):
    e_minus = tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(eps - 1)
    )
    e_plus = tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(eps - 1)
    )
    return ParameterMatrix(epsilon=eps, e_minus=e_minus, e_plus=e_plus)


def test_principal_determinant_against_dense_oracle():
    rng = random.Random(1234)
    for trial in range(200):
        eps = rng.randint(1, 12)
        U = _random_parameter_matrix(rng, eps)
        dense = U.dense()
        s = rng.randint(1, eps)
        t = rng.randint(s, eps)
        sub = [row[s - 1 : t] for row in dense[s - 1 : t]]
        assert principal_determinant(U, s, t) == dense_det(sub)


def test_check_conditions_trivial_and_constant():
    assert check_parameter_conditions(ParameterMatrix(1, (), ()))["ok"]
    half = Fraction(-1, 2)
    U = ParameterMatrix(5, (half,) * 4, (half,) * 4)
    report = check_parameter_conditions(U)
    assert report["ok"]
    for s in range(1, 6):
        for t in range(s, 6):
            assert principal_determinant(U, s, t) == Fraction(
                t - s + 2, 2 ** (t - s + 1)
            )


def test_check_conditions_constructed_singularity():
    U = ParameterMatrix(2, (Fraction(1, 2),), (Fraction(2),))  # e1+ e2- = 1
    report = check_parameter_conditions(U)
    assert not report["ok"]
    assert (1, 2) in report["violations"]


def test_verify_given_hamming(h34):
    split = lfr_split(h34, x=0)
    assert verify_given(hamming_structure(3, 4), gram_rows(split))
    wrong = UniformStructure(U=hamming_structure(3, 4).U, f=(Fraction(2), Fraction(3), Fraction(5)))
    assert not verify_given(wrong, gram_rows(split))


def _with_e2_minus(us, value):
    U = ParameterMatrix(us.epsilon, (value,) + us.U.e_minus[1:], us.U.e_plus)
    return UniformStructure(U=U, f=us.f)


def test_verify_given_rejects_a_wrapping_combination(h33):
    # e_2^- = (2^63 - 1)/2 scales to the largest int64 coefficient, and its
    # int64 combination with the layer-2 blocks would wrap around to zero
    rows = gram_rows(lfr_split(h33, x=0))
    assert not verify_given(_with_e2_minus(hamming_structure(3, 3), Fraction(2**63 - 1, 2)), rows)


def test_verify_given_rejects_a_coefficient_beyond_int64(h33):
    rows = gram_rows(lfr_split(h33, x=0))
    assert not verify_given(_with_e2_minus(hamming_structure(3, 3), Fraction(2**64)), rows)


def test_verify_given_halved_cube(halved7):
    split = lfr_split(halved7, x=0)
    assert verify_given(halved_cube_structure(3), gram_rows(split))


def test_verify_given_dual_polar(dp23):
    split = lfr_split(dp23, x=0)
    assert verify_given(dual_polar_structure(3, -2), gram_rows(split))


def test_certify_soundness(h33, halved7, doob11):
    for g in (h33, halved7, doob11):
        cert = certify_uniform(g)
        assert cert.verdict == "StronglyUniform"
        assert cert.checks == {
            "verify_given": True,
            "def_ii": True,
            "def_iii": True,
        }
        split = lfr_split(g, x=0)
        assert verify_given(cert.structure, gram_rows(split))


def test_certify_positive_dimensional_path():
    cert = certify_uniform(P4)
    assert cert.verdict == "StronglyUniform"
    assert [s.dim for s in cert.layers] == [1, 2, 1]
    split = lfr_split(P4, x=0)
    assert verify_given(cert.structure, gram_rows(split))


def test_certify_all_bases_vertex_transitive(h33):
    verdicts = {certify_uniform(h33, x).verdict for x in range(h33.n)}
    assert verdicts == {"StronglyUniform"}


def test_certify_bipartite_direct(cube3):
    # the 3-cube certified directly; closed forms with f = 1 are a solution
    cert = certify_uniform(cube3)
    assert cert.verdict == "StronglyUniform"
    expected = hamming_structure(3, 2)
    split = lfr_split(cube3, x=0)
    assert verify_given(expected, gram_rows(split))
    for sol in cert.layers:
        i = sol.layer
        point = (
            expected.U.e_minus_at(i),
            expected.U.e_plus_at(i),
            expected.f[i - 1],
        )
        assert sol.contains(point)


def test_certify_failure_witness(j63):
    cert = certify_uniform(j63)
    assert cert.verdict == "NoUniform"
    assert cert.failure["kind"] == "inconsistent_layer_system"
    assert cert.failure["layer"] == 2
    assert cert.layers[-1].empty
    assert cert.layers[-1].system  # the layer's Gram rows attached as the witness


def test_certify_symbolic_failure(halved8):
    cert = certify_uniform(halved8)
    assert cert.verdict == "NoUniform"
    assert cert.failure["kind"] == "parameter_conditions"
    assert cert.failure["detail"] == (
        "principal submatrix (1,3) is singular for every solution of the layer equations"
    )


def _layer(i, eps, point, basis=()):
    """A synthetic layer solution, e_1^- and e_eps^+ pinned to zero."""

    def pin(vec):
        em, ep, f = (Fraction(x) for x in vec)
        return (em if i >= 2 else Fraction(0), ep if i <= eps - 1 else Fraction(0), f)

    basis = tuple(pin(h) for h in basis)
    return LayerSolution(layer=i, empty=False, particular=pin(point), basis=basis, system=())


@st.composite
def layer_sets(draw, max_eps=6, f_only=False, max_dim=2):
    """Synthetic layer sets with at most ``max_dim`` basis vectors a layer;
    with ``f_only`` every layer also has one or two basis vectors that move
    only f, placed anywhere in its basis."""
    eps = draw(st.integers(min_value=1, max_value=max_eps))
    coord = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])
    vec = st.tuples(coord, coord, coord)
    out = []
    for i in range(1, eps + 1):
        point, basis = draw(vec), draw(st.lists(vec, max_size=max_dim))
        if f_only:
            f_vec = st.tuples(st.just(0), st.just(0), coord.filter(bool))
            basis = draw(st.permutations(basis + draw(st.lists(f_vec, min_size=1, max_size=2))))
        out.append(_layer(i, eps, point, basis))
    return tuple(out)


@given(layer_sets())
@settings(max_examples=300, deadline=None)
def test_vanishing_conditions_match_polynomial_oracle(layers):
    assert vanishing_conditions(layers) == polynomial_vanishing_conditions(layers)


@given(layer_sets(max_eps=5, f_only=True))
@settings(max_examples=200, deadline=None)
def test_vanishing_conditions_with_f_only_directions(layers):
    assert vanishing_conditions(layers) == polynomial_vanishing_conditions(layers)


def test_vanishing_conditions_skip_f_only_corners(monkeypatch):
    # eight layers, each free only in f along two directions, with
    # e^- = e^+ = 1, so the minor (1,2) is singular everywhere and the corner
    # walk cannot stop early: the particular point is the only corner that
    # decides anything, of the 3^8 in the full product
    eps = 8
    layers = tuple(_layer(i, eps, (1, 1, 1), [(0, 0, 1), (0, 0, 2)]) for i in range(1, eps + 1))
    points = []

    def counted(layers, values):
        points.append(values)
        return structure_at(layers, values)

    monkeypatch.setattr(uniform, "structure_at", counted)
    got = vanishing_conditions(layers)
    assert len(points) == 1
    assert got == polynomial_vanishing_conditions(layers)
    assert (1, 2) in got[0]


@st.composite
def row_stacks(draw):
    """Integer matrices drawn from a few distinct rows and the zero row."""
    width = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))
    pool = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=8)) + [(0,) * width]
    rows = draw(st.lists(st.sampled_from(pool), max_size=200))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@given(row_stacks())
@example(np.zeros((0, 4), dtype=np.int64))
@example(np.zeros((7, 4), dtype=np.int64))
@example(np.array([[0, 0, 0, 5]], dtype=np.int64))
@example(np.array([[1, -2, 3, 10**6]] * 50 + [[1, -2, 3, -(10**6)]] * 50, dtype=np.int64))
@settings(max_examples=300, deadline=None)
def test_distinct_rows_match_unique_oracle(a):
    got, want = distinct_rows(list(a.T)), unique_nonzero_rows(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(layer_sets(max_eps=4))
@settings(max_examples=200, deadline=None)
def test_grid_point_is_the_first_in_product_order(layers):
    singular, zero_minus, zero_plus = vanishing_conditions(layers)
    nvars = sum(sol.dim for sol in layers)
    assume(0 < nvars <= 3 and not singular and not (zero_minus and zero_plus))
    strongly = not (zero_minus or zero_plus)
    eps = len(layers)
    bound = eps * (eps + 1) // 2 + 2 * (eps - 1)

    def passes(us):
        report = check_parameter_conditions(us.U)
        return report["ok"] and (report["family_minus"] and report["family_plus"] or not strongly)

    points = (structure_at(layers, v) for v in itertools.product(range(bound + 1), repeat=nvars))
    first = next(us for us in points if passes(us))
    assert grid_point(layers, zero_minus, zero_plus) == first


@given(layer_sets(max_dim=0))
@settings(max_examples=300, deadline=None)
def test_unique_solution_goes_through_the_corner_test(layers):
    # a unique point is decided as deciding it directly did: the same
    # structure and report when it passes, else the same first singular
    # minor, or both families holding a zero
    us, report = unique_point_conditions(layers)
    got, got_report, failure = select_structure(layers)
    if report["ok"]:
        assert (got, got_report, failure) == (us, report, None)
        return
    assert got is None and got_report is None and failure["kind"] == "parameter_conditions"
    if report["violations"]:
        s, t = report["violations"][0]
        assert failure["detail"] == (
            f"principal submatrix ({s},{t}) is singular for every solution of the layer equations"
        )
    else:
        assert failure["detail"].startswith("both off-diagonal families")


def test_select_one_family_gives_uniform():
    # e_1^+ = t and e_2^- = 0: only the raising family can be nowhere zero
    layers = (_layer(1, 2, (0, 0, 1), [(0, 1, 0)]), _layer(2, 2, (0, 0, 1)))
    assert vanishing_conditions(layers) == (set(), {2}, set())
    us, report, failure = select_structure(layers)
    assert failure is None and report == check_parameter_conditions(us.U)
    assert report["ok"] and not report["family_minus"] and report["family_plus"]
    assert us.U.e_plus == (1,)


def test_grid_search_passes_the_points_that_fail():
    # e_1^+ = 0, so the lowering family must be nowhere zero; with
    # e_2^- = t - 1, e_2^+ = t + 1 and e_3^- = 1, t = 0 makes the minor
    # (2,3) singular and t = 1 zeroes e_2^-, so the first passing point is t = 2
    layers = (
        _layer(1, 3, (0, 0, 1)),
        _layer(2, 3, (-1, 1, 1), [(1, 1, 0)]),
        _layer(3, 3, (1, 0, 1)),
    )
    us, report, failure = select_structure(layers)
    assert failure is None and report == check_parameter_conditions(us.U)
    assert us.U.e_minus == (1, 1) and us.U.e_plus == (0, 3)


def test_layer_equation_restricts_to_modules(h33):
    # the uniform identity holds on every module slice once it holds globally
    split = lfr_split(h33, x=0)
    us = hamming_structure(3, 3)
    mods = decompose(h33, 0, "Tf")
    for mod in mods:
        for i in range(1, 4):
            for vec in mod.slice_basis(i):
                lhs = _apply_layer_equation(split, us, i, vec)
                assert all(x == 0 for x in lhs)


def _apply_layer_equation(split, us, i, vec):
    em = us.U.e_minus_at(i)
    ep = us.U.e_plus_at(i)
    fi = Fraction(us.f[i - 1])
    lv = split.apply_L(i, vec)
    rl2 = split.apply_R(i - 2, split.apply_L(i - 1, lv)) if i >= 2 else [0] * len(lv)
    lrl = split.apply_L(i, split.apply_R(i - 1, lv))
    if i <= split.eccentricity - 1:
        l2r = split.apply_L(i, split.apply_L(i + 1, split.apply_R(i, vec)))
    else:
        l2r = [0] * len(lv)
    return [
        em * a + b + ep * c - fi * d for a, b, c, d in zip(rl2, lrl, l2r, lv)
    ]


def test_layer_blocks_zero_boundaries(h33):
    # no RL^2 block at layer 1 and no L^2R block at the top layer, so the
    # Gram rows lack the X row and column at layer 1 and the Z ones at the top
    split = lfr_split(h33, x=0)
    first, top = layer_gram(split, 1), layer_gram(split, 3)
    assert len(first) == 3 and all(row[0] == 0 for row in first)
    assert len(top) == 3 and all(row[1] == 0 for row in top)


def _layer_solution_from_rows(rows, i, eps):
    """(empty, particular, basis) of the layer equation solved from the rows
    (X, Z, W, Y), as solve_layer embeds them."""
    active = [a for a, on in enumerate((i >= 2, i <= eps - 1, True)) if on]
    sol = solve_affine(
        [[(x, z, -w)[a] for a in active] for x, z, w, _ in rows], [-y for *_, y in rows]
    )
    if sol is None:
        return True, (), ()

    def embed(vec):
        full = [Fraction(0)] * 3
        for a, v in zip(active, vec):
            full[a] = v
        return tuple(full)

    return False, embed(sol[0]), tuple(embed(h) for h in sol[1])


@given(connected_graphs())
@settings(max_examples=150, deadline=None)
def test_layer_systems_match_distinct_rows_oracle(case):
    # the Gram rows have the row space of the distinct (X, Z, W, Y) rows,
    # so solve_affine's reduced echelon answer is the same, and G sums
    # over every entry of the blocks, so a relabelling does not change it
    g, perm, x = case
    split = lfr_split(g, x=x)
    moved = lfr_split(relabel(g, perm), x=perm[x])
    ref = TupleSplit(g, split.dp)
    eps = split.eccentricity
    for i in range(1, eps + 1):
        sol = solve_layer(split, i)
        assert (sol.empty, sol.particular, sol.basis) == _layer_solution_from_rows(
            layer_rows(ref, i), i, eps
        )
        assert layer_gram(moved, i) == layer_gram(split, i) == list(sol.system)
        assert len(sol.system) <= 4


@pytest.mark.parametrize("name", ["h33", "her22"])
def test_layer_gram_in_float64_chunks(request, monkeypatch, name):
    # chunks of at most 3 rows of M, m being M's largest entry: many
    # float64 partial Gram matrices added as Python ints give the
    # one-chunk answer
    g = request.getfixturevalue(name)
    split = lfr_split(g, x=0)
    ref = TupleSplit(g, split.dp)
    for i in range(1, split.eccentricity + 1):
        whole = layer_gram(split, i)
        m = max(int(block.max()) for block in layer_operator_blocks(ref, i))
        monkeypatch.setattr(uniform, "_FLOAT_EXACT", 3 * m**2 + 2)
        assert layer_gram(split, i) == whole
        # not one product of two entries of m fits: no exact sum
        monkeypatch.setattr(uniform, "_FLOAT_EXACT", m**2 - 1)
        with pytest.raises(ExactnessError):
            layer_gram(split, i)
        monkeypatch.undo()


def test_certify_builds_no_sparse_blocks(monkeypatch, j94, halved7, doob11, gosset_graph, shrik, h33):
    # the layer systems read the dense L blocks alone; the stacked sparse
    # L/F/R blocks are decompose's
    built = []
    block = terwilliger.LFRSplit._block

    def counted(self, i):
        built.append(i)
        return block(self, i)

    monkeypatch.setattr(terwilliger.LFRSplit, "_block", counted)
    for g in (hamming(3, 6), j94, halved7, doob11, gosset_graph, shrik):
        for x in (0, g.n - 1):
            certify_uniform(g, x)
    assert not built
    decompose(h33, 0, "T")
    assert built


def test_non_thin_diagnostic_negative(h33):
    mods = decompose(h33, 0, "Tf")
    assert non_thin_diagnostic(mods) is None


def test_non_thin_diagnostic_bipartite(cube3):
    # flattening fixes bipartite graphs, and thinness is forced when a
    # uniform structure exists
    mods = decompose(cube3, 0, "Tf")
    assert non_thin_diagnostic(mods) is None


def test_condition_family_disjunction():
    # one off-diagonal family may vanish as long as the other never does
    U = ParameterMatrix(3, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    report = check_parameter_conditions(U)
    assert report["ok"] and not report["family_minus"] and report["family_plus"]
    both = ParameterMatrix(3, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    report = check_parameter_conditions(both)
    assert not report["ok"] and not report["violations"]


def test_non_thin_diagnostic_requires_modules(h33):
    with pytest.raises(DecompositionUnavailable):
        non_thin_diagnostic([])


# SHA-256 of `certify-uniform`'s JSON at base 0, recorded while solve_layer
# deduplicated its rows with a 2-D np.unique.  Labelling 0 is the
# constructor's order; 2305 is random.Random(2305).shuffle of it.  Every
# graph here is vertex-transitive, so both labellings give the same bytes.
# The halved 8-cube fails at the corner test, and Hermitian forms (2,3) at
# an inconsistent layer system.
GOLDEN_CERTIFICATES = {
    ("h33", 0): "2aa0c42a469d6f5f5420305cef81e7e13858b8336e142f1e50899e6dfbfbfbfe",
    ("h33", 2305): "2aa0c42a469d6f5f5420305cef81e7e13858b8336e142f1e50899e6dfbfbfbfe",
    ("j63", 0): "a2dc517faa06ae22114850b83e1423cc5d319b549d3eb0f7876017eadbe0dc52",
    ("j63", 2305): "a2dc517faa06ae22114850b83e1423cc5d319b549d3eb0f7876017eadbe0dc52",
    ("halved7", 0): "db0d0a5282b918de9c784a53fc3da53ec7966fc5d1cb707c4f1b4974d543fb44",
    ("halved7", 2305): "db0d0a5282b918de9c784a53fc3da53ec7966fc5d1cb707c4f1b4974d543fb44",
    ("doob11", 0): "ebc4edabe5d0accd51315e429c15ef5365823304192c8351268682ff398e1f0f",
    ("doob11", 2305): "ebc4edabe5d0accd51315e429c15ef5365823304192c8351268682ff398e1f0f",
    ("halved8", 0): "cf90f19cf6c7b3cc274818281edd67081e18bca6e2a1a5558d61d48bdd087ec1",
    ("halved8", 2305): "cf90f19cf6c7b3cc274818281edd67081e18bca6e2a1a5558d61d48bdd087ec1",
    ("her23", 0): "a2c31cd12bf21cc0c2473c35bc4f7fb2d441c5fe72e13843ec8e106b379500b7",
    ("her23", 2305): "a2c31cd12bf21cc0c2473c35bc4f7fb2d441c5fe72e13843ec8e106b379500b7",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_CERTIFICATES))
def test_golden_certificates(request, tmp_path, key):
    name, labelling = key
    g = request.getfixturevalue(name)
    if labelling:
        perm = list(range(g.n))
        random.Random(labelling).shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    graph, out = tmp_path / "graph.edges", tmp_path / "certificate.json"
    graph.write_text(write_edge_list(g))
    assert main(["certify-uniform", str(graph), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CERTIFICATES[key]


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_CERTIFICATES}))
def test_verify_given_on_held_rows_matches_formed_rows(request, name):
    # the Gram rows the layers hold decide a structure as the distinct rows
    # (X, Z, W, Y) of the layer blocks do, formed again from a TupleSplit
    g = request.getfixturevalue(name)
    split = lfr_split(g, x=0)
    eps = split.eccentricity
    held = [solve_layer(split, i).system for i in range(1, eps + 1)]
    ref = TupleSplit(g, split.dp)
    formed = [layer_rows(ref, i) for i in range(1, eps + 1)]
    ones = (Fraction(1),) * (eps - 1)
    candidates = [UniformStructure(U=ParameterMatrix(eps, ones, ones), f=ones + (Fraction(1),))]
    found = certify_uniform(g).structure
    if found is not None:
        wrong = UniformStructure(U=found.U, f=found.f[:-1] + (found.f[-1] + 1,))
        assert verify_given(found, held)
        assert not verify_given(wrong, held)
        candidates += [found, wrong]
    for us in candidates:
        assert verify_given(us, held) == verify_given(us, formed)


def _refuse(*args, **kwargs):
    raise AssertionError("formed again from the graph")


def test_certificate_checks_read_only_the_held_rows(h33, monkeypatch):
    # once the certificate is in hand, neither check forms a layer system
    # or a split again
    cert = certify_uniform(h33)
    expected = hamming_structure(3, 3)
    monkeypatch.setattr(uniform, "layer_gram", _refuse)
    monkeypatch.setattr(terwilliger, "LFRSplit", _refuse)
    held = [sol.system for sol in cert.layers]
    assert verify_given(cert.structure, held) and verify_given(expected, held)
    assert certificate_matches(cert, expected) == (True, "ok")
    wrong = UniformStructure(U=expected.U, f=expected.f[:-1] + (expected.f[-1] + 1,))
    assert not verify_given(wrong, held)
    assert not certificate_matches(cert, wrong)[0]


def test_non_thin_diagnostic_reads_the_modules_split(her23, monkeypatch):
    # the reports come from the split the modules carry, not a search again,
    # and agree with R w and L R^2 w taken in a split formed afresh
    mods = decompose(her23, 0, "Tf", max_endpoint=1)
    split = lfr_split(her23, x=0)
    expected = []
    for mod in (m for m in mods if m.endpoint == 1):
        rw = split.apply_R(1, mod.slice_basis(1)[0])
        basis = IntRowBasis()
        independent = [basis.add(v) is not None for v in (rw, split.apply_L(3, split.apply_R(2, rw)))]
        expected.append(
            {"module_dim": mod.dim, "slice_dims": mod.slice_dims(), "rw_lr2w_independent": all(independent)}
        )
    for module in (graph_core, terwilliger, tmodules, uniform):
        monkeypatch.setattr(module, "bfs_layers", _refuse)
    witness = non_thin_diagnostic(mods)
    assert witness["all_endpoint1_reports"] == expected
    assert witness["report"] == next(r for r in expected if r["slice_dims"].get(2, 0) >= 2)
    assert witness["report"]["slice_dims"][2] >= 2 and witness["report"]["rw_lr2w_independent"]


def _document(g, x, config=DEFAULT):
    return json.dumps(certificate_dict(certify_uniform(g, x, config=config), config))


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_bases_sharing_a_graph_match_a_fresh_graph_each(case):
    # the memo is warm for every base after the first, in either order
    g, _, _ = case
    cold = {x: _document(Graph(g.n, g.edges()), x) for x in range(g.n)}
    shared = Graph(g.n, g.edges())
    for order in (range(g.n), reversed(range(g.n))):
        assert {x: _document(shared, x) for x in order} == cold


def test_configs_keep_their_own_certificates():
    # P4 has a free parameter, so the seed picks the structure
    configs = [Config(), Config(decomposition_seed=1)]
    cold = [_document(Graph(4, P4.edges()), 0, config) for config in configs]
    assert json.loads(cold[0])["e_minus"] != json.loads(cold[1])["e_minus"]
    shared = Graph(4, P4.edges())
    for config, expected in zip(configs * 2, cold * 2):
        assert _document(shared, 0, config) == expected


# bases 0 and 3 each see one neighbour of degree 3, with equal layer-1
# rows, but their eccentricities are 4 and 3
SPIDER = [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (5, 6)]


def test_bases_with_equal_rows_keep_their_own_epsilon():
    g = Graph(7, SPIDER)
    assert layer_gram(lfr_split(g, x=0), 1) == layer_gram(lfr_split(g, x=3), 1)
    for x, eps in ((0, 4), (3, 3), (0, 4)):
        assert certify_uniform(g, x).epsilon == eps
        assert _document(g, x) == _document(Graph(7, SPIDER), x)


@pytest.mark.parametrize("name", ["h33", "halved8"])
def test_editing_a_document_leaves_later_bases_alone(request, name):
    # H(3,3) passes its checks and the halved 8-cube fails at the corner
    # test; every base of either shares one certificate
    g = request.getfixturevalue(name)
    expected = _document(Graph(g.n, g.edges()), 1)
    doc = certificate_dict(certify_uniform(g, 0), DEFAULT)
    for part in (doc["checks"], doc["failure"]):
        if part is not None:
            part.clear()
            part["edited"] = True
    assert _document(g, 1) == expected


def test_each_distinct_system_is_solved_once(monkeypatch):
    g = hamming(3, 3)
    systems = [
        tuple((split.eccentricity, i, tuple(layer_gram(split, i))) for i in range(1, split.eccentricity + 1))
        for split in (lfr_split(g, x=x) for x in range(g.n))
    ]
    assert len(set(systems)) == 1
    calls = {"solve_layer": 0, "solve_affine": 0, "select_structure": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(uniform, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(uniform, name, counted)
    for x in range(g.n):
        assert certify_uniform(g, x).verdict == "StronglyUniform"
    assert calls == {
        "solve_layer": sum(map(len, systems)),
        "solve_affine": len(set(itertools.chain(*systems))),
        "select_structure": 1,
    }


def test_the_memo_goes_with_its_graph():
    g = Graph(4, P4.edges())
    certify_uniform(g, 0)
    assert g in uniform._MEMO
    held, ref = len(uniform._MEMO), weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None and len(uniform._MEMO) == held - 1
