"""Acceptance criteria, one test per criterion.

Every equality below is exact (zero residual); the only tolerances are
the stated runtime budgets.  Each criterion prints a single PASS/FAIL
line (run pytest with -s to see them inline).

Closed-form coefficient checks go through certificate_matches: layers the
equations pin uniquely must carry the closed-form values, and at boundary
layers with free directions the closed-form point must lie in the
certified affine solution set and verify with zero residual (the layer
equations themselves do not single out a representative there; see the
module notes in drguniform.suites).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from drguniform import (
    certify_uniform,
    decompose,
    doob_symbolic_check,
    dual_endpoint,
    endpoint1_census,
    flatten,
    graph_isomorphic,
    intersection_array,
    krein_parameters,
    ladder_scalars,
    lfr_split,
    near_polygon_check,
    non_thin_diagnostic,
    principal_determinant,
    spectrum,
    standard_basis,
    tf_isomorphic,
    tightness,
)
from drguniform.families import doob, hamming, johnson
from drguniform.suites import (
    certificate_matches,
    dual_polar_det,
    dual_polar_structure,
    halved_cube_det,
    halved_cube_structure,
    hamming_structure,
)
from drguniform.uniform import ParameterMatrix

from oracles import (
    brute_intersection_numbers,
    dense_det,
    f_nonzeros,
    is_bipartite,
    l_nonzeros,
    p_numbers,
)


@contextmanager
def criterion(k, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {k} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {k} ({name}): PASS")


def test_criterion_1_hamming(h33, h34, h43):
    with criterion(1, "Hamming strongly uniform coefficients"):
        for g, (D, n) in ((h33, (3, 3)), (h34, (3, 4)), (h43, (4, 3))):
            t0 = time.monotonic()
            cert = certify_uniform(g)
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, f"certification took {elapsed:.1f}s"
            assert cert.verdict == "StronglyUniform"
            expected = hamming_structure(D, n)
            ok, why = certificate_matches(cert, expected)
            assert ok, why
            # the interior layers are pinned uniquely by the equations
            assert all(sol.dim == 0 for sol in cert.layers[1:])
            assert cert.structure.U.e_minus == (Fraction(-1, 2),) * (D - 1)
            assert cert.structure.U.e_plus[1:] == (Fraction(-1, 2),) * (D - 2)
            assert cert.structure.f[1:] == (Fraction(n - 1),) * (D - 1)


def test_criterion_2_doob(doob11, h34):
    with criterion(2, "Doob coefficients, ladder grid, flattening"):
        t0 = time.monotonic()
        cert = certify_uniform(doob11)
        assert cert.verdict == "StronglyUniform"
        expected = hamming_structure(3, 4)  # e = -1/2, f = 3
        ok, why = certificate_matches(cert, expected)
        assert ok, why
        for delta in range(7):
            for p in range(7):
                ok, _ = doob_symbolic_check(delta, p)
                assert ok, f"grid identity failed at ({delta}, {p})"
        iso = graph_isomorphic(flatten(doob11, 0).graph, flatten(h34, 0).graph)
        assert iso is not None
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"criterion took {elapsed:.1f}s"


def test_criterion_3_halved_cube_odd(halved7):
    with criterion(3, "odd halved cube closed forms and determinants"):
        D = 3
        cert = certify_uniform(halved7)
        assert cert.verdict == "StronglyUniform"
        expected = halved_cube_structure(D)
        # spot values at D = 3: layer 1 carries e+ = -7/10 and f = -21
        assert expected.U.e_plus_at(1) == Fraction(-7, 10)
        assert expected.f[0] == Fraction(-21)
        ok, why = certificate_matches(cert, expected)
        assert ok, why
        for s in range(1, D + 1):
            for t in range(s, D + 1):
                assert principal_determinant(expected.U, s, t) == halved_cube_det(
                    D, s, t
                )


def test_criterion_4_dual_polar(dp23):
    with criterion(4, "Hermitian dual polar strongly uniform"):
        t0 = time.monotonic()
        cert = certify_uniform(dp23)
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"certification took {elapsed:.1f}s"
        assert cert.verdict == "StronglyUniform"
        q, D = -2, 3
        expected = dual_polar_structure(D, q)
        assert expected.U.e_minus_at(2) == Fraction(-16, 5)
        assert expected.U.e_plus_at(1) == Fraction(-1, 20)
        assert expected.f == (Fraction(32),) * 3
        ok, why = certificate_matches(cert, expected)
        assert ok, why
        assert all(sol.dim == 0 for sol in cert.layers[1:])
        assert cert.structure.U.e_minus == (Fraction(-16, 5),) * 2
        assert cert.structure.U.e_plus[1] == Fraction(-1, 20)
        assert cert.structure.f[1:] == (Fraction(32),) * 2
        for s in range(1, D + 1):
            for t in range(s, D + 1):
                assert principal_determinant(expected.U, s, t) == dual_polar_det(
                    q, s, t
                )


def test_criterion_5_tight_obstructions(j63, gosset_graph, halved8):
    with criterion(5, "tight graphs obstructed"):
        for g in (j63, gosset_graph, halved8):
            cert = certify_uniform(g)
            assert cert.verdict == "NoUniform"
            ia = intersection_array(g)
            sp = spectrum(ia)
            is_tight, gap = tightness(ia, sp.eigenvalues[1], sp.eigenvalues[-1])
            assert is_tight and gap == 0
            mods = decompose(g, 0, "T")
            census = endpoint1_census(mods, sp)
            assert census["non_thin_endpoint1"] == 0
            assert len(census["classes"]) == 2
            etas = {c["eta"] for c in census["classes"]}
            assert etas == {census["theta1_tilde"], census["thetaD_tilde"]}


def test_criterion_6_johnson_obstruction(j94):
    with criterion(6, "Johnson ladder-ratio obstruction"):
        cert = certify_uniform(j94)
        assert cert.verdict == "NoUniform"
        sp = spectrum(intersection_array(j94))
        mods = decompose(j94, 0, "T")
        census = endpoint1_census(mods, sp)
        assert len(census["classes"]) == 3
        short = [
            m
            for m in mods
            if m.endpoint == 1 and m.thin and m.diameter == sp.D - 2
        ]
        W = next(m for m in short if dual_endpoint(m, sp) == 1)
        Wp = next(m for m in short if dual_endpoint(m, sp) == 2)
        lad = ladder_scalars(W.split, standard_basis(W, sp))
        ladp = ladder_scalars(Wp.split, standard_basis(Wp, sp))
        assert lad.beta[0] / ladp.beta[0] == Fraction(4, 3)
        assert ladp.gamma[0] / lad.gamma[0] == Fraction(1, 2)
        assert not tf_isomorphic(W, lad, Wp, ladp)


def test_criterion_7_negative_type(her23, dp23):
    with criterion(7, "negative type non-near-polygon obstructed"):
        cert = certify_uniform(her23)
        assert cert.verdict == "NoUniform"
        mods = decompose(her23, 0, "Tf", max_endpoint=1)
        witness = non_thin_diagnostic(mods)
        assert witness is not None
        assert witness["report"]["slice_dims"][2] >= 2
        assert witness["report"]["rw_lr2w_independent"]
        assert not near_polygon_check(her23, intersection_array(her23))
        assert near_polygon_check(dp23, intersection_array(dp23))


def test_criterion_8_property_suites(
    h33, h34, j63, j94, halved7, halved8, shrik, doob11, gosset_graph, dp22, dp23, her22, her23
):
    with criterion(8, "structural property suites"):
        families = {
            "H(3,3)": h33,
            "H(3,4)": h34,
            "J(6,3)": j63,
            "J(9,4)": j94,
            "halved7": halved7,
            "halved8": halved8,
            "shrikhande": shrik,
            "D(1,1)": doob11,
            "gosset": gosset_graph,
            "dual polar D=2": dp22,
            "dual polar D=3": dp23,
            "hermitian D=2": her22,
            "hermitian D=3": her23,
        }
        for name, g in families.items():
            bases = (0,) if g.n > 200 else (0, g.n // 2, g.n - 1)
            for x in bases:
                split = lfr_split(g, x=x)
                # A = L + F + R with R the transpose of L, checked edgewise
                dist = split.dp.dist
                l_count = f_count = 0
                for u, v in g.edges():
                    if dist[u] == dist[v]:
                        f_count += 2
                    else:
                        l_count += 1
                assert l_nonzeros(split) == l_count
                assert f_nonzeros(split) == f_count
                # the dual idempotents partition the vertex set
                seen = sorted(v for layer in split.dp.layers for v in layer)
                assert seen == list(range(g.n))
                # flattening is bipartite, connected, distance-preserving
                fl = flatten(g, x)
                assert is_bipartite(fl.graph)
                from drguniform import bfs_layers

                assert bfs_layers(fl.graph, x).layers == split.dp.layers
            # exact idempotent identities at the coefficient level
            ia = intersection_array(g)
            sp = spectrum(ia)
            coeffs = sp.idempotent_coefficients()
            p = p_numbers(ia)
            Dp1 = ia.D + 1
            for h in range(Dp1):
                total = sum(coeffs[i][h] for i in range(Dp1))
                assert total == (1 if h == 0 else 0)
            for i in range(Dp1):
                assert coeffs[0][i] == Fraction(1, g.n)  # E_0 = J / n
                for j in range(Dp1):
                    for l in range(Dp1):
                        lhs = sum(
                            coeffs[i][gg] * coeffs[j][hh] * p[l][gg][hh]
                            for gg in range(Dp1)
                            for hh in range(Dp1)
                        )
                        rhs = coeffs[i][l] if i == j else Fraction(0)
                        assert lhs == rhs
            # Krein parameters are nonnegative (raises otherwise)
            krein_parameters(sp)
        # module decompositions: full dimension with exact invariance
        for g, algebra in (
            (h33, "T"),
            (h33, "Tf"),
            (j63, "T"),
            (shrik, "Tf"),
            (dp22, "T"),
            (her22, "Tf"),
            (halved7, "Tf"),
        ):
            mods = decompose(g, 0, algebra)
            assert sum(m.dim for m in mods) == g.n
            assert all(m.exact for m in mods)


def test_criterion_9_oracle_equivalence(
    h33, h34, h43, j63, j94, halved7, halved8, shrik, doob11, gosset_graph, dp22, her22
):
    with criterion(9, "independent oracles agree"):
        rng = random.Random(97)
        for _ in range(200):
            eps = rng.randint(1, 12)
            e_minus = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(eps - 1)
            )
            e_plus = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(eps - 1)
            )
            U = ParameterMatrix(epsilon=eps, e_minus=e_minus, e_plus=e_plus)
            dense = U.dense()
            s = rng.randint(1, eps)
            t = rng.randint(s, eps)
            sub = [row[s - 1 : t] for row in dense[s - 1 : t]]
            assert principal_determinant(U, s, t) == dense_det(sub)
        small = [
            hamming(1, 4),
            hamming(2, 2),
            h33,
            h34,
            h43,
            johnson(4, 2),
            j63,
            j94,
            halved7,
            halved8,
            shrik,
            doob(1, 0),
            doob11,
            gosset_graph,
            dp22,
            her22,
        ]
        for g in small:
            assert g.n <= 200
            tensor = brute_intersection_numbers(g)
            ia = intersection_array(g)
            p = p_numbers(ia)
            for h, table in tensor.items():
                for i in range(ia.D + 1):
                    for j in range(ia.D + 1):
                        assert p[h][i][j] == table[i][j]
