"""Built-in reproduction suites.

Each suite reconstructs one family-level statement at desk scale: the
closed-form coefficients of the families that support a strongly uniform
structure, and the obstruction data of the families that do not.  A suite
returns a list of (label, ok, detail) tuples; the CLI renders one line
per expectation and signals failure through the exit code.

The closed forms pin every coefficient that the layer equations determine
uniquely; at boundary layers whose solution set has free directions the
closed-form point is verified by exact membership in the certified set
(the layer equations themselves do not single it out).
"""

import time
from fractions import Fraction
from functools import lru_cache

from .families import build_family, FamilySpec
from .graph_core import intersection_array, near_polygon_check, spectrum
from .terwilliger import flatten, graph_isomorphic
from .tmodules import (
    decompose,
    doob_symbolic_check,
    dual_endpoint,
    endpoint1_census,
    ladder_scalars,
    standard_basis,
    tf_isomorphic,
    tightness,
)
from .uniform import (
    ParameterMatrix,
    UniformStructure,
    certify_uniform,
    check_parameter_conditions,
    non_thin_diagnostic,
    principal_determinant,
    verify_given,
)

SUITE_NAMES = (
    "hamming",
    "halved_cube_odd",
    "doob",
    "dual_polar",
    "tight",
    "johnson",
    "negative_type",
    "classification",
)


@lru_cache(maxsize=None)
def cached_family(tag, *params):
    return build_family(FamilySpec(tag, params))


def hamming_structure(D, n):
    half = Fraction(-1, 2)
    return UniformStructure(
        U=ParameterMatrix(
            epsilon=D, e_minus=(half,) * (D - 1), e_plus=(half,) * (D - 1)
        ),
        f=(Fraction(n - 1),) * D,
    )


def halved_cube_structure(D):
    e_minus = tuple(
        Fraction(4 * i - 1 - 2 * D, 6 - 8 * i + 4 * D) for i in range(2, D + 1)
    )
    e_plus = tuple(
        Fraction(4 * i - 5 - 2 * D, 6 - 8 * i + 4 * D) for i in range(1, D)
    )
    f = tuple(
        Fraction(-(4 * i - 5) * (4 * i - 1) + (16 * i - 12) * D - 4 * D * D)
        for i in range(1, D + 1)
    )
    return UniformStructure(
        U=ParameterMatrix(epsilon=D, e_minus=e_minus, e_plus=e_plus), f=f
    )


def dual_polar_structure(D, q):
    e_minus = Fraction(-(q**4), q**2 + 1)
    e_plus = Fraction(-1, q**2 * (q**2 + 1))
    f = Fraction((-q) ** (2 * D - 1))
    return UniformStructure(
        U=ParameterMatrix(
            epsilon=D, e_minus=(e_minus,) * (D - 1), e_plus=(e_plus,) * (D - 1)
        ),
        f=(f,) * D,
    )


def hamming_det(s, t):
    return Fraction(t - s + 2, 2 ** (t - s + 1))


def halved_cube_det(D, s, t):
    num = Fraction((t - s + 2) * (2 * D - 2 * t - 2 * s + 3))
    for i in range(t - s):
        num *= 2 * D - 4 * t + 5 + 4 * i
    den = Fraction(2 ** (t - s + 1))
    for i in range(t - s + 1):
        den *= 2 * D - 4 * t + 3 + 4 * i
    return num / den


def dual_polar_det(q, s, t):
    return Fraction(q ** (2 * (t - s + 2)) - 1) / (
        (q**2 - 1) * (q**2 + 1) ** (t - s + 1)
    )


def certificate_matches(cert, expected):
    """Exact comparison of a certificate against a closed-form structure.

    Every uniquely determined layer must carry the closed-form values; at
    layers with free directions the closed form must lie in the certified
    affine set; the closed form must verify with zero residual against the
    Gram rows the certificate's layers hold and pass the parameter-matrix
    conditions.
    """
    if cert.structure is None:
        return False, "no structure in certificate"
    eps = cert.epsilon
    if expected.epsilon != eps:
        return False, "eccentricity mismatch"
    for sol in cert.layers:
        i = sol.layer
        point = (
            expected.U.e_minus_at(i),
            expected.U.e_plus_at(i),
            expected.f[i - 1],
        )
        if not sol.contains(point):
            return False, f"closed form not in the layer-{i} solution set"
        if sol.dim == 0:
            got = (
                cert.structure.U.e_minus_at(i),
                cert.structure.U.e_plus_at(i),
                cert.structure.f[i - 1],
            )
            if got != point:
                return False, f"determined layer {i} disagrees with the closed form"
    if not verify_given(expected, [sol.system for sol in cert.layers]):
        return False, "closed form fails exact verification"
    if not check_parameter_conditions(expected.U)["ok"]:
        return False, "closed form fails the parameter-matrix conditions"
    return True, "ok"


def _strongly_uniform_case(results, name, g, expected, det_fn=None):
    t0 = time.monotonic()
    cert = certify_uniform(g)
    elapsed = time.monotonic() - t0
    results.append(
        (
            f"{name}: strongly uniform",
            cert.verdict == "StronglyUniform",
            f"verdict={cert.verdict} ({elapsed:.1f}s)",
        )
    )
    ok, why = certificate_matches(cert, expected)
    results.append((f"{name}: closed-form coefficients", ok, why))
    if det_fn is not None:
        eps = expected.epsilon
        det_ok = all(
            principal_determinant(expected.U, s, t) == det_fn(s, t)
            for s in range(1, eps + 1)
            for t in range(s, eps + 1)
        )
        results.append(
            (f"{name}: principal determinants", det_ok, "all (s,t) checked")
        )


def suite_hamming():
    results = []
    for D, n in ((3, 3), (3, 4), (4, 3)):
        g = cached_family("hamming", D, n)
        _strongly_uniform_case(
            results, f"H({D},{n})", g, hamming_structure(D, n), hamming_det
        )
    return results


def suite_halved_cube_odd():
    results = []
    g = cached_family("halved_cube", 7)
    D = 3
    _strongly_uniform_case(
        results,
        "halved 7-cube",
        g,
        halved_cube_structure(D),
        lambda s, t: halved_cube_det(D, s, t),
    )
    return results


def suite_doob():
    results = []
    g = cached_family("doob", 1, 1)
    _strongly_uniform_case(results, "D(1,1)", g, hamming_structure(3, 4), hamming_det)
    grid_ok = all(
        doob_symbolic_check(d, p)[0] for d in range(7) for p in range(7)
    )
    results.append(("D(1,1): ladder-grid identity, sizes up to 6", grid_ok, ""))
    flat_doob = flatten(cached_family("doob", 1, 1), 0).graph
    flat_hamming = flatten(cached_family("hamming", 3, 4), 0).graph
    iso = graph_isomorphic(flat_doob, flat_hamming)
    results.append(
        ("D(1,1): flattened graph isomorphic to flattened H(3,4)", iso is not None, "")
    )
    return results


def suite_dual_polar():
    results = []
    g = cached_family("dual_polar_2a", 2, 3)
    _strongly_uniform_case(
        results,
        "dual polar, r=2, D=3",
        g,
        dual_polar_structure(3, -2),
        lambda s, t: dual_polar_det(-2, s, t),
    )
    return results


def suite_tight():
    results = []
    cases = (
        ("J(6,3)", cached_family("johnson", 6, 3)),
        ("Gosset", cached_family("gosset")),
        ("halved 8-cube", cached_family("halved_cube", 8)),
    )
    for name, g in cases:
        cert = certify_uniform(g)
        results.append(
            (f"{name}: no uniform structure", cert.verdict == "NoUniform", cert.verdict)
        )
        ia = intersection_array(g)
        sp = spectrum(ia)
        is_tight, gap = tightness(ia, sp.eigenvalues[1], sp.eigenvalues[-1])
        results.append((f"{name}: tight with zero gap", is_tight and gap == 0, f"gap={gap}"))
        mods = decompose(g, 0, "T", max_endpoint=1)
        cen = endpoint1_census(mods, sp)
        etas = {c["eta"] for c in cen["classes"]}
        ok = (
            len(cen["classes"]) == 2
            and etas == {cen["theta1_tilde"], cen["thetaD_tilde"]}
            and cen["non_thin_endpoint1"] == 0
        )
        results.append(
            (f"{name}: two endpoint-1 classes at the extreme local eigenvalues", ok, str(sorted(etas)))
        )
    return results


def suite_johnson():
    results = []
    g = cached_family("johnson", 9, 4)
    cert = certify_uniform(g)
    results.append(
        ("J(9,4): no uniform structure", cert.verdict == "NoUniform", cert.verdict)
    )
    sp = spectrum(intersection_array(g))
    mods = decompose(g, 0, "T", max_endpoint=1)
    cen = endpoint1_census(mods, sp)
    results.append(
        ("J(9,4): exactly three endpoint-1 classes", len(cen["classes"]) == 3, str(len(cen["classes"])))
    )
    short = [m for m in mods if m.endpoint == 1 and m.thin and m.diameter == sp.D - 2]
    W = next(m for m in short if dual_endpoint(m, sp) == 1)
    Wp = next(m for m in short if dual_endpoint(m, sp) == 2)
    lad = ladder_scalars(W.split, standard_basis(W, sp))
    ladp = ladder_scalars(Wp.split, standard_basis(Wp, sp))
    ratio_beta = lad.beta[0] / ladp.beta[0]
    ratio_gamma = ladp.gamma[0] / lad.gamma[0]
    results.append(
        (
            "J(9,4): ladder ratio mismatch",
            ratio_beta == Fraction(4, 3)
            and ratio_gamma == Fraction(1, 2)
            and not tf_isomorphic(W, lad, Wp, ladp),
            f"beta1/beta'1={ratio_beta}, gamma'0/gamma0={ratio_gamma}",
        )
    )
    return results


def suite_negative_type():
    results = []
    her = cached_family("hermitian_forms", 2, 3)
    cert = certify_uniform(her)
    results.append(
        ("Hermitian forms, r=2, D=3: no uniform structure", cert.verdict == "NoUniform", cert.verdict)
    )
    mods = decompose(her, 0, "Tf", max_endpoint=1)
    witness = non_thin_diagnostic(mods)
    ok = witness is not None and witness["report"]["slice_dims"].get(2, 0) >= 2
    results.append(
        ("Hermitian forms: endpoint-1 module with fat second slice", ok, str(witness["report"] if witness else None))
    )
    results.append(
        (
            "Hermitian forms: not a near polygon",
            not near_polygon_check(her, intersection_array(her)),
            "",
        )
    )
    dp = cached_family("dual_polar_2a", 2, 3)
    results.append(
        (
            "dual polar: regular near polygon",
            near_polygon_check(dp, intersection_array(dp)),
            "",
        )
    )
    return results


def suite_classification():
    results = []
    uniform_cases = (
        ("H(3,3)", cached_family("hamming", 3, 3)),
        ("halved 7-cube", cached_family("halved_cube", 7)),
        ("D(1,1)", cached_family("doob", 1, 1)),
    )
    for name, g in uniform_cases:
        cert = certify_uniform(g)
        results.append(
            (f"{name}: supports a uniform structure", cert.verdict == "StronglyUniform", cert.verdict)
        )
    blocked = (
        ("J(9,4)", cached_family("johnson", 9, 4)),
        ("J(6,3)", cached_family("johnson", 6, 3)),
        ("Gosset", cached_family("gosset")),
        ("halved 8-cube", cached_family("halved_cube", 8)),
    )
    for name, g in blocked:
        cert = certify_uniform(g)
        results.append(
            (f"{name}: no uniform structure", cert.verdict == "NoUniform", cert.verdict)
        )
    return results


SUITES = {
    "hamming": suite_hamming,
    "halved_cube_odd": suite_halved_cube_odd,
    "doob": suite_doob,
    "dual_polar": suite_dual_polar,
    "tight": suite_tight,
    "johnson": suite_johnson,
    "negative_type": suite_negative_type,
    "classification": suite_classification,
}


def run_suite(name):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name]()
