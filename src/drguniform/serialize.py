"""JSON-friendly serialization helpers: exact fractions as "p/q" strings."""

from fractions import Fraction


def frac_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def eigenvalue_str(x, numeric):
    if numeric:
        return repr(float(x))
    return frac_str(x)


def certificate_dict(cert, config):
    out = {
        "verdict": cert.verdict,
        "epsilon": cert.epsilon,
        "per_layer_solution_dims": [s.dim for s in cert.layers],
        "e_minus": None,
        "e_plus": None,
        "f": None,
        "failure": None,
        "checks": cert.checks,
        "config": config.as_dict(),
    }
    if cert.structure is not None:
        us = cert.structure
        out["e_minus"] = [frac_str(x) for x in us.U.e_minus]
        out["e_plus"] = [frac_str(x) for x in us.U.e_plus]
        out["f"] = [frac_str(x) for x in us.f]
    if cert.failure is not None:
        failure = {
            "layer": cert.failure.get("layer"),
            "kind": cert.failure["kind"],
            "detail": cert.failure["detail"],
        }
        out["failure"] = failure
    return out


def analysis_dict(g, ia, cps, spec, kt, orderings, near_poly, config):
    return {
        "n": g.n,
        "diameter": ia.D,
        "intersection_array": {
            "c": list(ia.c),
            "a": list(ia.a),
            "b": list(ia.b),
        },
        "classical_parameters": [
            {
                "D": cp.D,
                "q": cp.q,
                "alpha": frac_str(cp.alpha),
                "beta": frac_str(cp.beta),
            }
            for cp in cps
        ],
        "eigenvalues": [eigenvalue_str(t, spec.numeric) for t in spec.eigenvalues],
        "multiplicities": [
            float(m) if spec.numeric else int(m) for m in spec.multiplicities
        ],
        "spectrum_numeric": spec.numeric,
        "krein_nonnegative": kt is not None,
        "q_polynomial_orderings": [list(p) for p in orderings],
        "near_polygon": near_poly,
        "bipartite": ia.is_bipartite(),
        "config": config.as_dict(),
    }
