"""JSON-friendly serialization helpers: exact fractions as "p/q" strings."""


def frac_str(x):
    """A ``Fraction`` or an ``int`` as "p/q" in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def certificate_dict(cert, config):
    out = {
        "verdict": cert.verdict,
        "epsilon": cert.epsilon,
        "per_layer_solution_dims": [s.dim for s in cert.layers],
        "e_minus": None,
        "e_plus": None,
        "f": None,
        "failure": None,
        "checks": None if cert.checks is None else dict(cert.checks),
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


def analysis_dict(g, ia, cps, spec, orderings, near_poly, config):
    """The ``analyze`` document.  ``orderings`` is None when the spectrum is
    irrational: then there are no Krein data, and the factor with no
    rational root is given as ``irrational_factor``."""
    out = {
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
        "eigenvalues": [frac_str(t) for t in spec.eigenvalues],
        "multiplicities": list(spec.multiplicities),
        "spectrum_numeric": spec.numeric,
        # krein_parameters raises NegativeKrein on a negative entry
        "krein_nonnegative": None if orderings is None else True,
        "q_polynomial_orderings": None if orderings is None else [list(p) for p in orderings],
        "near_polygon": near_poly,
        "bipartite": ia.is_bipartite(),
        "config": config.as_dict(),
    }
    if spec.numeric:
        out["irrational_factor"] = list(spec.residual)
    return out
