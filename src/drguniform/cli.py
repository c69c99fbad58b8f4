"""Command-line interface.

Subcommands: family, analyze, flatten, certify-uniform, decompose,
verify-theorem.  Exit codes, each failure with a one-line message on
standard error:

- 0 success
- 2 malformed input: a graph file that cannot be read or parsed, a
  graph with no vertices, a base vertex outside the graph, a family tag
  given the wrong number of parameters, a nonpositive ``--budget``, or
  an output path that cannot be written; argparse also exits 2, after
  its usage line, on an option a subcommand does not take
- 3 budget exceeded: a family build, or the vertex count in a graph
  file's header, above the vertex budget, or arrays too large for memory,
  refused before they are allocated: a distance sweep
  (``Graph.distance_matrix``, which ``decompose`` runs before its
  modules) or certify-uniform's dense L blocks (``LFRSplit.l_block``)
- 4 expectation mismatch in a reproduction suite
- 1 any other library error

Every output is a function of the graph, the base, the algebra and
``--budget``.  The configuration is embedded in every JSON document, and
every number in them is exact.  On a graph whose spectrum is not
rational, ``analyze`` prints the rational eigenvalues, the integer
factor with no rational root (``irrational_factor``) and null Krein
data, and ``decompose`` leaves out dual endpoints.
"""

import argparse
import json
import sys

from .config import Config
from .errors import BudgetExceeded, GraphError, ParseError
from .families import FAMILY_TAGS, FamilySpec, build_family
from .graph_core import (
    bfs_layers,
    classical_parameter_candidates,
    intersection_array,
    krein_parameters,
    near_polygon_check,
    q_polynomial_orderings,
    read_edge_list,
    spectrum,
    write_edge_list,
)
from .serialize import analysis_dict, certificate_dict, frac_str
from .suites import SUITE_NAMES, run_suite
from .terwilliger import flatten
from .tmodules import decompose, dual_endpoint, group_modules
from .uniform import certify_uniform

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _load_config(args):
    cfg = Config() if args.budget is None else Config(vertex_budget=args.budget)
    try:
        return cfg.validate()
    except ValueError as exc:
        raise ParseError(f"invalid configuration: {exc}") from exc


def _read_graph(path, budget):
    try:
        with open(path) as fh:
            return read_edge_list(fh.read(), budget)
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _check_base(g, base):
    if not 0 <= base < g.n:
        raise ParseError(f"base vertex {base} is not a vertex of the {g.n}-vertex graph")


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _emit(payload, output):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def cmd_family(args):
    cfg = _load_config(args)
    params = tuple(args.params)
    spec = FamilySpec(tag=args.tag, params=params)
    g = build_family(spec, budget=cfg.vertex_budget)
    out = args.out or f"{args.tag}.edges"
    _write(out, write_edge_list(g))
    sidecar = {
        "spec": spec.as_dict(),
        "n": g.n,
        "m": g.m,
        "edge_list": out,
        "config": cfg.as_dict(),
    }
    _emit(sidecar, out + ".json")
    print(f"wrote {out} ({g.n} vertices, {g.m} edges) and {out}.json")
    return EXIT_OK


def cmd_analyze(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph, cfg.vertex_budget)
    ia = intersection_array(g)
    cps = classical_parameter_candidates(ia)
    spec = spectrum(ia)
    # an irrational spectrum has no eigenmatrix, so no Krein data
    orderings = None if spec.numeric else q_polynomial_orderings(krein_parameters(spec))
    near = near_polygon_check(g, ia)
    payload = analysis_dict(g, ia, cps, spec, orderings, near, cfg)
    _emit(payload, args.output)
    return EXIT_OK


def cmd_flatten(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph, cfg.vertex_budget)
    _check_base(g, args.base)
    fl = flatten(g, args.base)
    out = args.out or (args.graph + ".flat")
    _write(out, write_edge_list(fl.graph))
    dp = bfs_layers(fl.graph, args.base)
    even = sum(len(l) for i, l in enumerate(dp.layers) if i % 2 == 0)
    payload = {
        "base": fl.base,
        "bipartition_sizes": [even, fl.graph.n - even],
        "removed_edges": fl.removed_edges,
        "edge_list": out,
        "config": cfg.as_dict(),
    }
    _emit(payload, out + ".json")
    print(f"wrote {out} and {out}.json")
    return EXIT_OK


def cmd_certify(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph, cfg.vertex_budget)
    if args.all_bases:
        payload = {
            "per_base": [certificate_dict(certify_uniform(g, x), cfg) for x in range(g.n)],
            "config": cfg.as_dict(),
        }
    else:
        _check_base(g, args.base)
        payload = certificate_dict(certify_uniform(g, args.base), cfg)
    _emit(payload, args.output)
    return EXIT_OK


def cmd_decompose(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph, cfg.vertex_budget)
    _check_base(g, args.base)
    # the spectrum first: a refused distance sweep exits 3 before decompose starts
    try:
        spec = spectrum(intersection_array(g))
        if spec.numeric:
            spec = None
    except BudgetExceeded:
        raise
    except GraphError:
        spec = None
    mods = decompose(g, args.base, args.algebra)
    groups = group_modules(mods)
    payload = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        mod = members[0]
        entry = {
            "endpoint": mod.endpoint,
            "diameter": mod.diameter,
            "dim": mod.dim,
            "thin": mod.thin,
            "multiplicity_of_class": len(members),
        }
        if mod.local_eigenvalue is not None:
            entry["local_eigenvalue"] = frac_str(mod.local_eigenvalue)
        if spec is not None:
            entry["dual_endpoint"] = dual_endpoint(mod, spec)
        payload.append(entry)
    _emit({"modules": payload, "config": cfg.as_dict()}, args.output)
    return EXIT_OK


def cmd_verify_theorem(args):
    results = run_suite(args.suite)
    ok = True
    for label, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"{tag}  {label}{suffix}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drguniform",
        description="Exact uniform-structure certification for distance-regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--budget", type=int, help="vertex budget")
        if output:
            p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("family", help="construct a named graph family")
    p.add_argument("tag", choices=FAMILY_TAGS)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--out", help="edge-list output path")
    common(p, output=False)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("analyze", help="distance-regularity report for a graph file")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("flatten", help="remove same-layer edges around a base vertex")
    p.add_argument("graph")
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--out", help="edge-list output path")
    common(p, output=False)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("certify-uniform", help="decide the uniform property")
    p.add_argument("graph")
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--all-bases", action="store_true")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("decompose", help="irreducible module decomposition")
    p.add_argument("graph")
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--algebra", choices=("T", "Tf"), default="T")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-theorem", help="run a reproduction suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.set_defaults(func=cmd_verify_theorem)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
