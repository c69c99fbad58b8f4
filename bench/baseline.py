"""Regenerate the ROADMAP baseline table: per instance, the seconds of
graph build, intersection_array, certify_uniform and decompose T.

    python3 bench/baseline.py

Every stage after the build runs on a fresh copy of the graph (read back
from its edge list), so no cached distance matrix carries over between
stages.  Each stage runs once and decompose T is left out for J(12,5)
and H(5,4), as in the original table; bench/run.py is the instrument for
comparing commits.  It takes about a minute, most of it the dual polar
decomposition.
"""

import sys
import time

import bootstrap

# (label, family key, run decompose T)
INSTANCES = (
    ("H(4,4)", "hamming-4-4", True),
    ("halved 9-cube", "halved_cube-9", True),
    ("Hermitian forms (2,3)", "hermitian_forms-2-3", True),
    ("J(12,5)", "johnson-12-5", False),
    ("Hermitian dual polar (2,3)", "dual_polar_2a-2-3", True),
    ("H(5,4)", "hamming-5-4", False),
)


def stage_seconds(fn, arg):
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def main():
    if not bootstrap.prepare():
        return 2
    from workloads import family_args, import_program

    prog = import_program()
    fam, core = prog.families, prog.graph_core
    print("| instance (n) | build | intersection_array | certify_uniform | decompose T |")
    print("|---|---|---|---|---|")
    for label, key, with_decompose in INSTANCES:
        tag, params = family_args(key)
        spec = fam.FamilySpec(tag, tuple(params))
        text = core.write_edge_list(fam.build_family(spec))
        fresh = lambda: core.read_edge_list(text)  # noqa: E731
        stages = [
            (lambda _: fam.build_family(spec), lambda: None),
            (core.intersection_array, fresh),
            (lambda g: prog.uniform.certify_uniform(g, 0), fresh),
        ]
        if with_decompose:
            stages.append((lambda g: prog.tmodules.decompose(g, 0, "T"), fresh))
        cells = [f"{stage_seconds(fn, make()):.2g} s" for fn, make in stages]
        if not with_decompose:
            cells.append("—")
        n = int(text.split(None, 1)[0])
        print(f"| {label} ({n}) | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
