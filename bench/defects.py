"""Show the package's known defect: decompose on relabelled J(9,4).

    python3 bench/defects.py --seeds 1 2 3 4 5

Runs each probe of workloads.PROBES once per seed, on that seed's first
labelling (the one pass 0 of a timed run would draw), through the same
exact-output gate as the benchmark.  Prints one line per job and exits
with code 1 when any job fails, 0 when every job matches its reference.
The timed workloads leave these jobs out, because a benchmark run must
not fail; this script is where the defect stays visible until it is
fixed.
"""

import argparse
import shutil
import sys
import tempfile

import bootstrap


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = p.parse_args(argv)
    if not bootstrap.prepare():
        return 2
    from workloads import PROBES, References, Runner, import_program

    prog = import_program()
    refs = References.load(bootstrap.BENCH / "references.json")
    bootstrap.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bootstrap.OUT, prefix="defects-")
    attempted = failed = 0
    try:
        for probe in PROBES.values():
            probe.setup(prog)
            for seed in args.seeds:
                runner = Runner(prog, refs, workdir, seed)
                probe.run_pass(runner, 0)
                attempted += runner.attempted
                failed += runner.failed
                verdict = "; ".join(runner.failures) or "matches the reference"
                print(f"{probe.name} seed {seed}: {verdict}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failed} of {attempted} jobs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
