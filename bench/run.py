"""Run one workload of the drguniform benchmark and print its metrics.

    python3 bench/run.py --workload certify_ladder --seed 3 --seconds 25 --trace 0

A closed loop: one process, one job at a time, passes over the
workload's jobs until ``--seconds`` have elapsed (at least two passes).
Every job's output is checked against bench/references.json.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, quartiles and sample count.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` passes alternate untraced and traced on the
same inputs; the metrics are the per-layer ones from the traced passes,
the per-command times from the untraced passes, and the tracing overhead
between them.  The spans are written to .bench_out/.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time

import bootstrap
import report
from spans import Tracer
from speed import SpeedLog
from workloads import WORKLOADS, References, Runner, import_program

SETUP_REPS = 7
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2
    if not bootstrap.prepare():  # before anything imports numpy
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # set-up: import the package, load the references, generate the inputs
    speed = SpeedLog()
    setups = []  # (start, end) of each set-up
    for _ in range(SETUP_REPS):
        speed.calibrate()
        t0 = time.perf_counter()
        prog = import_program()
        refs = References.load(bootstrap.BENCH / "references.json")
        workload.setup(prog)
        setups.append((t0, time.perf_counter()))
    speed.calibrate()
    if not bootstrap.from_checkout(prog.cli):
        print(f"bench: drguniform was not imported from {bootstrap.SRC}", file=sys.stderr)
        return 2

    bootstrap.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bootstrap.OUT, prefix="work-")
    tracer = Tracer() if args.trace else None
    runner = Runner(prog, refs, workdir, args.seed, tracer)
    traced_passes = []  # whether each pass ran traced
    try:
        with speed.sampling():
            deadline = time.perf_counter() + args.seconds
            while len(traced_passes) < MIN_PASSES or time.perf_counter() < deadline:
                traced = bool(args.trace) and len(traced_passes) % 2 == 1
                # a traced pass repeats the inputs of the untraced pass before it
                pass_no = len(traced_passes) // 2 if args.trace else len(traced_passes)
                runner.pass_index = len(traced_passes)
                runner.tracing(traced)
                try:
                    workload.run_pass(runner, pass_no)
                finally:
                    runner.tracing(False)
                traced_passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = report.build(traced_passes, setups, speed, peak_rss_mb, runner, tracer)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(bootstrap.OUT / f"spans-{stem}.json")
    doc = report.document(args, rows, runner, speed, bootstrap.thread_settings())
    with open(bootstrap.OUT / f"result-{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(report.table(rows, runner, tracer))
    wanted = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            r["name"]: {"value": r["value"], "unit": r["unit"]}
            for r in rows if r["kind"] == wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
