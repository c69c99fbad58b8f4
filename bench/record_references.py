"""Record the reference outputs the benchmark's gate compares against.

    python3 bench/record_references.py

Runs one pass of every workload and probe at seed 0 (the identity
labelling) and writes the SHA-256 of every job's output to
bench/references.json.  Run
it only when an output is meant to change; the benchmark itself never
writes references.
"""

import json
import shutil
import sys
import tempfile

import bootstrap


def main():
    if not bootstrap.prepare():
        return 2
    from workloads import PROBES, WORKLOADS, Recorder, Runner, import_program

    prog = import_program()
    bootstrap.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bootstrap.OUT, prefix="record-")
    recorder = Recorder()
    try:
        runner = Runner(prog, recorder, workdir, seed=0)
        for workload in [*WORKLOADS.values(), *PROBES.values()]:
            workload.setup(prog)
            workload.run_pass(runner, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = bootstrap.BENCH / "references.json"
    with open(path, "w") as fh:
        json.dump(recorder.doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {runner.attempted} reference outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
