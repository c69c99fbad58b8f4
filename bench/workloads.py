"""The benchmark's workloads, their inputs and the exact-output gate.

Every job goes through the package's public surface: CLI commands run
in-process through ``drguniform.cli.main(argv)``, per-base jobs through
``certify_uniform`` and ``certificate_dict``.  Each job's output is
compared byte for byte (by SHA-256) with the reference recorded at seed 0;
a job fails when it raises, exits non-zero, or its output differs.

Seed 0 is the identity labelling, the constructors' canonical vertex
order.  For a seed s > 0 every pass relabels every input graph with its
own permutation, drawn from ``random.Random(f"{s}:{pass}:{instance}")``,
before the program sees it.  The answers are label-invariant, so the
seed-0 references apply at every seed; timings move with the labelling,
and averaging over one labelling per pass keeps a run's medians steady.
"""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

PACKAGE = "drguniform"
PROGRAM_MODULES = (
    "cli", "config", "families", "graph_core", "serialize", "suites", "tmodules", "uniform",
)

# instance key -> (family tag, parameters); keys name graphs in references.json
CERTIFY_LADDER = (
    "hamming-4-4",
    "halved_cube-9",
    "hermitian_forms-2-3",
    "johnson-12-5",
    "dual_polar_2a-2-3",
    "hamming-5-4",
)
DECOMPOSE_LADDER = (
    ("hamming-4-4", "T"),
    ("halved_cube-9", "T"),
    ("hermitian_forms-2-3", "T"),
    ("hamming-4-4", "Tf"),
)
# decompose on some relabellings of J(9,4) gives a wrong answer (README,
# "Known defect"); the timed workloads leave it out and defects.py runs it
JOHNSON_DECOMPOSE = (("johnson-9-4", "T"),)
SMALL_SWEEP = (
    "hamming-3-6",
    "johnson-9-4",
    "halved_cube-7",
    "doob-1-1",
    "gosset",
    "shrikhande",
)
MAX_REPORTED_FAILURES = 20
BASE = "base"  # metric under which per-base jobs are logged


def family_args(key):
    tag, *params = key.split("-")
    return tag, [int(p) for p in params]


def import_program():
    """Import the package from scratch (dropping any copy already loaded)
    and return its modules."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in PROGRAM_MODULES}
    )


def permutation(n, seed, pass_no, key):
    """New label of each old vertex; the identity at seed 0."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}:{pass_no}:{key}").shuffle(perm)
    return perm


def relabel(text, perm):
    """Edge-list text with every vertex v renamed perm[v], edges sorted."""
    nums = [int(t) for t in text.split()]
    n, m = nums[0], nums[1]
    edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]))
        for u, v in zip(nums[2::2], nums[3::2])
    )
    return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def gate(expected, data, outcome):
    """Why a job fails the exact-output gate, or None when it passes.

    ``outcome`` is the exit code, or the text of the exception raised.
    """
    if isinstance(outcome, str):
        return outcome
    if outcome != 0:
        return f"exit code {outcome}"
    if expected is None:
        return "no reference output recorded"
    got = digest(data)
    if got != expected:
        return f"output sha256 {got[:12]} differs from reference {expected[:12]}"
    return None


def suite_labels(stdout):
    """The PASS/FAIL tag and label of each suite line, without the detail
    (which can embed elapsed seconds)."""
    lines = [line.split("  [", 1)[0] for line in stdout.decode().splitlines()]
    return ("\n".join(lines) + "\n").encode()


def cert_bytes(payload):
    """A certificate document exactly as ``drguniform certify-uniform``
    prints it."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class References:
    """Reference digests recorded at seed 0 (see record_references.py)."""

    def __init__(self, doc):
        self.doc = doc

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def check(self, kind, key, data, outcome):
        return gate(self.doc.get(kind, {}).get(key), data, outcome)

    def check_base(self, graph, vertex, data, outcome):
        table = self.doc.get("bases", {}).get(graph)
        expected = table["digests"][table["by_vertex"][vertex]] if table else None
        return gate(expected, data, outcome)


class Recorder:
    """Collects reference digests instead of checking them."""

    def __init__(self):
        self.doc = defaultdict(dict)

    def check(self, kind, key, data, outcome):
        if outcome != 0:
            raise RuntimeError(f"{kind} {key} failed while recording: {outcome}")
        self.doc[kind][key] = digest(data)
        return None

    def check_base(self, graph, vertex, data, outcome):
        if outcome != 0:
            raise RuntimeError(f"base {vertex} of {graph} failed while recording: {outcome}")
        table = self.doc["bases"].setdefault(graph, {"digests": [], "by_vertex": []})
        d = digest(data)
        if d not in table["digests"]:
            table["digests"].append(d)
        if len(table["by_vertex"]) != vertex:
            raise RuntimeError("bases must be recorded in vertex order")
        table["by_vertex"].append(table["digests"].index(d))
        return None


class Runner:
    """Runs jobs one at a time, times them, and gates their output.

    Each job is logged as (pass, metric, start, end); run.py scales
    these times by the machine's speed (see speed.py).
    """

    def __init__(self, prog, refs, workdir, seed, tracer=None):
        self.prog = prog
        self.refs = refs
        self.workdir = workdir
        self.seed = seed
        self.tracer = None
        self._tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.jobs = []  # (pass index, metric, start, end)
        self.pass_index = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def tracing(self, on):
        """Switch the tracer's patches on or off between passes."""
        if on and self.tracer is None and self._tracer is not None:
            self._tracer.install()
            self.tracer = self._tracer
        elif not on and self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None

    def timed(self, metric, name, fn):
        """Run fn() as one job and log it; returns its result, or the text
        of the exception it raised."""
        span = (
            self.tracer.job_span(len(self.jobs), name)
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:  # a failing job is counted, not fatal
            result = f"raised {type(exc).__name__}: {exc}"
        self.jobs.append((self.pass_index, metric, t0, time.perf_counter()))
        return result

    def _record(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{label}: {reason}")

    def cli(self, metric, kind, key, argv, output=None, transform=None):
        """One CLI job; the gated bytes are stdout, or the file ``output``."""
        gc.collect()
        out = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out):
                    return self.prog.cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1

        outcome = self.timed(metric, f"job.{argv[0]}", call)
        data = out.getvalue().encode()
        if outcome == 0 and output is not None:
            with open(output, "rb") as fh:
                data = fh.read()
        if transform is not None:
            data = transform(data)
        self._record(f"{kind} {key}", self.refs.check(kind, key, data, outcome))

    def skip(self, kind, key, why):
        self._record(f"{kind} {key}", why)

    def certify_base(self, graph, g, x, original, cfg):
        """certify_uniform plus certificate_dict at base x."""
        uniform, serialize = self.prog.uniform, self.prog.serialize
        result = self.timed(
            BASE,
            "job.certify_base",
            lambda: serialize.certificate_dict(uniform.certify_uniform(g, x, config=cfg), cfg),
        )
        if isinstance(result, str):
            outcome, data = result, b""
        else:
            outcome, data = 0, cert_bytes(result)
        self._record(f"base {original} of {graph}", self.refs.check_base(graph, original, data, outcome))


def build_texts(prog, keys):
    """Edge-list text of each instance, in the constructors' labelling."""
    out = {}
    for key in keys:
        tag, params = family_args(key)
        g = prog.families.build_family(prog.families.FamilySpec(tag, tuple(params)))
        out[key] = prog.graph_core.write_edge_list(g)
    return out


def write_relabelled(runner, name, text, pass_no, key):
    """Write the pass's relabelling of an edge list; returns (path, perm)."""
    n = int(text.split(None, 1)[0])
    perm = permutation(n, runner.seed, pass_no, key)
    path = runner.path(name)
    with open(path, "w") as fh:
        fh.write(relabel(text, perm))
    return path, perm


class CertifyLadder:
    """family, then analyze and certify-uniform on the relabelled output."""

    name = "certify_ladder"

    def setup(self, prog):
        pass

    def run_pass(self, runner, pass_no):
        for key in CERTIFY_LADDER:
            tag, params = family_args(key)
            edges = runner.path(f"{key}.edges")
            argv = ["family", tag, *map(str, params), "--out", edges]
            runner.cli("family_s", "family", key, argv, output=edges)
            try:
                with open(edges) as fh:
                    text = fh.read()
            except OSError:
                runner.skip("analyze", key, "family wrote no edge list")
                runner.skip("certify", key, "family wrote no edge list")
                continue
            path, _ = write_relabelled(runner, f"{key}.relabelled.edges", text, pass_no, key)
            runner.cli("analyze_s", "analyze", key, ["analyze", path])
            runner.cli("certify_s", "certify", key, ["certify-uniform", path, "--base", "0"])


class DecomposeLadder:
    """decompose on relabelled inputs generated in setup."""

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = jobs

    def setup(self, prog):
        self.texts = build_texts(prog, sorted({k for k, _ in self.jobs}))

    def run_pass(self, runner, pass_no):
        for key, algebra in self.jobs:
            path, _ = write_relabelled(runner, f"{key}.edges", self.texts[key], pass_no, key)
            argv = ["decompose", path, "--algebra", algebra]
            runner.cli("decompose_s", "decompose", f"{key}-{algebra}", argv)


class SmallSweep:
    """Every base of six small graphs, then the eight reproduction suites."""

    name = "small_sweep"

    def setup(self, prog):
        self.texts = build_texts(prog, SMALL_SWEEP)

    def run_pass(self, runner, pass_no):
        prog = runner.prog
        cfg = prog.config.Config().validate()  # what the CLI uses by default
        for key in SMALL_SWEEP:
            text = self.texts[key]
            n = int(text.split(None, 1)[0])
            perm = permutation(n, runner.seed, pass_no, key)
            original = [0] * n
            for old, new in enumerate(perm):
                original[new] = old
            relabelled = relabel(text, perm)
            gc.collect()
            g = runner.timed("read_s", "job.read", lambda: prog.graph_core.read_edge_list(relabelled))
            if isinstance(g, str):
                for x in range(n):
                    runner.skip("base", f"{original[x]} of {key}", g)
                continue
            for x in range(n):
                runner.certify_base(key, g, x, original[x], cfg)
        for suite in prog.suites.SUITE_NAMES:
            prog.suites.cached_family.cache_clear()
            argv = ["verify-theorem", suite]
            runner.cli("suite_s", "suite", suite, argv, transform=suite_labels)


WORKLOADS = {
    w.name: w
    for w in (CertifyLadder(), DecomposeLadder("decompose_ladder", DECOMPOSE_LADDER), SmallSweep())
}
# jobs with references but no place in a timed workload (see defects.py)
PROBES = {w.name: w for w in (DecomposeLadder("johnson_decompose", JOHNSON_DECOMPOSE),)}
