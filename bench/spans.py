"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps the module-level callables through which each layer of
``drguniform`` is entered.  Every module of the package that binds the
original callable gets the wrapper, so calls are seen wherever their
caller looks the name up; methods are wrapped on their class.  Spans
(id, name, start, end, parent, job) are kept in a list and written out
when the run ends.  Hot leaf callables do not get a span per call:
their call count and total time are aggregated per parent span.

A callable that a later version of the package no longer has is
reported as absent instead of failing the run.
"""

import contextlib
import functools
import gc
import json
import sys
import time
from collections import Counter


def _count_graph(c, args, g):
    c["families.vertices"] += g.n
    c["families.edges"] += g.m


def _count_spectrum(c, args, spec):
    c["graph_core.numeric_spectra"] += int(bool(spec.numeric))


def _count_certificate(c, args, cert):
    c["uniform.certificates"] += int(cert.structure is not None)


def _count_layer(c, args, sol):
    split, i = args[0], args[1]
    layers = split.dp.layers
    c["uniform.layer_rows_raw"] += len(layers[i - 1]) * len(layers[i])
    c["uniform.layer_rows_unique"] += len(sol.system)
    if not sol.empty:
        c["uniform.solution_dim"] += sol.dim


def _count_check(c, args, report):
    c["uniform.condition_checks"] += 1


def _count_closure(c, args, slices):
    c["tmodules.closures"] += 1


def _count_modules(c, args, mods):
    c["tmodules.modules"] += len(mods)
    c["tmodules.unsplit_modules"] += sum(1 for m in mods if not m.exact)


def _count_split(c, args, result):
    # a call returns several pieces exactly when it found a splitting element
    c["tmodules.split_successes"] += int(len(result[0]) > 1)


# Counters each hook adds to, for reporting them absent with their callable.
HOOK_METRICS = {
    _count_graph: ("families.vertices", "families.edges"),
    _count_spectrum: ("graph_core.numeric_spectra",),
    _count_certificate: (),
    _count_layer: (
        "uniform.layer_rows_raw", "uniform.layer_rows_unique", "uniform.solution_dim",
    ),
    _count_check: ("uniform.condition_checks",),
    _count_closure: ("tmodules.closures",),
    _count_modules: ("tmodules.modules", "tmodules.unsplit_modules"),
    _count_split: (),
}

# (module, attribute, time metric, counter hook).  Spans are named
# "module.attribute"; the metric is where their self time is summed.
SPANNED = (
    ("families", "build_family", "families.build_s", _count_graph),
    ("graph_core", "read_edge_list", "graph_core.read_s", None),
    ("graph_core", "Graph.distance_matrix", "graph_core.distance_matrix_s", None),
    ("graph_core", "intersection_array", "graph_core.intersection_array_s", None),
    ("graph_core", "spectrum", "graph_core.spectrum_s", _count_spectrum),
    ("graph_core", "krein_parameters", "graph_core.krein_s", None),
    ("graph_core", "q_polynomial_orderings", "graph_core.orderings_s", None),
    ("graph_core", "near_polygon_check", "graph_core.near_polygon_s", None),
    ("graph_core", "bfs_layers", "terwilliger.split_s", None),
    ("terwilliger", "lfr_split", "terwilliger.split_s", None),
    ("terwilliger", "graph_isomorphic", "terwilliger.isomorphism_s", None),
    ("uniform", "certify_uniform", "uniform.certify_self_s", _count_certificate),
    ("uniform", "solve_layer", "uniform.solve_layer_s", _count_layer),
    ("uniform", "check_parameter_conditions", "uniform.conditions_s", _count_check),
    ("uniform", "verify_given", "uniform.verify_s", None),
    ("tmodules", "decompose", "tmodules.decompose_self_s", _count_modules),
    ("tmodules", "_orthogonal_seed", "tmodules.seed_s", None),
    ("tmodules", "_refine_seed", "tmodules.refine_s", None),
    ("tmodules", "_closure", "tmodules.closure_s", _count_closure),
    ("tmodules", "_action_matrices", "tmodules.recheck_s", None),
    ("tmodules", "_commutant", "tmodules.commutant_s", None),
    ("tmodules", "_split_irreducible", "tmodules.split_s", _count_split),
    ("tmodules", "_orthogonalize", "tmodules.orthogonalize_s", None),
    ("tmodules", "_local_eigenvalue", "tmodules.local_eigenvalue_s", None),
    ("tmodules", "dual_endpoint", "tmodules.dual_endpoint_s", None),
    ("exactla", "nullspace", "exactla.nullspace_s", None),
    ("exactla", "solve_affine", "exactla.solve_affine_s", None),
    ("exactla", "minimal_polynomial", "exactla.minpoly_s", None),
    ("exactla", "int_poly_rational_roots", "exactla.rational_roots_s", None),
    ("serialize", "certificate_dict", "serialize.s", None),
    ("serialize", "analysis_dict", "serialize.s", None),
    ("cli", "_emit", "cli.emit_s", None),
)

# Hot leaves: (module, attribute, time metric, call-count metric or None)
LEAVES = (
    ("exactla", "IntRowBasis.add", "exactla.rowbasis_add_s", "exactla.rowbasis_adds"),
    ("tmodules", "_express", "tmodules.express_s", None),
)

SPLIT = "tmodules._split_irreducible"
MINPOLY = "exactla.minimal_polynomial"

# _action_matrices has two callers: under a split it computes the actions
# the commutant is built from, under decompose it re-checks invariance.
PARENT_METRICS = {("tmodules._action_matrices", SPLIT): "tmodules.actions_s"}

# the package's suites.SUITE_NAMES, spelled out so that the metric list
# (and BENCHMARK.json) does not depend on importing the package
SUITE_NAMES = (
    "hamming", "halved_cube_odd", "doob", "dual_polar",
    "tight", "johnson", "negative_type", "classification",
)

# derived metric -> the callables it needs
DERIVED = {
    "tmodules.split_attempts": (SPLIT, MINPOLY),
    "tmodules.split_yield": (SPLIT, MINPOLY),
    "uniform.certificates_per_check": (
        "uniform.certify_uniform", "uniform.check_parameter_conditions",
    ),
    "python.gc_s": (),
    "python.gc_collections": (),
}


def _sources():
    """metric -> callables it is measured from (any one suffices, except
    for derived metrics, which need all)."""
    out = {}
    for mod, path, metric, hook in SPANNED:
        name = f"{mod}.{path}"
        for m in (metric,) + HOOK_METRICS.get(hook, ()):
            out.setdefault(m, []).append(name)
    for (name, _), metric in PARENT_METRICS.items():
        out.setdefault(metric, []).append(name)
    for mod, path, metric, count in LEAVES:
        for m in (metric, count):
            if m:
                out.setdefault(m, []).append(f"{mod}.{path}")
    for suite in SUITE_NAMES:
        out[f"suites.{suite}_s"] = [f"suites.{suite}"]
    out.update(DERIVED)
    return out


def layer_metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = list(_sources())
    names.insert(names.index("tmodules.recheck_s"), names.pop(names.index("tmodules.actions_s")))
    return names


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, name, start, end, parent id, job id]
        self.leaves = {}  # (parent id, name) -> [calls, seconds]
        self.counters = Counter()
        self.present = set()  # callables found in the package
        self.job = None
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack = []
        self._patches = []
        self._gc_start = None

    # -- recording ------------------------------------------------------------

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self.clock(), None, parent, self.job])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job_id, name):
        self.job = job_id
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)
            self.job = None

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def wrap_leaf(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = tracer._stack[-1] if tracer._stack else None
                acc = tracer.leaves.setdefault((parent, name), [0, 0.0])
                acc[0] += 1
                acc[1] += tracer.clock() - t0

        return traced

    def _on_gc(self, phase, info):
        # collections the benchmark itself forces between jobs are not counted
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_s += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- patching ---------------------------------------------------------------

    def install(self, package="drguniform"):
        """Wrap every traced callable of the imported package."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for mod_name, path, _, hook in SPANNED:
            self._patch(modules, mod_name, path, lambda fn, n, h=hook: self.wrap(fn, n, h))
        for mod_name, path, _, _ in LEAVES:
            self._patch(modules, mod_name, path, self.wrap_leaf)
        table = getattr(modules.get("suites"), "SUITES", None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                self.present.add(f"suites.{key}")
                table[key] = self.wrap(fn, f"suites.{key}")
                self._patches.append((table, key, fn))
        gc.callbacks.append(self._on_gc)

    def _patch(self, modules, mod_name, path, make):
        name = f"{mod_name}.{path}"
        try:
            owner = modules[mod_name]
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = path.rpartition(".")[2]
            original = getattr(owner, attr)
        except (KeyError, AttributeError):
            return  # reported by absent_metrics()
        self.present.add(name)
        wrapper = make(original, name)
        # a method is patched on its class, a function wherever it is bound
        owners = [owner] if "." in path else list(modules.values())
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reporting --------------------------------------------------------------

    def absent_metrics(self):
        """Metrics that cannot be measured because the package no longer
        has the callable they come from."""
        absent = []
        for metric, names in _sources().items():
            found = [n in self.present for n in names]
            if metric in DERIVED:
                if not all(found):
                    absent.append(metric)
            elif not any(found):
                absent.append(metric)
        return absent

    def layer_totals(self):
        """Totals over everything recorded, by per-layer metric name."""
        metric_of = {f"{m}.{p}": metric for m, p, metric, _ in SPANNED}
        metric_of.update({f"suites.{s}": f"suites.{s}_s" for s in SUITE_NAMES})
        out = Counter()
        attempts = 0
        for span, self_s in zip(self.spans, self_times(self.spans, self.leaves)):
            parent = self.spans[span[4]][1] if span[4] is not None else None
            metric = PARENT_METRICS.get((span[1], parent)) or metric_of.get(span[1])
            if metric and span[1].startswith("suites."):
                out[metric] += span[3] - span[2]  # a suite's whole time, children included
            elif metric:
                out[metric] += self_s
            attempts += span[1] == MINPOLY and parent == SPLIT
        for (_, name), (calls, secs) in self.leaves.items():
            for mod, path, metric, count in LEAVES:
                if name == f"{mod}.{path}":
                    out[metric] += secs
                    if count:
                        out[count] += calls
        for hook_metrics in HOOK_METRICS.values():
            for metric in hook_metrics:
                out[metric] += self.counters[metric]
        successes = self.counters["tmodules.split_successes"]
        checks = self.counters["uniform.condition_checks"]
        out["tmodules.split_attempts"] = attempts
        out["tmodules.split_yield"] = successes / attempts if attempts else 0.0
        out["uniform.certificates_per_check"] = (
            self.counters["uniform.certificates"] / checks if checks else 0.0
        )
        out["python.gc_s"] = self.gc_s
        out["python.gc_collections"] = self.gc_collections
        return out

    def self_time_table(self):
        """Rows (name, calls, total s, self s) per span or leaf name, by
        decreasing self time."""
        rows = {}
        for span, self_s in zip(self.spans, self_times(self.spans, self.leaves)):
            row = rows.setdefault(span[1], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span[3] - span[2]
            row[2] += self_s
        for (_, name), (calls, secs) in self.leaves.items():
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += secs
            row[2] += secs
        return sorted(((n, *v) for n, v in rows.items()), key=lambda r: -r[3])

    def dump(self, path):
        """Write spans, aggregated leaves and the self-time table as JSON."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "job"],
            "spans": [
                [s[0], s[1], round(s[2] - t0, 7), round(s[3] - t0, 7), s[4], s[5]]
                for s in self.spans
            ],
            "leaves": [
                {"parent": p, "name": n, "calls": c, "seconds": round(t, 7)}
                for (p, n), (c, t) in self.leaves.items()
            ],
            "self_time": [
                {"name": n, "calls": c, "total_s": round(t, 7), "self_s": round(s, 7)}
                for n, c, t, s in self.self_time_table()
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans, leaves):
    """Self time of each span: its duration minus its direct children's
    durations and the leaf calls aggregated under it.  Spans nest
    strictly (one thread, stack discipline), so direct children never
    overlap one another, and a recursive call is a child like any other:
    its time is taken out of its caller's self time exactly once."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    for (parent, _), (_, secs) in leaves.items():
        if parent is not None:
            own[parent] -= secs
    return own
