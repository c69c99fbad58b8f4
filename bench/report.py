"""Metrics of a benchmark run: order statistics, rows and the printed table.

Timings are reported as a median with quartiles and a sample count.  A
tail latency is reported at the highest percentile that still leaves at
least ``MIN_TAIL`` samples beyond it, so that a single slow call cannot
set it on its own.
"""

import statistics

from spans import layer_metric_names
from speed import REFERENCE_S
from workloads import BASE

MIN_TAIL = 10
TAIL_CANDIDATES = (99.9, 99.5, 99, 98, 95, 90, 75)


def tail_percentile(n):
    """Highest candidate percentile with at least ``MIN_TAIL`` of ``n``
    samples beyond it, or None when even p75 has too few."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_TAIL:
            return p
    return None


def samples_beyond(n, p):
    """How many of ``n`` samples lie above the p-th percentile."""
    return int(n * (100 - p) / 100.0 + 1e-9)


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(values):
    """Median, quartiles and count of a non-empty sample."""
    xs = list(values)
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


COMMANDS = ("family_s", "analyze_s", "certify_s", "decompose_s", "suite_s")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.pass_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"))


def _unit(name):
    if name.endswith("_s") or name == "serialize.s":
        return "s"
    if name.endswith("_frac") or name.endswith("_yield") or name.endswith("_per_check"):
        return "ratio"
    return "count"


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in order."""
    out = [(c, "s") for c in COMMANDS]
    out += [("base_ms.p50", "ms"), ("base_ms.p98", "ms"), ("failed_frac", "ratio")]
    out += [("raw.setup_s", "s"), ("raw.pass_s", "s"), ("machine.speed", "ratio")]
    out += list(TRACE_METRICS)
    out += [(name, _unit(name)) for name in layer_metric_names()]
    return out


def _row(name, unit, kind, values, note=""):
    d = describe(values)
    return {"name": name, "unit": unit, "kind": kind, "value": d["median"],
            "q1": d["q1"], "q3": d["q3"], "n": d["n"], "note": note}


def _base_ms(base_samples, p):
    return percentile(base_samples, p) * 1000.0 if base_samples else 0.0


def pass_sums(n_passes, jobs, seconds):
    """Per pass, {metric: summed seconds} and the list of per-base
    seconds, with a job's time given by seconds(start, end)."""
    sums = [dict() for _ in range(n_passes)]
    bases = [[] for _ in range(n_passes)]
    for p, metric, start, end in jobs:
        s = seconds(start, end)
        if metric == BASE:
            bases[p].append(s)
            metric = "certify_s"
        sums[p][metric] = sums[p].get(metric, 0.0) + s
    return sums, bases


def build(traced_passes, setups, speed, peak_rss_mb, runner, tracer):
    """Every metric of a run as rows {name, unit, kind, value, q1, q3, n, note}.

    Times are scaled to the reference speed (speed.py); the raw wall
    times of set-up and passes are reported beside them.
    """
    sums, bases = pass_sums(len(traced_passes), runner.jobs, speed.scaled)
    raw, _ = pass_sums(len(traced_passes), runner.jobs, lambda a, b: b - a)
    untraced = [i for i, traced in enumerate(traced_passes) if not traced]
    traced = [i for i, traced in enumerate(traced_passes) if traced]
    pass_s = [sum(sums[i].values()) for i in untraced]
    rows = [
        _row("setup_s", "s", "end_to_end", [speed.scaled(a, b) for a, b in setups],
             "import, references, inputs"),
        _row("pass_s", "s", "end_to_end", pass_s, "sum of a pass's timed jobs"),
        _row("peak_rss_mb", "MB", "end_to_end", [peak_rss_mb], "ru_maxrss at exit"),
    ]
    for cmd in COMMANDS:
        ran = any(cmd in sums[i] for i in untraced)
        rows.append(_row(cmd, "s", "per_layer", [sums[i].get(cmd, 0.0) for i in untraced],
                         "per-pass sum" if ran else "not run by this workload"))
    per_pass = [len(bases[i]) for i in untraced]
    for p in (50, 98):
        note = "not run by this workload"
        if any(per_pass):
            n = min(per_pass)
            note = f"{n} samples per pass, {samples_beyond(n, p)} beyond"
            if p != 50 and (tail_percentile(n) or 0) < p:
                note += f"; fewer than {MIN_TAIL} beyond p{p}"
        rows.append(_row(f"base_ms.p{p}", "ms", "per_layer",
                         [_base_ms(bases[i], p) for i in untraced], note))
    rows.append(_row("failed_frac", "ratio", "per_layer",
                     [runner.failed / runner.attempted],
                     f"{runner.failed} of {runner.attempted} jobs failed"))
    rows.append(_row("raw.setup_s", "s", "per_layer", [b - a for a, b in setups],
                     "wall time, not scaled"))
    rows.append(_row("raw.pass_s", "s", "per_layer", [sum(raw[i].values()) for i in untraced],
                     "wall time, not scaled"))
    rows.append(_row("machine.speed", "ratio", "per_layer",
                     [REFERENCE_S / k for k in speed.kernel_s],
                     "reference kernel time over measured, per calibration"))
    if tracer is None:
        return rows

    traced_s = [sum(sums[i].values()) for i in traced]
    base = statistics.median(pass_s)
    over = statistics.median(traced_s) - base
    rows.append(_row("trace.pass_s", "s", "per_layer", traced_s, "traced passes"))
    rows.append(_row("trace.overhead_s", "s", "per_layer", [over], "traced minus untraced pass_s"))
    rows.append(_row("trace.overhead_frac", "ratio", "per_layer", [over / base]))
    totals = tracer.layer_totals()
    absent = set(tracer.absent_metrics())
    for name in layer_metric_names():
        if name in absent:
            continue
        value = totals[name]
        if _unit(name) != "ratio":
            value /= len(traced)
        rows.append(_row(name, _unit(name), "per_layer", [value],
                         f"per traced pass, {len(traced)} traced passes, wall time"))
    return rows


def table(rows, runner, tracer):
    """Human-readable report: every metric with unit, quartiles and count."""
    lines = [f"{'metric':34} {'value':>14} {'unit':6} {'q1':>12} {'q3':>12} {'n':>5}  note"]
    for r in rows:
        lines.append(
            f"{r['name']:34} {r['value']:14.6g} {r['unit']:6} {r['q1']:12.6g} "
            f"{r['q3']:12.6g} {r['n']:5d}  {r['note']}"
        )
    for failure in runner.failures:
        lines.append(f"FAILED {failure}")
    if tracer is not None:
        for name in tracer.absent_metrics():
            lines.append(f"absent {name}: its callable is not in the package")
        lines.append(f"{'self time (all traced passes)':50} {'calls':>9} {'total s':>10} {'self s':>10}")
        for name, calls, total, own in tracer.self_time_table():
            lines.append(f"{name:50} {calls:9d} {total:10.4f} {own:10.4f}")
    return "\n".join(lines)


def document(args, rows, runner, speed, threads):
    """The run's full record, written next to the spans."""
    return {
        "jobs": [list(job) for job in runner.jobs],
        "calibrations": list(zip(speed.times, speed.kernel_s)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "metrics": rows,
    }
