"""Tests of the benchmark's own code (not of drguniform).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import report
import spans
from speed import REFERENCE_S, SpeedLog
from workloads import (
    BASE,
    DECOMPOSE_LADDER,
    JOHNSON_DECOMPOSE,
    References,
    Runner,
    digest,
    gate,
    permutation,
    relabel,
)

BENCH = Path(__file__).resolve().parent


# -- percentile rule ------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert report.samples_beyond(542, 98) == 10
    assert report.tail_percentile(542) == 98
    assert report.samples_beyond(542, 99) == 5
    assert report.tail_percentile(1000) == 99
    assert report.tail_percentile(40) == 75
    assert report.tail_percentile(39) is None


def test_base_rows_report_percentiles_and_sample_count():
    base = [i / 1000.0 for i in range(542)]  # 0 .. 541 ms
    jobs = [(p, BASE, 0.0, s) for p in range(3) for s in base]
    runner = SimpleNamespace(jobs=jobs, failed=0, attempted=1626)
    unscaled = SimpleNamespace(scaled=lambda a, b: b - a, kernel_s=[REFERENCE_S])
    rows = report.build([False] * 3, [(0.0, 0.1)], unscaled, 50.0, runner, None)
    rows = {r["name"]: r for r in rows}
    p98 = rows["base_ms.p98"]
    assert p98["value"] == pytest.approx(report.percentile(base, 98) * 1000)
    assert p98["n"] == 3
    assert "542 samples per pass, 10 beyond" in p98["note"]
    assert rows["base_ms.p50"]["value"] == pytest.approx(270.5)
    assert rows["certify_s"]["value"] == pytest.approx(sum(base))
    assert rows["pass_s"]["value"] == pytest.approx(sum(base))
    assert rows["decompose_s"]["note"] == "not run by this workload"
    assert rows["failed_frac"]["note"] == "0 of 1626 jobs failed"


def test_describe_quartiles():
    d = report.describe([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (d["median"], d["n"]) == (3.0, 5)
    assert d["q1"] == pytest.approx(1.5) and d["q3"] == pytest.approx(4.5)


def test_speed_scaling_interpolates_between_calibrations():
    speed = SpeedLog(probe=lambda: None)
    speed.times = [0.0, 10.0]
    speed.kernel_s = [2 * REFERENCE_S, REFERENCE_S]  # half speed, then full
    assert speed.kernel_at(5.0) == pytest.approx(1.5 * REFERENCE_S)
    assert speed.scaled(4.0, 6.0) == pytest.approx(2.0 / 1.5)
    assert speed.scaled(20.0, 21.0) == pytest.approx(1.0)  # after the last one


def test_speed_scaling_uses_the_samples_within_a_job_and_drops_their_time():
    speed = SpeedLog(probe=lambda: None)
    speed.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.kernel_s = [REFERENCE_S, 0.5, 0.1, 0.3, REFERENCE_S]
    # samples at 1, 2 and 3 fall inside: 0.9 s of them, mean kernel 0.3 s
    assert speed.scaled(0.5, 3.5) == pytest.approx((3.0 - 0.9) * REFERENCE_S / 0.3)


def test_sampling_calibrates_from_the_timer_and_then_stops():
    speed = SpeedLog(probe=lambda: None)
    with speed.sampling(every=0.01):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    taken = len(speed.times)
    assert taken >= 5
    time.sleep(0.05)
    assert len(speed.times) == taken


# -- self time --------------------------------------------------------------------


def test_self_time_of_nested_and_recursive_spans():
    # [id, name, start, end, parent, job]
    recorded = [
        [0, "job", 0.0, 10.0, None, 1],
        [1, "split", 1.0, 9.0, 0, 1],
        [2, "split", 2.0, 5.0, 1, 1],  # recursive call
        [3, "actions", 5.0, 6.0, 1, 1],
        [4, "actions", 2.5, 3.0, 2, 1],
    ]
    leaves = {(1, "leaf"): [3, 1.0]}
    assert spans.self_times(recorded, leaves) == [2.0, 3.0, 2.5, 1.0, 0.5]


FAKE_TMODULES = '''
def _action_matrices():
    tick(1.0)

def _split_irreducible(depth):
    tick(2.0)
    _action_matrices()
    if depth:
        _split_irreducible(depth - 1)
        return [1, 2], True
    return [1], True

def decompose():
    tick(1.0)
    _split_irreducible(1)
    _action_matrices()
    return []
'''


@pytest.fixture
def fake_package():
    now = [0.0]
    mod = types.ModuleType("fakepkg.tmodules")
    mod.tick = lambda dt: now.__setitem__(0, now[0] + dt)
    exec(FAKE_TMODULES, mod.__dict__)
    pkg = types.ModuleType("fakepkg")
    sys.modules.update({"fakepkg": pkg, "fakepkg.tmodules": mod})
    yield mod, (lambda: now[0])
    del sys.modules["fakepkg"], sys.modules["fakepkg.tmodules"]


def test_tracer_splits_recursion_and_parents(fake_package):
    mod, clock = fake_package
    originals = (mod.decompose, mod._split_irreducible, mod._action_matrices)
    tracer = spans.Tracer(clock=clock)
    tracer.install(package="fakepkg")
    try:
        with tracer.job_span(1, "job.decompose"):
            mod.decompose()
    finally:
        tracer.uninstall()
    assert (mod.decompose, mod._split_irreducible, mod._action_matrices) == originals
    totals = tracer.layer_totals()
    assert totals["tmodules.decompose_self_s"] == 1.0
    assert totals["tmodules.split_s"] == 4.0  # 2 s in each of the two calls
    assert totals["tmodules.actions_s"] == 2.0  # called under a split
    assert totals["tmodules.recheck_s"] == 1.0  # called from decompose
    assert tracer.counters["tmodules.split_successes"] == 1
    absent = tracer.absent_metrics()
    assert "families.build_s" in absent and "tmodules.split_s" not in absent
    assert "tmodules.split_yield" in absent  # needs exactla.minimal_polynomial too


# -- output gate ------------------------------------------------------------------


def test_gate_flags_one_changed_byte_and_nonzero_exit():
    ref = digest(b'{"verdict": "StronglyUniform"}\n')
    assert gate(ref, b'{"verdict": "StronglyUniform"}\n', 0) is None
    assert gate(ref, b'{"verdict": "StronglyUniforn"}\n', 0) is not None
    assert gate(ref, b'{"verdict": "StronglyUniform"}\n', 1) == "exit code 1"
    assert gate(None, b"", 0) == "no reference output recorded"
    assert gate(ref, b"", "raised ValueError: x") == "raised ValueError: x"


def _runner(main, tmp_path):
    prog = SimpleNamespace(cli=SimpleNamespace(main=main))
    refs = References({"analyze": {"g": digest(b"ok\n")}})
    return Runner(prog, refs, str(tmp_path), seed=0)


@pytest.mark.parametrize(
    "main, ok",
    [
        (lambda argv: print("ok") or 0, True),
        (lambda argv: print("ok") or 4, False),
        (lambda argv: print("ok!") or 0, False),
        (lambda argv: 1 / 0, False),
    ],
)
def test_runner_counts_failed_jobs(main, ok, tmp_path):
    runner = _runner(main, tmp_path)
    runner.cli("analyze_s", "analyze", "g", ["analyze", "g.edges"])
    assert (runner.attempted, runner.failed) == (1, 0 if ok else 1)


# -- inputs and declared metrics -----------------------------------------------


def test_seed_zero_is_identity_and_relabelling_keeps_edges():
    text = "4 3\n0 1\n1 2\n2 3\n"
    assert relabel(text, permutation(4, 0, 0, "p4")) == text
    perm = permutation(4, 7, 0, "p4")
    assert perm == permutation(4, 7, 0, "p4") and sorted(perm) == [0, 1, 2, 3]
    out = relabel(text, perm).split("\n")
    assert out[0] == "4 3" and len(out) == 5


def test_decompose_jobs_have_references_and_the_defect_stays_out_of_timed_runs():
    recorded = json.loads((BENCH / "references.json").read_text())["decompose"]
    for key, algebra in (*DECOMPOSE_LADDER, *JOHNSON_DECOMPOSE):
        assert f"{key}-{algebra}" in recorded
    assert not set(JOHNSON_DECOMPOSE) & set(DECOMPOSE_LADDER)


def test_benchmark_json_declares_what_the_runs_report():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == report.per_layer_metrics()
