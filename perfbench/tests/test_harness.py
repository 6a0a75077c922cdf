"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests).

They use inputs a thousand times smaller than the benchmark's, so they
check the harness logic, not the program's speed.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import ops
import run
import worker
from repro.topology import dgx1_topology
from tracing import LayerTracer

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_join():
    bench = ops.JoinBench(dgx1_topology, 2048, observed=True)
    bench.setup()
    return bench


def traced_join(bench, seed):
    tracer = LayerTracer()
    with tracer:
        workload = bench.inputs(seed)
        result, _, samples = bench.join(workload, bench.observed)
    return tracer, workload, result, samples


def test_oracle_agrees_with_the_join(small_join):
    workload = small_join.inputs(7)
    result, _, _ = small_join.join(workload, observed=False)
    assert small_join.verify(workload, result)


def test_oracle_flags_an_altered_digest(small_join):
    workload = small_join.inputs(7)
    result, _, _ = small_join.join(workload, observed=False)
    flipped = "0" if result.match_digest[0] != "0" else "1"
    altered = dataclasses.replace(
        result, match_digest=flipped + result.match_digest[1:]
    )
    assert not small_join.verify(workload, altered)
    dropped = dataclasses.replace(result, matches_real=result.matches_real - 1)
    assert not small_join.verify(workload, dropped)


def test_serve_oracle_flags_an_altered_digest():
    bench = ops.ServeBench()
    bench.setup()
    requests = bench.requests(3, ops.NOMINAL_GAP_MS)[:6]
    _, report, _ = bench.serve(requests)
    assert bench.check(requests, report) == (0, 0)
    outcome = report.outcomes[2]
    report.outcomes = (
        *report.outcomes[:2],
        dataclasses.replace(outcome, match_digest="f" * 64),
        *report.outcomes[3:],
    )
    assert bench.check(requests, report) == (0, 1)


def test_span_self_times_never_exceed_their_parent(small_join):
    tracer, _, _, _ = traced_join(small_join, 11)
    names = {span.name for span in tracer.spans}
    assert {"workloads.generate", "core.histogram", "sim.engine",
            "routing.choose_route", "core.digest"} <= names
    for span in tracer.spans:
        assert span.self_time >= -1e-9
        if span.parent is not None:
            parent = span.parent
            assert parent.start <= span.start and span.end <= parent.end
            assert span.self_time <= parent.duration
            assert parent.child_time <= parent.duration + 1e-9


def test_traced_and_untraced_runs_count_the_same(small_join):
    workload = small_join.inputs(13)
    result, _, samples = small_join.join(workload, small_join.observed)
    tracer, _, traced, traced_samples = traced_join(small_join, 13)
    assert ops.JoinBench.fingerprint(traced) == ops.JoinBench.fingerprint(result)
    assert traced_samples == samples > 0
    layer = worker.layer_metrics(tracer, ops.JoinBench.fingerprint(traced))
    assert layer["sim.packets"] == result.shuffle_report.packets_delivered
    assert layer["routing.arm_decisions"] > 0 and layer["sim.events"] > 0


def test_observer_calls_leave_engine_self_time(small_join):
    tracer, _, result, _ = traced_join(small_join, 17)
    packets = result.shuffle_report.packets_delivered
    # One sampler and one probe delivery record per delivered packet.
    assert tracer.calls("obs.sampler") > packets
    assert tracer.calls("obs.conformance") > packets
    obs_s = tracer.self_seconds("obs.")
    assert obs_s > 0
    engine = [span for span in tracer.spans if span.name == "sim.engine"]
    assert sum(span.child_time for span in engine) >= obs_s
    bare = LayerTracer()
    with bare:
        small_join.join(small_join.inputs(17), observed=False)
    assert bare.self_seconds("obs.") == 0


def test_uninstall_restores_the_program():
    import repro.core.mgjoin as mgjoin
    from repro.sim.engine import Engine

    before = (mgjoin.build_histograms, Engine.__dict__["run"])
    tracer = LayerTracer()
    with tracer:
        assert mgjoin.build_histograms is not before[0]
    assert (mgjoin.build_histograms, Engine.__dict__["run"]) == before


def test_ledger_flags_a_differing_repeat():
    mismatches = []
    known = {"op:1": {"packets": 10, "digest": "a"}}
    run.merge_fingerprints(known, {"op:1": {"packets": 10, "events": 5}}, mismatches)
    assert not mismatches and known["op:1"]["events"] == 5
    run.merge_fingerprints(known, {"op:1": {"packets": 11}}, mismatches)
    assert mismatches == ["op:1: packets 10 != 11"]


def test_ledger_compares_a_tree_across_other_trees_runs(tmp_path):
    path = tmp_path / "ledger.json"

    def check(tree, packets):
        mismatches = []
        run.check_ledger(path, tree, "w", {"op:1": {"packets": packets}}, mismatches)
        return mismatches

    assert check("A", 10) == []
    # Another tree's program may count differently.
    assert check("B", 11) == []
    assert check("A", 10) == []
    assert check("A", 12) == ["op:1: packets 10 != 12"]
    assert check("B", 13) == ["op:1: packets 11 != 13"]


def test_ledger_keeps_the_most_recent_trees(tmp_path):
    path = tmp_path / "ledger.json"
    for index in range(run.LEDGER_TREES + 1):
        run.check_ledger(path, f"T{index}", "w", {"op:1": {"packets": index}}, [])
    mismatches = []
    run.check_ledger(path, "T0", "w", {"op:1": {"packets": 99}}, mismatches)
    assert mismatches == []  # the oldest tree was dropped
    run.check_ledger(path, "T1", "w", {"op:1": {"packets": 99}}, mismatches)
    assert mismatches == []  # T0's return pushed T1 out
    run.check_ledger(path, "T8", "w", {"op:1": {"packets": 99}}, mismatches)
    assert mismatches == ["op:1: packets 8 != 99"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {ops.make(name).kind for name in run.WORKLOADS} == {"join", "serve"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join-dgx1-256k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
