"""One benchmark worker: a fresh interpreter running one workload.

``run.py`` starts this script and reads its standard output, one JSON
object per line:

* ``{"event": "ready", "rss_mb": ...}`` right after the first (cold)
  operation returns, before the harness checks it: ``setup_s`` stops
  its clock there, and ``rss_mb`` is the interpreter's peak so far;
* ``{"event": "result", ...}`` once, at the end.

``--mode run`` measures the untraced program: the cold operation, then
warm operations until ``--budget`` seconds have passed.  ``--mode
trace`` installs the layer spans of :mod:`tracing` around the cold
operation and around one of each pair of warm operations, and returns
the per-layer metrics.  Every operation's result is checked against
:mod:`oracle` outside its timed section.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import ops
from run import FIXED_CALLS, WORKLOADS, median, merge_fingerprints, percentile
from tracing import LayerTracer


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def emit_ready() -> None:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit({"event": "ready", "rss_mb": peak})


def stamp() -> dict:
    import repro
    from repro.sim.engine import engine_descriptor

    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "engine": engine_descriptor(),
    }


class Tally:
    """Accumulates the worker's operation records and failures."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprints: dict[str, dict] = {}
        self.mismatches: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(what)

    def note(self, key: str, fingerprint: dict) -> None:
        """Record a fingerprint; a differing repeat is a determinism failure."""
        merge_fingerprints(self.fingerprints, {key: fingerprint}, self.mismatches)


# ----------------------------------------------------------------------
# Join workloads
# ----------------------------------------------------------------------


def join_run(bench, args) -> dict:
    """Cold call, then warm calls for ``--budget`` s (``--probe``: cold only).

    At least ``FIXED_CALLS`` calls are made, so the seed-determined
    calls behind the ``sim_*`` metrics always run.

    Every worker's cold call joins the same input, so a probe's result
    is checked by equality with the main worker's oracle-checked one.
    """
    out = Tally()
    bench.setup()
    index = 0
    while True:
        seed = ops.op_seed(args.seed, index)
        cold = index == 0
        if not cold:
            gc.collect()
        out.attempted += 1
        workload = result = None
        try:
            started = time.perf_counter()
            workload = bench.inputs(seed)
            gen_s = time.perf_counter() - started
            result, wall, samples = bench.join(workload, bench.observed)
        except Exception:  # a failing call is counted, not fatal
            out.fail(f"seed {seed}: {traceback.format_exc(limit=3)}")
        if cold:
            emit_ready()
            loop_started = time.perf_counter()
        if result is not None:
            fingerprint = {**bench.fingerprint(result), "conformance_samples": samples}
            out.note(f"op:{seed}", fingerprint)
            if not args.probe and not bench.verify(workload, result):
                out.fail(f"seed {seed}: match digest differs from the oracle")
            out.records.append(
                {"seed": seed, "cold": cold, "gen_s": gen_s, "wall_s": wall,
                 **fingerprint}
            )
        del workload, result
        index += 1
        if args.probe or index >= 100:
            break
        if index >= FIXED_CALLS and time.perf_counter() - loop_started >= args.budget:
            break
    return finish(out)


def join_trace(bench, args) -> dict:
    out = Tally()
    tracer = LayerTracer()
    bench.setup()

    def traced(seed):
        gc.collect()
        tracer.reset()
        with tracer:
            workload = bench.inputs(seed)
            result, wall, samples = bench.join(workload, bench.observed)
        return workload, result, wall, samples

    seed = ops.op_seed(args.seed, 0)
    out.attempted += 1
    workload, result, _, samples = traced(seed)
    emit_ready()
    cold = cold_metrics(tracer)
    out.note(f"op:{seed}", {**bench.fingerprint(result), "conformance_samples": samples})
    out.note("cold", {"maxflow_calls": cold["topology.maxflow_calls"]})
    if not bench.verify(workload, result):
        out.fail(f"seed {seed}: match digest differs from the oracle")

    layers: list[dict] = []
    walls = {"untraced": [], "traced": [], "toggled": []}
    loop_started = time.perf_counter()
    index = 1
    while True:
        seed = ops.op_seed(args.seed, index)
        out.attempted += 1
        workload = bench.inputs(seed)
        runs = ("untraced", "traced") if index % 2 else ("traced", "untraced")
        found = {}
        for kind in runs:
            if kind == "traced":
                _, result, wall, samples = traced(seed)
            else:
                gc.collect()
                result, wall, samples = bench.join(workload, bench.observed)
            walls[kind].append(wall)
            found[kind] = (result, {**bench.fingerprint(result), "conformance_samples": samples})
        layer = layer_metrics(tracer, found["traced"][1])
        layer["obs.conformance_samples"] = found["traced"][1]["conformance_samples"]
        layers.append(layer)
        # The same join with the observability layer toggled must
        # simulate exactly the same thing.
        gc.collect()
        toggled, wall, _ = bench.join(workload, not bench.observed)
        walls["toggled"].append(wall)
        result, fingerprint = found["untraced"]
        if found["traced"][1] != fingerprint:
            out.mismatches.append(f"seed {seed}: traced counts differ from untraced")
        if bench.fingerprint(toggled) != bench.fingerprint(result):
            out.mismatches.append(f"seed {seed}: observed counts differ from bare")
        out.note(f"op:{seed}", {**fingerprint, "events": layer["sim.events"],
                                "arm_decisions": layer["routing.arm_decisions"]})
        if not bench.verify(workload, result):
            out.fail(f"seed {seed}: match digest differs from the oracle")
        del workload, result, toggled, found
        index += 1
        if time.perf_counter() - loop_started >= args.budget or index >= 100:
            break
    observed, bare = walls["untraced"], walls["toggled"]
    if not bench.observed:
        observed, bare = bare, observed
    metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
    metrics.update(cold)
    metrics.update(serve_zeros())
    metrics["obs.overhead_ratio"] = median(observed) / median(bare)
    metrics["trace.overhead_ratio"] = median(walls["traced"]) / median(walls["untraced"])
    return finish(out, metrics=metrics)


def cold_metrics(tracer: LayerTracer) -> dict:
    """Topology metrics of the traced cold operation, where the lazily
    built bisection cut is paid."""
    return {
        "topology.bisection_cut_s": sum(
            span.duration for span in tracer.spans
            if span.name == "topology.bisection_cut"
        ),
        "topology.maxflow_calls": tracer.calls("topology.max_flow"),
    }


def layer_metrics(tracer: LayerTracer, fingerprint: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    packets = fingerprint["packets"]
    engine_s = tracer.self_seconds("sim.engine")
    events = tracer.engine_events
    return {
        "workloads.generate_s": tracer.self_seconds("workloads."),
        "routing.choose_route_s": tracer.self_seconds("routing."),
        "routing.arm_decisions": tracer.calls("routing.choose_route"),
        "routing.avg_hops": fingerprint["hops"] / packets if packets else 0.0,
        "sim.engine_s": engine_s,
        "sim.events": events,
        "sim.events_per_packet": events / packets if packets else 0.0,
        "sim.ns_per_event": engine_s * 1e9 / events if events else 0.0,
        "sim.packets": packets,
        "sim.link_bookings": fingerprint["link_bookings"],
        "sim.board_broadcasts": fingerprint["board_broadcasts"],
        "core.histogram_s": tracer.self_seconds("core.histogram"),
        "core.assignment_s": tracer.self_seconds("core.assignment"),
        "core.distribution_s": tracer.self_seconds("core.distribution"),
        "core.local_partition_s": tracer.self_seconds("core.local_partition"),
        "core.probe_s": tracer.self_seconds("core.probe"),
        "core.digest_s": tracer.self_seconds("core.digest"),
        "core.matches": fingerprint["matches"],
        "obs.self_s": tracer.self_seconds("obs."),
    }


def serve_zeros() -> dict:
    """Serve-layer metrics on a workload that never enters the scheduler."""
    return {
        "serve.self_s_per_query": 0.0,
        "serve.queue_wait_ms.p50": 0.0,
        "serve.in_flight_peak": 0,
        "serve.queue_peak": 0,
        **{shed_name(gap): 0 for gap in ops.GAPS_MS},
    }


def shed_name(gap_ms: float) -> str:
    return f"serve.shed.gap_{gap_ms}ms"


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------


def serve_once(bench, out: Tally, requests, key: str, *, nominal=True, check=True,
               tracer=None, observed=False, ready=False):
    """Run the scheduler once, check its queries, note its fingerprint.

    ``ready`` emits the ready event as soon as the scheduler returns,
    before the harness's own fingerprinting and checking.

    Only queries at the nominal rate are operations: a query there fails
    if it does not complete or its digest is wrong.  At the other rates
    shedding is expected, and a wrong digest makes the run incorrect.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
        with tracer:
            scheduler, report, wall = bench.serve(requests, observed)
    else:
        scheduler, report, wall = bench.serve(requests, observed)
    if ready:
        emit_ready()
    fingerprint, queries = bench.fingerprint(scheduler, report)
    if check:
        lost, wrong = bench.check(requests, report)
        if nominal and lost + wrong:
            out.fail(f"{key}: {lost} queries lost, {wrong} with a wrong digest",
                     lost + wrong)
        elif wrong:
            out.mismatches.append(f"{key}: {wrong} queries with a wrong digest")
    if nominal:
        out.attempted += len(requests)
    if tracer is not None:
        fingerprint["events"] = tracer.engine_events
    out.note(key, fingerprint)
    return fingerprint, queries, wall


def serve_key(seed: int, stream: int, gap: float) -> str:
    return f"serve:{seed}:{stream}:{gap}"


def serve_streams(bench, out: Tally, seed: int, records: list) -> dict:
    """The fixed streams at each rate; the simulated serve figures.

    Latency percentiles are taken per 64-query stream and averaged over
    the streams, because a percentile of the pooled queries follows the
    most congested stream.  The nominal runs are also warm samples of
    the host-time metrics.
    """
    per_gap = {
        gap: {"p50": [], "p80": [], "wait_p50": [], "throughput_btps": [],
              "bisection_utilization": [], "shed": 0, "lost": 0,
              "in_flight_peak": 0, "queue_peak": 0}
        for gap in ops.GAPS_MS
    }
    for stream in range(ops.STREAMS):
        gaps = ops.GAPS_MS if stream < ops.SWEEP_STREAMS else (ops.NOMINAL_GAP_MS,)
        for gap in gaps:
            nominal = gap == ops.NOMINAL_GAP_MS
            fingerprint, queries, wall = serve_once(
                bench, out, bench.requests(seed, gap, stream),
                serve_key(seed, stream, gap), nominal=nominal,
            )
            if nominal:
                records.append({"cold": False, "wall_s": wall, **fingerprint})
            into = per_gap[gap]
            latency = queries["latency_ms"] or [float("inf")]
            into["p50"].append(percentile(latency, 50))
            into["p80"].append(percentile(latency, 80))
            into["wait_p50"].append(percentile(queries["queue_wait_ms"] or [0.0], 50))
            into["throughput_btps"] += queries["throughput_btps"]
            into["bisection_utilization"].append(fingerprint["bisection_utilization"])
            into["shed"] += fingerprint["shed"]
            into["lost"] += ops.SERVE_QUERIES - fingerprint["completed"] - fingerprint["shed"]
            for name in ("in_flight_peak", "queue_peak"):
                into[name] = max(into[name], fingerprint[name])
    at = per_gap[ops.NOMINAL_GAP_MS]
    meets = [
        1e3 / gap
        for gap, into in per_gap.items()
        if into["shed"] == 0 and into["lost"] == 0
        and statistics.fmean(into["p80"]) <= ops.LATENCY_LIMIT_MS
    ]
    return {
        "latency_p50_ms": statistics.fmean(at["p50"]),
        "latency_p80_ms": statistics.fmean(at["p80"]),
        "throughput_btps": median(at["throughput_btps"]),
        "bisection_utilization": statistics.fmean(at["bisection_utilization"]),
        "capacity_qps": max(meets, default=0.0),
        "serve.queue_wait_ms.p50": statistics.fmean(at["wait_p50"]),
        "serve.in_flight_peak": at["in_flight_peak"],
        "serve.queue_peak": at["queue_peak"],
        **{shed_name(gap): into["shed"] for gap, into in per_gap.items()},
    }


def serve_run(bench, args) -> dict:
    """Cold scheduler run, the fixed streams, warm runs (``--probe``: cold only)."""
    out = Tally()
    bench.setup()
    first = bench.requests(args.seed, ops.NOMINAL_GAP_MS)
    key = serve_key(args.seed, 0, ops.NOMINAL_GAP_MS)
    fingerprint, _, wall = serve_once(bench, out, first, key, check=not args.probe,
                                      ready=True)
    loop_started = time.perf_counter()
    out.records.append({"cold": True, "wall_s": wall, **fingerprint})
    if args.probe:
        return finish(out)
    sim = serve_streams(bench, out, args.seed, out.records)
    stream = 0
    while time.perf_counter() - loop_started < args.budget and len(out.records) < 200:
        requests = bench.requests(args.seed, ops.NOMINAL_GAP_MS, stream)
        fingerprint, _, wall = serve_once(
            bench, out, requests, serve_key(args.seed, stream, ops.NOMINAL_GAP_MS)
        )
        out.records.append({"cold": False, "wall_s": wall, **fingerprint})
        stream = (stream + 1) % ops.STREAMS
    return finish(out, sim=sim)


def serve_trace(bench, args) -> dict:
    out = Tally()
    tracer = LayerTracer()
    bench.setup()
    requests = bench.requests(args.seed, ops.NOMINAL_GAP_MS)
    key = serve_key(args.seed, 0, ops.NOMINAL_GAP_MS)
    serve_once(bench, out, requests, key, tracer=tracer, ready=True)
    cold = cold_metrics(tracer)
    sim = serve_streams(bench, out, args.seed, [])
    layers: list[dict] = []
    walls = {"untraced": [], "traced": [], "observed": []}
    loop_started = time.perf_counter()
    index = 1
    while True:
        runs = ("untraced", "traced") if index % 2 else ("traced", "untraced")
        for kind in runs:
            fingerprint, _, wall = serve_once(
                bench, out, requests, key,
                tracer=tracer if kind == "traced" else None,
            )
            walls[kind].append(wall)
            if kind == "traced":
                layer = layer_metrics(tracer, fingerprint)
                layer["serve.self_s_per_query"] = (
                    tracer.self_seconds("serve.") / ops.SERVE_QUERIES
                )
                layers.append(layer)
        _, _, wall = serve_once(bench, out, requests, key, observed=True)
        walls["observed"].append(wall)
        index += 1
        if time.perf_counter() - loop_started >= args.budget or index >= 100:
            break
    metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
    metrics.update(cold)
    metrics.update({name: value for name, value in sim.items() if name.startswith("serve.")})
    metrics["obs.overhead_ratio"] = median(walls["observed"]) / median(walls["untraced"])
    # Serving builds no conformance probe per query.
    metrics["obs.conformance_samples"] = 0
    metrics["trace.overhead_ratio"] = median(walls["traced"]) / median(walls["untraced"])
    return finish(out, metrics=metrics)


# ----------------------------------------------------------------------


def finish(out: Tally, **extra) -> dict:
    return {
        "event": "result",
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors[:10],
        "mismatches": out.mismatches[:10],
        "fingerprints": out.fingerprints,
        "records": out.records,
        "stamp": stamp(),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", choices=("run", "trace"), default="run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="stop after the cold operation (a setup_s sample)")
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args(argv)
    bench = ops.make(args.workload)
    if bench.kind == "join":
        result = (join_trace if args.mode == "trace" else join_run)(bench, args)
    else:
        result = (serve_trace if args.mode == "trace" else serve_run)(bench, args)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
