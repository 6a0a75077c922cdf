"""Benchmark entry point: one workload, end to end or per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload join-dgx1-256k --seed 1 --seconds 10 --trace 0

``--seed`` (default 1) derives every input of the run; the same seed
gives the same inputs and, on the same code, the same counts and
simulated figures.  ``--trace 0`` measures the untraced program in
:data:`SETUP_PROBES` fresh interpreters, one after the other, each
timing its own cold start and reading its peak memory through the end
of the first operation; the first then measures warm operations for
``--seconds``.  ``--trace 1`` runs one interpreter with the layer spans
of ``tracing.py`` and reports the per-layer metrics.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before
it stamp the run (versions, ``nproc``, seed, engine) and summarise
failures.  A run is incorrect when any join or query result differs
from the oracle, or when a count or simulated figure differs from an
earlier computation of the same input: in this run, or in an earlier
run on the same source tree (``.bench_state/ledger.json``, which keeps
the last :data:`LEDGER_TREES` trees, so runs of one commit are compared
even when runs of other commits come between them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("join-dgx1-256k", "join-multinode-observed", "serve-dgx1-contended")
#: Fresh interpreters per untraced run; ``setup_s`` and ``peak_rss_mb``
#: are their medians.
SETUP_PROBES = 3
#: Calls whose simulated figures make the ``sim_*`` metrics of a join
#: workload: the cold call and the first warm ones, all seed-determined.
FIXED_CALLS = 3
#: Wall-clock limit for the whole run, kept under the 180 s contract.
DEADLINE_S = 170.0
#: Source trees whose fingerprints the determinism ledger keeps.
LEDGER_TREES = 8
LEDGER = ROOT / ".bench_state" / "ledger.json"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "fraction",
    "join_wall_s": "s",
    "host_packets_per_s": "1/s",
    "serve_queries_per_s": "1/s",
    "sim_join_throughput_btps": "Btuples/s",
    "sim_bisection_utilization": "fraction",
    "sim_serve_latency_ms.p50": "ms",
    "sim_serve_latency_ms.p80": "ms",
    "sim_serve_capacity_qps": "1/s",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "topology.bisection_cut_s": "s",
    "topology.maxflow_calls": "count",
    "routing.choose_route_s": "s",
    "routing.arm_decisions": "count",
    "routing.avg_hops": "hops",
    "sim.engine_s": "s",
    "sim.events": "count",
    "sim.events_per_packet": "count",
    "sim.ns_per_event": "ns",
    "sim.packets": "count",
    "sim.link_bookings": "count",
    "sim.board_broadcasts": "count",
    "core.histogram_s": "s",
    "core.assignment_s": "s",
    "core.distribution_s": "s",
    "core.local_partition_s": "s",
    "core.probe_s": "s",
    "core.digest_s": "s",
    "core.matches": "count",
    "serve.self_s_per_query": "s",
    "serve.queue_wait_ms.p50": "ms",
    "serve.in_flight_peak": "count",
    "serve.queue_peak": "count",
    "serve.shed.gap_0.5ms": "count",
    "serve.shed.gap_0.3ms": "count",
    "serve.shed.gap_0.2ms": "count",
    "obs.self_s": "s",
    "obs.overhead_ratio": "ratio",
    "obs.conformance_samples": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    # The benchmark measures the default engine.
    for name in ("REPRO_ENGINE", "REPRO_ENGINE_BACKEND", "REPRO_WORKLOAD_CACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, dict]:
    """Run one worker; return its ready event, with the seconds from
    spawn to it as ``setup_s``, and its result."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            try:
                message = json.loads(line)
            except ValueError:  # output of the program itself, not the worker's
                continue
            if not isinstance(message, dict):
                continue
            if message.get("event") == "ready" and ready is None:
                ready = {**message, "setup_s": time.perf_counter() - started}
            elif message.get("event") == "result":
                result = message
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"worker {args} ran past the run deadline")
    if code != 0 or result is None or ready is None:
        raise BenchError(f"worker {args} exited with code {code} and no result")
    return ready, result


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    if position == low:  # also keeps an infinite value from becoming nan
        return float(ordered[low])
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (position - low)


def join_metrics(records: list[dict]) -> dict:
    warm = [r for r in records if not r["cold"]]
    if not warm:
        raise BenchError("no warm join completed")
    # Simulated figures come from a seed-determined set of calls, so
    # they repeat exactly however many calls the host finished.
    fixed = sorted({r["seed"]: r for r in records}.values(), key=lambda r: r["seed"])
    fixed = fixed[:FIXED_CALLS]
    return {
        "join_wall_s": median(r["wall_s"] for r in warm),
        "host_packets_per_s": median(r["packets"] / r["wall_s"] for r in warm),
        "serve_queries_per_s": len(warm) / sum(r["gen_s"] + r["wall_s"] for r in warm),
        "sim_join_throughput_btps": median(r["throughput_btps"] for r in fixed),
        "sim_bisection_utilization": median(r["bisection_utilization"] for r in fixed),
        "sim_serve_latency_ms.p50": percentile([r["join_time_ms"] for r in fixed], 50),
        "sim_serve_latency_ms.p80": percentile([r["join_time_ms"] for r in fixed], 80),
        "sim_serve_capacity_qps": len(fixed) / sum(r["join_time_ms"] / 1e3 for r in fixed),
    }


def serve_metrics(records: list[dict], sim: dict) -> dict:
    warm = [r for r in records if not r["cold"]]
    if not warm:
        raise BenchError("no warm scheduler run completed")
    return {
        "join_wall_s": median(r["wall_s"] / r["completed"] for r in warm),
        "host_packets_per_s": median(r["packets"] / r["wall_s"] for r in warm),
        "serve_queries_per_s": median(r["completed"] / r["wall_s"] for r in warm),
        "sim_join_throughput_btps": sim["throughput_btps"],
        "sim_bisection_utilization": sim["bisection_utilization"],
        "sim_serve_latency_ms.p50": sim["latency_p50_ms"],
        "sim_serve_latency_ms.p80": sim["latency_p80_ms"],
        "sim_serve_capacity_qps": sim["capacity_qps"],
    }


# ----------------------------------------------------------------------
# Determinism ledger
# ----------------------------------------------------------------------


def tree_hash() -> str:
    """Content hash of the program and the benchmark."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def merge_fingerprints(into: dict, new: dict, mismatches: list[str]) -> None:
    """Merge ``{key: fingerprint}``; a value differing from a known one
    for the same key is recorded in ``mismatches``."""
    for key, fingerprint in new.items():
        known = into.setdefault(key, {})
        for name, value in fingerprint.items():
            if name in known and known[name] != value:
                mismatches.append(f"{key}: {name} {known[name]!r} != {value!r}")
            known.setdefault(name, value)


def check_ledger(path: pathlib.Path, tree: str, workload: str, fingerprints: dict,
                 mismatches: list[str]) -> None:
    """Compare with earlier runs on source tree ``tree``, then record this one.

    The ledger maps tree -> workload -> key -> fingerprint and keeps the
    :data:`LEDGER_TREES` most recently run trees.
    """
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    # Reinserted last, so the oldest tree is the first one dropped.
    workloads = ledger.pop(tree, {})
    ledger[tree] = workloads
    for old in list(ledger)[:-LEDGER_TREES]:
        del ledger[old]
    known = workloads.setdefault(workload, {})
    before = len(mismatches)
    merge_fingerprints(known, fingerprints, mismatches)
    for message in mismatches[before:]:
        print(f"determinism: differs from an earlier run: {message}", file=sys.stderr)
    path.parent.mkdir(exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(ledger))
    scratch.replace(path)


# ----------------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        _, result = spawn(
            [*common, "--mode", "trace", "--budget", str(args.seconds)], deadline
        )
        results = [result]
        readies = []
    else:
        results, readies = [], []
        for probe in range(SETUP_PROBES):
            extra = ["--probe"] if probe else ["--budget", str(args.seconds)]
            ready, result = spawn([*common, "--mode", "run", *extra], deadline)
            readies.append(ready)
            results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    mismatches = [m for r in results for m in r["mismatches"]]
    fingerprints: dict = {}
    for result in results:
        merge_fingerprints(fingerprints, result["fingerprints"], mismatches)
    check_ledger(LEDGER, tree_hash(), args.workload, fingerprints, mismatches)
    if args.trace:
        values = results[0]["metrics"]
        units = PER_LAYER
    else:
        records = [r for result in results for r in result["records"]]
        if args.workload.startswith("serve"):
            values = serve_metrics(records, results[0]["sim"])
        else:
            values = join_metrics(records)
        values["setup_s"] = median(r["setup_s"] for r in readies)
        values["peak_rss_mb"] = median(r["rss_mb"] for r in readies)
        values["success_share"] = 1.0 - failed / attempted
        units = END_TO_END
    summary = {
        "failed_share": failed / attempted,
        "setup_samples_s": [r["setup_s"] for r in readies],
        "warm_wall_samples_s": [
            r["wall_s"] for result in results for r in result["records"] if not r["cold"]
        ],
        "errors": [e for r in results for e in r["errors"]][:5],
        "determinism_mismatches": mismatches[:5],
    }
    line = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stamp = {**results[0]["stamp"], "seed": args.seed, "workload": args.workload,
             "trace": args.trace, "seconds": args.seconds}
    return {"stamp": stamp, "summary": summary}, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="MG-Join repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        header, line = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(header))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
