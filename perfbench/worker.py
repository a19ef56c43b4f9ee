"""One repetition of an in-process workload, in a fresh process.

Usage: ``python3 perfbench/worker.py SPEC_JSON OUT_JSON`` with ``src``
on ``PYTHONPATH``.  The worker imports ``repro``, builds a
``LocalService(jobs=1)`` on the result cache and runs directory named in
the spec, and prints ``ready`` once it can take its first query; the
parent times set-up from spawn to that line.  It then runs the spec's
ops as a closed loop (one op outstanding), each under a deadline, and
writes per-op latencies and payloads, and the op set's wall and CPU
time, to ``OUT_JSON``.  CPU time is the whole process's user plus system
time (``time.process_time``, every thread).

An op that misses its deadline counts as failed.  The service computes
cells on its one dispatcher thread, so a stuck op blocks every later
one: the worker marks the rest failed and exits without waiting for
the stuck thread.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import workloads


def guard_op(op: dict) -> list:
    """The ``ablation-guard`` verb's pipeline over every guard; its table rows."""
    from repro.experiments.ablations import run_guard_ablation
    from repro.technology import BankGeometry

    result = run_guard_ablation(
        geometry=BankGeometry(int(op["rows"]), int(op["cols"])),
        guards=tuple(float(g) for g in op["guards"]),
        seed=int(op["seed"]),
    )
    return [list(row) for row in result.rows]


def trace_lengths(ops: list[dict]) -> dict[str, int]:
    """Demand requests of every distinct trace the ops' cells replay."""
    from repro.sim import DRAMTiming
    from repro.technology import BankGeometry, TechnologyParams
    from repro.workloads import PARSEC_WORKLOADS, TraceGenerator

    out: dict[str, int] = {}
    for op in ops:
        params = op.get("query", {}).get("params", {})
        if not params.get("benchmark"):
            continue
        name = workloads.trace_name(params)
        if name not in out:
            timing = DRAMTiming.from_technology(TechnologyParams(**params["tech"]))
            geometry = BankGeometry(int(params["rows"]), int(params["cols"]))
            trace = TraceGenerator(
                PARSEC_WORKLOADS[params["benchmark"]], timing, geometry, int(params["seed"])
            ).generate(float(params["duration_seconds"]))
            out[name] = len(trace)
    return out


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    from repro.runner import ExperimentRunner, ResultCache, shared_build_cache_info
    from repro.service import LocalService, Query

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    service = LocalService(
        runner=ExperimentRunner(
            jobs=1, cache=ResultCache(spec["cache_dir"]), runs_dir=spec["runs_dir"]
        )
    )
    print("ready", flush=True)

    deadline = float(spec["deadline"])
    guards = ThreadPoolExecutor(max_workers=1, thread_name_prefix="guard")

    def run_guard(op: dict, key: str) -> list:
        if tracer is None:
            return guard_op(op)
        span = tracer.open("client.guard", key)
        try:
            return guard_op(op)
        finally:
            tracer.close(span)

    results: list[dict] = []
    stalled = False
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    for index, op in enumerate(spec["ops"]):
        if stalled:
            results.append({"ok": False, "error": "not run: an earlier op stalled the service"})
            continue
        query = Query.from_dict(op["query"]) if op["op"] == "query" else None
        span = None
        if tracer is not None:
            key = query.key() if query is not None else f"guard:{index}"
            span = tracer.open("client.op", key)
            tracer.link(key, span)
        start = time.perf_counter()
        if query is not None:
            future = service.submit_futures([query])[0]
        else:
            future = guards.submit(run_guard, op, span.key if span else "")
        try:
            value = future.result(timeout=deadline)
        except FutureTimeout:
            stalled = True
            results.append({"ok": False, "error": f"deadline of {deadline:g}s missed"})
            continue
        except Exception as exc:  # a failing op is a result, not a crash
            results.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            if span is not None:
                tracer.close(span)
        latency = time.perf_counter() - start
        if query is not None:
            results.append({
                "ok": value.ok, "latency_s": latency, "wall_seconds": value.wall_seconds,
                "cache_hit": value.cache_hit, "dedup_hit": value.dedup_hit,
                "payload": value.payload, "error": value.error,
            })
        else:
            results.append({"ok": True, "latency_s": latency, "payload": value})
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "memo": shared_build_cache_info(),
        "stats": service.snapshot(),
        "trace": tracer.dump() if tracer is not None else None,
        "trace_lengths": trace_lengths(spec["ops"]) if spec.get("trace_lengths") else None,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    if stalled:
        sys.stdout.flush()
        os._exit(3)
    guards.shutdown()
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
