"""End-to-end benchmark of the VRL-DRAM reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload request-path --seed 2018 --seconds 25 --trace 0

Each run builds its workload's op set from ``--seed`` (see
``workloads.py``), then repeats it in fresh processes until ``--seconds``
have been measured, each repetition on a cold result cache and runs
directory of its own under ``.perfbench/``.  In-process workloads run in
``worker.py`` (``LocalService(jobs=1)``); ``served-warm`` drives a
``vrl-dram serve`` subprocess with two closed-loop connections from this
process.  Every payload is checked: repetitions must agree bit for bit,
at the default seed their digest must equal the one in
``expected.json``, and at any seed a sample is recomputed another way.

``--trace 0`` prints the end-to-end metrics, medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (``tracing.py``), with the tracing
overhead.  The last line of standard output is the JSON result; the
lines before it give the environment, the tail percentile and its
sample count, the digest and the checks.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Native thread pools pinned to one thread, in this process and every child.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)
sys.path.insert(0, str(SRC))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Wall-clock budget of a whole run; repetitions stop early to keep it.
RUN_BUDGET_S = 165.0
#: Per-op deadline; a missed deadline is a failed op.
DEADLINE_S = 20.0
READY_TIMEOUT_S = 60.0
#: Set-up samples per run (repetitions plus set-up-only spawns).
SETUP_SAMPLES = 5
MIN_REPS = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "queries_per_s": "1/s",
    "query_ms_p50": "ms", "query_ms_tail": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.engine_s": "s", "sim.engine_requests": "count",
    "sim.engine_requests_per_s": "1/s", "sim.engine_share": "ratio",
    "sim.timeline_s": "s",
    "mprsf.rows_s": "s", "mprsf.rows_calls": "count", "mprsf.optimizer_s": "s",
    "controller.build_s": "s", "controller.build_calls": "count",
    "retention.profile_s": "s", "retention.profile_calls": "count",
    "retention.binning_s": "s", "retention.vrt_s": "s", "retention.vrt_share": "ratio",
    "workloads.trace_s": "s", "workloads.trace_requests": "count",
    "model.restored_fraction_calls": "count",
    "circuit.solve_s": "s", "circuit.lanes": "count",
    "runner.cell_s": "s", "runner.self_s": "s",
    "runner.memo_hit_ratio": "ratio", "runner.cache_hit_ratio": "ratio",
    "service.wait_s": "s", "service.dedup_ratio": "ratio", "service.batches": "count",
    "sim_requests_per_s": "1/s", "sim_cycles_per_s": "1/s",
    "traced_wall_s": "s", "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["VRL_DRAM_CACHE"] = str(work / "default-cache")
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "threads": PINNED_THREADS["OMP_NUM_THREADS"],
        "seed": seed,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------- #
# Child processes                                                        #
# --------------------------------------------------------------------- #


def wait_line(proc: subprocess.Popen, prefix: str, timeout: float):
    """The first stdout line of ``proc`` starting with ``prefix``, or ``None``."""
    end = time.monotonic() + timeout
    while True:
        left = end - time.monotonic()
        if left <= 0:
            return None
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if not ready:
            return None
        line = proc.stdout.readline()
        if not line:
            return None
        if line.startswith(prefix):
            return line


def reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for ``proc``; kill it if it outlives ``timeout``."""
    try:
        proc.wait(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def spawn(cmd: list, rep: Path, env: dict) -> subprocess.Popen:
    with open(rep / "stderr.txt", "w") as err:
        return subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            text=True, cwd=rep, env=env,
        )


def inprocess_rep(ops: list, work: Path, env: dict, trace: bool, budget: float,
                  lengths: bool = False) -> dict:
    """One repetition in a fresh ``worker.py`` process."""
    rep = Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    spec = {
        "ops": ops, "trace": trace, "deadline": DEADLINE_S, "trace_lengths": lengths,
        "cache_dir": str(rep / "cache"), "runs_dir": str(rep / "runs"),
    }
    (rep / "spec.json").write_text(json.dumps(spec))
    out = rep / "out.json"
    t0 = time.perf_counter()
    proc = spawn([sys.executable, str(BENCH / "worker.py"), str(rep / "spec.json"), str(out)], rep, env)
    try:
        ready = wait_line(proc, "ready", min(READY_TIMEOUT_S, budget))
        setup = time.perf_counter() - t0 if ready else None
        reap(proc, budget - (time.perf_counter() - t0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if setup is None:
        raise BenchmarkError(f"worker never became ready: {(rep / 'stderr.txt').read_text()[-2000:]}")
    record = json.loads(out.read_text()) if out.exists() else {"results": [], "wall_s": None}
    record["setup_s"] = setup
    record["elapsed_s"] = time.perf_counter() - t0
    return record


SERVE_BANNER = "vrl-dram service listening on "


def start_server(rep: Path, env: dict, trace: bool):
    args = ["--port", "0", "--jobs", "1", "--cache-dir", str(rep / "cache"),
            "--runs-dir", str(rep / "runs")]
    if trace:
        cmd = [sys.executable, str(BENCH / "serve_traced.py"), str(rep / "spans.json"), *args]
    else:
        cmd = [sys.executable, "-m", "repro.experiments.cli", "serve", *args]
    t0 = time.perf_counter()
    proc = spawn(cmd, rep, env)
    banner = wait_line(proc, SERVE_BANNER, READY_TIMEOUT_S)
    setup = time.perf_counter() - t0
    if banner is None:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"server never listened: {(rep / 'stderr.txt').read_text()[-2000:]}")
    host, _, port = banner[len(SERVE_BANNER):].split()[0].rpartition(":")
    return proc, setup, host, int(port)


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("no VmHWM in /proc status")


def served_rep(plan: dict, work: Path, env: dict, trace: bool, budget: float) -> dict:
    """One repetition of ``served-warm``: a fresh server, warmed, then timed."""
    from repro.service import Query, RemoteClient, ServiceError

    rep = Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    started = time.perf_counter()
    proc, setup, host, port = start_server(rep, env, trace)
    tracer = tracing.Tracer() if trace else None
    n_warm = len(plan["warm"])
    conns = plan["connections"]
    results: list = [[None] * len(ops) for ops in conns]
    barrier = threading.Barrier(len(conns))

    def connection(c: int) -> None:
        ops = conns[c]
        try:
            client = RemoteClient(host, port, timeout=DEADLINE_S)
        except ServiceError as exc:
            barrier.abort()
            results[c] = [{"ok": False, "error": str(exc)}] * len(ops)
            return
        with client:
            for i, op in enumerate(ops):
                query = Query.from_dict(op["query"])
                try:
                    if op.get("duplicate"):
                        barrier.wait(timeout=DEADLINE_S)
                    span = tracer.open("client.op", query.key()) if tracer else None
                    t0 = time.perf_counter()
                    try:
                        value = client.query(query)
                    finally:
                        if span is not None:
                            tracer.close(span)
                    results[c][i] = {
                        "ok": value.ok, "latency_s": time.perf_counter() - t0,
                        "wall_seconds": value.wall_seconds, "cache_hit": value.cache_hit,
                        "dedup_hit": value.dedup_hit, "payload": value.payload,
                        "error": value.error,
                    }
                except (ServiceError, threading.BrokenBarrierError, OSError) as exc:
                    barrier.abort()
                    for j in range(i, len(ops)):
                        results[c][j] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                    return

    record: dict = {"setup_s": setup}
    try:
        with RemoteClient(host, port, timeout=DEADLINE_S) as control:
            warm = control.sweep([Query.from_dict(op["query"]) for op in plan["warm"]])
            warm_results = [
                {"ok": o.ok, "payload": o.payload, "error": o.error} for o in warm.outcomes
            ]
            threads = [
                threading.Thread(target=connection, args=(c,), daemon=True)
                for c in range(len(conns))
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=max(budget - (time.perf_counter() - started), 1.0))
            record["wall_s"] = time.perf_counter() - t0
            if any(t.is_alive() for t in threads):
                raise BenchmarkError("served-warm connections outlived the run budget")
            record["stats"] = control.stats()
            record["peak_rss_mb"] = peak_rss_mb(proc.pid)
            control.shutdown_server(drain=True)
        reap(proc, 30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    timed = [r for conn in results for r in conn]
    record["results"] = warm_results + timed
    record["timed_from"] = n_warm
    if trace:
        server = json.loads((rep / "spans.json").read_text())
        record["trace"] = {
            "spans": tracing.merge(server["spans"], tracer.dump()["spans"]),
            "counters": server["counters"],
        }
        record["memo"] = server["memo"]
    record["elapsed_s"] = time.perf_counter() - started
    return record


def setup_probe(workload: str, work: Path, env: dict) -> float:
    """Set-up time of one extra spawn that serves nothing."""
    if workload == "served-warm":
        rep = Path(tempfile.mkdtemp(prefix="probe-", dir=work))
        proc, setup, _, _ = start_server(rep, env, trace=False)
        proc.terminate()
        reap(proc, 30.0)
        return setup
    return inprocess_rep([], work, env, trace=False, budget=READY_TIMEOUT_S)["setup_s"]


# --------------------------------------------------------------------- #
# Checks                                                                 #
# --------------------------------------------------------------------- #


def flat_ops(workload: str, plan) -> list:
    if workload == "served-warm":
        return plan["warm"] + [op for conn in plan["connections"] for op in conn]
    return plan


def verify(reps: list, n_ops: int, workload: str, seed: int):
    """Check every op of every repetition; returns
    ``(correct, attempted, failed, payloads, notes)``.

    An op fails when it has no payload or when its payload differs from
    the first good payload of the same op.  At the default seed the
    digest of the payloads must equal the one in ``expected.json``; a
    mismatch cannot be pinned on one op, so every op counts as failed.
    """
    attempted = failed = 0
    notes: list[str] = []
    reference: list = [None] * n_ops
    for rep in reps:
        results = list(rep["results"]) + [None] * (n_ops - len(rep["results"]))
        for i, result in enumerate(results):
            attempted += 1
            if not result or not result.get("ok"):
                failed += 1
                notes.append(f"failed op {i}: {(result or {}).get('error', 'no result')}")
                continue
            text = measure.canonical(result["payload"])
            if reference[i] is None:
                reference[i] = text
            elif text != reference[i]:
                failed += 1
                notes.append(f"op {i}: payload differs between repetitions")
    payloads = [json.loads(t) if t is not None else None for t in reference]
    digest = measure.digest(payloads)
    notes.append(f"digest {workload} seed={seed} {digest}")
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads((BENCH / "expected.json").read_text()).get(workload)
        if digest != expected:
            failed = attempted
            notes.append(f"digest mismatch: expected {expected}")
    return failed == 0, attempted, failed, payloads, notes


#: Horizon of the request-path cross-check cells: more than two 64 ms
#: refresh windows, so rows refresh repeatedly and VRL's counters, the
#: MPRSF full-refresh cadence, RAIDR's longer bins and DARP's deferral
#: across windows all run (the timed cells are shorter).
CROSS_CHECK_SECONDS = 0.15


def cross_checks(workload: str, ops: list, payloads: list, seed: int) -> list[str]:
    """Recompute a sample of payloads another way; returns the mismatches.

    ``request-path`` takes one sampled cell per mechanism: its timed
    payload, and the same cell recomputed at :data:`CROSS_CHECK_SECONDS`,
    must each carry the refresh statistics ``RefreshOverheadEvaluator``
    gives for the cell's policy and trace.  Runs after the timed region.
    """
    from repro.runner.cells import compute_cell

    rng = random.Random(seed ^ 0x5EED)
    problems = []
    indices = [i for i, op in enumerate(ops) if op["op"] == "query" and payloads[i] is not None]
    if workload == "request-path":
        by_mechanism: dict[str, list[int]] = {}
        for i in indices:
            by_mechanism.setdefault(ops[i]["query"]["params"]["mechanism"], []).append(i)
        for mechanism, group in sorted(by_mechanism.items()):
            i = rng.choice(group)
            if engine_refresh(ops[i]["query"]) != payloads[i]["refresh"]:
                problems.append(f"op {i}: engine refresh statistics differ from the fused evaluator")
            q = ops[i]["query"]
            long = dict(q, params=dict(q["params"], duration_seconds=CROSS_CHECK_SECONDS))
            if engine_refresh(long) != compute_cell(long["kind"], long["params"])["refresh"]:
                problems.append(
                    f"op {i} ({mechanism}) at {CROSS_CHECK_SECONDS:g} s: engine refresh "
                    "statistics differ from the fused evaluator"
                )
    else:
        sample = indices[:1] if workload == "integrity-calibrate" else rng.sample(indices, 3)
        for i in sample:
            q = ops[i]["query"]
            if measure.canonical(compute_cell(q["kind"], q["params"])) != measure.canonical(payloads[i]):
                problems.append(f"op {i}: served payload differs from compute_cell")
    return problems


def engine_refresh(query: dict) -> dict:
    """Refresh statistics of a matrix cell from ``RefreshOverheadEvaluator``.

    Rebuilds the cell's policy and trace through the public API; the
    cell itself ran the cycle-level engine, and the two must agree.
    """
    from repro.controller import MECHANISMS
    from repro.retention import RefreshBinning, RetentionProfiler
    from repro.retention.temperature import TemperatureModel
    from repro.sim import DRAMTiming, RefreshOverheadEvaluator
    from repro.technology import BankGeometry, TechnologyParams
    from repro.workloads import PARSEC_WORKLOADS, TraceGenerator

    p = query["params"]
    tech = TechnologyParams(**p["tech"])
    timing = DRAMTiming.from_technology(tech)
    geometry = BankGeometry(p["rows"], p["cols"])
    profile = TemperatureModel().scale_profile(
        RetentionProfiler(seed=p["seed"]).profile(geometry), p["temperature"]
    )
    policy = MECHANISMS.build(
        p["mechanism"], tech, profile, RefreshBinning().assign(profile), nbits=p["nbits"]
    )
    trace = TraceGenerator(PARSEC_WORKLOADS[p["benchmark"]], timing, geometry, p["seed"]).generate(
        p["duration_seconds"]
    )
    stats = RefreshOverheadEvaluator(policy, timing).evaluate(timing.cycles(p["duration_seconds"]), trace)
    return {
        "full_refreshes": stats.full_refreshes,
        "partial_refreshes": stats.partial_refreshes,
        "refresh_cycles": stats.refresh_cycles,
        "duration_cycles": stats.duration_cycles,
    }


# --------------------------------------------------------------------- #
# Metrics                                                                #
# --------------------------------------------------------------------- #


def timed_results(rep: dict) -> list:
    return rep["results"][rep.get("timed_from", 0):]


def end_to_end(reps: list, setups: list) -> tuple[dict, dict]:
    """The end-to-end metrics of a run's untraced repetitions.

    Each op's latency is its median over the repetitions; the p50 and
    the tail are taken over those per-op medians, so the tail percentile
    depends only on the size of the op set.
    """
    walls = [rep["wall_s"] for rep in reps]
    timed = [timed_results(rep) for rep in reps]
    per_op = [
        measure.median(r["latency_s"] * 1000.0 for r in op if r and r.get("ok"))
        for op in zip(*timed)
        if any(r and r.get("ok") for r in op)
    ]
    tail, percentile, n = measure.tail(per_op)
    metrics = {
        "setup_s": measure.median(setups),
        "wall_s": measure.median(walls),
        "queries_per_s": measure.median(len(t) / w for t, w in zip(timed, walls)),
        "query_ms_p50": measure.median(per_op),
        "query_ms_tail": tail,
        "peak_rss_mb": measure.median(rep["peak_rss_mb"] for rep in reps),
    }
    return metrics, {
        "query_ms_tail": {"percentile": round(percentile, 2), "samples": n},
        "wall_s": [round(w, 4) for w in walls],
        "cpu_s": [round(rep["cpu_s"], 4) for rep in reps if "cpu_s" in rep],
        "setup_s": [round(s, 4) for s in setups],
    }


def sim_rates(workload: str, ops: list, rep: dict) -> tuple[float, float]:
    """Simulated demand requests and DRAM cycles per host second."""
    requests = cycles = 0
    for op, result in zip(ops, rep["results"]):
        payload = result.get("payload") if result else None
        if payload is None:
            continue
        if workload == "request-path":
            requests += payload["requests"]["n_requests"]
            cycles += payload["refresh"]["duration_cycles"]
        elif workload == "refresh-sweep":
            p = op["query"]["params"]
            cycles += payload["duration_cycles"]
            if p.get("benchmark"):
                requests += rep["trace_lengths"][workloads.trace_name(p)]
    return requests / rep["wall_s"], cycles / rep["wall_s"]


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    totals = tracing.layer_totals(rep["trace"]["spans"])

    def get(name: str, field: str = "self_s") -> float:
        return totals.get(name, {}).get(field, 0)

    timed = timed_results(rep)
    queries = [r for r in timed if r.get("ok") and "cache_hit" in r]
    memo = rep.get("memo") or {}
    memo_hits = sum(m["hits"] for m in memo.values())
    memo_all = memo_hits + sum(m["misses"] for m in memo.values())
    stats = rep.get("stats") or {}
    engine_s = get("sim.engine")
    return {
        "sim.engine_s": engine_s,
        "sim.engine_requests": get("sim.engine", "requests"),
        "sim.engine_requests_per_s": ratio(get("sim.engine", "requests"), engine_s),
        "sim.engine_share": ratio(get("sim.engine", "total_s"), get("runner.cell", "total_s")),
        "sim.timeline_s": get("sim.timeline"),
        "mprsf.rows_s": get("mprsf.rows"),
        "mprsf.rows_calls": get("mprsf.rows", "calls"),
        "mprsf.optimizer_s": get("mprsf.optimizer"),
        "controller.build_s": get("controller.build"),
        "controller.build_calls": get("controller.build", "calls"),
        "retention.profile_s": get("retention.profile"),
        "retention.profile_calls": get("retention.profile", "calls"),
        "retention.binning_s": get("retention.binning"),
        "retention.vrt_s": get("retention.vrt"),
        "retention.vrt_share": ratio(get("retention.vrt", "total_s"), rep["wall_s"]),
        "workloads.trace_s": get("workloads.trace"),
        "workloads.trace_requests": get("workloads.trace", "requests"),
        "model.restored_fraction_calls": rep["trace"]["counters"].get("model.restored_fraction", 0),
        "circuit.solve_s": get("circuit.solve"),
        "circuit.lanes": get("circuit.solve", "lanes"),
        "runner.cell_s": get("runner.cell"),
        "runner.self_s": get("runner.run"),
        "runner.memo_hit_ratio": ratio(memo_hits, memo_all),
        "runner.cache_hit_ratio": ratio(sum(1 for r in queries if r["cache_hit"]), len(queries)),
        "service.wait_s": sum(r["latency_s"] - r["wall_seconds"] for r in queries),
        "service.dedup_ratio": ratio(stats.get("dedup_hits", 0), stats.get("queries", 0)),
        "service.batches": stats.get("batches", 0),
        "traced_wall_s": rep["wall_s"],
    }


# --------------------------------------------------------------------- #
# The run                                                                #
# --------------------------------------------------------------------- #


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    env = child_env(work)
    details = [f"environment {json.dumps(environment(seed), sort_keys=True)}"]
    try:
        plan = workloads.generate(workload, seed)
        ops = flat_ops(workload, plan)

        def one_rep(traced: bool, lengths: bool = False) -> dict:
            budget = RUN_BUDGET_S - (time.perf_counter() - started)
            if workload == "served-warm":
                return served_rep(plan, work, env, traced, budget)
            return inprocess_rep(plan, work, env, traced, budget, lengths)

        reps: list[dict] = []
        t_measure = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            lengths = trace and len(reps) == 0 and workload == "refresh-sweep"
            rep = one_rep(traced, lengths)
            rep["traced"] = traced
            reps.append(rep)
            elapsed = time.perf_counter() - t_measure
            spent = time.perf_counter() - started
            last = rep["elapsed_s"]
            if len(reps) >= MIN_REPS and elapsed + last > seconds:
                break
            if spent + 1.5 * last > RUN_BUDGET_S - 20 or any(r["wall_s"] is None for r in reps):
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES and time.perf_counter() - started < RUN_BUDGET_S - 30:
            setups.append(setup_probe(workload, work, env))

        correct, attempted, failed, payloads, notes = verify(reps, len(ops), workload, seed)
        details.extend(notes)
        if correct:
            problems = cross_checks(workload, ops, payloads, seed)
            details.extend(problems)
            failed += len(problems)
            correct = not problems

        if trace:
            plain = [r for r in reps if not r["traced"]]
            traced_reps = [r for r in reps if r["traced"]]
            if not traced_reps or any(r["wall_s"] is None for r in reps):
                raise BenchmarkError("no complete traced repetition")
            rows = [layer_metrics(r) for r in traced_reps]
            metrics = {name: measure.median(row[name] for row in rows) for name in rows[0]}
            untraced_wall = measure.median(r["wall_s"] for r in plain)
            requests, cycles = sim_rates(workload, ops, plain[0])
            metrics["sim_requests_per_s"] = requests
            metrics["sim_cycles_per_s"] = cycles
            metrics["trace.overhead_s"] = metrics["traced_wall_s"] - untraced_wall
            metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced_wall
            units = PER_LAYER
            details.append(
                f"tracing overhead {metrics['trace.overhead_s']:.4f} s "
                f"({100 * metrics['trace.overhead_ratio']:.1f}% of untraced wall_s {untraced_wall:.4f} s)"
            )
            (OUT / f"{workload}.spans.json").write_text(json.dumps(traced_reps[-1]["trace"]))
        else:
            try:
                metrics, info = end_to_end(reps, setups)
                details.append(f"measurement {json.dumps(info, sort_keys=True)}")
            except (TypeError, ValueError):  # a repetition without timings
                metrics = {}
            units = END_TO_END
        if set(metrics) != set(units):
            # A run that could not finish its op set has no timing to report.
            correct = False
            metrics = {name: metrics.get(name, 0.0) for name in units}
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        return result, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in details:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
