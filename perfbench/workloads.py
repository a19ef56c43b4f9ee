"""The benchmark's four workloads: fixed operation sets made from a seed.

Each generator returns a list of *ops*, JSON-primitive dicts the worker
process executes in order.  Most ops are ``{"op": "query", "query":
<Query wire form>}``; ``integrity-calibrate`` adds ``{"op": "guard"}``
ops, one per profiled bank, that each call the ``ablation-guard`` verb's
``run_guard_ablation`` directly, because that pipeline is not a cell
kind.  ``served-warm`` splits its ops into a warm
set and one closed-loop list per connection.

Every query goes through :func:`check_query`, which refuses anything
outside the validated ranges (``nbits`` 1–5, finite positive durations,
registered benchmark and mechanism names), so a later change that
tightens validation at the service boundary cannot change what this
benchmark sends, or its failure count.
"""

from __future__ import annotations

import math
import random
from typing import Any

#: Seed whose payload digests are recorded in ``expected.json``.
DEFAULT_SEED = 2018

WORKLOADS = ("request-path", "refresh-sweep", "integrity-calibrate", "served-warm")

#: ``request-path``: the rival mechanisms of the matrix × a light,
#: a refresh-hostile, a write-heavy (bgsave, 55% writes) and a
#: read-heavy workload × nominal and worst-case temperature.
REQUEST_MECHANISMS = ("fixed", "raidr", "vrl", "vrl-access", "darp", "chargecache", "avatar")
REQUEST_BENCHMARKS = ("swaptions", "canneal", "bgsave", "streamcluster")
REQUEST_TEMPERATURES = (45.0, 85.0)
#: Simulated horizon of one matrix cell; the engine's cost is linear in it.
REQUEST_SECONDS = 0.02

#: ``refresh-sweep``: policies the fused timeline prices, every trace
#: plus refresh-only, every counter width the ablation exercises.
SWEEP_POLICIES = ("fixed", "raidr", "vrl", "vrl-access", "avatar")
SWEEP_NBITS = (1, 2, 4, 5)
SWEEP_PROFILE_SEEDS = 2

#: ``integrity-calibrate``: guard values of the ``ablation-guard`` verb,
#: over two banks of differently seeded profiles, each smaller than the
#: verb's 8192 rows so a run repeats the op set several times.  Two
#: guard ops of about the cost of the 64-lane calibration keep the
#: workload's median query from resting on one op.
GUARDS = (1.0, 0.9, 0.75, 0.6)
GUARD_ROWS = 512
GUARD_BANKS = 2
CALIBRATION_LANES = (16, 64)

#: ``served-warm``: every 7th key of the 280-key universe is warmed
#: before timing, every 7th (offset 1) is an in-flight duplicate (both
#: connections send it at once), and two more strides are each
#: connection's cold keys: 40 keys each, so of 400 ops per connection
#: 10% are duplicates, 10% cold and 80% warm hits.
SERVED_KEY_STRIDE = 7
SERVED_OPS_PER_CONNECTION = 400
SERVED_ROWS = 2048
SERVED_SECONDS = 0.25

GEOMETRY = (8192, 32)


def check_query(query) -> None:
    """Raise ``ValueError`` unless ``query`` is inside the validated ranges."""
    from repro.controller import MECHANISMS
    from repro.workloads import PARSEC_WORKLOADS

    if query.kind in ("refresh-overhead", "engine-run", "mechanism-matrix"):
        if not 1 <= int(query.nbits) <= 5:
            raise ValueError(f"nbits {query.nbits} outside 1-5")
        duration = float(query.duration_seconds)
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration {duration} is not finite and positive")
        if query.benchmark is not None and query.benchmark not in PARSEC_WORKLOADS:
            raise ValueError(f"unknown benchmark {query.benchmark!r}")
        name = query.mechanism if query.kind == "mechanism-matrix" else query.policy
        if name not in MECHANISMS.names():
            raise ValueError(f"unregistered mechanism {name!r}")
    elif query.kind == "calibration-sweep":
        if not 1 <= int(query.n_points) <= 256:
            raise ValueError(f"n_points {query.n_points} outside 1-256")
        if not 0 < query.start_lo <= query.start_hi < 1:
            raise ValueError(f"start range {query.start_lo}-{query.start_hi} outside (0, 1)")
    else:
        raise ValueError(f"query kind {query.kind!r} is not used by this benchmark")


def trace_name(params: dict) -> str:
    """Identity of the workload trace a query's cell replays."""
    return "/".join(str(params[k]) for k in ("benchmark", "seed", "rows", "cols", "duration_seconds"))


def _query_op(**fields: Any) -> dict:
    from repro.service import Query
    from repro.technology import DEFAULT_TECH

    rows, cols = fields.pop("rows", GEOMETRY[0]), fields.pop("cols", GEOMETRY[1])
    query = Query(tech=DEFAULT_TECH, rows=rows, cols=cols, **fields)
    check_query(query)
    return {"op": "query", "query": query.to_dict()}


def _seeds(rng: random.Random, n: int) -> list[int]:
    seeds: list[int] = []
    while len(seeds) < n:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def request_path(seed: int) -> list[dict]:
    (profile_seed,) = _seeds(random.Random(seed), 1)
    return [
        _query_op(
            kind="mechanism-matrix", mechanism=mechanism, nbits=2,
            benchmark=benchmark, temperature=temperature, seed=profile_seed,
            duration_seconds=REQUEST_SECONDS,
        )
        for benchmark in REQUEST_BENCHMARKS
        for temperature in REQUEST_TEMPERATURES
        for mechanism in REQUEST_MECHANISMS
    ]


def _sweep_benchmarks() -> list:
    from repro.workloads import PARSEC_WORKLOADS

    return list(PARSEC_WORKLOADS) + [None]


def refresh_sweep(seed: int) -> list[dict]:
    return [
        _query_op(
            kind="refresh-overhead", policy=policy, nbits=nbits,
            benchmark=benchmark, seed=profile_seed, duration_seconds=1.0,
        )
        for profile_seed in _seeds(random.Random(seed), SWEEP_PROFILE_SEEDS)
        for benchmark in _sweep_benchmarks()
        for nbits in SWEEP_NBITS
        for policy in SWEEP_POLICIES
    ]


def integrity_calibrate(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = [
        {"op": "guard", "guards": list(GUARDS), "rows": GUARD_ROWS, "cols": GEOMETRY[1],
         "seed": profile_seed}
        for profile_seed in _seeds(rng, GUARD_BANKS)
    ]
    start_lo = rng.choice((0.65, 0.70, 0.75))
    start_hi = rng.choice((0.90, 0.95))
    ops += [
        _query_op(kind="calibration-sweep", start_lo=start_lo, start_hi=start_hi,
                  n_points=lanes)
        for lanes in CALIBRATION_LANES
    ]
    return ops


def served_warm(seed: int) -> dict:
    """Warm keys, and one op list per connection.

    The key universe splits by a fixed stride into the warm keys, the
    in-flight duplicates and each connection's cold keys, so every seed
    serves the same mix of policies, traces and counter widths; the seed
    picks the profiling seed, the order of the ops and which warm key
    each warm op repeats.  Both lists put their duplicates at the same
    positions; the load generator meets both connections at a barrier
    before each duplicate so the two copies are in flight together.
    """
    rng = random.Random(seed)
    (profile_seed,) = _seeds(rng, 1)
    universe = [
        _query_op(
            kind="refresh-overhead", policy=policy, nbits=nbits,
            benchmark=benchmark, seed=profile_seed, rows=SERVED_ROWS,
            duration_seconds=SERVED_SECONDS,
        )
        for benchmark in _sweep_benchmarks()
        for nbits in SWEEP_NBITS
        for policy in SWEEP_POLICIES
    ]
    warm, dups, *cold = (universe[k::SERVED_KEY_STRIDE] for k in range(4))
    for keys in (dups, *cold):
        rng.shuffle(keys)
    n = SERVED_OPS_PER_CONNECTION
    slots = list(range(n))
    rng.shuffle(slots)
    dup_slots = dict(zip(slots[:len(dups)], dups))
    slots = slots[len(dups):]
    cold_slots = []
    for keys in cold:
        cold_slots.append(dict(zip(slots[:len(keys)], keys)))
        slots = slots[len(keys):]
    connections: list[list[dict]] = [[], []]
    for i in range(n):
        if i in dup_slots:
            op = dict(dup_slots[i], duplicate=True)
            connections[0].append(op)
            connections[1].append(op)
            continue
        for c in (0, 1):
            connections[c].append(cold_slots[c].get(i) or rng.choice(warm))
    return {"warm": warm, "connections": connections}


GENERATORS = {
    "request-path": request_path,
    "refresh-sweep": refresh_sweep,
    "integrity-calibrate": integrity_calibrate,
    "served-warm": served_warm,
}


def generate(workload: str, seed: int):
    """The op set of ``workload`` for ``seed`` (same seed, same ops)."""
    try:
        return GENERATORS[workload](seed)
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}") from None
