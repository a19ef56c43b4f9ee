"""The op generators stay inside the validated query ranges."""

import math

import pytest

import workloads
from repro.service import Query
from repro.technology import DEFAULT_TECH


def query(**fields):
    base = dict(kind="refresh-overhead", tech=DEFAULT_TECH, rows=64, cols=8,
                policy="vrl", nbits=2, benchmark="canneal", duration_seconds=0.1)
    base.update(fields)
    return Query(**base)


@pytest.mark.parametrize("fields", [
    {"nbits": 40},
    {"nbits": 0},
    {"duration_seconds": math.nan},
    {"duration_seconds": math.inf},
    {"duration_seconds": -1.0},
    {"benchmark": "nope"},
    {"policy": "nope"},
    {"kind": "rank-mode", "n_banks": 2, "mode": "fixed"},
])
def test_check_query_refuses_out_of_range(fields):
    with pytest.raises(ValueError):
        workloads.check_query(query(**fields))


def test_check_query_accepts_refresh_only():
    workloads.check_query(query(benchmark=None))


def queries(ops):
    return [Query.from_dict(op["query"]) for op in ops if op["op"] == "query"]


@pytest.mark.parametrize("name", ["request-path", "refresh-sweep", "integrity-calibrate"])
def test_generated_ops_are_valid_and_seeded(name):
    ops = workloads.generate(name, 11)
    for q in queries(ops):
        workloads.check_query(q)
    assert ops == workloads.generate(name, 11)
    assert ops != workloads.generate(name, 12)


def test_grid_sizes():
    assert len(workloads.generate("request-path", 1)) == 7 * 4 * 2
    assert len(workloads.generate("refresh-sweep", 1)) == 5 * 14 * 4 * workloads.SWEEP_PROFILE_SEEDS
    kinds = [op["op"] for op in workloads.generate("integrity-calibrate", 1)]
    assert kinds.count("guard") == workloads.GUARD_BANKS


def test_served_warm_mix():
    plan = workloads.generate("served-warm", 3)
    warm_keys = {Query.from_dict(op["query"]).key() for op in plan["warm"]}
    assert len(warm_keys) == 40
    first, second = plan["connections"]
    n = workloads.SERVED_OPS_PER_CONNECTION
    assert len(first) == len(second) == n
    dup = [i for i, op in enumerate(first) if op.get("duplicate")]
    assert dup == [i for i, op in enumerate(second) if op.get("duplicate")]
    assert all(first[i] == second[i] for i in dup)
    assert len(dup) == n // 10
    cold_sets = []
    for conn in plan["connections"]:
        keys = [Query.from_dict(op["query"]).key() for op in conn if not op.get("duplicate")]
        cold = [k for k in keys if k not in warm_keys]
        assert len(cold) == len(set(cold)) == n // 10
        cold_sets.append(set(cold))
        for q in queries(conn):
            workloads.check_query(q)
    assert not cold_sets[0] & cold_sets[1]


def test_served_warm_mix_is_the_same_for_every_seed():
    def mix(seed):
        plan = workloads.generate("served-warm", seed)
        first, second = plan["connections"]
        labels = lambda ops: sorted(op["query"]["label"] + str(op["query"]["params"]["nbits"]) for op in ops)
        cold = [op for conn in (first, second) for op in conn if op not in plan["warm"]]
        return labels(plan["warm"]), labels(cold)

    assert mix(1) == mix(2)
    assert workloads.generate("served-warm", 1) != workloads.generate("served-warm", 2)


def test_unknown_workload():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)
