"""The tail-percentile rule and output digests."""

import json

import pytest

import measure
import run


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(56))
    value, percentile, n = measure.tail(samples)
    assert n == 56
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(100 * 46 / 56)


def test_tail_is_order_independent():
    assert measure.tail([5, 1, 4, 3, 2, 9, 8, 7, 6, 0, 10, 11]) == measure.tail(list(range(12)))


@pytest.mark.parametrize("n", [1, 6, 10])
def test_tail_with_too_few_samples_is_the_maximum(n):
    assert measure.tail(list(range(n))) == (n - 1, 100.0, n)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        measure.tail([])


def test_digest_sees_a_one_ulp_change():
    a = [{"x": 0.1, "n": 3}]
    b = [{"x": 0.1 + 2**-56, "n": 3}]
    assert b[0]["x"] != a[0]["x"]
    assert measure.digest(a) != measure.digest(b)
    assert measure.digest(a) == measure.digest([{"n": 3, "x": 0.1}])


def rep(*payloads):
    return {"results": [{"ok": True, "payload": p} for p in payloads]}


def test_verify_passes_identical_repetitions():
    correct, attempted, failed, payloads, _ = run.verify([rep(1, 2), rep(1, 2)], 2, "request-path", 1)
    assert (correct, attempted, failed, payloads) == (True, 4, 0, [1, 2])


def test_verify_counts_a_payload_that_changes_between_repetitions():
    correct, attempted, failed, _, notes = run.verify([rep(1, 2), rep(1, 3)], 2, "request-path", 1)
    assert (correct, attempted, failed) == (False, 4, 1)
    assert any("differs" in n for n in notes)


def test_verify_counts_missing_and_failed_ops():
    reps = [{"results": [{"ok": False, "error": "deadline"}]}]
    correct, attempted, failed, _, _ = run.verify(reps, 3, "request-path", 1)
    assert (correct, attempted, failed) == (False, 3, 3)


def test_verify_fails_every_op_on_digest_mismatch_at_default_seed():
    expected = json.loads((run.BENCH / "expected.json").read_text())
    assert set(expected) == set(run.workloads.WORKLOADS)
    correct, attempted, failed, _, notes = run.verify(
        [rep(1, 2)], 2, "request-path", run.workloads.DEFAULT_SEED
    )
    assert (correct, attempted, failed) == (False, 2, 2)
    assert any("digest mismatch" in n for n in notes)


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # served-warm runs, but is not gated: its spread across runs exceeds
    # the largest bound the benchmark may set (see README.md).
    gated = [w for w in run.workloads.WORKLOADS if w != "served-warm"]
    assert [w["name"] for w in spec["workloads"]] == gated
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_end_to_end_takes_percentiles_over_per_op_medians():
    def rep(wall, latencies_ms):
        return {"wall_s": wall, "peak_rss_mb": 10.0,
                "results": [{"ok": True, "latency_s": ms / 1000.0} for ms in latencies_ms]}

    ops = 12
    reps = [rep(1.0, [10.0] * ops), rep(3.0, [30.0] * ops), rep(2.0, [20.0] * (ops - 1) + [90.0])]
    metrics, info = run.end_to_end(reps, setups=[0.5, 0.7, 0.6])
    assert metrics["wall_s"] == 2.0
    assert metrics["setup_s"] == 0.6
    assert metrics["query_ms_p50"] == pytest.approx(20.0)
    # The spike in one repetition does not reach the per-op median.
    assert metrics["query_ms_tail"] == pytest.approx(20.0)
    assert info["query_ms_tail"] == {"percentile": round(100 * 2 / 12, 2), "samples": 12}


def test_request_path_cross_check_runs_every_mechanism_past_two_refresh_windows(monkeypatch):
    import repro.runner.cells as cells
    from repro.retention.binning import DEFAULT_PERIODS

    ops = run.workloads.generate("request-path", 1)
    payloads = [{"refresh": {"seconds": run.workloads.REQUEST_SECONDS}} for _ in ops]
    long_cells = []

    def engine_refresh(query):
        return {"seconds": query["params"]["duration_seconds"]}

    def compute_cell(kind, params):
        long_cells.append(params["mechanism"])
        return {"refresh": {"seconds": params["duration_seconds"]}}

    monkeypatch.setattr(run, "engine_refresh", engine_refresh)
    monkeypatch.setattr(cells, "compute_cell", compute_cell)
    assert run.cross_checks("request-path", ops, payloads, 1) == []
    assert sorted(long_cells) == sorted(run.workloads.REQUEST_MECHANISMS)
    assert run.CROSS_CHECK_SECONDS > 2 * min(DEFAULT_PERIODS)

    monkeypatch.setattr(cells, "compute_cell", lambda kind, params: {"refresh": {"seconds": 0.0}})
    problems = run.cross_checks("request-path", ops, payloads, 1)
    assert len(problems) == len(run.workloads.REQUEST_MECHANISMS)
    assert all(f"at {run.CROSS_CHECK_SECONDS:g} s" in p for p in problems)
