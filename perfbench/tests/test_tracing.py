"""Self-time arithmetic of the layer tracer, within and across threads."""

import threading

import pytest

import tracing


def span(id, name, start, end, parent=None, key=None):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "key": key, "thread": 0, "attrs": {}}


def test_nested_self_time():
    spans = [
        span(1, "runner.run", 0.0, 10.0),
        span(2, "runner.cell", 1.0, 9.0, parent=1),
        span(3, "sim.engine", 2.0, 6.0, parent=2),
        span(4, "controller.build", 6.5, 7.0, parent=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(8.0 - 4.0 - 0.5)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(0.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_cross_thread_children_overlap_counted_once():
    # A client span waits while two children on other threads overlap
    # each other and stick out past its end.
    spans = [
        span(1, "client.op", 0.0, 10.0),
        span(2, "runner.run", 1.0, 6.0, parent=1),
        span(3, "runner.run", 4.0, 12.0, parent=1),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(1.0)


def test_same_name_reentry_counts_one_call():
    spans = [
        span(1, "controller.build", 0.0, 3.0),
        span(2, "controller.build", 1.0, 2.0, parent=1),
        span(3, "controller.build", 4.0, 5.0),
    ]
    totals = tracing.layer_totals(spans)["controller.build"]
    assert totals["calls"] == 2
    assert totals["self_s"] == pytest.approx(4.0)
    assert totals["total_s"] == pytest.approx(4.0)


def test_tracer_links_root_span_of_other_thread_to_client_span():
    tracer = tracing.Tracer()
    client = tracer.open("client.op", "k1")
    tracer.link("k1", client)
    seen = {}

    def dispatcher():
        root = tracer.open("runner.run", "k1")
        inner = tracer.open("runner.cell")
        tracer.close(inner)
        tracer.close(root)
        seen["root"], seen["inner"] = root, inner

    thread = threading.Thread(target=dispatcher)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(client)
    assert seen["root"].parent == client.id
    assert seen["inner"].parent == seen["root"].id
    assert seen["inner"].key == "k1"
    dump = tracer.dump()["spans"]
    selfs = tracing.self_times(dump)
    root = seen["root"]
    assert selfs[client.id] == pytest.approx(
        (client.end - client.start) - (root.end - root.start)
    )


def test_thread_stacks_are_independent():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)
    parents = {}

    def worker(name):
        outer = tracer.open(name)
        barrier.wait(timeout=10)
        inner = tracer.open(name + ".inner")
        barrier.wait(timeout=10)
        tracer.close(inner)
        tracer.close(outer)
        parents[name] = (outer.id, inner.parent)

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    for outer_id, inner_parent in parents.values():
        assert inner_parent == outer_id


def test_close_out_of_order_raises():
    tracer = tracing.Tracer()
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_covered_clips_to_interval():
    assert tracing.covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 20.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert tracing.covered((0.0, 1.0), [(2.0, 3.0)]) == 0.0


def test_merge_keeps_processes_apart():
    server = [span(1, "runner.run", 0.0, 4.0), span(2, "controller.build", 1.0, 2.0, parent=1)]
    client = [span(1, "client.op", 0.0, 5.0), span(2, "controller.build", 6.0, 7.0)]
    merged = tracing.merge(server, client)
    assert len({s["id"] for s in merged}) == 4
    totals = tracing.layer_totals(merged)
    assert totals["controller.build"]["calls"] == 2
    assert totals["runner.run"]["self_s"] == pytest.approx(3.0)
    assert totals["client.op"]["self_s"] == pytest.approx(5.0)
