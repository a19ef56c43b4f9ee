"""Invariant 13: service execution ≡ direct execution, bit for bit.

Three ways to run the same experiment — calling the driver with no
client (it builds a transient in-process one), handing it a shared
``LocalClient``, and routing it through the asyncio socket server —
must produce bit-identical ``ExperimentResult`` headers and rows.  Below the drivers, a raw ``runner.run`` of the hand-built
cells must produce payloads bit-identical to the service answering the
equivalent typed queries, with batching, dedup, and caching all in
play.  No tolerance: repeatability here is exact equality.
"""

import asyncio
import contextlib
import threading

import pytest

from repro.experiments import run_fig4, run_mechanism_matrix, run_temperature_study
from repro.runner import ExperimentRunner
from repro.service import (
    LocalClient,
    LocalService,
    Query,
    RemoteClient,
    ServiceServer,
)
from repro.technology import DEFAULT_TECH, BankGeometry

GEOMETRY = BankGeometry(128, 16)

FIG4_KWARGS = dict(
    geometry=GEOMETRY, duration_seconds=0.05, benchmarks=["blackscholes"],
    seed=5, include_power=False,
)
TEMP_KWARGS = dict(geometry=GEOMETRY, temperatures=(45.0, 55.0), seed=5)
MECH_KWARGS = dict(
    geometry=GEOMETRY, mechanisms=("fixed", "darp", "chargecache", "avatar"),
    benchmarks=("blackscholes",), temperatures=(45.0,), duration_seconds=0.05,
    seed=5,
)


@contextlib.contextmanager
def remote_client():
    """A RemoteClient against a throwaway in-thread server."""
    box, ready = {}, threading.Event()

    def run():
        async def main():
            server = ServiceServer(service=LocalService())
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            box["port"] = server.port
            ready.set()
            await server.serve_forever(install_signal_handlers=False)

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=15)
    client = RemoteClient("127.0.0.1", box["port"])
    try:
        yield client
    finally:
        client.close()
        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(
                box["server"].shutdown(), box["loop"]
            ).result(timeout=30)
        thread.join(timeout=30)


def _table(result):
    """The comparable content: headers + rows (notes carry timings)."""
    return (list(result.headers), [tuple(r) for r in result.rows])


@pytest.mark.parametrize(
    "driver, kwargs",
    [
        (run_fig4, FIG4_KWARGS),
        (run_temperature_study, TEMP_KWARGS),
        (run_mechanism_matrix, MECH_KWARGS),
    ],
    ids=["fig4", "temperature", "mechanisms"],
)
class TestDriverPathsIdentical:
    def test_runner_vs_local_client(self, driver, kwargs):
        direct = driver(**kwargs)
        with LocalClient() as client:
            via_client = driver(client=client, **kwargs)
        assert _table(direct) == _table(via_client)

    def test_runner_vs_socket_server(self, driver, kwargs):
        direct = driver(**kwargs)
        with remote_client() as client:
            via_socket = driver(client=client, **kwargs)
        assert _table(direct) == _table(via_socket)

    def test_warm_rerun_identical_through_shared_client(self, driver, kwargs, tmp_path):
        from repro.runner import ResultCache

        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        with LocalClient(runner=runner) as client:
            cold = driver(client=client, **kwargs)
            warm = driver(client=client, **kwargs)
        assert _table(cold) == _table(warm)


class TestCellLevelEquivalence:
    """Below the drivers: raw runner payloads == service payloads."""

    QUERIES = [
        Query(kind="temperature-point", tech=DEFAULT_TECH, rows=64, cols=8,
              temperature=t, seed=9)
        for t in (45.0, 65.0, 85.0)
    ] + [
        Query(kind="refresh-overhead", tech=DEFAULT_TECH, rows=64, cols=8,
              policy=p, seed=9, duration_seconds=0.2)
        for p in ("raidr", "vrl", "vrl-access")
    ]

    def test_direct_runner_equals_service(self):
        direct = ExperimentRunner().run([q.to_cell() for q in self.QUERIES])
        with LocalService() as service:
            served = service.submit(self.QUERIES)
        assert [r.payload for r in served] == direct.results

    def test_dedup_and_batching_do_not_perturb_payloads(self):
        doubled = [q for q in self.QUERIES for _ in (0, 1)]
        direct = ExperimentRunner().run([q.to_cell() for q in self.QUERIES])
        with LocalService() as service:
            served = service.submit(doubled)
            stats = service.snapshot()
        assert stats["dedup_hits"] == len(self.QUERIES)
        expected = [p for p in direct.results for _ in (0, 1)]
        assert [r.payload for r in served] == expected

    def test_parallel_service_equals_serial_service(self):
        with LocalService(jobs=1) as serial:
            one = serial.submit(self.QUERIES)
        with LocalService(jobs=2) as parallel:
            two = parallel.submit(self.QUERIES)
        assert [r.payload for r in one] == [r.payload for r in two]
