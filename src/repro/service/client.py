"""Service clients: the one sweep API every driver talks to.

Two interchangeable clients sit behind the sweep drivers, the CLI, and
the examples:

* :class:`LocalClient` — wraps an in-process
  :class:`~repro.service.local.LocalService` (no socket); this is what
  ``vrl-dram <experiment>`` builds from its ``--jobs``/``--cache-dir``
  flags.
* :class:`RemoteClient` — a blocking JSON-lines client of the asyncio
  :class:`~repro.service.server.ServiceServer` (``vrl-dram serve``);
  this is what ``--connect host:port`` routes the same verbs through.

Both return the same :class:`ServiceReport` from :meth:`sweep`, whose
``results`` (payloads in input order) and ``notes()`` (runner-style
observability lines) are exactly what the drivers historically read
off :class:`~repro.runner.executor.RunReport` — so a driver cannot
tell, and must not care, which backend served it (invariant 13).

``driver_client`` is the drivers' entry: it passes a given client
through and builds a transient in-process one otherwise.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from ..runner import CellError, ExperimentRunner
from .local import LocalService
from .schema import SERVICE_PROTOCOL, Query, QueryResult


class ServiceError(RuntimeError):
    """A client/server protocol failure (connection, malformed reply)."""


class ServiceReport:
    """What one sweep looked like from the client's side.

    Mirrors the driver-facing surface of
    :class:`~repro.runner.executor.RunReport`: ``results`` (payloads in
    query order, ``None`` where a query failed), ``failures``, and
    ``notes()`` — plus the per-query :class:`QueryResult` telemetry.
    """

    def __init__(
        self,
        outcomes: Sequence[QueryResult],
        elapsed_seconds: float,
        jobs: int = 1,
        backend: str = "local",
    ):
        self.outcomes = list(outcomes)
        self.elapsed_seconds = elapsed_seconds
        self.jobs = jobs
        self.backend = backend

    @property
    def results(self) -> list[Optional[dict]]:
        """Query payloads in input order (``None`` for failures)."""
        return [o.payload for o in self.outcomes]

    @property
    def failures(self) -> list[QueryResult]:
        """The failed outcomes (empty on a clean sweep)."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        """Queries served without fresh computation (cache or dedup)."""
        return sum(1 for o in self.outcomes if o.cache_hit or o.dedup_hit)

    @property
    def busy_seconds(self) -> float:
        """Wall time spent actually computing (hits and dedups are free)."""
        return sum(
            o.wall_seconds for o in self.outcomes if not (o.cache_hit or o.dedup_hit)
        )

    def notes(self) -> dict[str, Any]:
        """Observability notes for ``ExperimentResult.notes`` (the same
        ``runner ...`` keys the pre-service drivers attached)."""
        n = len(self.outcomes)
        computed = n - self.cache_hits
        utilization = 0.0
        if self.elapsed_seconds > 0 and self.jobs > 0:
            utilization = min(
                1.0, self.busy_seconds / (self.elapsed_seconds * self.jobs)
            )
        notes: dict[str, Any] = {
            "runner": (
                f"{n} cells, jobs={self.jobs}, "
                f"{self.cache_hits} cached / {computed} computed, "
                f"{self.elapsed_seconds:.2f}s wall, "
                f"utilization {100 * utilization:.0f}%"
                + (" (via service)" if self.backend != "local" else "")
            ),
        }
        failures = self.failures
        if failures:
            shown = ", ".join(
                CellError.from_dict(o.error).summary() for o in failures[:3]
            )
            if len(failures) > 3:
                shown += f", ... ({len(failures) - 3} more)"
            notes["runner failures"] = f"{len(failures)}/{n} cells failed: {shown}"
        slowest = max(self.outcomes, key=lambda o: o.wall_seconds, default=None)
        if slowest is not None:
            notes["runner slowest cell"] = (
                f"{slowest.label or slowest.kind} ({slowest.wall_seconds:.2f}s)"
            )
        manifests = sorted({o.manifest for o in self.outcomes if o.manifest})
        if manifests:
            notes["runner manifest"] = ", ".join(manifests)
        return notes


class LocalClient:
    """In-process client: drivers' default execution backend.

    Args:
        service: an existing :class:`LocalService` to share (its cache,
            batcher, and counters); or
        runner: an :class:`ExperimentRunner` to wrap in a fresh private
            service (the historical driver signature).
    """

    backend = "local"

    def __init__(
        self,
        service: Optional[LocalService] = None,
        runner: Optional[ExperimentRunner] = None,
    ):
        if service is not None and runner is not None:
            raise ValueError("pass either service or runner, not both")
        self._owns_service = service is None
        self.service = service if service is not None else LocalService(runner=runner)

    @property
    def jobs(self) -> int:
        """Worker count of the backing runner (for report notes)."""
        return self.service.runner.jobs

    def sweep(self, queries: Sequence[Query], experiment: str = "") -> ServiceReport:
        """Serve a block of queries; results in input order."""
        t0 = time.perf_counter()
        outcomes = self.service.submit(queries, experiment=experiment)
        return ServiceReport(
            outcomes,
            elapsed_seconds=time.perf_counter() - t0,
            jobs=self.jobs,
            backend=self.backend,
        )

    def query(self, query: Query) -> QueryResult:
        """Serve a single query (a one-element sweep without the report)."""
        return self.service.query(query)

    def stats(self) -> dict:
        """Current service counters (see ``ServiceStats.snapshot``)."""
        return self.service.snapshot()

    def close(self) -> None:
        """Close the service if this client created it (shared ones
        belong to their creator)."""
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteClient:
    """Blocking JSON-lines client of a running ``vrl-dram serve``.

    One TCP connection per client; requests are single lines, responses
    are streamed ``result`` events followed by a ``sweep-done``
    summary.  The client is synchronous on purpose — the sweep drivers
    are synchronous — while the server multiplexes many such clients
    concurrently.
    """

    backend = "service"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout: float = 600.0):
        self.address = (host, port)
        try:
            self._sock = socket.create_connection(self.address, timeout=timeout)
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to service at {host}:{port}: {exc}"
            ) from exc
        self._rfile = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._wfile = self._sock.makefile("w", encoding="utf-8", newline="\n")
        self._telemetry: deque[dict] = deque()
        self._jobs = 1
        try:
            hello = self.request({"op": "ping"})
            self._jobs = int(hello.get("jobs", 1))
            if hello.get("protocol") != SERVICE_PROTOCOL:
                raise ServiceError(
                    f"protocol mismatch: server speaks "
                    f"{hello.get('protocol')!r}, client {SERVICE_PROTOCOL}"
                )
        except ServiceError:
            self._sock.close()
            raise

    @property
    def jobs(self) -> int:
        """Worker count the server reported in its ping reply."""
        return self._jobs

    # -- wire helpers -------------------------------------------------- #

    def _send(self, record: dict) -> None:
        try:
            self._wfile.write(json.dumps(record) + "\n")
            self._wfile.flush()
        except OSError as exc:
            raise ServiceError(f"service connection lost: {exc}") from exc

    def _recv(self) -> dict:
        try:
            line = self._rfile.readline()
        except OSError as exc:
            raise ServiceError(f"service connection lost: {exc}") from exc
        if not line:
            raise ServiceError("service closed the connection")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"malformed service reply: {line!r}") from exc
        if record.get("event") == "error":
            raise ServiceError(record.get("message", "service error"))
        return record

    def _recv_reply(self) -> dict:
        """Next non-telemetry event; broadcasts from an active
        subscription are buffered for :meth:`next_event`."""
        while True:
            record = self._recv()
            if record.get("event") == "telemetry":
                self._telemetry.append(record)
                continue
            return record

    def request(self, record: dict) -> dict:
        """One request, one (non-streamed) reply."""
        self._send(record)
        return self._recv_reply()

    # -- client surface ------------------------------------------------ #

    def sweep(self, queries: Sequence[Query], experiment: str = "") -> ServiceReport:
        """Serve a block of queries through the server, streaming
        results as they complete; returns them in input order."""
        t0 = time.perf_counter()
        self._send(
            {
                "op": "sweep",
                "experiment": experiment,
                "queries": [q.to_dict() for q in queries],
            }
        )
        outcomes: list[Optional[QueryResult]] = [None] * len(queries)
        summary: dict = {}
        while True:
            record = self._recv_reply()
            event = record.get("event")
            if event == "result":
                seq = int(record["seq"])
                outcomes[seq] = QueryResult.from_dict(record["result"])
            elif event == "sweep-done":
                summary = record
                break
        missing = [i for i, o in enumerate(outcomes) if o is None]
        if missing:
            raise ServiceError(f"sweep reply missing results for {missing}")
        return ServiceReport(
            outcomes,
            elapsed_seconds=time.perf_counter() - t0,
            jobs=int(summary.get("jobs", self._jobs)),
            backend=self.backend,
        )

    def query(self, query: Query) -> QueryResult:
        """Serve a single query over the socket (a one-element sweep)."""
        return self.sweep([query]).outcomes[0]

    def stats(self) -> dict:
        """The server's aggregate counters (see ``ServiceStats``)."""
        return self.request({"op": "stats"})["stats"]

    def subscribe(self) -> None:
        """Start receiving per-batch telemetry events on this
        connection (interleaved with any later replies)."""
        reply = self.request({"op": "subscribe"})
        if reply.get("event") != "subscribed":
            raise ServiceError(f"subscribe failed: {reply!r}")

    def next_event(self, timeout: Optional[float] = None) -> dict:
        """Block for the next raw event line (telemetry consumers).

        Telemetry that arrived interleaved with earlier replies is
        returned first, in arrival order.
        """
        if self._telemetry:
            return self._telemetry.popleft()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            return self._recv()
        finally:
            if timeout is not None:
                self._sock.settimeout(None)

    def shutdown_server(self, drain: bool = True) -> dict:
        """Ask the server to shut down (drain semantics as SIGTERM)."""
        return self.request({"op": "shutdown", "drain": drain})

    def close(self) -> None:
        """Drop the connection (the server carries on serving others)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def driver_client(client=None) -> Iterator[Any]:
    """The sweep drivers' client scope.

    Yields the given client untouched, or builds a transient serial,
    uncached in-process one and closes it — and only it — when the
    sweep is done.  Shared clients stay open for their owner.
    """
    owned = client is None
    if owned:
        client = LocalClient()
    try:
        yield client
    finally:
        if owned:
            client.close()
