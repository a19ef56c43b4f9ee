"""Simulation-as-a-service: the query/serving layer.

Everything that runs experiments — the five sweep drivers, the
``vrl-dram`` CLI, the examples — goes through this package:

* :mod:`~repro.service.schema` — the typed :class:`Query` /
  :class:`QueryResult` request schema, canonically hashable into the
  same keyspace as the on-disk
  :class:`~repro.runner.cache.ResultCache`, plus the shared
  :class:`ServiceStats` counters;
* :mod:`~repro.service.batcher` — micro-batch coalescing of compatible
  in-flight queries into single
  :class:`~repro.runner.executor.ExperimentRunner` invocations, with
  single-flight dedup of identical queries;
* :mod:`~repro.service.local` — :class:`LocalService`, the in-process
  backend (no socket);
* :mod:`~repro.service.server` — :class:`ServiceServer`, the asyncio
  JSON-lines server behind ``vrl-dram serve``, with SIGTERM-drain
  graceful shutdown;
* :mod:`~repro.service.client` — :class:`LocalClient` /
  :class:`RemoteClient` and the :class:`ServiceReport` the drivers
  consume;
* :mod:`~repro.service.registry` — the experiment-verb dispatch table
  shared by the CLI and the examples.

Invariant 13 (``docs/architecture.md``): a query's payload is
bit-identical whether computed driver-direct, batched, deduplicated,
served from cache, or through the socket server.
"""

from .batcher import QueryBatcher, ServiceClosed
from .client import (
    LocalClient,
    RemoteClient,
    ServiceError,
    ServiceReport,
    driver_client,
)
from .local import LocalService
from .registry import (
    EXPERIMENT_DEFAULTS,
    EXPERIMENT_NAMES,
    SWEEP_EXPERIMENTS,
    experiment_names,
    experiment_options,
    run_experiment,
)
from .schema import (
    KIND_PARAMS,
    SERVICE_PROTOCOL,
    Query,
    QueryResult,
    ServiceStats,
)
from .server import ServiceServer, pick_free_port, serve

__all__ = [
    "EXPERIMENT_DEFAULTS",
    "EXPERIMENT_NAMES",
    "KIND_PARAMS",
    "LocalClient",
    "LocalService",
    "Query",
    "QueryBatcher",
    "QueryResult",
    "RemoteClient",
    "SERVICE_PROTOCOL",
    "SWEEP_EXPERIMENTS",
    "ServiceClosed",
    "ServiceError",
    "ServiceReport",
    "ServiceServer",
    "ServiceStats",
    "driver_client",
    "experiment_names",
    "experiment_options",
    "pick_free_port",
    "run_experiment",
    "serve",
]
