"""Command-line entry point: ``vrl-dram <experiment> [options]``.

Examples::

    vrl-dram fig4 --duration 1.0
    vrl-dram fig4 --jobs 4              # fan sweep cells across 4 workers
    vrl-dram table1 --no-spice
    vrl-dram all --jobs 0 --no-cache    # one worker per CPU, recompute all
    vrl-dram serve --jobs 4 --port 7718 # long-lived simulation service
    vrl-dram fig4 --connect :7718       # run the sweep through the service

Every experiment dispatches through the service layer
(:mod:`repro.service`): the sweep verbs (``fig4``, ``performance``,
``rank``, ``baselines``, ``mechanisms``, ``temperature``) submit typed
queries to a
client — by default an in-process one built from ``--jobs`` /
``--cache-dir`` / ``--no-cache``, or, with ``--connect host:port``, a
running ``vrl-dram serve`` instance shared by many clients.  Results
are bit-identical either way (invariant 13).  Cells are cached on disk
keyed by the full parameter set (see ``--cache-dir``), fanned out over
worker processes, and each sweep writes an observability manifest to
``--runs-dir``.  A warm re-run only recomputes cells whose parameters
(or the package/result-schema version) changed.

``vrl-dram serve`` starts the asyncio server: it coalesces compatible
in-flight queries from concurrent clients into single runner batches,
answers repeats from the shared cache with single-flight dedup, and
streams per-batch telemetry to subscribers.  SIGTERM drains in-flight
cells and flushes the final ``service`` manifest before exit.

Fault tolerance: a failing cell no longer aborts the sweep — it is
retried ``--retries`` times (exponential backoff), reaped by a watchdog
after ``--cell-timeout`` seconds, and finally reported as a failed cell
in the manifest while the rest of the grid completes.  Ctrl-C flushes a
partial manifest; ``--resume <manifest>`` picks the run back up,
recomputing only the unfinished cells.  ``--chaos`` arms the
deterministic fault-injection harness (see :mod:`repro.runner.faults`)
to rehearse exactly these failure modes::

    vrl-dram fig4 --jobs 4 --retries 2 --cell-timeout 600
    vrl-dram fig4 --resume runs/20260806T120000.123456.json
    vrl-dram fig4 --jobs 4 --chaos "kill@3,raise@7" --retries 1
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from ..runner import ExperimentRunner, ResultCache, latest_manifest, parse_faults
from ..service import (
    LocalClient,
    LocalService,
    RemoteClient,
    ServiceError,
    experiment_names,
    experiment_options,
    run_experiment,
    serve,
)

#: Default directory for the per-run observability manifests.
DEFAULT_RUNS_DIR = "runs"


def default_cache_dir() -> Path:
    """The cell cache location: ``$VRL_DRAM_CACHE`` or ``~/.cache/vrl-dram``.

    Resolved at runner-construction time (not import time) so tests and
    wrappers can redirect it through the environment.
    """
    return Path(os.environ.get("VRL_DRAM_CACHE", Path.home() / ".cache" / "vrl-dram"))


def _runner_for(args: argparse.Namespace) -> ExperimentRunner:
    """Build the shared experiment runner from the parsed CLI flags."""
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return ExperimentRunner(
        jobs=args.jobs,
        cache=cache,
        runs_dir=args.runs_dir,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        resume_from=args.resume,
        faults=args.chaos,
    )


def _client_for(args: argparse.Namespace):
    """The service client the experiment verbs sweep through.

    ``--connect host:port`` talks to a running ``vrl-dram serve``;
    otherwise an in-process client wraps the runner built from
    ``--jobs`` / ``--cache-dir`` / ``--no-cache`` (one client per
    ``main`` call, so ``vrl-dram all`` shares its worker pool,
    per-process trace builds, cache, and batcher across experiments).
    """
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        return RemoteClient(host or "127.0.0.1", int(port))
    return LocalClient(runner=_runner_for(args))


def _mechanism_names() -> list[str]:
    """Registered mechanism names, straight from the registry.

    The CLI's ``--mechanisms`` choices and error messages are driven by
    :data:`~repro.controller.MECHANISMS`, so a mechanism registered at
    runtime (e.g. by ``examples/custom_policy.py``) is immediately
    accepted without touching the CLI.
    """
    from ..controller import MECHANISMS

    return MECHANISMS.names()


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="vrl-dram",
        description="Reproduce the figures and tables of VRL-DRAM (DAC 2018).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(experiment_names()) + ["all", "serve"],
        help="which paper artifact to regenerate (or 'serve' to start "
        "the simulation service)",
    )
    parser.add_argument("--duration", type=float, default=1.0, help="fig4: seconds of simulated time")
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, help="fig4: subset of benchmark names"
    )
    parser.add_argument(
        "--mechanisms",
        nargs="*",
        default=None,
        metavar="NAME",
        help="mechanisms: subset of registered mechanism names "
        f"(registered: {', '.join(_mechanism_names())})",
    )
    parser.add_argument("--nbits", type=int, default=2, help="fig4: counter width")
    parser.add_argument("--seed", type=int, default=2018, help="profiling/trace RNG seed")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each result table as <DIR>/<experiment>.csv",
    )
    parser.add_argument(
        "--no-spice",
        dest="spice",
        action="store_false",
        help="fig1a/table1: skip the SPICE-lite circuit simulations",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk cell-result cache for sweep experiments "
        "(default: $VRL_DRAM_CACHE or ~/.cache/vrl-dram)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep cell, ignoring the cache",
    )
    parser.add_argument(
        "--runs-dir",
        metavar="DIR",
        default=DEFAULT_RUNS_DIR,
        help="where sweep runs write their <timestamp>.json manifest "
        "('' disables)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per failing sweep cell (exponential backoff)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a stuck worker is killed and the "
        "cell retried (requires --jobs >= 2)",
    )
    parser.add_argument(
        "--resume",
        metavar="MANIFEST",
        default=None,
        help="resume an interrupted sweep from its run manifest (or "
        ".checkpoint.jsonl), recomputing only the unfinished cells",
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="arm deterministic fault injection, e.g. 'raise@2,kill@0' or "
        "'nan@0,diverge@1' (action@cell[:attempt|*][=seconds] with "
        "cell '*' striking every cell; actions: raise, hang, kill, interrupt, "
        "nan, diverge; also via $VRL_DRAM_FAULTS)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="run the sweep verbs through a running 'vrl-dram serve' "
        "instead of in-process (host defaults to 127.0.0.1)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve: TCP port (0 picks a free one, printed in the banner)",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="serve: linger this long after a query arrives so concurrent "
        "clients coalesce into one batch (0 = batch only what is queued)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="serve: seconds a SIGTERM drain may spend finishing in-flight "
        "cells before queued queries are failed instead",
    )
    parser.set_defaults(spice=True)
    return parser


def _validate_args(args: argparse.Namespace) -> Optional[str]:
    """One-line error for nonsensical flag values, or ``None`` if sane."""
    if args.jobs < 0:
        return f"--jobs must be >= 0, got {args.jobs}"
    if args.retries < 0:
        return f"--retries must be >= 0, got {args.retries}"
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        return f"--cell-timeout must be > 0 seconds, got {args.cell_timeout:g}"
    if args.resume is not None and not Path(args.resume).exists():
        return f"--resume manifest {args.resume} does not exist"
    if args.chaos is not None:
        try:
            parse_faults(args.chaos)
        except ValueError as exc:
            return f"--chaos: {exc}"
    if args.mechanisms:
        registered = _mechanism_names()
        unknown = sorted(set(args.mechanisms) - set(registered))
        if unknown:
            return (
                f"--mechanisms: unknown {', '.join(unknown)}; "
                f"registered: {', '.join(registered)}"
            )
    if args.connect is not None:
        if args.experiment == "serve":
            return "--connect cannot be combined with the serve verb"
        _, _, port = args.connect.rpartition(":")
        if not port.isdigit():
            return f"--connect expects HOST:PORT, got {args.connect!r}"
    if args.batch_window < 0:
        return f"--batch-window must be >= 0, got {args.batch_window:g}"
    if args.drain_timeout <= 0:
        return f"--drain-timeout must be > 0 seconds, got {args.drain_timeout:g}"
    return None


def _serve(args: argparse.Namespace) -> int:
    """The ``vrl-dram serve`` verb: run the service until SIGTERM."""
    service = LocalService(
        runner=_runner_for(args),
        batch_window=args.batch_window,
        manifest_on_close=True,
    )
    return serve(
        service,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
    )


def main(argv: list[str] | None = None) -> int:
    """Run one (or all) experiments — or the service — from the CLI."""
    args = build_parser().parse_args(argv)
    problem = _validate_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if not args.runs_dir:
        args.runs_dir = None
    if args.experiment == "serve":
        return _serve(args)
    try:
        client = _client_for(args)
    except (ServiceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = experiment_options(vars(args))
    names = (
        sorted(experiment_names()) if args.experiment == "all" else [args.experiment]
    )
    try:
        for name in names:
            t0 = time.perf_counter()
            result = run_experiment(name, client=client, **options)
            elapsed = time.perf_counter() - t0
            print(result.format())
            print(f"[{name} completed in {elapsed:.1f}s]\n")
            if args.csv:
                directory = Path(args.csv)
                directory.mkdir(parents=True, exist_ok=True)
                result.to_csv(directory / f"{name}.csv")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        hint = ""
        if args.runs_dir is not None:
            try:
                hint = f"; resume with: --resume {latest_manifest(args.runs_dir)}"
            except (FileNotFoundError, OSError):
                pass
        print(f"\ninterrupted{hint}", file=sys.stderr)
        return 130
    finally:
        client.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
