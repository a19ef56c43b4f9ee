"""Cycle-level trace-driven bank simulator.

Interleaves two event streams in time order — demand requests from a
:class:`~repro.sim.trace.MemoryTrace` and per-row refresh deadlines from
the policy's periods — against one :class:`~repro.sim.bank.Bank`.
Refreshes are scheduled eagerly at their deadline (the controller cannot
postpone them indefinitely without violating retention), demand requests
queue FCFS behind whatever the bank is doing.

This engine is the ground truth: it models queueing, row-buffer
interference, and refresh stalls.  The :mod:`~repro.sim.fastpath`
evaluator reproduces exactly its refresh accounting (asserted by the
integration tests) and is what the full Fig. 4 sweep uses; for
policies the fused timeline cannot represent, the evaluator runs this
engine.  Deadline
placement and refresh-vs-request arbitration come from
:mod:`~repro.sim.schedule`, the semantics shared with the fastpath and
the rank simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..controller.refresh import RefreshPolicy
from ..technology import BankGeometry, DEFAULT_GEOMETRY
from .bank import Bank
from .schedule import (
    first_deadlines,
    period_cycles,
    refresh_wins_tie,
    should_defer_refresh,
)
from .stats import RefreshStats, RequestStats
from .timing import DRAMTiming
from .trace import MemoryTrace


@dataclass
class SimulationResult:
    """Combined refresh and request statistics of one run."""

    refresh: RefreshStats
    requests: RequestStats
    policy_name: str
    trace_name: str

    @property
    def refresh_overhead(self) -> float:
        """Fraction of bank time spent refreshing (the Fig. 4 metric)."""
        return self.refresh.overhead


class BankSimulator:
    """Simulates one bank under a refresh policy and an optional trace.

    Args:
        policy: refresh policy (owns per-row periods and full/partial
            decisions).
        timing: command timings.
        geometry: bank geometry; defaults to the policy's row count on
            the paper's 32-column array.

    Refresh deadlines are staggered: row ``r`` first refreshes at
    ``(r / rows) * P_r``, spreading commands across the period exactly
    like a tREFI-paced controller does.
    """

    def __init__(
        self,
        policy: RefreshPolicy,
        timing: DRAMTiming,
        geometry: Optional[BankGeometry] = None,
    ):
        self.policy = policy
        self.timing = timing
        self.geometry = geometry or BankGeometry(policy.n_rows, DEFAULT_GEOMETRY.cols)
        if self.geometry.rows != policy.n_rows:
            raise ValueError(
                f"geometry rows {self.geometry.rows} != policy rows {policy.n_rows}"
            )
        self.bank = Bank(timing, self.geometry)

    def _service(self, arrival: int, row: int):
        """Serve one request, consulting an access-modulating policy.

        Mechanisms with the ``modulates_access`` capability flag
        (ChargeCache) see the hit/miss/conflict latency the bank would
        charge and may replace it through
        :meth:`~repro.controller.refresh.RefreshPolicy.access_latency_cycles`;
        everything else takes the unmodified bank path.
        """
        if not self.policy.modulates_access:
            return self.bank.service(arrival, row)
        base, hit = self.bank.peek_service(row)
        adjusted = int(self.policy.access_latency_cycles(row, base, hit, arrival))
        return self.bank.service(arrival, row, latency_cycles=adjusted)

    def _initial_refresh_heap(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        """(due_cycle, row) heap of first deadlines, plus per-row periods.

        Both come from :mod:`~repro.sim.schedule`, so the engine, the
        fastpath, and the rank simulator place deadlines identically.
        """
        periods = period_cycles(self.policy, self.timing)
        first = first_deadlines(periods)
        heap = list(zip(first.tolist(), range(self.policy.n_rows)))
        heapq.heapify(heap)
        return heap, periods

    def refresh_stats(
        self,
        duration_cycles: int,
        trace: Optional[MemoryTrace] = None,
    ) -> RefreshStats:
        """Refresh accounting only, via the fused timeline.

        Bit-identical to ``run(...).refresh`` (invariant 11) at a small
        fraction of the cost: callers that need only the Fig. 4 metric —
        not queueing or row-buffer behaviour — get the fused path
        without leaving the engine's API.  Policies the closed form
        cannot represent are priced by :meth:`run` itself (see
        :class:`~repro.sim.fastpath.RefreshOverheadEvaluator`).
        """
        from .fastpath import RefreshOverheadEvaluator

        return RefreshOverheadEvaluator(self.policy, self.timing).evaluate(
            duration_cycles, trace
        )

    def run(
        self,
        trace: Optional[MemoryTrace] = None,
        duration_cycles: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate until ``duration_cycles`` (default: trace end).

        Args:
            trace: demand requests; ``None`` simulates refresh-only.
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued.  Required when no trace is
                given.

        Returns:
            A :class:`SimulationResult`; its ``refresh.overhead`` is the
            Fig. 4 metric.
        """
        if duration_cycles is None:
            if trace is None or len(trace) == 0:
                raise ValueError("need a trace or an explicit duration")
            duration_cycles = trace.duration_cycles + 1
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")

        self.bank.reset()
        self.policy.reset()
        refresh_stats = RefreshStats(duration_cycles=duration_cycles)
        request_stats = RequestStats()
        heap, periods = self._initial_refresh_heap()
        last_busy_was_refresh = False

        n_requests = len(trace) if trace is not None else 0
        request_index = 0
        reorders = self.policy.reorders_refresh
        slack = int(self.policy.refresh_slack_cycles)
        # Deferral decisions plan against the worst-case (full) window.
        plan_latency = int(self.policy.kind_latencies[0])

        while True:
            next_refresh_due = heap[0][0] if heap else None
            next_request_at = (
                int(trace.cycles[request_index]) if request_index < n_requests else None
            )

            do_refresh = next_refresh_due is not None and next_refresh_due < duration_cycles
            do_request = next_request_at is not None and next_request_at < duration_cycles

            if not do_refresh and not do_request:
                break

            # Earliest event first; refresh wins ties (the shared
            # arbitration rule in sim/schedule.py).
            service_refresh = do_refresh and (
                not do_request or refresh_wins_tie(next_refresh_due, next_request_at)
            )
            if service_refresh and reorders and do_request:
                # Reordering mechanisms (DARP) yield the slot to a
                # colliding read within the slack budget, pushing the
                # refresh into the first idle window instead.
                start = max(next_refresh_due, self.bank.busy_until)
                service_refresh = not should_defer_refresh(
                    start,
                    plan_latency,
                    next_request_at,
                    bool(trace.is_write[request_index]),
                    next_refresh_due + slack,
                )
            if service_refresh:
                due, row = heapq.heappop(heap)
                command = self.policy.refresh_row(row)
                self.bank.refresh(due, command.latency_cycles)
                # Only tRFC counts as refresh overhead (the Fig. 4
                # metric); any precharge needed to close an open row is
                # charged to the access stream that opened it.
                refresh_stats.record(command)
                heapq.heappush(heap, (due + int(periods[row]), row))
                last_busy_was_refresh = True
            else:
                arrival = next_request_at
                row = int(trace.rows[request_index])
                is_write = bool(trace.is_write[request_index])
                request_index += 1
                stall = max(0, self.bank.busy_until - arrival)
                refresh_stall = stall if last_busy_was_refresh else 0
                outcome = self._service(arrival, row)
                self.policy.on_access(row)
                request_stats.record(
                    is_write, outcome.latency_cycles, outcome.row_hit, refresh_stall
                )
                last_busy_was_refresh = False

        return SimulationResult(
            refresh=refresh_stats,
            requests=request_stats,
            policy_name=self.policy.name,
            trace_name=trace.name if trace is not None else "idle",
        )
