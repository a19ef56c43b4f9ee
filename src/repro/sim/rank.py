"""Multi-bank rank simulation: refresh at the rank level.

The paper's opening problem statement is that "a DRAM bank/rank becomes
unavailable to service access requests while being refreshed."  The
single-bank engine measures the bank side; this module adds the rank
view, which is where conventional DDR refresh actually operates:

* **all-bank refresh** (JEDEC ``REF``): every tREFI the controller
  issues one command that occupies *all* banks for the (longer)
  all-bank ``tRFC`` — the baseline modern controllers use;
* **per-bank refresh**: row-targeted refreshes to one bank at a time,
  leaving the other banks available — the mode RAIDR/VRL need (they
  must choose per-row latencies), which also recovers bank-level
  parallelism during refresh.

A :class:`RankSimulator` runs one refresh policy instance per bank (each
bank gets its own retention profile slice) against a bank-annotated
trace, reporting both per-bank refresh overhead and the rank-level
*blocked-time* fraction — the probability an arriving request finds its
target bank refreshing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..controller.refresh import RefreshPolicy
from ..guard import NumericalError
from ..technology import BankGeometry, DEFAULT_GEOMETRY
from ._timeline_kernels import crossing_kinds
from .bank import Bank
from .schedule import (
    ALL_BANK_ROWS_PER_REF,
    all_bank_ref_interval,
    all_bank_trfc,
    deadline_counts,
    first_deadlines,
    period_cycles,
    refresh_wins_tie,
    should_defer_refresh,
)
from .stats import RefreshStats, RequestStats
from .timeline import service_starts, union_length
from .timing import DRAMTiming
from .trace import MemoryTrace

__all__ = ["ALL_BANK_ROWS_PER_REF", "RankResult", "RankSimulator"]

#: Evaluation strategies of :meth:`RankSimulator.run`.
RANK_BACKENDS = ("auto", "fused", "loop")


@dataclass
class RankResult:
    """Outcome of a rank simulation.

    Attributes:
        per_bank_refresh: refresh statistics per bank.
        requests: aggregate demand-request statistics.
        blocked_cycles: cycles during which at least one bank was busy
            refreshing (rank-level unavailability).
        duration_cycles: simulated horizon.
        mode: ``"per-bank"`` or ``"all-bank"``.
        downgraded_from: backend originally selected when an automatic
            fallback kicked in (``"fused"``), ``None`` when the run
            completed on the backend it started on.
        downgrade_reason: one-line cause of the downgrade (empty when
            ``downgraded_from`` is ``None``).
    """

    per_bank_refresh: list[RefreshStats]
    requests: RequestStats
    blocked_cycles: int
    duration_cycles: int
    mode: str
    downgraded_from: Optional[str] = None
    downgrade_reason: str = ""

    @property
    def total_refresh_cycles(self) -> int:
        """Sum of refresh-busy cycles across banks."""
        return sum(s.refresh_cycles for s in self.per_bank_refresh)

    @property
    def refresh_overhead(self) -> float:
        """Mean per-bank refresh overhead (the Fig. 4 metric, rank-wide)."""
        if self.duration_cycles <= 0:
            return 0.0
        n_banks = len(self.per_bank_refresh)
        return self.total_refresh_cycles / (self.duration_cycles * n_banks)

    @property
    def blocked_fraction(self) -> float:
        """Fraction of time the rank had >= 1 bank refreshing."""
        if self.duration_cycles <= 0:
            return 0.0
        return self.blocked_cycles / self.duration_cycles


class RankSimulator:
    """Simulates ``n_banks`` banks under per-bank refresh policies.

    Args:
        policies: one refresh policy per bank (their ``n_rows`` must all
            match the geometry).
        timing: command timings.
        geometry: per-bank geometry.
        all_bank_refresh: use JEDEC all-bank REF every tREFI instead of
            the policies' row-targeted schedules.  In this mode the
            *first* policy's conventional 64 ms pacing is used and every
            REF blocks all banks; per-bank binning/MPRSF are ignored —
            this is the conventional baseline.
    """

    def __init__(
        self,
        policies: Sequence[RefreshPolicy],
        timing: DRAMTiming,
        geometry: BankGeometry = DEFAULT_GEOMETRY,
        all_bank_refresh: bool = False,
    ):
        if not policies:
            raise ValueError("need at least one bank policy")
        for index, policy in enumerate(policies):
            if policy.n_rows != geometry.rows:
                raise ValueError(
                    f"bank {index}: policy rows {policy.n_rows} != geometry rows "
                    f"{geometry.rows}"
                )
        self.policies = list(policies)
        self.timing = timing
        self.geometry = geometry
        self.all_bank_refresh = all_bank_refresh
        self.banks = [Bank(timing, geometry) for _ in policies]

    @property
    def n_banks(self) -> int:
        """Number of banks in the rank."""
        return len(self.policies)

    # ------------------------------------------------------------------ #
    # Refresh event streams                                               #
    # ------------------------------------------------------------------ #

    def _per_bank_heap(self) -> tuple[list[tuple[int, int, int]], list[np.ndarray]]:
        """(due, bank, row) heap for row-targeted refresh, plus per-bank periods.

        First deadlines stagger across rows *and* banks via the shared
        :func:`~repro.sim.schedule.first_deadlines` so refreshes spread
        out exactly like the single-bank simulators'.
        """
        heap = []
        periods_by_bank = []
        for bank_index, policy in enumerate(self.policies):
            periods = period_cycles(policy, self.timing)
            periods_by_bank.append(periods)
            first = first_deadlines(periods, bank_index=bank_index, n_banks=self.n_banks)
            heap.extend(
                (due, bank_index, row) for row, due in enumerate(first.tolist())
            )
        heapq.heapify(heap)
        return heap, periods_by_bank

    def _all_bank_refreshes(self, duration_cycles: int):
        """Yield REF due-cycles for JEDEC all-bank pacing.

        Every row of every bank must be covered once per conventional
        64 ms period; the command interval comes from the shared
        :func:`~repro.sim.schedule.all_bank_ref_interval`.
        """
        interval = all_bank_ref_interval(self.timing, self.geometry.rows)
        due = 0
        while due < duration_cycles:
            yield due
            due += interval

    # ------------------------------------------------------------------ #
    # Simulation                                                          #
    # ------------------------------------------------------------------ #

    def _fused_eligible(self, trace: Optional[MemoryTrace]) -> bool:
        """Can this run take the fused timeline instead of the event loop?

        Refresh-only runs have no refresh/request interleaving to
        arbitrate, so the whole rank timeline is a closed form: all-bank
        pacing always qualifies; per-bank mode additionally needs every
        policy's automaton to be fused-representable.
        """
        if trace is not None and len(trace):
            return False
        if self.all_bank_refresh:
            return True
        return all(policy.supports_fused_timeline() for policy in self.policies)

    def run(
        self,
        trace: Optional[MemoryTrace] = None,
        duration_cycles: Optional[int] = None,
        bank_of_row: Optional[np.ndarray] = None,
        backend: str = "auto",
    ) -> RankResult:
        """Simulate the rank.

        Args:
            trace: demand requests; rows index into a per-bank address
                space and are assigned to banks by ``bank_of_row`` or
                round-robin on the low row bits.
            duration_cycles: horizon (required if no trace).
            bank_of_row: optional per-request bank indices, shape
                ``(len(trace),)``.
            backend: ``"auto"`` uses the fused rank timeline for
                refresh-only runs (bit-identical to the event loop,
                orders of magnitude faster) and the event loop
                otherwise; ``"fused"`` forces the fused path (raises if
                the run is not refresh-only fused-representable);
                ``"loop"`` forces the event loop (the differential
                oracle).  Under ``"auto"``, an unexpected fused-path
                failure falls back to the event loop with the downgrade
                recorded on the result.
        """
        if backend not in RANK_BACKENDS:
            raise ValueError(
                f"backend must be one of {RANK_BACKENDS}, got {backend!r}"
            )
        if duration_cycles is None:
            if trace is None or len(trace) == 0:
                raise ValueError("need a trace or an explicit duration")
            duration_cycles = trace.duration_cycles + 1
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")
        if backend == "fused" and not self._fused_eligible(trace):
            raise ValueError(
                "backend='fused' needs a refresh-only run (no trace) with "
                "fused-representable policies; use backend='auto' for automatic "
                "fallback to the event loop"
            )

        for bank in self.banks:
            bank.reset()
        for policy in self.policies:
            policy.reset()

        refresh_stats = [
            RefreshStats(duration_cycles=duration_cycles) for _ in self.policies
        ]
        request_stats = RequestStats()
        blocked_intervals: list[tuple[int, int]] = []

        if trace is not None and len(trace):
            if bank_of_row is None:
                banks_for_requests = (trace.rows % self.n_banks).astype(np.int64)
            else:
                banks_for_requests = np.asarray(bank_of_row, dtype=np.int64)
                if banks_for_requests.shape != (len(trace),):
                    raise ValueError(
                        f"bank_of_row shape {banks_for_requests.shape} != ({len(trace)},)"
                    )
                if (banks_for_requests < 0).any() or (
                    banks_for_requests >= self.n_banks
                ).any():
                    raise ValueError("bank indices out of range")
        else:
            banks_for_requests = None

        fused = backend == "fused" or (
            backend == "auto" and self._fused_eligible(trace)
        )
        downgraded_from: Optional[str] = None
        downgrade_reason = ""
        if fused:
            try:
                if self.all_bank_refresh:
                    blocked = self._run_all_bank_fused(duration_cycles, refresh_stats)
                else:
                    blocked = self._run_per_bank_fused(duration_cycles, refresh_stats)
            except (ValueError, NumericalError):
                raise
            except Exception as exc:
                if backend != "auto":
                    raise
                # The fused walk may have mutated policy/bank state and
                # partially filled the stats before failing; rewind
                # everything and replay through the event-loop oracle.
                downgraded_from = "fused"
                downgrade_reason = f"{type(exc).__name__}: {exc}"
                for bank in self.banks:
                    bank.reset()
                for policy in self.policies:
                    policy.reset()
                refresh_stats[:] = [
                    RefreshStats(duration_cycles=duration_cycles)
                    for _ in self.policies
                ]
                fused = False
        if not fused:
            if self.all_bank_refresh:
                self._run_all_bank(
                    trace, banks_for_requests, duration_cycles, refresh_stats,
                    request_stats, blocked_intervals,
                )
            else:
                self._run_per_bank(
                    trace, banks_for_requests, duration_cycles, refresh_stats,
                    request_stats, blocked_intervals,
                )
            blocked = _union_length(blocked_intervals, duration_cycles)
        return RankResult(
            per_bank_refresh=refresh_stats,
            requests=request_stats,
            blocked_cycles=blocked,
            duration_cycles=duration_cycles,
            mode="all-bank" if self.all_bank_refresh else "per-bank",
            downgraded_from=downgraded_from,
            downgrade_reason=downgrade_reason,
        )

    def _serve_request(self, bank_index, arrival, row, is_write, request_stats):
        bank = self.banks[bank_index]
        policy = self.policies[bank_index]
        stall = max(0, bank.busy_until - arrival)
        if policy.modulates_access:
            base, hit = bank.peek_service(row)
            adjusted = int(policy.access_latency_cycles(row, base, hit, arrival))
            outcome = bank.service(arrival, row, latency_cycles=adjusted)
        else:
            outcome = bank.service(arrival, row)
        policy.on_access(row)
        request_stats.record(is_write, outcome.latency_cycles, outcome.row_hit, stall)

    def _next_bank_read(self, bank_index, request_index, read_arrivals, read_ptrs):
        """Arrival cycle of ``bank_index``'s next unserved *read*, or ``None``.

        ``read_arrivals[bank_index]`` holds the sorted (request_index,
        arrival) pairs of the bank's reads; the lazy pointer advances
        monotonically past already-served requests, so the scan is
        amortized O(1) per arbitration.
        """
        indices, arrivals = read_arrivals[bank_index]
        ptr = read_ptrs[bank_index]
        while ptr < len(indices) and indices[ptr] < request_index:
            ptr += 1
        read_ptrs[bank_index] = ptr
        return int(arrivals[ptr]) if ptr < len(indices) else None

    def _run_per_bank(
        self, trace, banks_for_requests, duration_cycles, refresh_stats,
        request_stats, blocked_intervals,
    ):
        heap, periods_by_bank = self._per_bank_heap()
        n_requests = len(trace) if trace is not None else 0
        request_index = 0
        # Per-bank deferral state for reordering mechanisms (DARP): the
        # sorted read arrivals of each reordering bank, a lazy pointer
        # past served requests, and the policy's planning latency/slack.
        any_reorders = any(p.reorders_refresh for p in self.policies)
        read_arrivals = {}
        read_ptrs = {}
        plan_latency = {}
        slack = {}
        if any_reorders and n_requests:
            for bank_index, policy in enumerate(self.policies):
                if not policy.reorders_refresh:
                    continue
                mask = (banks_for_requests == bank_index) & ~trace.is_write
                indices = np.nonzero(mask)[0].astype(np.int64)
                read_arrivals[bank_index] = (
                    indices, trace.cycles[indices].astype(np.int64)
                )
                read_ptrs[bank_index] = 0
                plan_latency[bank_index] = int(policy.kind_latencies[0])
                slack[bank_index] = int(policy.refresh_slack_cycles)
        while True:
            next_due = heap[0][0] if heap else None
            next_req = (
                int(trace.cycles[request_index]) if request_index < n_requests else None
            )
            do_ref = next_due is not None and next_due < duration_cycles
            do_req = next_req is not None and next_req < duration_cycles
            if not do_ref and not do_req:
                break
            service_refresh = do_ref and (
                not do_req or refresh_wins_tie(next_due, next_req)
            )
            if service_refresh and do_req:
                bank_index = heap[0][1]
                if bank_index in read_ptrs:
                    # DARP arbitration: the due bank yields to its own
                    # colliding pending read within the slack budget;
                    # the rank then serves the globally next request
                    # (FCFS), which may target another bank.
                    read_at = self._next_bank_read(
                        bank_index, request_index, read_arrivals, read_ptrs
                    )
                    start = max(next_due, self.banks[bank_index].busy_until)
                    if should_defer_refresh(
                        start, plan_latency[bank_index], read_at, False,
                        next_due + slack[bank_index],
                    ):
                        service_refresh = False
            if service_refresh:
                due, bank_index, row = heapq.heappop(heap)
                command = self.policies[bank_index].refresh_row(row)
                outcome = self.banks[bank_index].refresh(due, command.latency_cycles)
                refresh_stats[bank_index].record(command)
                blocked_intervals.append((outcome.start_cycle, outcome.finish_cycle))
                period = int(periods_by_bank[bank_index][row])
                heapq.heappush(heap, (due + period, bank_index, row))
            else:
                row = int(trace.rows[request_index])
                is_write = bool(trace.is_write[request_index])
                bank_index = int(banks_for_requests[request_index])
                self._serve_request(bank_index, next_req, row % self.geometry.rows,
                                    is_write, request_stats)
                request_index += 1

    def _run_per_bank_fused(self, duration_cycles, refresh_stats):
        """Fused refresh-only per-bank run; returns rank blocked cycles.

        Each bank's refreshes pop from the shared heap in ``(due, row)``
        order and chain FCFS on that bank alone, so per bank the whole
        timeline is: flatten every row's crossings, sort by
        ``(due, row)`` (the heap's tie-break), price the kinds with the
        batched automaton kernel, and solve the busy chain with
        :func:`~repro.sim.timeline.service_starts`.  Bit-identical to
        :meth:`_run_per_bank` (invariant 11).
        """
        all_starts: list[np.ndarray] = []
        all_ends: list[np.ndarray] = []
        n_rows = self.geometry.rows
        for bank_index, policy in enumerate(self.policies):
            periods = period_cycles(policy, self.timing)
            first = first_deadlines(
                periods, bank_index=bank_index, n_banks=self.n_banks
            )
            counts = deadline_counts(first, periods, duration_cycles)
            spec = policy.timeline_spec()
            total = int(counts.sum())
            if total:
                row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
                row_offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
                ordinals = np.arange(total, dtype=np.int64) - np.repeat(
                    row_offsets, counts
                )
                dues = first[row_ids] + ordinals * periods[row_ids]
                order = np.lexsort((row_ids, dues))
                row_ids, ordinals, dues = row_ids[order], ordinals[order], dues[order]
                kinds = crossing_kinds(row_ids, ordinals, spec.phase, spec.cycle_len)
                latencies = spec.kind_latencies[kinds].astype(np.int64)
                starts = service_starts(dues, latencies)
                all_starts.append(starts)
                all_ends.append(starts + latencies)
                stats = refresh_stats[bank_index]
                stats.full_refreshes = int(np.count_nonzero(kinds == 0))
                stats.partial_refreshes = total - stats.full_refreshes
                stats.refresh_cycles = int(latencies.sum())
            spec.commit((counts + spec.phase) % spec.cycle_len)
        if not all_starts:
            return 0
        return union_length(
            np.concatenate(all_starts), np.concatenate(all_ends), duration_cycles
        )

    def _run_all_bank_fused(self, duration_cycles, refresh_stats):
        """Fused refresh-only all-bank run; returns rank blocked cycles.

        Every REF occupies all banks for the same tRFC, so the banks'
        busy chains are identical; one
        :func:`~repro.sim.timeline.service_starts` over the tREFI-paced
        due cycles reproduces :meth:`_run_all_bank` bit for bit.
        """
        trfc = all_bank_trfc(self.policies[0].tau_full)
        interval = all_bank_ref_interval(self.timing, self.geometry.rows)
        dues = np.arange(0, duration_cycles, interval, dtype=np.int64)
        if len(dues) == 0:
            return 0
        starts = service_starts(dues, np.full(len(dues), trfc, dtype=np.int64))
        for stats in refresh_stats:
            stats.refresh_cycles = trfc * len(dues)
            # One REF covers several rows; count row-refreshes so the
            # totals are comparable with per-bank modes.
            stats.full_refreshes = ALL_BANK_ROWS_PER_REF * len(dues)
        return union_length(starts, starts + trfc, duration_cycles)

    def _run_all_bank(
        self, trace, banks_for_requests, duration_cycles, refresh_stats,
        request_stats, blocked_intervals,
    ):
        trfc = all_bank_trfc(self.policies[0].tau_full)
        refresh_dues = list(self._all_bank_refreshes(duration_cycles))
        n_requests = len(trace) if trace is not None else 0
        request_index = 0
        due_index = 0
        while True:
            next_due = refresh_dues[due_index] if due_index < len(refresh_dues) else None
            next_req = (
                int(trace.cycles[request_index]) if request_index < n_requests else None
            )
            do_ref = next_due is not None
            do_req = next_req is not None and next_req < duration_cycles
            if not do_ref and not do_req:
                break
            if do_ref and (not do_req or refresh_wins_tie(next_due, next_req)):
                start = next_due
                for bank_index, bank in enumerate(self.banks):
                    outcome = bank.refresh(next_due, trfc)
                    start = max(start, outcome.start_cycle)
                    stats = refresh_stats[bank_index]
                    stats.refresh_cycles += trfc
                    # One REF covers several rows; count row-refreshes so
                    # the totals are comparable with per-bank modes.
                    stats.full_refreshes += ALL_BANK_ROWS_PER_REF
                blocked_intervals.append((start, start + trfc))
                due_index += 1
            else:
                row = int(trace.rows[request_index])
                is_write = bool(trace.is_write[request_index])
                bank_index = int(banks_for_requests[request_index])
                self._serve_request(bank_index, next_req, row % self.geometry.rows,
                                    is_write, request_stats)
                request_index += 1


def _union_length(intervals: list[tuple[int, int]], horizon: int) -> int:
    """Total length of the union of [start, end) intervals, clipped to horizon."""
    if not intervals:
        return 0
    intervals = sorted(intervals)
    total = 0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += min(current_end, horizon) - min(current_start, horizon)
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    total += min(current_end, horizon) - min(current_start, horizon)
    return max(0, total)
