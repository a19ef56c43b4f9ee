"""Fused ndarray timeline: zero-Python-loop refresh evaluation.

Walking scheduling *rounds* — a Python ``for`` over ``max_rounds`` with
one ``decide`` call per round — would dominate the Fig. 4/5 sweeps.
This module has no such loop.  The observation: every built-in policy's per-row decision sequence is
a modular counter (see
:class:`~repro.controller.refresh.TimelineSpec`), so the *entire*
timeline of deadline crossings can be evaluated at once:

1. **compile** — per-row quantized periods and staggered first
   deadlines come once from :mod:`~repro.sim.schedule` at construction
   (compile-once / evaluate-many, like ``circuit.CircuitSession``);
2. **precompute crossings** — per-row crossing counts per epoch via
   :func:`~repro.sim.schedule.deadline_counts` /
   :func:`~repro.sim.schedule.window_deadline_counts`, and access-driven
   cadence resets as one vectorized pass over the whole trace (interval
   index per access in O(n_accesses), no per-row Python);
3. **evaluate** — one batched numpy kernel call
   (:func:`~repro.sim._timeline_kernels.segmented_fulls`) yields every
   row's full/partial split and end-of-timeline counter phase;
   statistics reduce with scatter/sum ops.

Results are bit-identical to the cycle-level engine and to the
round-walk oracle kept in ``tests/oracles.py`` (invariant 11;
three-way differential harness in
``tests/test_differential_engine_fastpath.py``).  Policies whose
customization the closed form cannot represent report
``supports_fused_timeline() == False``; this class refuses them and
:class:`~repro.sim.fastpath.RefreshOverheadEvaluator` prices them on
the cycle-level engine instead — never silently unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..controller.refresh import RefreshPolicy
from ..guard import assert_finite
from ._timeline_kernels import segmented_fulls
from .schedule import (
    deadline_counts,
    first_deadlines,
    period_cycles,
    window_deadline_counts,
)
from .stats import RefreshStats
from .timing import DRAMTiming
from .trace import MemoryTrace

__all__ = [
    "FusedTimeline",
    "TimelineReport",
    "service_starts",
    "union_length",
]


@dataclass(frozen=True)
class TimelineReport:
    """Telemetry of one fused evaluation (not part of the statistics).

    Attributes:
        crossings: deadline crossings evaluated (the work unit the
            benchmarks report as rows·intervals).
        resets: access-driven cadence restarts applied.
        epochs: timeline windows the horizon was split into.
    """

    crossings: int
    resets: int
    epochs: int


class FusedTimeline:
    """Compiled fused-timeline evaluator for one (policy, timing) pair.

    Construction compiles the schedule (quantized periods, staggered
    first deadlines); :meth:`evaluate` then prices any horizon/trace
    without a Python loop over rounds.  Reuse one instance across
    evaluations of the same bank — the compiled schedule and the
    per-duration crossing counts are cached.

    Args:
        policy: refresh policy; must satisfy
            :meth:`~repro.controller.refresh.RefreshPolicy.supports_fused_timeline`
            (callers that must price any policy use
            :class:`~repro.sim.fastpath.RefreshOverheadEvaluator`).
        timing: command timings (cycle clock and deadline quantization).
        epoch_cycles: split horizons into windows of this many cycles;
            ``None`` evaluates the whole horizon as one epoch.  Epoch
            splitting bounds the working set for very long horizons and
            is bit-neutral (the window decomposition is property-tested
            against the one-shot pass).
    """

    def __init__(
        self,
        policy: RefreshPolicy,
        timing: DRAMTiming,
        epoch_cycles: Optional[int] = None,
    ):
        if not policy.supports_fused_timeline():
            raise ValueError(
                f"policy {policy.name!r} customizes the decision surface without a "
                "matching timeline_spec; price it with RefreshOverheadEvaluator, "
                "which runs such policies on the cycle-level engine"
            )
        if epoch_cycles is not None and epoch_cycles <= 0:
            raise ValueError(f"epoch_cycles must be positive, got {epoch_cycles}")
        self.policy = policy
        self.timing = timing
        self.epoch_cycles = epoch_cycles
        self._periods = period_cycles(policy, timing)
        self._first = first_deadlines(self._periods)
        self._counts_cache: tuple[int, np.ndarray] = (-1, np.empty(0, dtype=np.int64))
        self.last_report: Optional[TimelineReport] = None

    def _counts(self, duration_cycles: int) -> np.ndarray:
        """Per-row crossing counts for a horizon, cached per duration."""
        cached_duration, cached = self._counts_cache
        if cached_duration != duration_cycles:
            cached = deadline_counts(self._first, self._periods, duration_cycles)
            self._counts_cache = (duration_cycles, cached)
        return cached

    def _access_resets(
        self, trace: Optional[MemoryTrace], counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unique (row, crossing-ordinal) cadence resets from a trace.

        An access at cycle ``c`` lands in the interval that ends at the
        first deadline strictly after ``c`` (refresh wins ties, so an
        access *on* a deadline affects the next interval): ordinal 0
        for ``c < first``, else ``(c - first) // period + 1``.  Ordinals
        at or past the row's crossing count (accesses beyond the
        horizon) are inert.  One vectorized pass over the whole trace,
        with no per-row Python loop.
        """
        empty = np.empty(0, dtype=np.int64)
        if trace is None or len(trace) == 0:
            return empty, empty
        n = self.policy.n_rows
        rows = np.asarray(trace.rows, dtype=np.int64)
        cycles = np.asarray(trace.cycles, dtype=np.int64)
        in_bank = (rows >= 0) & (rows < n)
        rows, cycles = rows[in_bank], cycles[in_bank]
        if len(rows) == 0:
            return empty, empty
        first = self._first[rows]
        ordinals = np.where(
            cycles < first, 0, (cycles - first) // self._periods[rows] + 1
        )
        live = ordinals < counts[rows]
        rows, ordinals = rows[live], ordinals[live]
        if len(rows) == 0:
            return empty, empty
        order = np.lexsort((ordinals, rows))
        rows, ordinals = rows[order], ordinals[order]
        fresh = np.empty(len(rows), dtype=bool)
        fresh[0] = True
        fresh[1:] = (rows[1:] != rows[:-1]) | (ordinals[1:] != ordinals[:-1])
        return rows[fresh], ordinals[fresh]

    def evaluate(
        self,
        duration_cycles: int,
        trace: Optional[MemoryTrace] = None,
    ) -> RefreshStats:
        """Refresh statistics over ``duration_cycles`` of simulated time.

        Same contract (and bit-identical results) as
        :meth:`repro.sim.fastpath.RefreshOverheadEvaluator.evaluate`
        and the cycle-level engine's refresh accounting.  Failures
        propagate; the evaluator owns the fallback to the engine.

        Args:
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued.
            trace: demand accesses (only their (row, cycle) structure
                matters, and only for access-coupled policies).
        """
        if duration_cycles <= 0:
            raise ValueError(f"duration must be positive, got {duration_cycles}")
        self.policy.reset()
        stats = RefreshStats(duration_cycles=duration_cycles)
        spec = self.policy.timeline_spec()
        counts = self._counts(duration_cycles)
        total_crossings = int(counts.sum())
        if total_crossings == 0:
            self.last_report = TimelineReport(0, 0, 1)
            return stats

        if spec.resets_on_access:
            reset_rows, reset_ordinals = self._access_resets(trace, counts)
        else:
            reset_rows = reset_ordinals = np.empty(0, dtype=np.int64)

        phase = spec.phase
        total_fulls = 0
        epochs = 0
        for epoch_counts, epoch_rows, epoch_ordinals in self._epochs(
            duration_cycles, counts, reset_rows, reset_ordinals
        ):
            epochs += 1
            fulls, phase = segmented_fulls(
                epoch_counts,
                phase,
                spec.cycle_len,
                epoch_rows,
                epoch_ordinals,
            )
            total_fulls += int(fulls.sum())
        spec.commit(phase)

        stats.full_refreshes = total_fulls
        stats.partial_refreshes = total_crossings - total_fulls
        stats.refresh_cycles = int(
            total_fulls * int(spec.kind_latencies[0])
            + stats.partial_refreshes * int(spec.kind_latencies[1])
        )
        assert_finite(float(stats.refresh_cycles), "sim.timeline.evaluate", "refresh_cycles")
        self.last_report = TimelineReport(
            crossings=total_crossings,
            resets=int(len(reset_rows)),
            epochs=epochs,
        )
        return stats

    def _epochs(self, duration_cycles, counts, reset_rows, reset_ordinals):
        """Yield per-epoch (counts, reset rows, epoch-relative ordinals).

        Single-epoch runs pass the precomputed arrays through untouched;
        windowed runs slice the horizon into ``epoch_cycles`` chunks and
        rebase reset ordinals onto each window's first crossing.
        """
        if self.epoch_cycles is None or self.epoch_cycles >= duration_cycles:
            yield counts, reset_rows, reset_ordinals
            return
        for start in range(0, duration_cycles, self.epoch_cycles):
            stop = min(start + self.epoch_cycles, duration_cycles)
            epoch_counts = window_deadline_counts(
                self._first, self._periods, start, stop
            )
            base = deadline_counts(self._first, self._periods, start)
            if len(reset_rows):
                global_base = base[reset_rows]
                in_window = (reset_ordinals >= global_base) & (
                    reset_ordinals < global_base + epoch_counts[reset_rows]
                )
                yield (
                    epoch_counts,
                    reset_rows[in_window],
                    (reset_ordinals - global_base)[in_window],
                )
            else:
                yield epoch_counts, reset_rows, reset_ordinals


def service_starts(dues: np.ndarray, busy_cycles: np.ndarray) -> np.ndarray:
    """Start cycles of back-to-back operations on one busy resource.

    The bank's FCFS recurrence ``start_i = max(due_i, finish_{i-1})``
    with ``finish_i = start_i + busy_i`` solved in closed form: with
    exclusive prefix sums ``P`` of the busy times, a chain served
    back-to-back since operation ``j`` starts at ``due_j + P_i - P_j``,
    so ``start_i = max_{j<=i}(due_j - P_j) + P_i`` — one
    ``np.maximum.accumulate``, no Python loop.  ``dues`` must be sorted
    ascending (the order the event loop pops them).
    """
    if len(dues) == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.concatenate(([0], np.cumsum(busy_cycles)[:-1]))
    return np.maximum.accumulate(dues - prefix) + prefix


def union_length(starts: np.ndarray, ends: np.ndarray, horizon: int) -> int:
    """Total covered length of ``[start, end)`` intervals, clipped.

    Vectorized equivalent of the rank simulator's interval-union
    bookkeeping: sort by start, track the covered frontier with a
    running maximum of ends, and sum each interval's contribution past
    the frontier.
    """
    if len(starts) == 0:
        return 0
    order = np.argsort(starts, kind="stable")
    starts = np.minimum(starts[order], horizon)
    ends = np.minimum(ends[order], horizon)
    frontier = np.concatenate(
        ([starts[0]], np.maximum.accumulate(ends)[:-1])
    )
    contributions = np.maximum(0, ends - np.maximum(starts, frontier))
    return int(contributions.sum())
