"""Reference implementations the fast paths are differentially tested against.

None of this is product code: ``src/`` prices refresh overhead with the
fused timeline (built-in policies) or the cycle-level engine
(scalar-only policies).  These slower, simpler forms exist only to
check those paths:

* :func:`round_walk` — the round-by-round refresh walk: round ``k``
  gathers every row whose ``k``-th deadline falls before the horizon,
  applies one batched ``on_access_rows`` for the rows accessed in that
  interval, and takes the whole round's decisions with one ``decide``
  call.  Per row, its (access?, decide) sequence matches the engine, so
  it equals the engine for every policy whose state is strictly per
  row.  It calls ``decide`` round by round, not in time order, so a
  policy whose state spans rows (``examples/custom_policy.py``'s
  global refresh index) can see refreshes in a different order than
  the engine does: that is why ``src/`` prices such policies on the
  engine.
* :func:`segmented_fulls_loop` / :func:`crossing_kinds_loop` — plain
  loop forms of the two fused-timeline kernels in
  :mod:`repro.sim._timeline_kernels`.
"""

from typing import Optional

import numpy as np

from repro.controller.refresh import RefreshPolicy
from repro.sim import (
    DRAMTiming,
    MemoryTrace,
    RefreshStats,
    deadline_counts,
    first_deadlines,
    period_cycles,
    row_deadlines,
)


def _accesses_by_row(trace: Optional[MemoryTrace]) -> dict[int, np.ndarray]:
    """Sorted access-cycle arrays keyed by row (empty without a trace)."""
    if trace is None or len(trace) == 0:
        return {}
    order = np.argsort(trace.rows, kind="stable")
    rows_sorted = trace.rows[order]
    cycles_sorted = trace.cycles[order]
    boundaries = np.nonzero(np.diff(rows_sorted))[0] + 1
    # Stable sort keeps trace order, and trace cycles are non-decreasing,
    # so each group is already sorted by cycle.
    return {
        int(rows_sorted[group[0]]): cycles_sorted[group]
        for group in np.split(np.arange(len(rows_sorted)), boundaries)
        if len(group)
    }


def _access_rounds(trace, n_rows, first, periods, counts, duration_cycles, max_rounds):
    """Boolean (rows, rounds) matrix: interval ``k`` of a row saw an access.

    An access at cycle ``c`` affects the first deadline due strictly
    after ``c`` (refresh wins ties); entry ``[r, k]`` is therefore "at
    least one access to ``r`` landed strictly before its ``k``-th
    deadline and at/after its ``(k-1)``-th".  ``None`` when the trace
    carries no accesses.
    """
    accesses = _accesses_by_row(trace)
    if not accesses:
        return None
    had_access = np.zeros((n_rows, max_rounds), dtype=bool)
    for row, row_accesses in accesses.items():
        if not 0 <= row < n_rows or counts[row] == 0:
            continue
        dues = row_deadlines(int(first[row]), int(periods[row]), duration_cycles)
        # Accesses strictly before each deadline; an increase since the
        # previous deadline means at least one access in the interval.
        seen = np.searchsorted(row_accesses, dues, side="left")
        had_access[row, : counts[row]] = np.diff(np.concatenate(([0], seen))) > 0
    return had_access


def round_walk(
    policy: RefreshPolicy,
    timing: DRAMTiming,
    duration_cycles: int,
    trace: Optional[MemoryTrace] = None,
) -> RefreshStats:
    """Refresh statistics by one batched ``decide`` per scheduling round."""
    if duration_cycles <= 0:
        raise ValueError(f"duration must be positive, got {duration_cycles}")
    policy.reset()
    stats = RefreshStats(duration_cycles=duration_cycles)
    periods = period_cycles(policy, timing)
    first = first_deadlines(periods)
    counts = deadline_counts(first, periods, duration_cycles)
    max_rounds = int(counts.max(initial=0))
    if max_rounds == 0:
        return stats
    had_access = _access_rounds(
        trace, policy.n_rows, first, periods, counts, duration_cycles, max_rounds
    )
    for round_index in range(max_rounds):
        rows = np.nonzero(counts > round_index)[0]
        if had_access is not None:
            accessed = rows[had_access[rows, round_index]]
            if len(accessed):
                policy.on_access_rows(accessed)
        kinds, latencies = policy.decide(rows)
        stats.record_batch(kinds, latencies)
    return stats


def segmented_fulls_loop(counts, phase, cycle_len, reset_rows, reset_ordinals):
    """Loop form of :func:`repro.sim._timeline_kernels.segmented_fulls`.

    Rows without resets take the closed form; rows that appear in
    ``reset_rows`` (sorted by row, then ordinal) are recomputed segment
    by segment.  A reset at ordinal ``k`` restarts the cadence *before*
    the ``k``-th crossing's decision, like the round walk's
    access-then-decide order.
    """
    fulls = (counts + phase) // cycle_len
    final_phase = (counts + phase) % cycle_len
    i = 0
    n = reset_rows.shape[0]
    while i < n:
        row = reset_rows[i]
        m1 = cycle_len[row]
        start = phase[row]
        prev = 0
        full_count = 0
        while i < n and reset_rows[i] == row:
            ordinal = reset_ordinals[i]
            full_count += (ordinal - prev + start) // m1
            start = 0
            prev = ordinal
            i += 1
        tail = counts[row] - prev
        full_count += tail // m1
        fulls[row] = full_count
        final_phase[row] = tail % m1
    return fulls, final_phase


def crossing_kinds_loop(rows, ordinals, phase, cycle_len):
    """Loop form of :func:`repro.sim._timeline_kernels.crossing_kinds`."""
    kinds = np.empty(rows.shape[0], dtype=np.uint8)
    for i in range(rows.shape[0]):
        row = rows[i]
        full = (ordinals[i] + phase[row] + 1) % cycle_len[row] == 0
        kinds[i] = 0 if full else 1
    return kinds
