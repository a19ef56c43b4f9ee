"""Trace-driven DRAM bank simulation substrate (Sec. 4.1).

The paper feeds Ramulator-generated memory traces into an in-house
simulator of an 8192x32 bank and measures "cycles spent refreshing the
bank" under each policy.  This package is that simulator:

* :mod:`~repro.sim.timing` — DDR-style timing parameters in controller
  cycles;
* :mod:`~repro.sim.trace` — memory-trace representation and I/O
  (Ramulator-compatible text format);
* :mod:`~repro.sim.bank` — a cycle-level single-bank model (row buffer,
  ACT/PRE/CAS timings, refresh blocking);
* :mod:`~repro.sim.schedule` — the shared refresh-deadline semantics
  (staggered first deadlines, interval arithmetic, refresh-wins-ties
  arbitration, all-bank REF pacing) every simulator consumes;
* :mod:`~repro.sim.engine` — the cycle-level trace-driven simulator;
* :mod:`~repro.sim.fastpath` — the exact refresh-overhead evaluator
  used for the full Fig. 4 sweep: the fused timeline for every
  built-in policy, the cycle-level engine for policies it cannot
  represent (validated against the engine in the integration and
  differential tests);
* :mod:`~repro.sim.timeline` — the fused ndarray timeline: all
  deadline crossings of a horizon priced in one batched numpy kernel
  call, zero Python-level loops;
* :mod:`~repro.sim.rank` — multi-bank rank simulation comparing JEDEC
  all-bank refresh against the per-bank row-targeted mode VRL needs;
* :mod:`~repro.sim.stats` — result containers;
* :mod:`~repro.sim.trace_stats` — trace analysis and the closed-form
  Markov prediction of VRL-Access behaviour from window coverage.
"""

from .bank import Bank
from .engine import BankSimulator, SimulationResult
from .fastpath import RefreshOverheadEvaluator
from .rank import RankResult, RankSimulator
from .schedule import (
    ALL_BANK_ROWS_PER_REF,
    all_bank_ref_interval,
    all_bank_trfc,
    deadline_counts,
    first_deadlines,
    period_cycles,
    refresh_wins_tie,
    row_deadlines,
    window_deadline_counts,
)
from .stats import RefreshStats, RequestStats
from .timeline import (
    FusedTimeline,
    TimelineReport,
    service_starts,
    union_length,
)
from .timing import DRAMTiming
from .trace_stats import (
    TraceStatistics,
    analyze_trace,
    predict_vrl_access_cycles,
    predicted_full_fraction,
    window_coverage,
)
from .trace import MemoryTrace, load_trace, merge_traces, save_trace

__all__ = [
    "Bank",
    "BankSimulator",
    "SimulationResult",
    "RefreshOverheadEvaluator",
    "RankResult",
    "RankSimulator",
    "ALL_BANK_ROWS_PER_REF",
    "all_bank_ref_interval",
    "all_bank_trfc",
    "deadline_counts",
    "first_deadlines",
    "period_cycles",
    "refresh_wins_tie",
    "row_deadlines",
    "window_deadline_counts",
    "RefreshStats",
    "RequestStats",
    "FusedTimeline",
    "TimelineReport",
    "service_starts",
    "union_length",
    "DRAMTiming",
    "TraceStatistics",
    "analyze_trace",
    "predict_vrl_access_cycles",
    "predicted_full_fraction",
    "window_coverage",
    "MemoryTrace",
    "load_trace",
    "merge_traces",
    "save_trace",
]
