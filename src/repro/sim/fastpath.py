"""Exact refresh-overhead evaluation for full-length traces.

The cycle-level engine walks every demand request; for the Fig. 4 sweep
(a dozen benchmarks x several policies x seconds of simulated time) that
is needlessly slow, because refresh accounting only depends on *which
rows were accessed in which refresh interval*, never on how many times
or exactly when within the interval (an extra ``on_access`` reset of an
already-reset counter is a no-op).

:class:`RefreshOverheadEvaluator` prices a policy in one of exactly two
ways, chosen by the policy itself:

* a policy whose
  :meth:`~repro.controller.refresh.RefreshPolicy.supports_fused_timeline`
  is true — every built-in mechanism — runs on
  :class:`~repro.sim.timeline.FusedTimeline`, which prices all deadline
  crossings of the horizon in one batched numpy kernel call;
* any other policy (one that customizes only the scalar
  ``refresh_row`` / ``on_access`` hooks, such as
  ``examples/custom_policy.py``) runs on the cycle-level
  :class:`~repro.sim.engine.BankSimulator`, the ground truth.  Such a
  policy may keep state across rows, so only a walk of every refresh
  in time order prices it faithfully.

Both paths return the engine's refresh statistics bit for bit
(invariant 11); ``tests/test_differential_engine_fastpath.py`` pins the
fused path against the engine and the round-walk oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Optional

from ..controller.refresh import RefreshPolicy
from ..guard import NumericalError
from .engine import BankSimulator
from .stats import RefreshStats
from .timeline import FusedTimeline
from .timing import DRAMTiming
from .trace import MemoryTrace


class RefreshOverheadEvaluator:
    """Refresh-overhead evaluation: fused timeline, or the engine.

    Args:
        policy: refresh policy to drive.
        timing: command timings (sets the tREFI-staggered deadlines and
            the cycle clock).

    Attributes:
        timeline: the compiled fused timeline, reused across
            evaluations; ``None`` when the engine prices the policy.
        downgrades: one ``{"from", "to", "reason"}`` record per
            fused -> engine downgrade.
    """

    def __init__(self, policy: RefreshPolicy, timing: DRAMTiming):
        self.policy = policy
        self.timing = timing
        self.downgrades: list[dict] = []
        self.timeline: Optional[FusedTimeline] = (
            FusedTimeline(policy, timing) if policy.supports_fused_timeline() else None
        )

    def evaluate(
        self,
        duration_cycles: int,
        trace: Optional[MemoryTrace] = None,
    ) -> RefreshStats:
        """Refresh statistics over ``duration_cycles`` of simulated time.

        An unexpected fused-path failure (anything other than input
        validation or a finite-value guard) permanently moves the
        evaluator onto the engine, which replays the evaluation; the
        event lands in :attr:`downgrades`.

        Args:
            duration_cycles: simulation horizon; refreshes due at or
                after it are not issued (same convention as the engine).
            trace: demand accesses.
        """
        if self.timeline is not None:
            try:
                return self.timeline.evaluate(duration_cycles, trace)
            except (ValueError, NumericalError):
                raise
            except Exception as exc:
                self.downgrades.append(
                    {
                        "from": "fused",
                        "to": "engine",
                        "reason": f"{type(exc).__name__}: {exc}",
                    }
                )
                self.timeline = None
        return BankSimulator(self.policy, self.timing).run(trace, duration_cycles).refresh
