"""Statistics and output digests shared by the benchmark's parts."""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Iterable, Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail latency.

    The tail is the highest percentile that has at least
    :data:`TAIL_BEYOND` samples beyond it: the order statistic with
    exactly that many samples above it, at percentile ``100 (n - 10) / n``.
    With too few samples for any such percentile it is the maximum,
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def canonical(payload: Any) -> str:
    """JSON text that is equal exactly when the payloads are equal."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)


def digest(payloads: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of ``payloads`` in order."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(canonical(payload).encode())
        h.update(b"\n")
    return h.hexdigest()
