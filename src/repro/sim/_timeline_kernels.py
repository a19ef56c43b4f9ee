"""Batch kernels of the fused timeline: vectorized numpy scatter ops.

Both kernels operate on the closed-form automaton of
:class:`~repro.controller.refresh.TimelineSpec`:

* :func:`segmented_fulls` — per-row full-refresh counts (and
  end-of-timeline phases) over a whole horizon, with access-driven
  cadence restarts handled as segments and accumulated with
  ``np.add.at`` scatter ops;
* :func:`crossing_kinds` — per-crossing kind codes for flattened
  ``(row, ordinal)`` crossing batches (the rank simulator needs the
  kind of every crossing, not just totals, to place busy intervals).

``tests/oracles.py`` keeps plain-loop forms of both kernels;
``tests/test_timeline_fused.py`` pins them bit-identical on randomized
inputs and against a brute-force walk of Algorithm 1's counter.
"""

from __future__ import annotations

import numpy as np


def _closed_form(counts, phase, cycle_len):
    """Reset-free closed form: fulls and final phase per row.

    Starting ``phase`` crossings into a cadence of ``cycle_len``, the
    next full lands after ``cycle_len - phase`` crossings and then
    every ``cycle_len`` — so ``counts`` crossings contain
    ``(counts + phase) // cycle_len`` fulls and leave the row
    ``(counts + phase) % cycle_len`` crossings into the cadence.
    """
    return (counts + phase) // cycle_len, (counts + phase) % cycle_len


def segmented_fulls(
    counts: np.ndarray,
    phase: np.ndarray,
    cycle_len: np.ndarray,
    reset_rows: np.ndarray,
    reset_ordinals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row full-refresh counts over a whole timeline window.

    Args:
        counts: crossings of each row inside the window, ``(n_rows,)``.
        phase: cadence phase of each row at window entry.
        cycle_len: per-row cadence (``mprsf + 1``; 1 = always full).
        reset_rows: rows with access-driven cadence restarts, sorted by
            ``(row, ordinal)`` and unique; empty for reset-free runs.
        reset_ordinals: matching window-relative crossing ordinals in
            ``[0, counts[row])``.

    Returns:
        ``(fulls, final_phase)`` — ``int64 (n_rows,)`` arrays; partials
        are ``counts - fulls``.
    """
    fulls, final_phase = _closed_form(counts, phase, cycle_len)
    if len(reset_rows) == 0:
        return fulls, final_phase
    # Vectorized segment arithmetic.  Entry i closes the segment that
    # ends at its reset: length ordinal_i - prev_boundary, starting at
    # the row's entry phase for the first reset of the row and at 0
    # afterwards.  The tail segment (last reset -> window end) carries
    # the row's final phase.
    first_of_row = np.empty(len(reset_rows), dtype=bool)
    first_of_row[0] = True
    np.not_equal(reset_rows[1:], reset_rows[:-1], out=first_of_row[1:])
    last_of_row = np.empty(len(reset_rows), dtype=bool)
    last_of_row[-1] = True
    last_of_row[:-1] = first_of_row[1:]

    prev_boundary = np.where(
        first_of_row, 0, np.concatenate(([0], reset_ordinals[:-1]))
    )
    segment_phase = np.where(first_of_row, phase[reset_rows], 0)
    m1 = cycle_len[reset_rows]
    contributions = (reset_ordinals - prev_boundary + segment_phase) // m1

    rows_with_resets = reset_rows[last_of_row]
    fulls[rows_with_resets] = 0
    np.add.at(fulls, reset_rows, contributions)
    tail = counts[rows_with_resets] - reset_ordinals[last_of_row]
    tail_m1 = m1[last_of_row]
    fulls[rows_with_resets] += tail // tail_m1
    final_phase[rows_with_resets] = tail % tail_m1
    return fulls, final_phase


def crossing_kinds(
    rows: np.ndarray,
    ordinals: np.ndarray,
    phase: np.ndarray,
    cycle_len: np.ndarray,
) -> np.ndarray:
    """Kind code of every crossing in a flattened reset-free batch.

    Args:
        rows: crossing row indices (any order), ``(n_crossings,)``.
        ordinals: per-row crossing ordinals matching ``rows``.
        phase: per-row cadence phase at batch entry.
        cycle_len: per-row cadence.

    Returns:
        ``uint8`` kind codes (``KIND_FULL`` = 0 / ``KIND_PARTIAL`` = 1):
        crossing ``k`` of a row is full iff
        ``(k + phase) % cycle_len == cycle_len - 1``.
    """
    kinds = np.empty(len(rows), dtype=np.uint8)
    np.not_equal((ordinals + phase[rows] + 1) % cycle_len[rows], 0, out=kinds.view(bool))
    return kinds
