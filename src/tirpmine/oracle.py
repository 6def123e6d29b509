"""Brute-force ground truth for small databases.

Enumerates every ordered tuple of intervals per sequence and validates it
left to right with the same extension rule the miner uses, but with no
vertical database, no pair support matrix, and no pruning. Intended for
tests only; guarded against large inputs.
"""
from __future__ import annotations

from .model import Constraints, _check_extension, duration_ok
from .database import Database
from .miner import contains_subsequence

MAX_SEQ_INTERVALS = 30
MAX_PATTERN_LEN = 8

OracleResult = dict[tuple[str, ...], tuple[int, tuple[int, ...]]]


def enumerate_all(
    db: Database, c: Constraints, max_len: int, threshold: float
) -> OracleResult:
    """All event sequences with vertical support >= threshold, exhaustively."""
    if max_len > MAX_PATTERN_LEN:
        raise ValueError(f"max_len {max_len} exceeds oracle guard {MAX_PATTERN_LEN}")
    for seq in db.sequences:
        if len(seq.intervals) > MAX_SEQ_INTERVALS:
            raise ValueError(
                f"sequence {seq.sid} has {len(seq.intervals)} intervals, "
                f"oracle guard is {MAX_SEQ_INTERVALS}"
            )

    sids: dict[tuple[str, ...], set[int]] = {}

    def grow(seq, pos, start_t, end_t, events):
        sids.setdefault(events, set()).add(seq.sid)
        if len(events) == max_len:
            return
        for j in range(pos + 1, len(seq.intervals)):
            start, end, event = seq.intervals[j]
            # extension candidates are drawn from duration-valid intervals,
            # matching the join against singleton vertical databases
            if not duration_ok(end - start, c):
                continue
            if _check_extension(start_t, end_t, start, end, c) is None:
                continue
            grow(seq, j, min(start_t, start), max(end_t, end), events + (event,))

    for seq in db.sequences:
        for i, (start, end, event) in enumerate(seq.intervals):
            if duration_ok(end - start, c):
                grow(seq, i, start, end, (event,))

    return {
        events: (len(s), tuple(sorted(s)))
        for events, s in sids.items()
        if len(s) >= threshold
    }


def target_filter(result: OracleResult, qes) -> OracleResult:
    """Keep entries whose event sequence contains qes as a subsequence."""
    qes = tuple(qes)
    return {ev: v for ev, v in result.items() if contains_subsequence(ev, qes)}
