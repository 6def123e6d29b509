"""Symbolic time-intervals, tolerant time comparison, and temporal relations.

Time points are integers. All comparisons go through an epsilon margin so
that two time points within ``epsilon`` of each other count as equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# The eight temporal relations between an ordered pair of intervals.
BEFORE = "b"
MEET = "m"
OVERLAP = "o"
CONTAIN = "c"
FINISHED_BY = "f"
EQUAL = "e"
STARTS = "s"
LEFT_CONTAIN = "l"

RELATIONS = (BEFORE, MEET, OVERLAP, CONTAIN, FINISHED_BY, EQUAL, STARTS, LEFT_CONTAIN)

# Results of compare_eps.
PRECEDES_EPS = -1
QUASI_EQUAL = 0
FOLLOWS_EPS = 1


class SymbolicInterval(NamedTuple):
    """One event occurrence: an event type with a start and end time.

    The input type of ``make_sequence``. A database holds plain ``(start,
    end, event)`` tuples: they compare equal to it and sort the same way, in
    the canonical interval order, and the garbage collector untracks them, as
    it never does a named tuple. Construction checks nothing:
    ``parse_database`` and ``make_sequence`` reject an end before its start,
    a negative time and a duplicate within a sequence.
    """

    start: int
    end: int
    event: str


@dataclass(frozen=True)
class Span:
    """Bare (start, end) geometry, used for the composite envelope of a pattern."""

    start: int
    end: int


@dataclass(frozen=True)
class Constraints:
    """Mining constraints: noise margin, gap bounds (before-relation only),
    and duration bounds on single intervals and composites.

    ``max_gap`` / ``max_dura`` of None mean unbounded.
    """

    epsilon: int = 0
    min_gap: int = 0
    max_gap: int | None = None
    min_dura: int = 0
    max_dura: int | None = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.min_gap < 0:
            raise ValueError("min_gap must be >= 0")
        if self.max_gap is not None and self.max_gap < self.min_gap:
            raise ValueError("max_gap must be >= min_gap")
        if self.min_dura < 0:
            raise ValueError("min_dura must be >= 0")
        if self.max_dura is not None and self.max_dura < self.min_dura:
            raise ValueError("max_dura must be >= min_dura")


def compare_eps(t1: int, t2: int, epsilon: int) -> int:
    """Three-way comparison of time points under the epsilon margin.

    Returns PRECEDES_EPS (-1) if t1 precedes t2 by more than epsilon,
    QUASI_EQUAL (0) if |t1 - t2| <= epsilon, FOLLOWS_EPS (1) otherwise.
    """
    d = t2 - t1
    if d > epsilon:
        return PRECEDES_EPS
    if -d > epsilon:
        return FOLLOWS_EPS
    return QUASI_EQUAL


def interval_precedes(a, b, epsilon: int) -> bool:
    """Strict ordering of intervals, plain tuples or named: by start, then
    end, then event name.

    Returns False for a pair that is fully quasi-equal with the same event;
    the database validator rejects such duplicates upstream.
    """
    cs = compare_eps(a[0], b[0], epsilon)
    if cs != QUASI_EQUAL:
        return cs == PRECEDES_EPS
    ce = compare_eps(a[1], b[1], epsilon)
    if ce != QUASI_EQUAL:
        return ce == PRECEDES_EPS
    return a[2] < b[2]


def _classify(a_start: int, a_end: int, b_start: int, b_end: int, epsilon: int) -> str:
    """Relation between ordered spans; callers guarantee a_start <= b_start + eps."""
    gap = b_start - a_end
    if gap > epsilon:
        return BEFORE
    if -gap <= epsilon:  # |b.start - a.end| <= eps
        return MEET
    # b starts strictly inside a
    if compare_eps(a_start, b_start, epsilon) == QUASI_EQUAL:
        ce = compare_eps(a_end, b_end, epsilon)
        if ce == QUASI_EQUAL:
            return EQUAL
        return STARTS if ce == PRECEDES_EPS else LEFT_CONTAIN
    ce = compare_eps(a_end, b_end, epsilon)
    if ce == QUASI_EQUAL:
        return FINISHED_BY
    return OVERLAP if ce == PRECEDES_EPS else CONTAIN


def classify_relation(a, b, epsilon: int) -> str:
    """Classify the temporal relation between a (interval or composite span)
    and b, where a is ordered before-or-tied with b.

    Raises ValueError when a's start follows b's start by more than epsilon,
    which indicates a caller bug.
    """
    if a.start - b.start > epsilon:
        raise ValueError(f"intervals out of order: a.start={a.start}, b.start={b.start}")
    return _classify(a.start, a.end, b.start, b.end, epsilon)


def _check_extension(
    a_start: int, a_end: int, b_start: int, b_end: int, c: Constraints
) -> str | None:
    """Relation between composite span a and interval b if the extension is
    valid under the constraints, else None.

    Gap bounds apply only to the before relation; the merged composite
    duration must lie within [min_dura, max_dura]. A pair whose ordering
    precondition fails (possible only for epsilon > 0) is not extendable.
    """
    if a_start - b_start > c.epsilon:
        return None
    rel = _classify(a_start, a_end, b_start, b_end, c.epsilon)
    if rel == BEFORE:
        gap = b_start - a_end
        if gap < c.min_gap:
            return None
        if c.max_gap is not None and gap > c.max_gap:
            return None
    dura = max(a_end, b_end) - min(a_start, b_start)
    if dura < c.min_dura:
        return None
    if c.max_dura is not None and dura > c.max_dura:
        return None
    return rel


def check_extension_validity(a, b, c: Constraints) -> str | None:
    """Public wrapper over _check_extension for interval-like arguments."""
    return _check_extension(a.start, a.end, b.start, b.end, c)


def duration_ok(duration: int, c: Constraints) -> bool:
    """Single-interval duration filter applied when seeding patterns."""
    return c.min_dura <= duration and (c.max_dura is None or duration <= c.max_dura)
