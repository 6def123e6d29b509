"""Vertical databases of patterns and the pair support matrix.

A vertical database holds one pattern's occurrences grouped by sequence id,
``sid -> [occurrence, ...]``, with no empty lists, so its vertical support
is its number of keys. Singleton lists are in ascending ``eid`` order, which
lets a join bisect them.

An occurrence records where one embedding of a pattern lives inside one
sequence: positions are 1-based, ``eid`` is the position of the last source
interval, and ``start_t``/``end_t`` are the composite envelope. An extended
occurrence keeps only its last step's relation and a link to the prefix
occurrence it extends; its relations and source positions are read back
through those links, so a new occurrence costs O(1) at any depth.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .model import Constraints, _check_extension, duration_ok
from .database import Database


class PatternOccurrence(NamedTuple):
    sid: int
    eid: int
    start_t: int
    end_t: int
    relation: str | None = None  # relation of the last step; None for a singleton
    prefix: PatternOccurrence | None = None

    def _chain(self) -> list[PatternOccurrence]:
        """This occurrence and its prefixes, last step first."""
        chain = [self]
        while chain[-1].prefix is not None:
            chain.append(chain[-1].prefix)
        return chain

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(r.relation for r in reversed(self._chain()[:-1]))

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(r.eid for r in reversed(self._chain()))


@dataclass
class VerticalDatabase:
    events: tuple[str, ...]
    by_sid: dict[int, list[PatternOccurrence]]

    @property
    def rows(self) -> list[PatternOccurrence]:
        """All occurrences, grouped by sequence in insertion order."""
        return [r for rows in self.by_sid.values() for r in rows]

    def vertical_support(self) -> int:
        return len(self.by_sid)

    def horizontal_support(self, sid: int) -> int:
        return len(self.by_sid.get(sid, ()))

    def supporting_sids(self) -> list[int]:
        return sorted(self.by_sid)


class PairSupportMatrix:
    """Vertical support of ordered event pairs, used as a pruning upper bound."""

    def __init__(self, entries: dict[tuple[str, str], int]):
        self._entries = entries

    def support(self, e1: str, e2: str) -> int:
        return self._entries.get((e1, e2), 0)

    def __len__(self) -> int:
        return len(self._entries)


def build_singleton_vdbs(db: Database, c: Constraints) -> dict[str, VerticalDatabase]:
    """One vertical database per event type; intervals failing the duration
    bounds are dropped."""
    groups: dict[str, dict[int, list[PatternOccurrence]]] = {}
    for seq in db.sequences:
        for pos, interval in enumerate(seq.intervals, start=1):
            if duration_ok(interval, c):
                groups.setdefault(interval.event, {}).setdefault(seq.sid, []).append(
                    PatternOccurrence(seq.sid, pos, interval.start, interval.end))
    return {event: VerticalDatabase((event,), by_sid) for event, by_sid in groups.items()}


def build_psm(db: Database, c: Constraints,
              events: set[str] | None = None) -> PairSupportMatrix:
    """Count, per ordered event pair, the sequences holding at least one
    interval pair whose merged duration fits max_dura.

    Gap bounds and min_dura are deliberately not checked here: a pair may
    embed inside a longer composite that satisfies them, so screening on
    them would break the downward closure the pruning relies on.

    ``events``, if given, scopes the matrix to pairs of those events: each
    sequence is cut to their intervals before pairing. The scope is exact
    for every pair it keeps, since the cut removes no interval of either
    event; pairs outside it read as 0.
    """
    counts: dict[tuple[str, str], int] = {}
    for seq in db.sequences:
        pairs: set[tuple[str, str]] = set()
        intervals = seq.intervals
        if events is not None:
            intervals = [iv for iv in intervals if iv.event in events]
        n = len(intervals)
        for i in range(n):
            a = intervals[i]
            for j in range(i + 1, n):
                b = intervals[j]
                key = (a.event, b.event)
                if key in pairs:
                    continue
                if c.max_dura is not None:
                    dura = max(a.end, b.end) - min(a.start, b.start)
                    if dura > c.max_dura:
                        continue
                pairs.add(key)
        for key in pairs:
            counts[key] = counts.get(key, 0) + 1
    return PairSupportMatrix(counts)


_eid = attrgetter("eid")


def extend_vdb(
    prefix: VerticalDatabase,
    candidate: str,
    singleton: VerticalDatabase,
    c: Constraints,
) -> VerticalDatabase:
    """Join the prefix pattern with a candidate event's singleton rows.

    For each prefix row, candidate rows in the same sequence with a larger
    eid are screened by the extension validity rule against the prefix's
    composite envelope.
    """
    by_sid: dict[int, list[PatternOccurrence]] = {}
    candidates = singleton.by_sid
    for sid, prefix_rows in prefix.by_sid.items():
        qrows = candidates.get(sid)
        if qrows is None:
            continue
        rows = []
        for r in prefix_rows:
            start_t, end_t = r.start_t, r.end_t
            for q in qrows[bisect_right(qrows, r.eid, key=_eid):]:
                rel = _check_extension(start_t, end_t, q.start_t, q.end_t, c)
                if rel is None:
                    continue
                rows.append(PatternOccurrence(
                    sid, q.eid, min(start_t, q.start_t), max(end_t, q.end_t), rel, r))
        if rows:
            by_sid[sid] = rows
    return VerticalDatabase(prefix.events + (candidate,), by_sid)
