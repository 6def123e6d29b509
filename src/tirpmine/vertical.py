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

A prefix is grown by all its candidate events at once: ``extend_prefix``
scans each prefix row's own sequence over the intervals the row can reach,
those after it whose start lies within the gap and duration bounds of its
envelope, and builds rows only for the candidates that reach the support
threshold. ``extend_vdb`` joins a prefix with one candidate's singleton
rows over the same window; it is the reference the scan is tested against.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .model import Constraints, _check_extension, duration_ok
from .database import Database, suffix_minima


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

    @cached_property
    def join_view(self) -> dict[int, tuple[list[int], list[int]]]:
        """Per sequence, the rows' eids, ascending in a singleton database,
        which a join bisects, and the suffix minima of the rows' start
        times: entry ``i`` of the minima is the least ``start_t`` of rows
        ``i`` onward. Built on first use and kept with this database."""
        return {sid: ([r.eid for r in rows], suffix_minima([r.start_t for r in rows]))
                for sid, rows in self.by_sid.items()}

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


def build_singleton_vdbs(db: Database, c: Constraints,
                         threshold: float = 0) -> dict[str, VerticalDatabase]:
    """One vertical database per event type with vertical support at least
    ``threshold``; intervals failing the duration bounds are dropped.

    Rows are made only for events that the database's ``event_support``
    puts in at least ``threshold`` sequences, since the duration filter can
    only lower that count."""
    wanted = {e for e, support in db.event_support.items() if support >= threshold}
    groups: dict[str, dict[int, list[PatternOccurrence]]] = {}
    for seq in db.sequences:
        for pos, (start, end, event) in enumerate(seq.intervals, start=1):
            if event in wanted and duration_ok(end - start, c):
                groups.setdefault(event, {}).setdefault(seq.sid, []).append(
                    PatternOccurrence(seq.sid, pos, start, end))
    return {event: VerticalDatabase((event,), by_sid) for event, by_sid in groups.items()
            if len(by_sid) >= threshold}


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

    A sequence's set of pairs is formed one of two ways. When the span of
    its scoped intervals, their greatest end less their least start, fits
    max_dura, the set is every ``(earlier event, later event)`` pair in
    position order, built in C: a pair's merged duration never exceeds the
    span, so every pair fits. The least start is taken, not the first,
    because at epsilon > 0 starts in position order can fall. Otherwise
    each interval pair is checked against max_dura in turn.
    """
    counts: dict[tuple[str, str], int] = {}
    for seq in db.sequences:
        scoped = [iv for iv in seq.intervals if events is None or iv.event in events]
        if len(scoped) < 2:
            continue
        starts, ends, names = zip(*scoped)
        if c.max_dura is None or max(ends) - min(starts) <= c.max_dura:
            # Fed straight from the iterator, so memory is bounded by the
            # distinct pairs, not by the n(n-1)/2 interval pairs.
            pairs = set(combinations(names, 2))
        else:
            pairs = set()
            # As plain tuples: the pair loop unpacks each one many times,
            # which costs several times less for a plain tuple than for a
            # named one.
            intervals = list(zip(starts, ends, names))
            for i, (a_start, a_end, a_event) in enumerate(intervals, start=1):
                for b_start, b_end, b_event in intervals[i:]:
                    key = (a_event, b_event)
                    if key in pairs:
                        continue
                    if max(a_end, b_end) - min(a_start, b_start) > c.max_dura:
                        continue
                    pairs.add(key)
        for key in pairs:
            counts[key] = counts.get(key, 0) + 1
    return PairSupportMatrix(counts)


_UNBOUNDED = float("inf")


def extend_vdb(
    prefix: VerticalDatabase,
    candidate: str,
    singleton: VerticalDatabase,
    c: Constraints,
    threshold: float = 0,
) -> VerticalDatabase:
    """Join the prefix pattern with a candidate event's singleton rows.

    For each prefix row, candidate rows in the same sequence with a larger
    eid are screened by the extension validity rule against the prefix's
    composite envelope ``(start_t, end_t)``. A candidate can pass only if it
    starts by ``end_t + max(max_gap, epsilon)`` (a before step may leave a
    gap up to max_gap, any other step one up to epsilon) and by
    ``start_t + max_dura`` (else the composite lasts longer than max_dura);
    an unbounded constraint sets no limit. The scan stops at the first
    candidate past which every start exceeds that limit. It bisects the
    suffix minima of the starts rather than the starts themselves, because
    at epsilon > 0 starts in eid order need not be sorted; the minima never
    decrease, so the cut drops no valid candidate.

    ``threshold`` is the support a caller needs. A join that cannot reach it
    returns as soon as that is certain: at once when fewer sequences are
    shared, else once the sequences found plus those left fall short. Such
    a result holds fewer than ``threshold`` sequences and only part of the
    rows; a join that reaches it holds exactly the rows of the full join, in
    the same order. The default of 0 always joins in full.
    """
    events = prefix.events + (candidate,)
    by_sid: dict[int, list[PatternOccurrence]] = {}
    prefixes, candidates = prefix.by_sid, singleton.by_sid
    left = len(prefixes.keys() & candidates.keys())
    if left < threshold:
        return VerticalDatabase(events, by_sid)
    gap_reach = _UNBOUNDED if c.max_gap is None else max(c.max_gap, c.epsilon)
    dura_reach = _UNBOUNDED if c.max_dura is None else c.max_dura
    view = singleton.join_view
    for sid, prefix_rows in prefixes.items():
        entry = view.get(sid)
        if entry is None:
            continue
        q_eids, minima = entry
        qrows = candidates[sid]
        n = len(qrows)
        rows = []
        # Rows are unpacked once: each read of a named tuple's field by
        # name is a descriptor call.
        for r in prefix_rows:
            _, eid, start_t, end_t, _, _ = r
            limit = end_t + gap_reach
            if start_t + dura_reach < limit:
                limit = start_t + dura_reach
            lo = bisect_right(q_eids, eid)
            if lo == n or minima[lo] > limit:
                continue
            hi = bisect_right(minima, limit, lo + 1)
            for _, q_eid, q_start, q_end, _, _ in qrows[lo:hi]:
                rel = _check_extension(start_t, end_t, q_start, q_end, c)
                if rel is None:
                    continue
                rows.append(PatternOccurrence(
                    sid, q_eid, min(start_t, q_start), max(end_t, q_end), rel, r))
        if rows:
            by_sid[sid] = rows
        left -= 1
        if len(by_sid) + left < threshold:
            break
    return VerticalDatabase(events, by_sid)


def extend_prefix(
    prefix: VerticalDatabase,
    candidates,
    db: Database,
    c: Constraints,
    threshold: float,
) -> dict[str, VerticalDatabase]:
    """Join the prefix pattern with every candidate event in one scan.

    Returns, for each event in ``candidates`` whose extension holds at least
    ``threshold`` sequences, the database ``extend_vdb`` returns for it with
    that event's singleton database, row for row and in the same order.

    Each prefix row is scanned in its own sequence of ``db``, the database
    the prefix was mined from, from the position after its ``eid`` to the
    end of the window ``extend_vdb`` reads: the scan stops past which every
    start exceeds ``end_t + max(max_gap, epsilon)`` or
    ``start_t + max_dura``, found by bisecting ``db.start_minima``. An
    interval in the window is a candidate exactly when its event's
    singleton database would hold it: its event is a candidate and its
    duration is at least min_dura. (A duration over max_dura needs no check
    here, since it makes every composite holding the interval too long.)

    Hits are kept as plain tuples, and occurrences are made only for the
    events that reach ``threshold``. Once an event's sequences found plus
    the prefix's sequences left fall short of it, the event is dropped
    from the scan with its hits, and the scan ends when none is left. An
    event with no hit is never returned, whatever the threshold.
    """
    wanted = set(candidates)
    min_dura = c.min_dura
    gap_reach = _UNBOUNDED if c.max_gap is None else max(c.max_gap, c.epsilon)
    dura_reach = _UNBOUNDED if c.max_dura is None else c.max_dura
    hits: dict[str, dict[int, list[tuple]]] = {}
    left, least = len(prefix.by_sid), 0
    sequences, start_minima = db.sequence_by_sid, db.start_minima
    for sid, prefix_rows in prefix.by_sid.items():
        intervals, minima = sequences[sid].intervals, start_minima(sid)
        n = len(intervals)
        found: dict[str, list[tuple]] = {}
        for r in prefix_rows:
            _, eid, start_t, end_t, _, _ = r
            limit = end_t + gap_reach
            if start_t + dura_reach < limit:
                limit = start_t + dura_reach
            # Position eid + 1 is index eid.
            if eid == n or minima[eid] > limit:
                continue
            hi = bisect_right(minima, limit, eid + 1)
            for q_eid, (q_start, q_end, event) in enumerate(intervals[eid:hi], eid + 1):
                if event not in wanted or q_end - q_start < min_dura:
                    continue
                rel = _check_extension(start_t, end_t, q_start, q_end, c)
                if rel is None:
                    continue
                hit = (sid, q_eid, q_start if q_start < start_t else start_t,
                       q_end if q_end > end_t else end_t, rel, r)
                rows = found.get(event)
                if rows is None:
                    found[event] = [hit]
                else:
                    rows.append(hit)
        for event, rows in found.items():
            hits.setdefault(event, {})[sid] = rows
        left -= 1
        if least + left < threshold:
            for event in [e for e in wanted if len(hits.get(e, ())) + left < threshold]:
                wanted.discard(event)
                hits.pop(event, None)
            if not wanted:
                break
            least = min(len(hits[e]) for e in wanted)
    # Every event still in hits has reached the threshold: after the last
    # sequence, one short of it would have been dropped.
    make = PatternOccurrence._make
    return {event: VerticalDatabase(prefix.events + (event,),
                                    {sid: list(map(make, rows)) for sid, rows in by_sid.items()})
            for event, by_sid in hits.items()}
