"""Vertical databases of patterns and the pair support matrix.

A vertical database holds one pattern's rows grouped by sequence id,
``sid -> [row, ...]``, with no empty lists, so its vertical support
is its number of keys. Singleton lists are in ascending ``eid`` order.

A row records one embedding of a pattern in one sequence as a plain tuple
``(sid, eid, start_t, end_t, relation, prefix)``: positions are 1-based,
``eid`` is the position of the last source interval, and ``start_t``/``end_t``
are the composite envelope. An extended row keeps only its last step's
relation and a link to the prefix row it extends, so a new row costs O(1)
at any depth. ``VerticalDatabase.rows`` returns the rows as
``PatternOccurrence``s, the named type with the same fields, whose
relations and source positions are read back through the links.

A prefix is grown by all its candidate events at once: ``extend_prefix``
scans each prefix row's own sequence over the intervals the row can reach,
those after it whose start lies within the gap and duration bounds of its
envelope, and returns rows only for the candidates that reach the support
threshold, read with the bounds and each sequence from the query's one
``Scan``. Given a query there, the scan also drops every hit after which
its sequence no longer holds the unmatched rest of the query (query row
pruning), and, under a gap bound, every hit from whose envelope no chain
of gap-bounded steps reaches that rest (``least_ends``), the max-gap
reachability of constrained sequential miners such as cSPADE. The
singleton pass applies the same two tests to the seeds it builds, and a
seed with too few live sequences is never joined: each row is tested
once, where it is born. The scan applies the extension rule inline, with
its own comparisons.
``extend_vdb`` joins a prefix with one candidate's singleton rows by a
plain scan of every later row, through ``model._check_extension``;
together they are the independent reference the scan is tested against.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .model import (
    BEFORE,
    CONTAIN,
    EQUAL,
    FINISHED_BY,
    LEFT_CONTAIN,
    MEET,
    OVERLAP,
    STARTS,
    Constraints,
    _check_extension,
)
from .database import Database


class PatternOccurrence(NamedTuple):
    """A row with named fields; its prefix link is a plain row."""
    sid: int
    eid: int
    start_t: int
    end_t: int
    relation: str | None = None  # relation of the last step; None for a singleton
    prefix: tuple | None = None

    def _chain(self) -> list[tuple]:
        """This occurrence and its prefix rows, last step first."""
        chain = [self]
        while chain[-1][5] is not None:
            chain.append(chain[-1][5])
        return chain

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(r[4] for r in reversed(self._chain()[:-1]))

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(r[1] for r in reversed(self._chain()))


@dataclass
class VerticalDatabase:
    events: tuple[str, ...]
    by_sid: dict[int, list[tuple]]  # rows in PatternOccurrence's field order

    @property
    def rows(self) -> list[PatternOccurrence]:
        """All rows as occurrences, grouped by sequence in insertion order."""
        return [PatternOccurrence._make(r) for rows in self.by_sid.values() for r in rows]

    def vertical_support(self) -> int:
        return len(self.by_sid)

    def horizontal_support(self, sid: int) -> int:
        return len(self.by_sid.get(sid, ()))

    def supporting_sids(self) -> list[int]:
        return sorted(self.by_sid)


_UNBOUNDED = float("inf")


class PairSupportMatrix:
    """Vertical support of ordered event pairs, used as a pruning upper bound."""

    def __init__(self, entries: dict[tuple[str, str], int]):
        self._entries = entries

    def support(self, e1: str, e2: str) -> int:
        return self._entries.get((e1, e2), 0)

    def __len__(self) -> int:
        return len(self._entries)


def build_singleton_vdbs(db: Database, c: Constraints, threshold: float = 0,
                         scan: Scan | None = None) -> dict[str, VerticalDatabase]:
    """One vertical database per event type with vertical support at least
    ``threshold``; intervals failing the duration bounds are dropped.

    Rows are made only for events that the database's ``event_support``
    puts in at least ``threshold`` sequences, since the duration filter can
    only lower that count.

    Given a ``scan`` with a query, the same pass screens the seeds: a
    seed's rows have matched ``k`` query events, 1 when its event is the
    query's first and 0 otherwise, and while ``k`` is short of the query a
    row at ``pos`` is built only when it is live, that is when
    ``pos < scan[sid][k]`` and, under a gap bound, ``end >=
    scan.gap_table(sid)[k][pos]``, the tests ``extend_prefix`` applies to a
    prefix row. Such an event keeps its key whenever it is frequent, as a
    candidate for the joins, but its database holds its live rows only when
    at least ``threshold`` sequences have one, and is empty otherwise. Its
    screen stops, and no table is read for it any more, once its dead
    sequences (those it holds in the duration bounds with no live row)
    outnumber its ``event_support`` less the threshold. ``scan.pruned``
    grows by the screened intervals in the duration bounds that are not
    built, dead or past the stop."""
    wanted = {e for e, support in db.event_support.items() if support >= threshold}
    min_dura = c.min_dura
    max_dura = _UNBOUNDED if c.max_dura is None else c.max_dura
    groups: dict[str, dict[int, list[tuple]]] = {}
    qes = scan.qes if scan is not None else ()
    # The screened events, each with the query events its seed has matched,
    # or None once its screen has stopped.
    matched = {e: int(e == qes[0]) for e in wanted} if qes else {}
    if len(qes) == 1:
        matched.pop(qes[0], None)
    support = db.event_support
    seen = dict.fromkeys(matched, 0)  # sequences with an interval in the bounds
    last = dict.fromkeys(matched)  # the sid ``seen`` last counted
    gapped = bool(matched) and scan.gapped
    pruned = 0
    for seq in db.sequences:
        sid = seq.sid
        table = ends = None
        for pos, (start, end, event) in enumerate(seq.intervals, start=1):
            if event in wanted and min_dura <= end - start <= max_dura:
                if event in matched:
                    k = matched[event]
                    if last[event] != sid:
                        # Every sequence counted so far is done: a dead one
                        # has no rows in groups.
                        if k is not None and (seen[event] - len(groups.get(event, ()))
                                              > support[event] - threshold):
                            matched[event] = k = None
                            groups.pop(event, None)
                        last[event] = sid
                        seen[event] += 1
                    if k is None:
                        pruned += 1
                        continue
                    if table is None:
                        table = scan[sid]
                    if pos >= table[k]:
                        pruned += 1
                        continue
                    if gapped:
                        if ends is None:
                            ends = scan.gap_table(sid)
                        if end < ends[k][pos]:
                            pruned += 1
                            continue
                row = (sid, pos, start, end, None, None)
                by_sid = groups.get(event)
                if by_sid is None:
                    groups[event] = {sid: [row]}
                elif (rows := by_sid.get(sid)) is None:
                    by_sid[sid] = [row]
                else:
                    rows.append(row)
    if pruned:
        scan.pruned += pruned
    vdbs = {event: VerticalDatabase((event,), by_sid) for event, by_sid in groups.items()
            if len(by_sid) >= threshold}
    # A frequent screened event with too few live sequences is a candidate
    # only; as unscreened, an event with no interval in the bounds is none.
    for event in matched:
        if seen[event] >= max(threshold, 1) and event not in vdbs:
            vdbs[event] = VerticalDatabase((event,), {})
    return vdbs


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
        scoped = [iv for iv in seq.intervals if events is None or iv[2] in events]
        if len(scoped) < 2:
            continue
        starts, ends, names = zip(*scoped)
        if c.max_dura is None or max(ends) - min(starts) <= c.max_dura:
            # Fed straight from the iterator, so memory is bounded by the
            # distinct pairs, not by the n(n-1)/2 interval pairs.
            pairs = set(combinations(names, 2))
        else:
            pairs = set()
            for i, (a_start, a_end, a_event) in enumerate(scoped, start=1):
                for b_start, b_end, b_event in scoped[i:]:
                    key = (a_event, b_event)
                    if key in pairs:
                        continue
                    if max(a_end, b_end) - min(a_start, b_start) > c.max_dura:
                        continue
                    pairs.add(key)
        for key in pairs:
            counts[key] = counts.get(key, 0) + 1
    return PairSupportMatrix(counts)


def extend_vdb(
    prefix: VerticalDatabase,
    candidate: str,
    singleton: VerticalDatabase,
    c: Constraints,
) -> VerticalDatabase:
    """Join the prefix pattern with a candidate event's singleton rows.

    Every candidate row with a larger eid in the same sequence as a prefix
    row is screened by the extension validity rule against the prefix row's
    composite envelope ``(start_t, end_t)``. Rows come out grouped by
    sequence in the prefix's order, then by prefix row, then by eid.

    This is the reference ``extend_prefix`` is tested against, so it shares
    none of its window logic.
    """
    by_sid: dict[int, list[tuple]] = {}
    for sid, prefix_rows in prefix.by_sid.items():
        rows = [(sid, q[1], min(r[2], q[2]), max(r[3], q[3]), rel, r)
                for r in prefix_rows for q in singleton.by_sid.get(sid, ())
                if q[1] > r[1] and (rel := _check_extension(
                    r[2], r[3], q[2], q[3], c)) is not None]
        if rows:
            by_sid[sid] = rows
    return VerticalDatabase(prefix.events + (candidate,), by_sid)


def latest_starts(intervals, qes) -> tuple[int, ...]:
    """Entry ``k`` is the greatest position at which an embedding of
    ``qes[k:]`` in the events of ``intervals``, ``(start, end, event)``
    triples, can start, or 0 when they hold none. The last entry, for the
    empty rest, is ``len(intervals) + 1``, a position past every interval.

    One right-to-left greedy pass: each query event, last first, is matched
    at its latest position before the match of the one after it."""
    table = [0] * len(qes) + [len(intervals) + 1]
    k = len(qes) - 1
    for pos in range(len(intervals), 0, -1):
        if k < 0:
            break
        if intervals[pos - 1][2] == qes[k]:
            table[k] = pos
            k -= 1
    return tuple(table)


def least_ends(intervals, qes, starts, gap_reach) -> tuple[tuple, ...]:
    """Entry ``k`` is a table over interval indexes ``i``, 0 to
    ``len(intervals)``: the least envelope end E from which ``qes[k:]`` can
    still be embedded through the intervals at index ``i`` or later, or
    infinity when none can. A step may take a query event or any other
    interval as a stepping stone, at a later index than the step before; it
    must start within ``gap_reach`` of E, and it sets E to ``max(E, end)``.
    A greater E never reaches less, so an envelope reaches the rest exactly
    when its end is at least the entry. The last entry, for the empty rest,
    is minus infinity throughout. ``starts`` is ``latest_starts`` of the
    intervals: entries at index ``starts[k]`` or later are
    infinite, as no embedding starts there, and are not looped over.

    One backward pass per ``k``: from index ``i``, the rest is reached
    either from ``i + 1`` on, or by a first step on interval ``i``. A stone
    there helps only when its end reaches what index ``i + 1`` needs, and
    then needs E to reach its start; a match of ``qes[k]`` needs that too,
    and E or its end must reach what ``qes[k + 1:]`` needs from ``i + 1``.
    """
    size = len(intervals) + 1
    table = (-_UNBOUNDED,) * size
    tables = [table]
    for k in range(len(qes) - 1, -1, -1):
        q, later = qes[k], table
        least = _UNBOUNDED
        column = [_UNBOUNDED] * size
        for i in range(starts[k] - 1, -1, -1):
            start, end, event = intervals[i]
            reach = start - gap_reach
            if event == q:
                rest = later[i + 1]
                if end < rest and reach < rest:
                    reach = rest
                if reach < least:
                    least = reach
            elif end >= least and reach < least:
                least = reach
            column[i] = least
        table = tuple(column)
        tables.append(table)
    return tuple(reversed(tables))


class Scan(dict):
    """One query's state for ``extend_prefix``: the join's bounds, derived
    once from the constraints (unset ones read as infinity; ``gap_reach`` is
    ``max(max_gap, epsilon)``, as a before step may leave a gap up to max_gap
    and any other one up to epsilon), the support ``threshold``, the query
    ``qes`` of query row pruning, or (), and ``pruned``, the work it saves.

    Each sid of ``db`` maps to its sequence's ``latest_starts`` table for
    ``qes``, built on the first join or seed screen with query left that
    reaches the sequence and kept for the search: a row that has matched
    ``qes[:m]`` can reach the query only if ``eid < table[m]``.

    ``gapped`` is set when there is a query and ``max_gap`` bounds the
    steps. Then ``gap_table(sid)`` gives the sequence's ``least_ends``
    tables, built once, on the first read: by the seed screen, for a row
    that passes the test above, or by a join with query left that reaches
    the sequence. A row that passes it can reach the query only if also
    ``end_t >= gap_table(sid)[m][eid]``."""

    def __init__(self, db: Database, c: Constraints, threshold: int,
                 qes: tuple[str, ...] = ()):
        self.sequences = db.sequence_by_sid
        self.threshold, self.qes, self.pruned = threshold, qes, 0
        self.epsilon, self.min_gap, self.min_dura = c.epsilon, c.min_gap, c.min_dura
        self.max_gap = _UNBOUNDED if c.max_gap is None else c.max_gap
        self.max_dura = _UNBOUNDED if c.max_dura is None else c.max_dura
        self.gap_reach = max(self.max_gap, self.epsilon)
        self.gapped = bool(qes) and c.max_gap is not None
        self.gap_tables: dict[int, tuple[tuple, ...]] = {}

    def __missing__(self, sid: int) -> tuple[int, ...]:
        table = self[sid] = latest_starts(self.sequences[sid].intervals, self.qes)
        return table

    def gap_table(self, sid: int) -> tuple[tuple, ...]:
        tables = self.gap_tables.get(sid)
        if tables is None:
            tables = self.gap_tables[sid] = least_ends(
                self.sequences[sid].intervals, self.qes, self[sid], self.gap_reach)
        return tables


def extend_prefix(prefix: VerticalDatabase, candidates, scan: Scan,
                  match: int = 0) -> dict[str, VerticalDatabase]:
    """Join the prefix pattern with every candidate event in one scan.

    Returns, for each event in ``candidates`` whose extension holds at least
    ``scan.threshold`` sequences, the database ``extend_vdb`` returns for it
    with that event's singleton database, row for row and in the same order.
    The prefix has matched ``scan.qes[:match]``, and the rows are those of
    that database that can still reach the rest of the query, as below;
    with no query left, all of them.

    Each prefix row is scanned in its own sequence, read by sid from
    ``scan.sequences``, from the position after its ``eid`` to the end of
    the window where a valid extension can start: the scan stops past which
    every start exceeds ``end_t + gap_reach`` or ``start_t + max_dura``
    (else the composite lasts longer than max_dura), found by one bisect of
    the sequence's ``start_minima`` from index ``eid``. The property runs
    once per sequence; after it, the scan reads the slot it fills, with no
    call. An interval in the window is a candidate exactly when its event's
    singleton database would hold it: its event is a candidate and its
    duration is at least min_dura. (A duration over max_dura needs no check
    here, since it makes every composite holding the interval too long.)

    The extension rule is applied inline, by the same comparisons as
    ``model._check_extension``, whose callers ``extend_vdb`` and the oracle
    are the independent reference this scan is tested against. Hits are
    built as rows and grouped in first-hit order. Once an event's sequences
    found plus the prefix's sequences left fall short of the threshold, the
    event is dropped from the scan with its hits, and the scan ends when
    none is left; only the events with hits are counted again, since any
    other falls short first. An event with no hit is never returned,
    whatever the threshold.

    Query row pruning: while ``match`` is short of the query, with ``q``
    the next query event and ``table`` the row's sequence's ``scan[sid]``,
    a row's window is cut to end before position ``table[match + 1]``, and
    a hit at ``q_eid`` is kept only if ``q_eid < table[match + 1]`` when
    its event is ``q``, and ``q_eid < table[match]`` otherwise. The test is
    exact: a dropped hit's sequence no longer holds the rest of the query
    after it, so no pattern holding the query descends from it. Under a gap
    bound (``scan.gapped``), with ``need`` the sequence's
    ``scan.gap_table(sid)``, read once per sequence beside ``table``, a hit
    is dropped too when its envelope end ``up`` is below
    ``need[match + 1][q_eid]`` for ``q`` and ``need[match][q_eid]`` for any
    other event: no chain of extensions, each starting within ``gap_reach``
    of the envelope's end, carries such a row to the rest of the query. The
    table ignores every other bound, so it drops only rows with no result
    below them. Since support is counted over the kept hits, the early exit
    above drops a candidate the tests starve. ``scan.pruned`` grows by the
    windows cut and the hits dropped inside them.

    A prefix row is not tested: in the miner it was tested where it was
    born, as a seed or a hit. The result holds for any prefix all the same.
    A dead row's hits of other events lie at or past ``table[match]``; no
    ``q`` lies between it and ``table[match + 1]``, as ``latest_starts`` is
    maximal; and a hit that passed the gap test would be a chain carrying
    the row to the query.
    """
    wanted = set(candidates)
    qes, threshold = scan.qes, scan.threshold
    rest = match < len(qes)
    q = qes[match] if rest else None
    gapped = rest and scan.gapped
    epsilon, min_gap, max_gap = scan.epsilon, scan.min_gap, scan.max_gap
    min_dura, max_dura, gap_reach = scan.min_dura, scan.max_dura, scan.gap_reach
    pruned = 0
    hits: dict[str, dict[int, list[tuple]]] = {}
    left, least = len(prefix.by_sid), 0
    sequences = scan.sequences
    for sid, prefix_rows in prefix.by_sid.items():
        seq = sequences[sid]
        intervals, minima = seq.intervals, seq._minima or seq.start_minima
        if rest:
            table = scan[sid]
            b_other, b_q = table[match], table[match + 1]
            if gapped:
                need = scan.gap_table(sid)
                need_other, need_q = need[match], need[match + 1]
        else:
            b_other = b_q = len(intervals) + 1  # past every position: no bound
        # Position p is index p - 1, so a hit before position b_q lies
        # below index b_q - 1; b_q is 0 when the sequence holds none of
        # qes[match + 1:], and then no index is, as a cap of -1 would wrap.
        cap = b_q - 1 if b_q else 0
        for r in prefix_rows:
            _, eid, start_t, end_t, _, _ = r
            limit = end_t + gap_reach
            if start_t + max_dura < limit:
                limit = start_t + max_dura
            # Position eid + 1 is index eid.
            hi = bisect_right(minima, limit, eid)
            if hi > cap:
                hi = cap
                pruned += 1
            q_eid = eid
            for q_start, q_end, event in intervals[eid:hi]:
                q_eid += 1
                if event not in wanted or q_end - q_start < min_dura:
                    continue
                if q_eid >= b_other and event != q:
                    pruned += 1
                    continue
                # The extension rule, by the comparisons of model._classify
                # and model._check_extension.
                if start_t - q_start > epsilon:
                    continue  # the ordering precondition fails
                gap = q_start - end_t
                if gap > epsilon:
                    if gap < min_gap or gap > max_gap:
                        continue
                    rel = BEFORE
                elif -gap <= epsilon:
                    rel = MEET
                elif q_start - start_t <= epsilon:  # the starts are quasi-equal
                    d = q_end - end_t
                    rel = STARTS if d > epsilon else LEFT_CONTAIN if -d > epsilon else EQUAL
                else:
                    d = q_end - end_t
                    rel = OVERLAP if d > epsilon else CONTAIN if -d > epsilon else FINISHED_BY
                lo = q_start if q_start < start_t else start_t
                up = q_end if q_end > end_t else end_t
                # The composite lasts at least as long as the interval, which
                # passed min_dura above, so only max_dura can fail it.
                if up - lo > max_dura:
                    continue
                if gapped and up < (need_q if event == q else need_other)[q_eid]:
                    pruned += 1
                    continue
                hit = (sid, q_eid, lo, up, rel, r)
                by_sid = hits.get(event)
                if by_sid is None:
                    hits[event] = {sid: [hit]}
                elif (rows := by_sid.get(sid)) is None:
                    by_sid[sid] = [hit]
                else:
                    rows.append(hit)
        left -= 1
        if least + left < threshold:
            # need > 0 here, so an event without hits goes too.
            need = threshold - left
            hits = {e: by_sid for e, by_sid in hits.items() if len(by_sid) >= need}
            if not hits:
                break
            wanted = set(hits)
            least = min(map(len, hits.values()))
    scan.pruned += pruned
    # Every event still in hits has reached the threshold: after the last
    # sequence, one short of it would have been dropped.
    return {event: VerticalDatabase(prefix.events + (event,), by_sid)
            for event, by_sid in hits.items()}
