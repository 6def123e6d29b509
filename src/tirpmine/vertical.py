"""Vertical databases of patterns and the pair support matrix.

A vertical database holds one pattern's rows grouped by sequence id,
``sid -> [row, ...]``, with no empty lists, so its vertical support
is its number of keys. Singleton lists are in ascending ``eid`` order.

A row records one embedding of a pattern in one sequence as a plain tuple
``(sid, eid, start_t, end_t, relation, prefix)``: positions are 1-based,
``eid`` is the position of the last source interval, and ``start_t``/``end_t``
are the composite envelope. An extended row keeps a link to the prefix row
it extends, so a new row costs O(1) at any depth. Only ``extend_vdb``
records the relation of a row's last step; the search's rows, from
``extend_prefix``, hold None there, since no result reads it.
``VerticalDatabase.rows`` returns the rows as ``PatternOccurrence``s, the
named type with the same fields, whose source positions, and relations
where recorded, are read back through the links. A later change that keys
patterns by their relations, as the paper's TIRPs are, would have to group
rows by relation and classify each step again.

A prefix is grown by all its candidate events at once: ``extend_prefix``
scans each prefix row's own sequence over the intervals the row can reach,
those after it whose start lies within the gap and duration bounds of its
envelope, and returns rows only for the candidates that reach the support
threshold, read with the bounds and each sequence from the query's one
``Scan``. Given a query there, the scan also drops every hit from whose
envelope no chain of gap-bounded steps through its sequence reaches the
unmatched rest of the query (query row pruning), the max-gap reachability
of constrained sequential miners such as cSPADE; with no gap bound, every
hit after which the sequence no longer holds that rest. A step is a query
event or a stepping stone, and in the miner a stone is an interval the
search could append: one of a frequent event, within the duration bounds.
It reads one ``reach_table`` per sequence. The singleton pass applies the
same test to the seeds, read only up to the query's latest start, and a
seed with too few live sequences is never joined: each row is tested once,
where it is born. The scan applies the extension rule's bounds inline, with its own
comparisons, and classifies no step.
``extend_vdb`` joins a prefix with one candidate's singleton rows by a
plain scan of every later row, through ``model._check_extension``;
together they are the independent reference the scan is tested against.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .model import Constraints, _check_extension
from .database import Database


class PatternOccurrence(NamedTuple):
    """A row with named fields; its prefix link is a plain row."""
    sid: int
    eid: int
    start_t: int
    end_t: int
    # The last step's relation, recorded by extend_vdb only; None for a
    # singleton and for every row extend_prefix builds.
    relation: str | None = None
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
    query's first and 0 otherwise, and every event is screened but a
    one-event query's own, which a seed completes. With ``starts, columns =
    scan[sid]``, a row at ``pos`` is live when ``end >= columns[k][pos]``,
    the test ``extend_prefix`` applies to a hit, which fails from ``pos >=
    starts[k]`` on. Every live row lies at or before the query's latest
    start ``starts[0]``: another event needs ``pos < starts[0]``, and a
    ``qes[0]`` past it but before ``starts[1]`` would itself be a later
    start. So the screen reads each sequence only up to that position, a
    sequence without the query costs one table, and the screen stops once
    no screened event can reach ``threshold`` live sequences. Every screened
    event that ``event_support`` puts in ``threshold`` sequences keys a
    database, as a join candidate, empty when it has too few live ones.
    ``scan.pruned`` grows by the screened rows the test drops.

    Given a ``scan``, the pass also sets ``scan.stones``, before it reads a
    table, to the events ``event_support`` puts in ``threshold`` sequences:
    they include every candidate it returns, so a search that joins only
    these candidates appends no interval of any other event."""
    wanted = frequent = {e for e, count in db.event_support.items() if count >= threshold}
    if scan is not None:
        scan.stones = frequent
    min_dura = c.min_dura
    max_dura = _UNBOUNDED if c.max_dura is None else c.max_dura
    qes = scan.qes if scan is not None else ()
    first = qes[0] if qes else None
    done = first if len(qes) == 1 else None  # a seed of it has no query left
    screened = screening = bool(qes and frequent - {done})
    groups: dict[str, dict[int, list[tuple]]] = {}
    # The sequences left to read, the most live ones of a screened event,
    # and the rows the reach test drops.
    left, most, pruned = len(db.sequences), 0, 0
    for seq in db.sequences:
        if screening and most + left < threshold:
            # No screened event can reach the threshold: only a one-event
            # query's own event is read on, and it is not screened.
            if done not in wanted:
                break
            wanted, screening = {done}, False
        left -= 1
        sid = seq.sid
        intervals = seq.intervals
        if screening:
            starts, columns = scan[sid]
            intervals = intervals[:starts[0]]
        for pos, (start, end, event) in enumerate(intervals, start=1):
            if event in wanted and min_dura <= end - start <= max_dura:
                if screening and event != done and end < columns[event == first][pos]:
                    pruned += 1
                    continue
                row = (sid, pos, start, end, None, None)
                by_sid = groups.get(event)
                if by_sid is None:
                    groups[event] = by_sid = {sid: [row]}
                elif (rows := by_sid.get(sid)) is None:
                    by_sid[sid] = [row]
                else:
                    rows.append(row)
                    continue
                if len(by_sid) > most and event != done:
                    most = len(by_sid)
    if pruned:
        scan.pruned += pruned
    vdbs = {event: VerticalDatabase((event,), by_sid) for event, by_sid in groups.items()
            if len(by_sid) >= threshold}
    if screened:  # a frequent screened event with too few is a candidate only
        for event in frequent.difference(vdbs, [done]):
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
    sequence in the prefix's order, then by prefix row, then by eid, and
    each records the relation the rule classified its step as: this is the
    one join that records relations.

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


def reach_table(intervals, qes, gap_reach, stones, min_dura,
                max_dura) -> tuple[list[int], list[list]]:
    """The reach of each rest ``qes[k:]`` of the query in ``intervals``,
    ``(start, end, event)`` triples, as ``(starts, columns)``, with a last
    entry for the empty rest.

    ``columns[k]`` is a table over interval indexes ``i``, 0 to
    ``len(intervals)``: the least envelope end E from which ``qes[k:]`` can
    still be embedded through the intervals at index ``i`` or later, or
    infinity when none can. A step may take a query event, or a stone as a
    stepping stone, at a later index than the step before; it must start
    within ``gap_reach`` of E, and it sets E to ``max(E, end)``. A stone is
    an interval of an event in ``stones`` lasting ``min_dura`` to
    ``max_dura``, as every interval the search can append is; stones are
    tested only where one would lower the entry. A greater E never reaches
    less, so an envelope reaches the rest exactly when its end is at least
    the entry. The empty rest's column is minus infinity throughout.

    ``starts[k]``, the column's bound, is the greatest position at which an
    embedding of ``qes[k:]`` can start, or 0 when there is none, and
    ``len(intervals) + 1`` for the empty rest. The column is finite exactly
    below index ``starts[k]``, since from a great enough E every step is in
    reach.

    One backward pass per ``k``, last first, from below the later rest's
    bound: it scans down to the first match of ``qes[k]``, the bound, and
    fills the column from there down. From index ``i``, the rest is reached
    either from ``i + 1`` on, or by a first step on interval ``i``. A stone
    there helps only when its end reaches what index ``i + 1`` needs, and
    then needs E to reach its start; a match of ``qes[k]`` needs that too,
    and E or its end must reach what ``qes[k + 1:]`` needs from ``i + 1``.
    """
    size = len(intervals) + 1
    bound, column = size, [-_UNBOUNDED] * size
    starts, columns = [bound], [column]
    for k in range(len(qes) - 1, -1, -1):
        q, later = qes[k], column
        column = [_UNBOUNDED] * size
        least = _UNBOUNDED
        # Position p is index p - 1, so the match lies below index bound - 1.
        for i in range(bound - 2, -1, -1):
            if intervals[i][2] == q:
                break
        else:
            i = -1  # no match, or a later bound of 0 or 1: no index below it
        bound = i + 1
        for i in range(i, -1, -1):
            start, end, event = intervals[i]
            reach = start - gap_reach
            if event == q:
                rest = later[i + 1]
                if end < rest and reach < rest:
                    reach = rest
                if reach < least:
                    least = reach
            elif (end >= least and reach < least
                  and event in stones and min_dura <= end - start <= max_dura):
                least = reach
            column[i] = least
        starts.append(bound)
        columns.append(column)
    starts.reverse()
    columns.reverse()
    return starts, columns


class Scan(dict):
    """One query's state for ``extend_prefix``: the join's bounds, derived
    once from the constraints (unset ones read as infinity; ``gap_reach`` is
    ``max(max_gap, epsilon)``, as a before step may leave a gap up to max_gap
    and any other one up to epsilon), the support ``threshold``, the query
    ``qes`` of query row pruning, or (), the ``stones`` its tables step
    on, and ``pruned``, the work it saves.

    Each sid of ``db`` maps to its sequence's ``reach_table`` for ``qes``,
    ``(starts, columns)``, built by the seed screen or the first join with
    query left that reaches the sequence, and kept for the search: a row
    that has matched ``qes[:m]`` can reach the query only if ``end_t >=
    columns[m][eid]``, which holds at no ``eid`` from ``starts[m]`` on.
    A table steps only on intervals of ``stones`` within the duration
    bounds, as a hit must be. The stones start as every event of ``db``;
    ``build_singleton_vdbs`` narrows them to the events it may make join
    candidates, before it reads a table."""

    def __init__(self, db: Database, c: Constraints, threshold: int,
                 qes: tuple[str, ...] = ()):
        self.sequences = db.sequence_by_sid
        self.stones = db.event_support.keys()
        self.threshold, self.qes, self.pruned = threshold, qes, 0
        self.epsilon, self.min_gap, self.min_dura = c.epsilon, c.min_gap, c.min_dura
        self.max_gap = _UNBOUNDED if c.max_gap is None else c.max_gap
        self.max_dura = _UNBOUNDED if c.max_dura is None else c.max_dura
        self.gap_reach = max(self.max_gap, self.epsilon)

    def __missing__(self, sid: int) -> tuple[list[int], list[list]]:
        table = self[sid] = reach_table(self.sequences[sid].intervals, self.qes, self.gap_reach,
                                        self.stones, self.min_dura, self.max_dura)
        return table


def extend_prefix(prefix: VerticalDatabase, candidates, scan: Scan,
                  match: int = 0) -> dict[str, VerticalDatabase]:
    """Join the prefix pattern with every candidate event in one scan.

    Returns, for each event in ``candidates`` whose extension holds at least
    ``scan.threshold`` sequences, the database ``extend_vdb`` returns for it
    with that event's singleton database, row for row and in the same order,
    with each row's relation set to None.
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

    Of the extension rule, only its bounds are applied inline, by the same
    comparisons as ``model._check_extension``: the ordering precondition,
    min_gap and max_gap on a gap over epsilon (a before step), and the
    composite's max_dura. Whether a row exists depends on nothing else, so
    the step's relation is never classified. The rule's callers,
    ``extend_vdb`` and the oracle, are the independent reference this scan
    is tested against. Hits are built as rows and grouped in first-hit
    order. Once an event's sequences found plus the prefix's sequences left
    fall short of the threshold, the event is dropped from the scan with its
    hits, and the scan ends when none is left; only the events with hits are
    counted again, since any other falls short first. An event with no hit
    is never returned, whatever the threshold.

    Query row pruning: while ``match`` is short of the query, with ``q``
    the next query event and ``starts, columns`` the row's sequence's
    ``scan[sid]``, a row's window is cut to end before position
    ``starts[match + 1]``, and a hit at ``q_eid`` is dropped, before the
    extension rule, when its envelope end ``up`` is below
    ``columns[match + 1][q_eid]`` for ``q`` and ``columns[match][q_eid]``
    for any other event: no chain of extensions, each starting within
    ``gap_reach`` of the envelope's end, carries such a row to the rest of
    the query. With no gap bound, that is a hit after which the sequence no
    longer holds the rest. The table steps only on intervals of
    ``scan.stones`` within the duration bounds, which include every interval
    the search can append, and ignores every other bound, so it drops only
    rows with no result below them. Since support is counted over the kept
    hits, the early exit above drops a candidate the test starves.
    ``scan.pruned`` grows by the windows cut and the hits dropped inside
    them, whether or not they pass the extension rule.

    A prefix row is not tested: in the miner it was tested where it was
    born, as a seed or a hit. The result holds for any prefix all the same:
    a dead row's hit that passed the test, inside the row's window, would
    be a chain carrying the row to the query.
    """
    wanted = set(candidates)
    qes, threshold = scan.qes, scan.threshold
    rest = match < len(qes)
    q = qes[match] if rest else None
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
            starts, columns = scan[sid]
            b_q = starts[match + 1]
            need_other, need_q = columns[match], columns[match + 1]
        else:
            b_q = len(intervals) + 1  # past every position: no bound
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
                up = q_end if q_end > end_t else end_t
                if rest and up < (need_q if event == q else need_other)[q_eid]:
                    pruned += 1
                    continue
                # The bounds of model._check_extension, by its comparisons:
                # the ordering precondition, and the gap bounds on a before
                # step, one whose gap exceeds epsilon.
                if start_t - q_start > epsilon:
                    continue
                gap = q_start - end_t
                if gap > epsilon and (gap < min_gap or gap > max_gap):
                    continue
                lo = q_start if q_start < start_t else start_t
                # The composite lasts at least as long as the interval, which
                # passed min_dura above, so only max_dura can fail it.
                if up - lo > max_dura:
                    continue
                hit = (sid, q_eid, lo, up, None, r)
                by_sid = hits.get(event)
                if by_sid is None:
                    hits[event] = {sid: [hit]}
                elif (rows := by_sid.get(sid)) is None:
                    by_sid[sid] = [hit]
                else:
                    rows.append(hit)
        left -= 1
        if least + left < threshold:
            # short > 0 here, so an event without hits goes too.
            short = threshold - left
            hits = {e: by_sid for e, by_sid in hits.items() if len(by_sid) >= short}
            if not hits:
                break
            wanted = set(hits)
            least = min(map(len, hits.values()))
    scan.pruned += pruned
    # Every event still in hits has reached the threshold: after the last
    # sequence, one short of it would have been dropped.
    return {event: VerticalDatabase(prefix.events + (event,), by_sid)
            for event, by_sid in hits.items()}
