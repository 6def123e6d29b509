import gc
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from tirpmine import (
    Constraints,
    Database,
    GeneratorParams,
    MiningConfig,
    Span,
    StrategyFlags,
    SymbolicInterval,
    TimeIntervalSequence,
    build_psm,
    build_singleton_vdbs,
    check_extension_validity,
    classify_relation,
    extend_vdb,
    generate_synthetic,
    mine,
    parse_database,
    serialize_database,
    usfp_filter,
)
from tirpmine import miner
from tirpmine.database import make_sequence
from tirpmine.miner import contains_subsequence
from tirpmine.model import RELATIONS
from tirpmine.oracle import enumerate_all, target_filter
from tirpmine.vertical import (
    PatternOccurrence,
    Scan,
    VerticalDatabase,
    extend_prefix,
    reach_bounds,
    reach_columns,
    reach_table,
)

from conftest import EXAMPLE_CONSTRAINTS, earliest_bounds, random_trial, stoneless_columns


class TestSingletonVdbs:
    def test_event_counts_on_filtered_example(self, example_db):
        filtered = usfp_filter(example_db, ("A", "C"))
        vdbs = build_singleton_vdbs(filtered, EXAMPLE_CONSTRAINTS)
        b = vdbs["B"]
        assert b.vertical_support() == 3
        assert b.horizontal_support(1) == 2
        assert b.horizontal_support(3) == 1
        assert b.horizontal_support(5) == 2

    def test_absent_event(self, example_db):
        vdbs = build_singleton_vdbs(example_db, EXAMPLE_CONSTRAINTS)
        assert "Z" not in vdbs

    def test_duration_filter_drops_everything(self, example_db):
        vdbs = build_singleton_vdbs(example_db, Constraints(max_dura=0))
        assert vdbs == {}

    def test_rows_carry_own_bounds(self, example_db):
        vdbs = build_singleton_vdbs(example_db, EXAMPLE_CONSTRAINTS)
        for vdb in vdbs.values():
            for r in vdb.rows:
                assert r.relations == ()
                assert r.sources == (r.eid,)
                assert r.start_t <= r.end_t


def test_singletons_at_a_threshold_are_the_frequent_ones():
    """Given a threshold, exactly the singleton databases with that vertical
    support are built, although the index count they are screened by ignores
    the duration filter."""
    screened_by_duration = 0
    for seed in range(30):
        db, c, min_sup, _qes = random_trial(seed, epsilon=seed % 3)
        c = replace(c, min_dura=1, max_dura=4)
        full = build_singleton_vdbs(db, c)
        for t in (0, 1, 2, 3, min_sup * len(db), len(db), len(db) + 1):
            assert build_singleton_vdbs(db, c, t) == {
                e: v for e, v in full.items() if v.vertical_support() >= t}
            screened_by_duration += sum(
                1 for e, positions in db.event_positions.items()
                if len(positions) >= t > (full[e].vertical_support() if e in full else 0))
    assert screened_by_duration > 0  # the count is a strict upper bound somewhere


class TestPsm:
    def test_worked_value_on_filtered_db(self, example_db):
        filtered = usfp_filter(example_db, ("A", "C"))
        psm = build_psm(filtered, EXAMPLE_CONSTRAINTS)
        assert psm.support("A", "B") == 3

    def test_absent_pair_is_zero(self, example_db):
        psm = build_psm(example_db, EXAMPLE_CONSTRAINTS)
        assert psm.support("A", "Z") == 0

    def test_vertical_not_horizontal(self):
        db = parse_database("1|A,0,2 B,3,4 A,5,7 B,8,9\n")
        psm = build_psm(db, Constraints())
        assert psm.support("A", "B") == 1

    def test_gap_not_checked(self):
        # pair far beyond any gap bound still counts toward the matrix
        db = parse_database("1|C,0,3 C,10,13\n2|C,0,3 C,10,13\n")
        psm = build_psm(db, Constraints(max_gap=2, max_dura=20))
        assert psm.support("C", "C") == 2

    def test_max_dura_checked(self):
        db = parse_database("1|A,0,3 B,30,33\n")
        psm = build_psm(db, Constraints(max_dura=20))
        assert psm.support("A", "B") == 0

    def test_event_scope_is_exact(self):
        binding = 0
        for seed in range(50):
            rng = random.Random(seed)
            epsilon = seed % 3
            params = GeneratorParams(
                num_sequences=rng.randint(5, 20), intervals_per_sequence=rng.randint(2, 12),
                alphabet_size=rng.randint(2, 8), max_time=40, max_duration=10, seed=seed)
            db = parse_database(serialize_database(generate_synthetic(params)),
                                epsilon=epsilon)
            c = Constraints(epsilon=epsilon, max_dura=rng.randint(5, 25))
            alphabet = sorted(db.alphabet)
            events = set(rng.sample(alphabet, rng.randint(0, len(alphabet))))
            full, scoped = build_psm(db, c), build_psm(db, c, events)
            for a in events:
                for b in events:
                    assert scoped.support(a, b) == full.support(a, b)
            assert len(scoped) <= len(full)
            assert all(a in events and b in events for a, b in scoped._entries)
            binding += len(full) < len(build_psm(db, Constraints(epsilon=epsilon)))
        assert binding > 0  # max_dura drops pairs in some databases

    def test_least_start_not_first_bounds_the_span(self):
        # At epsilon 1 this sorts to C, A, B, D, E: the least start (B's 4)
        # is not the first (C's 6), and the span 20 - 4 exceeds max_dura.
        db = parse_database("1|A,5,10 B,4,20 C,6,8 D,7,9 E,8,9\n", epsilon=1)
        assert [event for _, _, event in db.sequences[0].intervals] == list("CABDE")
        psm = build_psm(db, Constraints(epsilon=1, max_dura=15))
        assert psm.support("A", "B") == psm.support("C", "B") == 0
        assert psm.support("C", "A") == 1

    def test_repeated_event_counts_once_per_sequence(self):
        db = parse_database("1|A,0,2 B,1,3 A,4,6 C,5,7 A,6,8 D,7,9\n2|A,0,2 A,3,5\n")
        psm = build_psm(db, Constraints(max_dura=20))
        assert psm.support("A", "A") == 2
        assert psm.support("B", "A") == 1
        assert psm.support("A", "B") == 1

    def test_long_sequence_over_max_dura_keeps_fitting_pairs(self):
        db = parse_database("1|A,0,2 B,3,5 C,6,8 D,20,22 E,23,25 F,26,28\n")
        psm = build_psm(db, Constraints(max_dura=10))
        assert set(psm._entries) == {("A", "B"), ("A", "C"), ("B", "C"),
                                     ("D", "E"), ("D", "F"), ("E", "F")}
        assert set(psm._entries.values()) == {1}


def _brute_psm(db, max_dura, events):
    """The pair support matrix from its definition: per sequence, the event
    pairs of scoped intervals i < j whose merged duration fits max_dura,
    counted once per sequence."""
    counts = {}
    for seq in db.sequences:
        scoped = [iv for iv in seq.intervals if events is None or iv[2] in events]
        pairs = {(a_event, b_event)
                 for i, (a_start, a_end, a_event) in enumerate(scoped)
                 for b_start, b_end, b_event in scoped[i + 1:]
                 if max_dura is None or max(a_end, b_end) - min(a_start, b_start) <= max_dura}
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def test_psm_matches_brute_force():
    # Per scoped sequence of two or more intervals: (length, span fits
    # max_dura, the span from the first start would fit where the span
    # from the least start does not).
    seen = set()
    repeated = 0
    for seed in range(60):
        rng = random.Random(seed)
        epsilon = seed % 3
        alphabet = "ABCDEF"[: rng.randint(2, 6)]
        lines = []
        for sid in range(1, rng.randint(3, 12) + 1):
            chosen = set()
            for _ in range(rng.choice([0, 1, 2, 3, 5, 9, 16])):
                start = rng.randrange(0, rng.choice([15, 60]))
                chosen.add((start, start + rng.randint(0, 12), rng.choice(alphabet)))
            lines.append(f"{sid}|" + " ".join(f"{e},{s},{t}" for s, t, e in chosen))
        db = parse_database("\n".join(lines) + "\n", epsilon=epsilon)
        for max_dura in (None, *rng.sample(range(3, 30), 4), 1000):
            c = Constraints(epsilon=epsilon, max_dura=max_dura)
            scope = set(rng.sample(alphabet, rng.randint(1, len(alphabet))))
            for events in (None, scope):
                expected = _brute_psm(db, max_dura, events)
                assert build_psm(db, c, events)._entries == expected
                repeated += any(a == b for a, b in expected)
                for seq in db.sequences:
                    scoped = [iv for iv in seq.intervals
                              if events is None or iv[2] in events]
                    if len(scoped) >= 2:
                        starts, ends, _ = zip(*scoped)
                        fits = max_dura is None or max(ends) - min(starts) <= max_dura
                        seen.add((len(scoped), fits,
                                  not fits and max(ends) - starts[0] <= max_dura))
    assert repeated > 0
    # Both ways of forming a sequence's pairs ran, on short and long
    # sequences, and a span read from the first start would have misled.
    for fits in (True, False):
        assert {n for n, f, _ in seen if f == fits} >= {2, 3, 4, 5, 8, 12}
    assert any(misled for _, _, misled in seen)


class TestExtendVdb:
    def test_cb_row_in_s1(self, example_db):
        vdbs = build_singleton_vdbs(example_db, EXAMPLE_CONSTRAINTS)
        cb = extend_vdb(vdbs["C"], "B", vdbs["B"], EXAMPLE_CONSTRAINTS)
        assert cb.events == ("C", "B")
        (row,) = [r for r in cb.rows if r.sid == 1]
        assert (row.eid, row.start_t, row.end_t) == (5, 12, 20)
        assert row.relations == ("s",)
        assert row.sources == (4, 5)

    def test_empty_prefix_join(self, example_db):
        vdbs = build_singleton_vdbs(example_db, EXAMPLE_CONSTRAINTS)
        empty = VerticalDatabase(("Z",), {})
        ext = extend_vdb(empty, "A", vdbs["A"], EXAMPLE_CONSTRAINTS)
        assert ext.rows == []

    def test_ba_horizontal_support_in_s1(self, example_db):
        vdbs = build_singleton_vdbs(example_db, EXAMPLE_CONSTRAINTS)
        ba = extend_vdb(vdbs["B"], "A", vdbs["A"], EXAMPLE_CONSTRAINTS)
        assert ba.horizontal_support(1) == 3

    def test_merged_eid_strictly_increases(self, example_db):
        vdbs = build_singleton_vdbs(example_db, EXAMPLE_CONSTRAINTS)
        for first in vdbs.values():
            for ev, single in vdbs.items():
                ext = extend_vdb(first, ev, single, EXAMPLE_CONSTRAINTS)
                for r in ext.rows:
                    assert r.sources[-2] < r.eid == r.sources[-1]


def test_rows_are_untracked_plain_tuples(example_db):
    """Every stored row, at depths 1 to 3, is an exact tuple, which the
    garbage collector stops tracking once its prefix row is untracked, one
    depth per collection; it tracks a named tuple for life. ``rows`` gives
    the stored rows, in order, as occurrences. The relations of
    ``extend_vdb``'s rows replay from their sources; ``extend_prefix``
    records none, and its rows' sources replay to their envelopes."""
    c = EXAMPLE_CONSTRAINTS
    singletons = build_singleton_vdbs(example_db, c)
    cb = extend_vdb(singletons["C"], "B", singletons["B"], c)
    scan = Scan(example_db, c, 1)
    joined = [*extend_prefix(singletons["C"], sorted(singletons), scan).values(),
              *extend_prefix(cb, sorted(singletons), scan).values()]
    vdbs = [*singletons.values(), cb, *joined]
    assert {len(v.events) for v in vdbs} == {1, 2, 3}
    stored = [[r for rows in v.by_sid.values() for r in rows] for v in vdbs]
    for _ in range(3):
        gc.collect()
    for rows in stored:
        for r in rows:
            assert type(r) is tuple
            assert not gc.is_tracked(r)
    for v, rows in zip(vdbs, stored):
        assert v.rows == [(sid, *r) for sid, rs in v.by_sid.items() for r in rs]
        for r in v.rows:
            assert type(r) is PatternOccurrence
            seq = example_db.sequence_by_sid[r.sid]
            if any(v is j for j in joined):
                assert r.relation is None
                _replay_envelope(seq, r)
            else:
                _replay_relations(seq, r, c.epsilon)
    for v in singletons.values():
        assert all(r.relations == () and r.sources == (r.eid,) for r in v.rows)
    (row,) = [r for r in cb.rows if r.sid == 1]
    assert (row.relations, row.sources) == (("s",), (4, 5))


# Seeds from 25 on run at epsilon 2, where starts in eid order can fall.
@pytest.mark.parametrize("seed", range(35))
def test_extension_invariants_on_random_dbs(seed):
    db, constraints, *_ = random_trial(seed, epsilon=2 if seed >= 25 else None)
    vdbs = build_singleton_vdbs(db, constraints)
    psm = build_psm(db, constraints)
    sequences = {s.sid: s for s in db.sequences}

    for ev, prefix in vdbs.items():
        for cand, single in vdbs.items():
            ext = extend_vdb(prefix, cand, single, constraints)
            vsup = ext.vertical_support()
            assert ext.events == (ev, cand)
            # anti-monotonicity of vertical support
            assert vsup <= prefix.vertical_support()
            # pair support matrix bounds the extension's support
            assert vsup <= psm.support(ev, cand)
            for r in ext.rows:
                assert list(r.sources) == sorted(set(r.sources))
                assert len(r.relations) == len(r.sources) - 1
                _replay_relations(sequences[r.sid], r, constraints.epsilon)
            # every valid (prefix row, later candidate interval) pair is a
            # row, once, in prefix-row then eid order, and nothing else is
            for sid, prefix_rows in prefix.by_sid.items():
                seq = sequences[sid]
                # A stored row is (eid, start_t, end_t, relation, prefix).
                expected = [(id(p), q[0]) for p in prefix_rows
                            for q in single.by_sid.get(sid, ()) if q[0] > p[0]
                            and check_extension_validity(
                                Span(p[1], p[2]),
                                SymbolicInterval(*seq.intervals[q[0] - 1]),
                                constraints) is not None]
                rows = ext.by_sid.get(sid, [])
                assert [(id(r[4]), r[0]) for r in rows] == expected
                assert all(seq.intervals[r[0] - 1][2] == cand for r in rows)
            assert ext.by_sid.keys() <= prefix.by_sid.keys()
            # no sid is kept without rows, since vertical support counts sids
            assert all(ext.by_sid.values())


def test_extend_prefix_is_extend_vdb_for_each_frequent_candidate():
    """One scan for all candidates returns exactly the candidates whose join
    reaches the threshold, each with extend_vdb's rows in extend_vdb's order,
    relations set to None, at epsilon 0 to 2, from prefixes of one and two
    events."""
    at_threshold = below = dura_binds = 0
    for seed in range(60):
        db, c, min_sup, _qes = random_trial(seed, epsilon=seed % 3)
        if seed % 4 == 3:
            # Keep zero- and one-length intervals out of the singletons.
            c = replace(c, min_dura=2)
        rng = random.Random(seed)
        singletons = build_singleton_vdbs(db, c)
        loose = build_singleton_vdbs(db, replace(c, min_dura=0))
        events = sorted(singletons)
        prefixes = list(singletons.values())
        prefixes += [ext for p in list(prefixes) for e in events
                     if (ext := extend_vdb(p, e, singletons[e], c)).by_sid]
        for prefix in prefixes:
            candidates = rng.sample(events, rng.randint(1, len(events)))
            full = {e: extend_vdb(prefix, e, singletons[e], c) for e in candidates}
            dura_binds += sum(1 for e in candidates
                              if extend_vdb(prefix, e, loose[e], c).by_sid != full[e].by_sid)
            supports = {v.vertical_support() for v in full.values()}
            thresholds = {1, min_sup * len(db)} | supports | {v + 1 for v in supports}
            for t in sorted(t for t in thresholds if t >= 1):
                joined = extend_prefix(prefix, candidates, Scan(db, c, t))
                assert set(joined) == {e for e, v in full.items() if v.vertical_support() >= t}
                for e, ext in joined.items():
                    assert ext.events == prefix.events + (e,)
                    assert list(ext.by_sid.items()) == _unlabelled(full[e].by_sid)
                at_threshold += any(v.vertical_support() == t for v in joined.values())
                below += any(v.vertical_support() == t - 1 > 0 for v in full.values())
    # A candidate exactly at a threshold was returned, one a sequence short
    # of it was met, and the single-interval duration filter changed a join.
    assert at_threshold > 0 and below > 0
    assert dura_binds > 0


def test_extend_prefix_records_no_relation(monkeypatch):
    """The search's join applies the extension rule's bounds and classifies
    no step: over ``random_trial`` databases at epsilon 0 to 2, every row
    ``extend_prefix`` builds in a mined query, targeted with and without
    query row pruning or full, holds None as its relation."""
    join, relations = miner.extend_prefix, Counter()

    def recorded_join(prefix, candidates, scan, match=0):
        joined = join(prefix, candidates, scan, match)
        relations.update(r[3] for v in joined.values() for rows in v.by_sid.values()
                         for r in rows)
        return joined

    monkeypatch.setattr(miner, "extend_prefix", recorded_join)
    for seed in range(30):
        for epsilon in (0, 1, 2):
            db, c, min_sup, qes = random_trial(seed, epsilon=epsilon)
            for mode, uqrp in (("targeted", True), ("targeted", False), ("full", True)):
                mine(db, qes, MiningConfig(min_sup=min_sup, constraints=c, mode=mode,
                                           strategies=StrategyFlags(uqrp=uqrp),
                                           max_pattern_length=4))
    assert relations.keys() == {None} and relations[None] > 0


@pytest.mark.parametrize("epsilon", [0, 1, 2])
def test_extend_prefix_applies_the_rule_of_extend_vdb_at_every_edge(epsilon):
    """The scan's inline bounds of the extension rule against
    ``extend_vdb``'s rule, on every two-interval sequence of a time grid up
    to translation: an A starting at epsilon and a B anywhere, either of
    which may sort first. The grid is wide enough for an overlap at
    epsilon. A prefix row ends at the first interval, with every envelope
    that starts with it and ends no earlier, as a composite ending there
    may have; without the wider ones no pair is left-contained. Each bound
    is swept over every value its edges take on the grid and one past it,
    so every pair meets each bound at, one below and one above its own gap
    or duration. Rows must be equal but for the relation, which only
    ``extend_vdb`` records; all eight relations occur in its rows, and each
    bound drops some row."""
    grid = 4 * epsilon + 5
    spans = [(s, e) for s in range(grid + 1) for e in range(s, grid + 1)]
    db = Database(tuple(
        make_sequence(sid, [(epsilon, end, "A"), (*b, "B")], epsilon)
        for sid, (end, b) in enumerate(
            ((end, b) for end in range(epsilon, grid + 1) for b in spans), start=1)))
    prefix = VerticalDatabase(("P",), {
        seq.sid: [(1, start, up, None, None) for up in range(end, grid + 1)]
        for seq in db.sequences for start, end, _ in seq.intervals[:1]})
    relations, rows_at = set(), {}
    bounds = [("none", None)] + [(name, v) for name in (
        "min_gap", "max_gap", "min_dura", "max_dura") for v in range(grid + 2)]
    for name, value in bounds:
        c = Constraints(epsilon=epsilon, **({} if value is None else {name: value}))
        singletons = build_singleton_vdbs(db, c)
        events = sorted(singletons)
        want = {e: ext for e in events
                if (ext := extend_vdb(prefix, e, singletons[e], c)).by_sid}
        got = extend_prefix(prefix, events, Scan(db, c, 1))
        assert got.keys() == want.keys()
        for e, ext in got.items():
            assert list(ext.by_sid.items()) == _unlabelled(want[e].by_sid)
            relations.update(r[3] for rows in want[e].by_sid.values() for r in rows)
        rows_at[name, value] = sum(len(rows) for ext in got.values()
                                   for rows in ext.by_sid.values())
    assert relations == set(RELATIONS)
    for name in ("min_gap", "max_gap", "min_dura", "max_dura"):
        assert any(rows_at[name, v] < rows_at["none", None] for v in range(grid + 2)), name


def _embeds_after(events, pos, rest) -> bool:
    """Whether ``rest`` embeds in ``events`` after position ``pos``, read
    from the definition rather than from a table."""
    return not rest or contains_subsequence(events[pos:], rest)


@pytest.mark.parametrize("seed", range(40))
def test_latest_starts_is_the_greatest_embedding_start(seed):
    """The bounds of the reach table, on event lists: entry ``k`` is the
    greatest position at which an embedding of ``qes[k:]`` starts, or 0."""
    rng = random.Random(seed)
    events = [rng.choice("ABC") for _ in range(rng.randint(0, 12))]
    qes = tuple(rng.choice("ABC") for _ in range(rng.randint(1, 4)))
    starts, _ = reach_table([(0, 0, e) for e in events], qes, math.inf, set(), 0, math.inf)
    assert len(starts) == len(qes) + 1 and starts[-1] == len(events) + 1
    for k in range(len(qes)):
        found = [pos for pos in range(1, len(events) + 1)
                 if events[pos - 1] == qes[k] and _embeds_after(events, pos, qes[k + 1:])]
        assert starts[k] == max(found, default=0)


def test_query_reach_builds_a_sequence_table_once():
    db = parse_database("1|A,0,1 B,2,3 A,4,5 C,6,7\n2|C,0,1 A,2,3\n")
    first, second = db.sequences
    scan = Scan(db, Constraints(), 1, ("A", "C"))
    scan.stones = set(db.alphabet)
    assert scan[first.sid][0] == [3, 4, 5]
    assert scan[second.sid][0] == [0, 1, 3]
    assert scan[db.restrict([0]).sequences[0].sid] is scan[first.sid]
    assert len(scan) == 2


def _chain_reaches(intervals, index, end, rest, gap_reach, stones, min_dura,
                   max_dura) -> bool:
    """Whether ``rest`` embeds in a chain of steps through
    ``intervals[index:]`` from an envelope ending at ``end``, by brute
    force: every later interval that starts within ``gap_reach`` of the
    envelope's end is tried, as the next event of ``rest`` when it is one
    and as a stepping stone when it is a stone, an interval of an event in
    ``stones`` that lasts ``min_dura`` to ``max_dura``, and the step moves
    the end to the greater of the two."""
    todo, done = [(index, end, 0)], set()
    while todo:
        state = todo.pop()
        if state in done:
            continue
        done.add(state)
        index, end, matched = state
        if matched == len(rest):
            return True
        for nxt in range(index, len(intervals)):
            start, stop, event = intervals[nxt]
            if start - end <= gap_reach:
                if event in stones and min_dura <= stop - start <= max_dura:
                    todo.append((nxt + 1, max(end, stop), matched))
                if event == rest[matched]:
                    todo.append((nxt + 1, max(end, stop), matched + 1))
    return False


def _gap_reach(c: Constraints) -> float:
    return math.inf if c.max_gap is None else max(c.max_gap, c.epsilon)


def _dura(c: Constraints) -> tuple:
    return c.min_dura, math.inf if c.max_dura is None else c.max_dura


def _every_stone(intervals) -> tuple:
    """The stone rule under which every one of ``intervals`` is a stone."""
    return {event for _, _, event in intervals}, 0, math.inf


def _latest_start(intervals, qes) -> int:
    """The query's latest start, the first bound of the reach table, which
    neither the gap bound nor the stones move."""
    return reach_table(intervals, qes, math.inf, set(), 0, math.inf)[0][0]


def _floor(events, done) -> int:
    """The position where the greedy left-to-right embedding of ``done`` in
    ``events`` ends, 0 for no events, or past every index when there is no
    embedding: a row that has matched ``done`` lies at or after it, so its
    column is read there and above only."""
    pos = 0
    for event in done:
        if event not in events[pos:]:
            return len(events) + 1
        pos = events.index(event, pos) + 1
    return pos


def _full_columns(intervals, qes, reach, rule) -> list[list]:
    """Each rest's whole column, from index 0: column 0 of the table of that
    rest alone, whose floor is 0. A column's entries depend on its rest of
    the query only, so from its floor upward ``reach_table``'s column ``k``
    for ``qes`` is this one for ``qes[k:]``."""
    size = len(intervals) + 1
    return [reach_table(intervals, qes[k:], reach, *rule)[1][0]
            for k in range(len(qes))] + [[-math.inf] * size]


def _check_columns(intervals, qes, reach, rule, starts, columns) -> int:
    """Check a reach table's columns from each one's floor upward against
    the whole columns of ``_full_columns``, and every entry of those
    against the brute-force chain search: a chain from an envelope ending
    at a finite entry reaches the column's rest of the query, and none from
    one unit less; an infinite entry is reached from no end. Returns the
    number of columns whose sequence has no embedding of the query before
    them, which are read nowhere."""
    events = [event for _, _, event in intervals]
    full = _full_columns(intervals, qes, reach, rule)
    lacking = 0
    for k, column in enumerate(columns[:-1]):
        floor = _floor(events, qes[:k])
        lacking += floor > len(events)
        assert column[floor:] == full[k][floor:], (k, floor)
        for i, least in enumerate(full[k]):
            if math.isinf(least):
                end = 10 ** 6 if least > 0 else -10 ** 6
                assert _chain_reaches(
                    intervals, i, end, qes[k:], reach, *rule) == (least < 0), (k, i)
            else:
                assert _chain_reaches(intervals, i, least, qes[k:], reach, *rule), (k, i)
                assert not _chain_reaches(intervals, i, least - 1, qes[k:], reach, *rule), (k, i)
    assert columns[-1] == full[-1]
    return lacking


@pytest.mark.parametrize("seed", range(40))
def test_least_ends_is_the_least_end_a_chain_reaches_the_rest_from(seed):
    """The whole reach table of random sequences at epsilon 0 to 2, with
    max_gap finite and unbounded: each bound is the greatest position at
    which an embedding of its rest of the query starts; from each column's
    floor upward, a chain from an envelope ending at a finite entry reaches
    that rest, and none from one unit less; an infinite entry is reached
    from no end; and with no gap bound the entries below the bound are
    minus infinity, the rest infinity."""
    rng = random.Random(seed)
    epsilon = seed % 3
    for _ in range(4):
        seq = make_sequence(1, {(s, s + rng.randint(0, 6), rng.choice("ABC"))
                                for s in (rng.randrange(40) for _ in range(rng.randint(0, 12)))},
                            epsilon)
        intervals = seq.intervals
        events = [event for _, _, event in intervals]
        size = len(intervals) + 1
        qes = tuple(rng.choice("ABC") for _ in range(rng.randint(1, 4)))
        rule = _every_stone(intervals)
        for max_gap in (rng.randint(0, 8), None):
            reach = _gap_reach(Constraints(epsilon=epsilon, max_gap=max_gap))
            starts, columns = reach_table(intervals, qes, reach, *rule)
            assert len(starts) == len(columns) == len(qes) + 1
            assert starts[-1] == size and columns[-1] == [-math.inf] * size
            for k, column in enumerate(columns[:-1]):
                found = [pos for pos in range(1, size) if events[pos - 1] == qes[k]
                         and _embeds_after(events, pos, qes[k + 1:])]
                assert starts[k] == max(found, default=0)
                assert len(column) == size
            if max_gap is None:
                for k, column in enumerate(_full_columns(intervals, qes, reach, rule)):
                    assert column == [-math.inf] * starts[k] + [math.inf] * (size - starts[k]), k
            _check_columns(intervals, qes, reach, rule, starts, columns)


def test_a_column_is_filled_down_to_its_floor_only():
    """Column ``k`` holds its entries from the end of the greedy embedding
    of ``qes[:k]`` upward, exactly as the brute-force search gives them, and
    infinity below; a sequence without ``qes[:k]`` has an infinite column
    ``k``, with no error, and so does one whose only ``qes[:k]`` ends past
    the column's bound."""
    rule = ({"A", "B", "C", "X"}, 0, math.inf)
    # Floors 0, 2 (the first A) and 4 (the first A, B); bounds 3, 5 and 6.
    intervals = ((0, 1, "X"), (2, 3, "A"), (4, 5, "A"), (6, 7, "B"), (8, 9, "B"), (10, 11, "C"))
    qes = ("A", "B", "C")
    starts, columns = reach_table(intervals, qes, 3, *rule)
    inf = math.inf
    assert starts == [3, 5, 6, 7]
    assert columns == [[-3, -1, 1, inf, inf, inf, inf], [inf, inf, 1, 3, 5, inf, inf],
                       [inf, inf, inf, inf, 5, 7, inf], [-inf] * 7]
    assert _check_columns(intervals, qes, 3, rule, starts, columns) == 0
    # No A, B before the last C: column 2 has nothing to fill, nor does a
    # sequence with no A at all its columns 1 and 2.
    for intervals, lacking in ((((0, 1, "A"), (2, 3, "C"), (4, 5, "B")), 0),
                               (((0, 1, "B"), (2, 3, "C")), 2)):
        starts, columns = reach_table(intervals, qes, 3, *rule)
        assert columns[1] == columns[2] == [math.inf] * (len(intervals) + 1)
        assert _check_columns(intervals, qes, 3, rule, starts, columns) == lacking
    # Mined without the sequence filter, a sequence that holds the query's
    # last events but not its first fills nothing and breaks nothing.
    db = parse_database("1|A,0,1 B,2,3 C,4,5\n2|B,0,1 C,2,3\n3|A,0,1 C,2,3 B,4,5\n")
    c = Constraints(max_gap=3)
    cfg = MiningConfig(min_sup=1 / 3, constraints=c, strategies=StrategyFlags(usfp=False))
    results, _ = mine(db, qes, cfg)
    assert {r.events: (r.vsup, r.supporting_sids) for r in results} \
        == target_filter(enumerate_all(db, c, 3, 1), qes) == {qes: (1, (1,))}


def _pass_stones(db, c, threshold) -> frozenset:
    """The stones the singleton pass sets on the miner's ``Scan``."""
    scan = Scan(db, c, threshold)
    build_singleton_vdbs(db, c, threshold, scan)
    return frozenset(scan.stones)


@pytest.mark.parametrize("seed", range(30))
def test_reach_steps_only_on_stones_within_the_duration_bounds(seed):
    """Given stones and duration bounds, the reach table keeps its bounds,
    which only query events set, and from each column's floor upward a
    chain from a finite entry reaches its rest of the query through query
    events and stones alone, and none from one unit less; an infinite entry
    is reached from no end. Unbounded, the table is the one in which every
    interval is a stone. At epsilon 0 to 2, with an event D outside every
    query."""
    rng = random.Random(seed)
    epsilon = seed % 3
    stoned = 0
    for _ in range(8):
        seq = make_sequence(1, {(s, s + rng.randint(0, 6), rng.choice("ABCD"))
                                for s in (rng.randrange(40) for _ in range(rng.randint(0, 12)))},
                            epsilon)
        intervals = seq.intervals
        qes = tuple(rng.choice("ABC") for _ in range(rng.randint(1, 3)))
        stones = set(rng.sample("ABCD", rng.randint(0, 4)))
        min_dura = rng.randint(0, 3)
        max_dura = rng.choice([math.inf, rng.randint(min_dura, 6)])
        rule = (stones, min_dura, max_dura)
        for max_gap in (rng.randint(0, 8), None):
            reach = _gap_reach(Constraints(epsilon=epsilon, max_gap=max_gap))
            starts, columns = reach_table(intervals, qes, reach, *rule)
            anyway = reach_table(intervals, qes, reach, set("ABCD"), 0, math.inf)
            assert starts == anyway[0]
            full = _full_columns(intervals, qes, reach, rule)
            whole = _full_columns(intervals, qes, reach, (set("ABCD"), 0, math.inf))
            if max_gap is None:
                assert columns == anyway[1] and full == whole
            stoned += full != whole
            _check_columns(intervals, qes, reach, rule, starts, columns)
    assert stoned > 0, 'stones changed no column'


def _reach_mismatches(seeds):
    """Run ``extend_prefix`` with a query's ``Scan`` against the full join
    filtered by ``_chain_reaches`` and return (cases that differ, cases
    whose rows the filter changed, total ``scan.pruned``, cases whose rows
    the stones changed).

    The expected rows of a candidate are those of ``extend_vdb`` from whose
    envelope end a chain of steps within ``max(max_gap, epsilon)`` of it,
    through the intervals after the row's eid, still holds the rest of the
    query, after the candidate has matched its query event if it is the
    next one; with no gap bound, any embedding after the row's eid does.
    Stones lie within the duration bounds. Each threshold runs twice: with
    every event of the database as stones, and with those the singleton
    pass sets for the miner. The candidates returned are those
    with at least ``threshold`` sequences left. Prefixes are
    singletons and the full joins of two events, at epsilon 0 to 2, with
    queries of one to three events."""
    mismatches = filtered = pruned = stoned = 0
    for seed in seeds:
        db, c, min_sup, qes = random_trial(seed, epsilon=seed % 3)
        rng = random.Random(seed)
        sequences = db.sequence_by_sid
        reach = _gap_reach(c)
        every = frozenset(db.alphabet)
        singletons = build_singleton_vdbs(db, c)
        events = sorted(singletons)
        if not events:
            continue
        prefixes = list(singletons.values())
        prefixes += [ext for p in list(prefixes) for e in events
                     if (ext := extend_vdb(p, e, singletons[e], c)).by_sid]
        queries = [qes] + [tuple(rng.choice(db.alphabet) for _ in range(rng.randint(1, 3)))
                           for _ in range(2)]
        for query in queries:
            for prefix in prefixes:
                match = 0
                for e in prefix.events:
                    if match < len(query) and e == query[match]:
                        match += 1
                candidates = rng.sample(events, rng.randint(1, len(events)))

                def expect(stones):
                    nonlocal filtered
                    expected = {}
                    for e in candidates:
                        after = match + (match < len(query) and e == query[match])
                        full = extend_vdb(prefix, e, singletons[e], c).by_sid
                        kept = {sid: [r for r in rows if _chain_reaches(
                                    sequences[sid].intervals, r[0], r[2], query[after:], reach,
                                    stones, *_dura(c))]
                                for sid, rows in full.items()}
                        kept = {sid: rows for sid, rows in kept.items() if rows}
                        filtered += kept != full
                        expected[e] = kept
                    return expected

                expected_by = {every: expect(every)}
                supports = {len(v) for v in expected_by[every].values()}
                for t in sorted({1, min_sup * len(db)} | supports | {v + 1 for v in supports}):
                    if t < 1:
                        continue
                    for stones in (every, _pass_stones(db, c, t)):
                        if stones not in expected_by:
                            expected_by[stones] = expect(stones)
                            stoned += expected_by[stones] != expected_by[every]
                        scan = Scan(db, c, t, query)
                        scan.stones = stones
                        joined = extend_prefix(prefix, candidates, scan, match)
                        got = {e: list(v.by_sid.items()) for e, v in joined.items()}
                        want = {e: _unlabelled(v) for e, v in expected_by[stones].items()
                                if len(v) >= t}
                        mismatches += got != want
                        pruned += scan.pruned
    return mismatches, filtered, pruned, stoned


def test_extend_prefix_with_reach_keeps_the_rows_that_reach_the_query():
    mismatches, filtered, pruned, stoned = _reach_mismatches(range(60))
    assert mismatches == 0
    # The bound dropped rows, and counted its work; the stones dropped more.
    assert filtered > 0 and pruned > 0 and stoned > 0


def test_reach_from_the_earliest_embedding_drops_rows_it_must_keep(monkeypatch):
    """A reach table bounded by the earliest embedding starts instead of the
    latest keeps a row only if it lies before the leftmost embedding of the
    rest of the query, and so drops rows that still reach it: the check
    above fails."""
    monkeypatch.setattr("tirpmine.vertical.reach_bounds", earliest_bounds)
    mismatches, _, _, _ = _reach_mismatches(range(60))
    assert mismatches > 0


def test_reach_without_stepping_stones_drops_rows_it_must_keep(monkeypatch):
    """A reach table whose chains may step only on query events misses the
    chains that bridge a gap through other intervals: the check above
    fails."""
    monkeypatch.setattr("tirpmine.vertical.reach_columns", stoneless_columns)
    mismatches, _, _, _ = _reach_mismatches(range(60))
    assert mismatches > 0


def test_a_join_keeps_no_hit_where_the_rest_of_the_query_is_absent():
    """A prefix row in a sequence that holds none of the query after its
    next event: the reach table's bound is 0 there, and so is the bound of
    the whole query, which starts below it. The window's cap must stay at
    index 0, where a cap of -1 would wrap the slice round to the end and
    return the ``A`` hit, with and without a gap bound."""
    db = parse_database("1|D,0,1 A,2,3 X,4,5\n")
    for max_gap in (None, 5):
        c = Constraints(max_gap=max_gap)
        scan = Scan(db, c, 1, ("A", "Z"))
        scan.stones = set(db.alphabet)
        assert extend_prefix(build_singleton_vdbs(db, c)["D"], ["A"], scan) == {}
        assert scan[1][0] == [0, 0, 4]


def test_a_join_tests_reach_before_the_extension_rule():
    """The ``C`` hit starts 1 after the ``A`` row ends, under min_gap 2, and
    from its envelope no chain reaches ``Z`` within max_gap 3: only the
    stone ``B`` bridges that gap. The reach test comes first, so the hit
    counts in ``scan.pruned`` though the rule would refuse it too."""
    db = parse_database("1|A,0,5 B,5,9 C,6,7 Z,12,13\n")
    c = Constraints(min_gap=2, max_gap=3)
    scan = Scan(db, c, 1, ("A", "Z"))
    scan.stones = set(db.alphabet)
    got = extend_prefix(build_singleton_vdbs(db, c)["A"], ["B", "C"], scan, 1)
    assert got.keys() == {"B"} and scan.pruned == 1


def _screened_keys(db, c, t, query) -> set:
    """The keys of the seed screen's singleton databases. With any event
    screened, they are every event ``event_support`` puts in at least ``t``
    sequences, though the duration bounds leave it too few seeds; a
    one-event query's own event, not screened, keys only when at least
    ``t`` sequences have a seed, as every event does with no screen."""
    seeded = {e for e, v in build_singleton_vdbs(db, c).items() if v.vertical_support() >= t}
    own = {query[0]} if len(query) == 1 else set()
    frequent = {e for e, count in db.event_support.items() if count >= t} - own
    return frequent | seeded & own if query and frequent else seeded


def test_the_seed_screen_builds_the_live_rows():
    """With a query's ``Scan``, ``build_singleton_vdbs`` keeps every
    frequent event, and an event with query left after its seed holds the
    rows ``_chain_reaches`` keeps, when at least ``threshold`` sequences
    have one, and none otherwise; the query's event when it is the whole
    query keeps all its rows. At threshold 1, ``scan.pruned`` is the number
    of rows left out at or before the query's latest start, past which the
    pass reads nothing. The chains step on the stones the pass sets, which
    include every event it keys, within the duration bounds. At epsilon 0
    to 2, queries of one to three events."""
    emptied = kept = stoned = 0
    for seed in range(60):
        db, c, min_sup, qes = random_trial(seed, epsilon=seed % 3)
        rng = random.Random(seed)
        reach = _gap_reach(c)
        every = frozenset(db.alphabet)
        full = build_singleton_vdbs(db, c)
        queries = [qes] + [tuple(rng.choice(db.alphabet) for _ in range(rng.randint(1, 3)))
                           for _ in range(2)]
        for query in queries:

            def live_and_dead(stones):
                live = {}
                for e, v in full.items():
                    rest = query[int(e == query[0]):]
                    rows = {sid: [r for r in rows if _chain_reaches(
                                db.sequence_by_sid[sid].intervals, r[0], r[2], rest, reach,
                                stones, *_dura(c))]
                            for sid, rows in v.by_sid.items()}
                    live[e] = {sid: rows for sid, rows in rows.items() if rows}
                dead = sum(r[0] <= _latest_start(db.sequence_by_sid[sid].intervals, query)
                           and r not in live[e].get(sid, ())
                           for e, v in full.items() for sid, rows in v.by_sid.items() for r in rows)
                return live, dead

            by_stones = {every: live_and_dead(every)}
            supports = {len(v) for v in by_stones[every][0].values()}
            for t in sorted({1, min_sup * len(db)} | supports | {v + 1 for v in supports}):
                if t < 1:
                    continue
                scan = Scan(db, c, t, query)
                screened = build_singleton_vdbs(db, c, t, scan)
                assert screened.keys() == _screened_keys(db, c, t, query)
                stones = frozenset(scan.stones)
                assert stones >= screened.keys()
                if stones not in by_stones:
                    by_stones[stones] = live_and_dead(stones)
                    stoned += by_stones[stones][0] != by_stones[every][0]
                live, dead = by_stones[stones]
                for e, v in screened.items():
                    want = live.get(e, {})
                    want = want if len(want) >= t else {}
                    assert v.events == (e,) and v.by_sid == want
                    emptied += not want
                    kept += bool(want) and want != full[e].by_sid
                if t == 1:
                    assert scan.pruned == dead
                # A reach table is built only when some event is screened.
                own = query[0] if len(query) == 1 else None
                assert not scan or any(count >= t for e, count in db.event_support.items()
                                       if e != own)
    # Some frequent event was left with no seed, some seed lost rows, and
    # the stones left some seed fewer live rows than every event's would.
    assert emptied > 0 and kept > 0 and stoned > 0


class _Unread(tuple):
    """An interval that fails the test when it is unpacked, as the singleton
    pass unpacks each interval it reads."""

    def __iter__(self):
        raise AssertionError(f"read {tuple.__repr__(self)}")


def test_the_seed_screen_reads_no_interval_past_the_querys_latest_start():
    """While a screen runs, the pass reads each sequence only up to
    ``scan[sid][0]``, the latest start of the query; a sequence without the
    query is not read at all. Every interval past that position is an
    ``_Unread``, and the seeds are those of the same text parsed plainly.
    The scan is over the plain database, so its reach tables read the
    plain intervals and only the pass's own reads meet the cut, with and
    without a gap bound."""
    text = ("1|A,0,1 C,2,3 A,4,5 B,6,7 C,8,9 B,10,11\n"
            "2|C,0,1 B,2,3 C,4,5\n"
            "3|B,0,1 A,2,3 B,4,5 A,6,7\n")
    plain = parse_database(text)
    for qes, c in ((("A", "B"), Constraints()), (("A", "B"), Constraints(max_gap=1)),
                   (("A",), Constraints(max_gap=1))):
        cut = Database(tuple(
            TimeIntervalSequence(seq.sid, tuple(
                iv if pos <= _latest_start(seq.intervals, qes) else _Unread(iv)
                for pos, iv in enumerate(seq.intervals, start=1)))
            for seq in plain.sequences))
        vars(cut)["event_support"] = plain.event_support  # read without unpacking
        for threshold in (1, 2):
            got = build_singleton_vdbs(cut, c, threshold, Scan(plain, c, threshold, qes))
            want = build_singleton_vdbs(plain, c, threshold, Scan(plain, c, threshold, qes))
            assert got == want
    assert got["A"].by_sid == {1: [(1, 0, 1, None, None), (3, 4, 5, None, None)],
                               3: [(2, 2, 3, None, None), (4, 6, 7, None, None)]}
    # At threshold 2, C and B have live seeds in one sequence each.
    assert got["C"].by_sid == got["B"].by_sid == {}


def test_the_seed_screen_builds_no_query_table_when_no_event_is_screened(monkeypatch):
    """With no query, or a one-event query whose event is the only frequent
    one, nothing is screened: no reach bounds are taken, no column is
    filled, and the rows are those of the pass without a scan. With any
    event screened, every sequence gets its bounds, those without the query
    too, until no screened event can reach the threshold: at threshold 3
    the query B, A leaves A no live row in the first two sequences, and the
    pass stops. Only a sequence with a screened row before the query's
    latest start gets its columns, and only those are kept in the scan:
    sequence 1 for the query A, B (its A), and sequence 3 for the query D
    (its A)."""
    calls = Counter()

    def counted_bounds(*args):
        calls["bounds"] += 1
        return reach_bounds(*args)

    def counted_columns(*args):
        calls["columns"] += 1
        return reach_columns(*args)

    monkeypatch.setattr("tirpmine.vertical.reach_bounds", counted_bounds)
    monkeypatch.setattr("tirpmine.vertical.reach_columns", counted_columns)
    db = parse_database("1|A,0,1 B,2,3\n2|A,0,1 C,2,3\n3|A,4,5 D,6,7\n4|E,0,1\n")
    c = Constraints(max_gap=5)
    for qes, threshold, bounds, columns in (
            ((), 1, 0, 0), (("A",), 3, 0, 0), (("A",), 1, 4, 0), (("B", "A"), 1, 4, 0),
            (("B", "A"), 3, 2, 0), (("A", "B"), 1, 4, 1), (("D",), 1, 4, 1)):
        calls.clear()
        scan = Scan(db, c, threshold, qes)
        vdbs = build_singleton_vdbs(db, c, threshold, scan)
        assert (calls["bounds"], calls["columns"]) == (bounds, columns), qes
        assert len(scan) == columns
        if not bounds:
            assert vdbs == build_singleton_vdbs(db, c, threshold)
    # After the stop a one-event query's own event is read on, unscreened.
    db = parse_database("".join(f"{sid}|A,0,1 B,2,3\n" for sid in range(1, 5)))
    calls.clear()
    scan = Scan(db, c, 3, ("A",))
    vdbs = build_singleton_vdbs(db, c, 3, scan)
    assert (calls["bounds"], calls["columns"], len(scan)) == (2, 0, 0)
    assert vdbs["A"].vertical_support() == 4 and vdbs["B"].by_sid == {}
    # A one-event query whose one screened event, B, lies only after the
    # query's last A, as on a wide, sparse database: each sequence costs
    # its bounds alone, and B keys an empty database, a candidate only.
    db = parse_database("1|A,0,1 B,2,3\n2|A,0,1 A,2,3 B,4,5\n3|A,0,1 B,5,6 B,7,8\n")
    calls.clear()
    scan = Scan(db, c, 1, ("A",))
    vdbs = build_singleton_vdbs(db, c, 1, scan)
    assert (calls["bounds"], calls["columns"], len(scan), scan.pruned) == (3, 0, 0, 0)
    assert vdbs["A"].supporting_sids() == [1, 2, 3] and vdbs["B"].by_sid == {}


def test_a_screened_query_keys_every_event_frequent_by_event_support():
    """The seed screen keys ``_screened_keys``, the events frequent by
    ``event_support``, when both duration bounds bind too. At epsilon 0 to
    2, queries of one to three events."""
    screens = 0
    for seed in range(40):
        db, c, min_sup, qes = random_trial(seed, epsilon=seed % 3)
        c = replace(c, min_dura=3, max_dura=6)
        rng = random.Random(seed)
        queries = [qes] + [tuple(rng.choice(db.alphabet) for _ in range(rng.randint(1, 3)))
                           for _ in range(2)]
        for t in (1, 2, min_sup * len(db)):
            for query in queries:
                got = build_singleton_vdbs(db, c, t, Scan(db, c, t, query))
                want = _screened_keys(db, c, t, query)
                assert got.keys() == want
                screens += want != _screened_keys(db, c, t, ())
    # Some screen kept an event with too few seeds.
    assert screens > 0
    # E is frequent, but min_dura leaves it no seed: with a screen it keys
    # an empty database, a candidate only; without one it keys nothing.
    db = parse_database("1|A,0,1 E,2,2 B,3,4\n2|E,0,0 A,1,2 B,3,4\n")
    c = Constraints(min_dura=1)
    assert build_singleton_vdbs(db, c, 2, Scan(db, c, 2, ("A", "B")))["E"].by_sid == {}
    assert "E" not in build_singleton_vdbs(db, c, 2)


def test_extend_prefix_reads_any_database_that_holds_the_prefix():
    """The scan reads each prefix sequence by sid, so the whole database and
    ``db.restrict`` of the prefix's sequences give the same events, rows and
    row order, with and without a query, and the same ``scan.pruned``; at
    epsilon 0 to 2, from prefixes of one and two events."""
    joined = pruned = 0
    for seed in range(30):
        for epsilon in (0, 1, 2):
            db, c, min_sup, qes = random_trial(seed, epsilon=epsilon)
            position = {seq.sid: pos for pos, seq in enumerate(db.sequences)}
            singletons = build_singleton_vdbs(db, c)
            events = sorted(singletons)
            prefixes = list(singletons.values())
            prefixes += [ext for p in list(prefixes) for e in events
                         if (ext := extend_vdb(p, e, singletons[e], c)).by_sid]
            for prefix in prefixes:
                match = 0
                for e in prefix.events:
                    if match < len(qes) and e == qes[match]:
                        match += 1
                restricted = db.restrict(sorted(position[sid] for sid in prefix.by_sid))
                for t in sorted({1, max(1, min_sup * len(db))}):
                    runs = []
                    for source in (db, restricted):
                        scans = [Scan(source, c, t), Scan(source, c, t, qes)]
                        scans[1].stones = set(source.alphabet)
                        runs.append([
                            [(e, list(v.by_sid.items())) for e, v in
                             extend_prefix(prefix, events, scan, m).items()]
                            for scan, m in zip(scans, (0, match))] + [scans[1].pruned])
                    assert runs[0] == runs[1]
                    joined += bool(runs[0][0])
                    pruned += runs[0][2]
    # Extensions came back, and query row pruning counted work.
    assert joined > 0 and pruned > 0


def test_a_query_scan_reads_each_sequence_once(monkeypatch):
    """A query's ``Scan`` is its joins' one view of the sequences, over
    ``random_trial`` databases at epsilon 0 to 2:

    * a mined query, targeted (with and without sequence filtering) or
      full, reads each sequence's ``start_minima`` property at most once,
      however many joins reach the sequence, and takes its reach bounds at
      most once, for a sequence a join or the seed screen reaches, and
      fills its columns at most once, only from those bounds, and none of
      either in full mining;
    * a scan of ``db`` serves prefixes of ``db.restrict``: it reads the
      same sequence objects and builds the tables a scan of the
      restriction builds;
    * a scan with no query, as in full mining and in presets without
      query row pruning, gives ``extend_vdb``'s rows, relations set to
      None, for every candidate at or above the threshold, and prunes
      nothing at any ``match``; so does a scan whose query is matched,
      which builds no table."""
    reads, reached, bounds, tables = Counter(), Counter(), Counter(), Counter()
    start_minima, join = TimeIntervalSequence.start_minima, miner.extend_prefix
    seeds = miner.build_singleton_vdbs
    sid_of = {}

    def counted_minima(seq):
        reads[seq.sid] += 1
        return start_minima.fget(seq)

    def counted_bounds(intervals, *args):
        bounds[sid_of[id(intervals)]] += 1
        return reach_bounds(intervals, *args)

    def counted_columns(intervals, *args):
        tables[sid_of[id(intervals)]] += 1
        return reach_columns(intervals, *args)

    def counted_join(prefix, candidates, scan, match=0):
        reached.update(prefix.by_sid.keys())
        return join(prefix, candidates, scan, match)

    def counted_seeds(db, *args):
        reached.update(seq.sid for seq in db.sequences)
        return seeds(db, *args)

    monkeypatch.setattr(TimeIntervalSequence, "start_minima", property(counted_minima))
    monkeypatch.setattr(miner, "extend_prefix", counted_join)
    monkeypatch.setattr(miner, "build_singleton_vdbs", counted_seeds)
    monkeypatch.setattr("tirpmine.vertical.reach_bounds", counted_bounds)
    monkeypatch.setattr("tirpmine.vertical.reach_columns", counted_columns)
    shared, built = 0, 0
    for seed in range(12):
        for epsilon in (0, 1, 2):
            db, c, min_sup, qes = random_trial(seed, epsilon=epsilon)
            sid_of = {id(seq.intervals): seq.sid for seq in db.sequences}
            for mode, usfp in (("targeted", True), ("targeted", False), ("full", True)):
                for counter in (reads, reached, bounds, tables):
                    counter.clear()
                mine(db, qes, MiningConfig(min_sup=min_sup, constraints=c, mode=mode,
                                           strategies=StrategyFlags(usfp=usfp),
                                           max_pattern_length=4))
                assert set(reads.values()) <= {1} and reads.keys() <= reached.keys()
                assert set(bounds.values()) <= {1} and bounds.keys() <= reached.keys()
                assert set(tables.values()) <= {1} and tables.keys() <= bounds.keys()
                assert mode == "targeted" or not bounds
                built += bool(tables)
                shared += sum(reached[sid] > 1 for sid in reads)

            t = max(1, math.ceil(min_sup * len(db)))
            singletons = build_singleton_vdbs(db, c)
            events = sorted(singletons)
            restricted = db.restrict(range(0, len(db), 2))
            whole, own = Scan(db, c, t, qes), Scan(restricted, c, t, qes)
            whole.stones = own.stones = set(db.alphabet)
            for seq in restricted.sequences:
                assert whole.sequences[seq.sid] is seq is own.sequences[seq.sid]
                assert whole[seq.sid] == own[seq.sid] == reach_table(
                    seq.intervals, qes, _gap_reach(c), set(db.alphabet), *_dura(c))
            for prefix in singletons.values():
                want = {e: _unlabelled(ext.by_sid) for e in events
                        if (ext := extend_vdb(prefix, e, singletons[e], c)).vertical_support() >= t}
                runs = [(Scan(db, c, t), match) for match in (0, 1, 2)]
                runs.append((Scan(db, c, t, qes), len(qes)))
                for scan, match in runs:
                    got = extend_prefix(prefix, events, scan, match)
                    assert {e: list(v.by_sid.items()) for e, v in got.items()} == want
                    assert scan.pruned == 0 and not scan
    # Some sequence was reached by more than one join of one query, and
    # some run built reach tables.
    assert shared > 0 and built > 0


def _replay_relations(seq, row: PatternOccurrence, epsilon: int) -> None:
    """Re-derive a row's stored relations from its source intervals."""
    lo, hi, _ = seq.intervals[row.sources[0] - 1]
    for rel, pos in zip(row.relations, row.sources[1:]):
        nxt = SymbolicInterval(*seq.intervals[pos - 1])
        assert classify_relation(Span(lo, hi), nxt, epsilon) == rel
        lo, hi = min(lo, nxt.start), max(hi, nxt.end)
    assert (lo, hi) == (row.start_t, row.end_t)


def _replay_envelope(seq, row: PatternOccurrence) -> None:
    """Re-derive a row's envelope from its source intervals."""
    spans = [seq.intervals[pos - 1] for pos in row.sources]
    assert (min(s for s, _, _ in spans), max(e for _, e, _ in spans)) == (row.start_t, row.end_t)


def _unlabelled(by_sid) -> list:
    """``extend_vdb``'s rows as ``extend_prefix`` builds them, ``by_sid``'s
    items in order with each row's relation set to None; keys, positions,
    envelopes and prefix links are kept."""
    return [(sid, [(*r[:3], None, r[4]) for r in rows]) for sid, rows in by_sid.items()]
