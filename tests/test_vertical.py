import random
from dataclasses import replace

import pytest

from tirpmine import (
    Constraints,
    GeneratorParams,
    Span,
    build_psm,
    build_singleton_vdbs,
    check_extension_validity,
    classify_relation,
    extend_vdb,
    generate_synthetic,
    parse_database,
    serialize_database,
    usfp_filter,
)
from tirpmine.vertical import PatternOccurrence, VerticalDatabase, extend_prefix

from conftest import EXAMPLE_CONSTRAINTS, random_trial


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
        assert [iv.event for iv in db.sequences[0].intervals] == list("CABDE")
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
        scoped = [iv for iv in seq.intervals if events is None or iv.event in events]
        pairs = {(a.event, b.event)
                 for i, a in enumerate(scoped) for b in scoped[i + 1:]
                 if max_dura is None or max(a.end, b.end) - min(a.start, b.start) <= max_dura}
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
                              if events is None or iv.event in events]
                    if len(scoped) >= 2:
                        end = max(iv.end for iv in scoped)
                        fits = max_dura is None or end - min(iv.start for iv in scoped) <= max_dura
                        seen.add((len(scoped), fits,
                                  not fits and end - scoped[0].start <= max_dura))
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


# Seeds from 25 on run at epsilon 2, where starts in eid order can fall.
@pytest.mark.parametrize("seed", range(35))
def test_extension_invariants_on_random_dbs(seed):
    db, constraints, min_sup, _qes = random_trial(seed, epsilon=2 if seed >= 25 else None)
    threshold = min_sup * len(db)
    vdbs = build_singleton_vdbs(db, constraints)
    psm = build_psm(db, constraints)
    sequences = {s.sid: s for s in db.sequences}

    for ev, prefix in vdbs.items():
        for cand, single in vdbs.items():
            ext = extend_vdb(prefix, cand, single, constraints)
            vsup = ext.vertical_support()
            # the window cut drops no row a scan of every later candidate finds
            assert {sid: [(r.prefix, r.eid, r.relation) for r in rows]
                    for sid, rows in ext.by_sid.items()} == _scan_join(prefix, single, constraints)
            # anti-monotonicity of vertical support
            assert vsup <= prefix.vertical_support()
            # pair support matrix bounds the extension's support
            assert vsup <= psm.support(ev, cand)
            for r in ext.rows:
                assert list(r.sources) == sorted(set(r.sources))
                assert len(r.relations) == len(r.sources) - 1
                _replay_relations(sequences[r.sid], r, constraints.epsilon)
            # a bounded join is the full join when that is frequent enough,
            # and short of its threshold otherwise
            for bound in (1, 2, threshold, vsup, vsup + 1):
                bounded = extend_vdb(prefix, cand, single, constraints, bound)
                assert bounded.events == ext.events
                if vsup >= bound:
                    assert list(bounded.by_sid.items()) == list(ext.by_sid.items())
                else:
                    assert bounded.vertical_support() < bound


def test_extend_prefix_is_extend_vdb_for_each_frequent_candidate():
    """One scan for all candidates returns exactly the candidates whose join
    reaches the threshold, each with extend_vdb's rows in extend_vdb's order,
    at epsilon 0 to 2, from prefixes of one and two events."""
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
                joined = extend_prefix(prefix, candidates, db, c, t)
                assert set(joined) == {e for e, v in full.items() if v.vertical_support() >= t}
                for e, ext in joined.items():
                    assert ext.events == prefix.events + (e,)
                    assert list(ext.by_sid.items()) == list(full[e].by_sid.items())
                at_threshold += any(v.vertical_support() == t for v in joined.values())
                below += any(v.vertical_support() == t - 1 > 0 for v in full.values())
    # A candidate exactly at a threshold was returned, one a sequence short
    # of it was met, and the single-interval duration filter changed a join.
    assert at_threshold > 0 and below > 0
    assert dura_binds > 0


def _scan_join(prefix, single, c):
    """The join as a scan of every later candidate row, with no window."""
    joined = {}
    for sid, prefix_rows in prefix.by_sid.items():
        rows = [(r, q.eid, rel) for r in prefix_rows for q in single.by_sid.get(sid, ())
                if q.eid > r.eid and (rel := check_extension_validity(
                    Span(r.start_t, r.end_t), Span(q.start_t, q.end_t), c)) is not None]
        if rows:
            joined[sid] = rows
    return joined


def _replay_relations(seq, row: PatternOccurrence, epsilon: int) -> None:
    """Re-derive a row's stored relations from its source intervals."""
    first = seq.intervals[row.sources[0] - 1]
    lo, hi = first.start, first.end
    for rel, pos in zip(row.relations, row.sources[1:]):
        nxt = seq.intervals[pos - 1]
        assert classify_relation(Span(lo, hi), nxt, epsilon) == rel
        lo, hi = min(lo, nxt.start), max(hi, nxt.end)
    assert (lo, hi) == (row.start_t, row.end_t)
