import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tirpmine import (
    Constraints,
    Database,
    DatabaseError,
    GeneratorParams,
    MiningConfig,
    SymbolicInterval,
    generate_synthetic,
    interval_precedes,
    mine,
    parse_database,
    serialize_database,
    sort_intervals,
)

from tirpmine.database import make_sequence

from conftest import EXAMPLE_TEXT


def test_parse_running_example_sequence_order():
    db = parse_database(EXAMPLE_TEXT)
    s1 = db.sequences[0]
    assert s1.sid == 1
    assert [(i.start, i.end, i.event) for i in s1.intervals] == [
        (2, 10, "B"), (5, 12, "A"), (8, 18, "D"), (12, 18, "C"), (12, 20, "B"), (14, 20, "A"),
    ]
    assert len(db) == 5
    assert db.alphabet == ("A", "B", "C", "D")


def test_parse_unsorted_input_is_resorted():
    db = parse_database("1|A,14,20 B,2,10 C,12,18 A,5,12 B,12,20 D,8,18\n")
    assert db.sequences[0].events == ("B", "A", "D", "C", "B", "A")


def test_empty_sequence_accepted():
    db = parse_database("7|\n")
    assert db.sequences[0].sid == 7
    assert db.sequences[0].intervals == ()


def test_comments_and_blank_lines_ignored():
    db = parse_database("# header\n\n1|A,0,5\n")
    assert len(db) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1|A,10,5\n", "end < start"),
        ("1|A,1\n", "malformed"),
        ("1|A,x,5\n", "non-integer"),
        ("1|A,0,5 A,0,5\n", "duplicate interval"),
        ("1|A,0,5\n1|B,0,5\n", "duplicate sequence id"),
        ("oops\n", "separator"),
        ("0|A,0,5\n", "positive"),
    ],
)
def test_parse_errors_report_line(text, fragment):
    with pytest.raises(DatabaseError, match=fragment):
        parse_database(text)


def test_error_names_offending_line_number():
    with pytest.raises(DatabaseError, match="line 3"):
        parse_database("1|A,0,5\n2|B,0,5\n3|A,9,4\n")


def test_make_sequence_rejects_what_parse_rejects():
    """Both ways of building a sequence run the same checks."""
    for body, fragment in [("A,10,5", "end < start"), ("A,-1,5", "negative time"),
                           ("A,0,5 A,0,5", "duplicate interval")]:
        with pytest.raises(DatabaseError, match=fragment):
            parse_database(f"1|{body}\n")
        tokens = [tok.split(",") for tok in body.split()]
        with pytest.raises(DatabaseError, match=fragment):
            make_sequence(1, [SymbolicInterval(int(s), int(e), ev) for ev, s, e in tokens])


def test_make_sequence_reads_any_iterable_once():
    """A generator or a one-shot iterator is sorted and validated, not
    consumed by the check and then found empty."""
    listed = make_sequence(1, [SymbolicInterval(s, s + 1, "A") for s in (2, 0, 1)])
    assert [i.start for i in listed.intervals] == [0, 1, 2]
    assert make_sequence(1, (SymbolicInterval(s, s + 1, "A") for s in (2, 0, 1))) == listed
    assert make_sequence(1, iter(listed.intervals[::-1])) == listed
    assert make_sequence(1, iter(listed.intervals), epsilon=1) == listed
    with pytest.raises(DatabaseError, match="end < start"):
        make_sequence(1, (SymbolicInterval(s, s + 1 - 2 * (s == 1), "A") for s in range(3)))
    with pytest.raises(DatabaseError, match="duplicate interval"):
        make_sequence(1, iter([SymbolicInterval(0, 1, "A")] * 2))


def test_event_positions_list_the_sequences_holding_each_event():
    db = parse_database(EXAMPLE_TEXT)
    events = {i.event for s in db.sequences for i in s.intervals}
    assert db.event_positions == {
        e: [p for p, s in enumerate(db.sequences) if e in s.events] for e in events}


def test_event_masks_are_the_positions_as_bits():
    db = parse_database(EXAMPLE_TEXT)
    assert db.event_masks == {
        e: sum(1 << p for p in positions) for e, positions in db.event_positions.items()}


@pytest.mark.parametrize("size, masked", [(64, True), (65, False)])
def test_an_event_in_one_sequence_has_a_mask_up_to_64_sequences(size, masked):
    db = parse_database("".join(f"{sid}|{'A' if sid == 1 else 'B'},0,1\n"
                                for sid in range(1, size + 1)))
    assert ("A" in db.event_masks) == masked
    assert "B" in db.event_masks


def _own_and_shared(n):
    """``n`` sequences, each holding an event of its own and one shared event."""
    return parse_database("".join(f"{sid}|own{sid},0,1 shared,2,3\n"
                                  for sid in range(1, n + 1)))


def test_event_masks_only_for_events_held_by_a_64th_of_the_sequences():
    # A mask per event would take 20,001 x 2.5 kB.
    n = 20_000
    db = _own_and_shared(n)
    tracemalloc.start()
    try:
        db.event_positions
        masks = db.event_masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks == {"shared": (1 << n) - 1}
    assert peak < 5_000_000


def test_restrict_with_every_event_masked_carries_support():
    db = parse_database(EXAMPLE_TEXT)
    assert set(db.event_masks) == set(db.event_positions)
    kept = db.restrict([0, 2])
    assert "event_support" in vars(kept)
    assert kept.event_support == {
        e: len(p) for e, p in Database(kept.sequences).event_positions.items()}
    assert "event_positions" not in vars(kept)
    assert db.restrict(range(len(db))) is db


@pytest.mark.parametrize("positions", [[6], range(0, 20_000, 2)])
def test_restrict_with_an_unmasked_event_counts_the_kept_sequences(positions):
    # 20,000 of the 20,001 events have no mask, so the kept sequences'
    # support comes from their own index, never from a walk of the full
    # database's position lists.
    db = _own_and_shared(20_000)
    kept = db.restrict(positions)
    assert "event_support" not in vars(kept)
    assert kept.event_support == {
        "shared": len(positions), **{f"own{p + 1}": 1 for p in positions}}


def test_start_minima_are_computed_once_across_restrictions():
    # At epsilon 1 the first line sorts to C, A, B, D, E: starts 6, 5, 4, 7, 8.
    db = parse_database("1|A,5,10 B,4,20 C,6,8 D,7,9 E,8,9\n2|A,0,1\n3|B,2,3 A,9,9\n",
                        epsilon=1)
    assert db.start_minima(1) == (4, 4, 4, 7, 8)
    kept = db.restrict([0, 2])
    assert kept.start_minima(1) is db.start_minima(1)
    # A sequence first scanned through a restriction is kept for the database.
    assert kept.start_minima(3) == (2, 9)
    assert db.start_minima(3) is kept.start_minima(3)


def test_parse_keeps_one_string_per_event_name():
    text = "".join(f"{sid}|ev{sid % 3},0,1 ev{sid % 5},2,3 ev{sid % 3},4,5\n"
                   for sid in range(1, 31))
    db, other = parse_database(text), parse_database(text)
    names = {id(i.event) for s in db.sequences for i in s.intervals}
    assert len(names) == len(db.alphabet) == 5
    # Two parses share no name table.
    assert names.isdisjoint(id(i.event) for s in other.sequences for i in s.intervals)


class TestSortIntervals:
    def test_running_example_order(self):
        raw = [
            SymbolicInterval(5, 12, "A"), SymbolicInterval(14, 20, "A"),
            SymbolicInterval(2, 10, "B"), SymbolicInterval(12, 20, "B"),
            SymbolicInterval(12, 18, "C"), SymbolicInterval(8, 18, "D"),
        ]
        assert [i.event for i in sort_intervals(raw)] == ["B", "A", "D", "C", "B", "A"]

    def test_singleton(self):
        one = [SymbolicInterval(1, 2, "A")]
        assert sort_intervals(one) == one

    def test_idempotent(self):
        raw = [SymbolicInterval(0, 3, "B"), SymbolicInterval(1, 2, "A")]
        once = sort_intervals(raw)
        assert sort_intervals(once) == once


interval_sets = st.sets(
    st.tuples(st.integers(0, 30), st.integers(0, 9), st.sampled_from("ABC")),
    min_size=0, max_size=12,
)


@given(interval_sets)
def test_sorted_adjacent_pairs_are_ordered(triples):
    ivs = sort_intervals([SymbolicInterval(s, s + d, e) for s, d, e in triples])
    for a, b in zip(ivs, ivs[1:]):
        assert interval_precedes(a, b, 0)


@given(st.lists(interval_sets, min_size=0, max_size=5))
def test_round_trip(seq_triples):
    text = "\n".join(
        f"{sid}|" + " ".join(f"{e},{s},{s + d}" for s, d, e in triples)
        for sid, triples in enumerate(seq_triples, start=1)
    )
    db = parse_database(text)
    assert parse_database(serialize_database(db)) == db


@pytest.mark.parametrize("epsilon", [1, 2])
def test_mined_output_ignores_token_and_line_order(epsilon):
    """At epsilon > 0 the sort's comparator is not transitive; the output
    must still depend only on the set of intervals."""
    rng = random.Random(epsilon)
    cfg = MiningConfig(min_sup=0.2, constraints=Constraints(epsilon=epsilon),
                       max_pattern_length=4, mode="full")
    for _ in range(40):
        lines = []
        for sid in range(1, 6):
            tokens = {(rng.choice("ABC"), start, start + rng.randint(0, 4))
                      for start in (rng.randrange(12) for _ in range(6))}
            lines.append([f"{e},{s},{t}" for e, s, t in sorted(tokens)])
        text = "".join(f"{sid}|{' '.join(toks)}\n" for sid, toks in enumerate(lines, 1))
        baseline, _ = mine(parse_database(text, epsilon), None, cfg)
        for toks in lines:
            rng.shuffle(toks)
        numbered = [f"{sid}|{' '.join(toks)}\n" for sid, toks in enumerate(lines, 1)]
        rng.shuffle(numbered)
        shuffled, _ = mine(parse_database("".join(numbered), epsilon), None, cfg)
        assert shuffled == baseline, text


class TestGenerator:
    def test_deterministic(self):
        p = GeneratorParams(num_sequences=5, intervals_per_sequence=8,
                            alphabet_size=4, seed=42)
        assert generate_synthetic(p) == generate_synthetic(p)

    def test_output_is_pinned(self):
        """The digest was recorded from an earlier implementation, so any
        change to the draw order or the serialised bytes shows here."""
        p = GeneratorParams(num_sequences=30, intervals_per_sequence=12, alphabet_size=6,
                            max_time=40, max_duration=8, seed=7)
        text = serialize_database(generate_synthetic(p))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2e03652f5a3a4a164d96a80a49848ad68423d26dec1b0717f27cdc58fa874274")

    def test_shape(self):
        p = GeneratorParams(num_sequences=10, intervals_per_sequence=6,
                            alphabet_size=3, max_time=50, max_duration=7, seed=1)
        db = generate_synthetic(p)
        assert len(db) == 10
        for seq in db.sequences:
            assert len(seq.intervals) == 6
            for i in seq.intervals:
                assert 0 <= i.start < 50
                assert 1 <= i.duration <= 7
        assert set(db.alphabet) <= {"0", "1", "2"}

    def test_degenerate_alphabet(self):
        p = GeneratorParams(num_sequences=3, intervals_per_sequence=1,
                            alphabet_size=1, seed=9)
        db = generate_synthetic(p)
        assert all(s.events == ("0",) for s in db.sequences)

    def test_generated_passes_validation(self):
        p = GeneratorParams(num_sequences=20, intervals_per_sequence=10,
                            alphabet_size=5, max_time=15, max_duration=3, seed=3)
        db = generate_synthetic(p)
        assert parse_database(serialize_database(db)) == db

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GeneratorParams(num_sequences=0, intervals_per_sequence=1, alphabet_size=1)

    def test_more_intervals_than_distinct_ones(self):
        with pytest.raises(ValueError, match="intervals"):
            GeneratorParams(num_sequences=1, intervals_per_sequence=5, alphabet_size=2,
                            max_time=2, max_duration=1)

    def test_every_distinct_interval(self):
        p = GeneratorParams(num_sequences=2, intervals_per_sequence=4, alphabet_size=2,
                            max_time=2, max_duration=1, seed=4)
        assert all(len(s.intervals) == 4 for s in generate_synthetic(p).sequences)
