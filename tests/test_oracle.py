import pytest

from tirpmine import Constraints, MiningConfig, mine, parse_database
from tirpmine.database import Database, TimeIntervalSequence
from tirpmine.oracle import enumerate_all, target_filter

from conftest import (
    EXAMPLE_CONSTRAINTS,
    EXAMPLE_PATTERNS,
    EXAMPLE_QES,
    random_trial,
)


def test_running_example_targets(example_db):
    full = enumerate_all(example_db, EXAMPLE_CONSTRAINTS, max_len=5, threshold=2)
    targets = target_filter(full, EXAMPLE_QES)
    assert set(targets) == EXAMPLE_PATTERNS


def test_threshold_above_db_size_is_empty(example_db):
    assert enumerate_all(example_db, EXAMPLE_CONSTRAINTS, 3, len(example_db) + 1) == {}


def test_max_len_one_gives_frequent_singletons(example_db):
    result = enumerate_all(example_db, EXAMPLE_CONSTRAINTS, max_len=1, threshold=2)
    assert set(result) == {("A",), ("B",), ("C",), ("D",)}
    assert result[("A",)][0] == 5


def test_singleton_duration_filter():
    db = parse_database("1|A,0,9\n2|A,0,2\n")
    result = enumerate_all(db, Constraints(max_dura=5), max_len=1, threshold=1)
    assert result == {("A",): (1, (2,))}


def test_target_filter_edge_cases(example_db):
    full = enumerate_all(example_db, EXAMPLE_CONSTRAINTS, max_len=3, threshold=2)
    assert target_filter(full, ("A",)) == {ev: v for ev, v in full.items() if "A" in ev}
    assert target_filter(full, ("Z",)) == {}
    # a query every pattern contains leaves the result unchanged
    mono = enumerate_all(parse_database("1|A,0,2 A,4,6\n2|A,1,3\n"),
                         Constraints(), max_len=2, threshold=1)
    assert target_filter(mono, ("A",)) == mono


def test_guard_rejects_long_patterns(example_db):
    with pytest.raises(ValueError, match="guard"):
        enumerate_all(example_db, EXAMPLE_CONSTRAINTS, max_len=9, threshold=2)


def test_invariant_under_sid_relabeling():
    db, constraints, min_sup, _ = random_trial(123)
    relabeled = Database(tuple(
        TimeIntervalSequence(seq.sid + 100, seq.intervals)
        for seq in reversed(db.sequences)
    ))
    a = enumerate_all(db, constraints, 4, min_sup * len(db))
    b = enumerate_all(relabeled, constraints, 4, min_sup * len(db))
    assert set(a) == set(b)
    for events, (vsup, sids) in a.items():
        bv, bsids = b[events]
        assert bv == vsup
        assert tuple(sorted(s + 100 for s in sids)) == bsids


@pytest.mark.parametrize("seed", range(30))
def test_miner_matches_oracle(seed):
    db, constraints, min_sup, qes = random_trial(seed)
    max_len = 5
    cfg = MiningConfig(min_sup=min_sup, constraints=constraints,
                       max_pattern_length=max_len)
    results, _ = mine(db, qes, cfg)
    expected = target_filter(
        enumerate_all(db, constraints, max_len, min_sup * len(db)), qes
    )
    assert {r.events: (r.vsup, r.supporting_sids) for r in results} == expected


# At epsilon 2 each sorted sequence holds a Y that starts before the Y ahead
# of it, and only that Y extends X. In the first, the sorted order is X(0,4)
# Y(1,5) Y(7,8) Y(6,14) X(9,14), and X Y X needs X(0,4) meets Y(6,14): a
# scan that stops at the first start past the window, Y(7,8), misses it. In
# the second, X(0,4) Y(7,8) Y(8,11) Y(6,14), a bisection of the raw starts
# 7, 8, 6 misses X Y as well.
@pytest.mark.parametrize("text, pattern", [
    ("1|Y,7,8 Y,1,5 X,9,14 Y,6,14 X,0,4\n", ("X", "Y", "X")),
    ("1|Y,8,11 X,0,4 Y,6,14 Y,7,8\n", ("X", "Y")),
], ids=["scan", "bisect"])
def test_window_cut_with_out_of_order_starts(text, pattern):
    db = parse_database(text, epsilon=2)
    constraints = Constraints(epsilon=2, max_gap=1, max_dura=None)
    cfg = MiningConfig(min_sup=1, constraints=constraints, mode="full")
    results, _ = mine(db, None, cfg)
    found = {r.events: (r.vsup, r.supporting_sids) for r in results}
    assert found[pattern] == (1, (1,))
    assert found == enumerate_all(db, constraints, 5, 1)
