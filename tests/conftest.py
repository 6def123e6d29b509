import math
import random

import pytest

from tirpmine import Constraints, MiningConfig, SymbolicInterval, parse_database
from tirpmine.database import Database, make_sequence
from tirpmine.miner import contains_subsequence
from tirpmine.vertical import reach_table

# The five-sequence worked example used throughout the tests.
EXAMPLE_TEXT = """\
1|B,2,10 A,5,12 D,8,18 C,12,18 B,12,20 A,14,20
2|B,2,16 C,8,10 C,12,14 A,14,18 D,18,20
3|A,2,6 C,2,8 A,11,13 D,11,15 B,14,19 A,15,19 D,16,19
4|A,2,15 C,6,13 D,6,13
5|A,0,2 C,3,9 A,5,13 B,13,16 D,15,20 B,17,20
"""

EXAMPLE_CONSTRAINTS = Constraints(epsilon=0, min_gap=0, max_gap=5, min_dura=0, max_dura=20)
EXAMPLE_QES = ("A", "C")
EXAMPLE_MINSUP = 0.4

EXAMPLE_PATTERNS = {
    ("A", "C"),
    ("A", "C", "A"),
    ("A", "C", "A", "B"),
    ("A", "C", "A", "B", "D"),
    ("A", "C", "A", "D"),
    ("A", "C", "A", "D", "B"),
    ("A", "C", "B"),
    ("A", "C", "D"),
}


@pytest.fixture
def example_db():
    return parse_database(EXAMPLE_TEXT)


@pytest.fixture
def example_cfg():
    return MiningConfig(min_sup=EXAMPLE_MINSUP, constraints=EXAMPLE_CONSTRAINTS)


def random_trial(seed: int, epsilon: int | None = None):
    """Deterministic small random database with random mining parameters,
    sized for the brute-force enumerator. ``epsilon`` overrides the drawn
    margin (0 or 1) and leaves every other draw as it was."""
    rng = random.Random(seed)
    drawn = rng.choice([0, 1])
    epsilon = drawn if epsilon is None else epsilon
    alphabet = "ABCDE"[: rng.randint(2, 5)]
    sequences = []
    for sid in range(1, rng.randint(2, 8) + 1):
        chosen: set[tuple[int, int, str]] = set()
        target = rng.randint(1, 10)
        while len(chosen) < target:
            start = rng.randrange(0, 20)
            end = start + rng.randint(0, 8)
            chosen.add((start, end, rng.choice(alphabet)))
        intervals = [SymbolicInterval(s, e, ev) for s, e, ev in chosen]
        sequences.append(make_sequence(sid, intervals, epsilon))
    db = Database(tuple(sequences))

    min_gap = rng.choice([0, 1])
    max_gap = rng.choice([None, rng.randint(max(min_gap, 2), 8)])
    min_dura = rng.choice([0, 1])
    max_dura = rng.choice([None, rng.randint(max(min_dura, 5), 25)])
    constraints = Constraints(
        epsilon=epsilon, min_gap=min_gap, max_gap=max_gap,
        min_dura=min_dura, max_dura=max_dura,
    )
    min_sup = rng.choice([0.2, 0.3, 0.4, 0.5])
    qes = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
    return db, constraints, min_sup, qes


def earliest_reach(intervals, qes, gap_reach, stones, min_dura, max_dura):
    """Like ``tirpmine.vertical.reach_table``, with the same stones, but the
    bound of each rest ``qes[k:]`` is where its leftmost embedding starts,
    and its column is infinite from that index on. As the table of query
    row pruning it is too tight: it drops rows that can still reach the
    query, so tests patch it in to show that they catch such a bound."""
    _, columns = reach_table(intervals, qes, gap_reach, stones, min_dura, max_dura)
    events = [event for _, _, event in intervals]
    starts = []
    for k in range(len(qes)):
        first, rest = qes[k], qes[k + 1:]
        found = [pos for pos in range(1, len(events) + 1) if events[pos - 1] == first
                 and (not rest or contains_subsequence(events[pos:], rest))]
        starts.append(found[0] if found else 0)
    starts.append(len(events) + 1)
    return starts, [column[:bound] + [math.inf] * (len(column) - bound)
                    for column, bound in zip(columns, starts)]


def stoneless_reach(intervals, qes, gap_reach, stones, min_dura, max_dura):
    """Like ``tirpmine.vertical.reach_table``, but in its columns every
    step of a chain must be the next query event: no other interval may
    serve as a stepping stone, whatever the stones passed. As the table of
    query row pruning it is too tight: a chain that bridges a long gap
    through other intervals is missed, and rows that can still reach the
    query are dropped, so tests patch it in to show that they catch such a
    table."""
    starts, _ = reach_table(intervals, qes, gap_reach, stones, min_dura, max_dura)
    size = len(intervals) + 1
    columns = [[-math.inf] * size]
    for k in range(len(qes) - 1, -1, -1):
        later, column, least = columns[0], [math.inf] * size, math.inf
        for i in range(size - 2, -1, -1):
            start, end, event = intervals[i]
            if event == qes[k]:
                rest = later[i + 1]
                least = min(least, max(start - gap_reach, rest if end < rest else -math.inf))
            column[i] = least
        columns.insert(0, column)
    return starts, columns
