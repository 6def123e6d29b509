"""Time-interval sequence databases: parsing, validation, sorting, synthesis.

File format: one sequence per line, ``SID|EVENT,START,END EVENT,START,END ...``.
Lines starting with ``#`` and blank lines are ignored. Input order of tokens
does not matter; the parser always re-sorts each sequence.
"""
from __future__ import annotations

import functools
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from .model import interval_precedes


class DatabaseError(ValueError):
    """Malformed or invalid database input."""


@dataclass(frozen=True, slots=True)
class TimeIntervalSequence:
    sid: int
    intervals: tuple[tuple[int, int, str], ...]
    _minima: tuple[int, ...] | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(map(itemgetter(2), self.intervals))

    @property
    def start_minima(self) -> tuple[int, ...]:
        """The ``suffix_minima`` of the starts of the intervals. They never
        decrease, so a scan can bisect them for the end of a start-time
        window even at epsilon > 0, where starts in interval order can fall.
        Computed on first read and kept in a slot, which equality, hashing
        and repr ignore; the sequence is slotted, so it has no instance
        dict to slow the garbage collector."""
        minima = self._minima
        if minima is None:
            minima = suffix_minima([start for start, _, _ in self.intervals])
            object.__setattr__(self, "_minima", minima)
        return minima


@dataclass(frozen=True)
class Database:
    """Sequences with distinct sids, and indexes over all of them."""

    sequences: tuple[TimeIntervalSequence, ...]

    def __post_init__(self):
        # The sid check builds the sid index, which the database keeps.
        by_sid = {}
        for seq in self.sequences:
            if seq.sid in by_sid:
                raise DatabaseError(f"duplicate sequence id {seq.sid}")
            by_sid[seq.sid] = seq
        vars(self)["sequence_by_sid"] = by_sid  # fills the cached property

    def __len__(self) -> int:
        return len(self.sequences)

    @functools.cached_property
    def event_positions(self) -> dict[str, list[int]]:
        """For each event, the ascending positions in ``sequences`` of the
        sequences that hold it. Built on first use and kept with this
        database; derived state, so equality and hashing ignore it."""
        index: dict[str, list[int]] = {}
        for pos, seq in enumerate(self.sequences):
            for _, _, event in seq.intervals:
                positions = index.get(event)
                if positions is None:
                    index[event] = [pos]
                elif positions[-1] != pos:
                    positions.append(pos)
        return index

    @functools.cached_property
    def sequence_by_sid(self) -> dict[int, TimeIntervalSequence]:
        """Each sequence by its sid. Filled when the database is made, by
        its sid check or by the parse's; a database made by ``restrict``
        builds it on first use and keeps it, like the event index."""
        return {seq.sid: seq for seq in self.sequences}

    @functools.cached_property
    def event_masks(self) -> dict[str, int]:
        """For each event held by at least 1/64 of the sequences, its
        ``event_positions`` as a bitmask: bit ``p`` is set when the sequence
        at position ``p`` holds the event. A mask takes len(self)/8 bytes,
        no more than the 8 bytes per entry of the position list it
        summarises, so the masks stay within the index's own size on any
        input. Built on first use and kept, like the index."""
        n = len(self)
        return {event: _bitmask(positions, n)
                for event, positions in self.event_positions.items()
                if len(positions) * 64 >= n}

    @functools.cached_property
    def event_support(self) -> dict[str, int]:
        """For each event, the number of sequences that hold it. A database
        made by ``restrict`` may arrive with this already counted."""
        return {event: len(positions) for event, positions in self.event_positions.items()}

    def restrict(self, positions) -> Database:
        """The database of the sequences at ``positions``, ascending. When
        every event of this database has a mask, the result's
        ``event_support`` is counted by ANDing each mask with the kept
        positions' mask, so it needs no index of its own; otherwise it
        builds one over the kept sequences when first read."""
        if len(positions) == len(self):
            return self
        # Built without __post_init__'s sid check, which these sequences
        # passed in this database: on a 2-vCPU host it cost about 2 ms per
        # 10,000 kept sequences, against a query of about 70 ms.
        restricted = object.__new__(Database)
        object.__setattr__(restricted, "sequences",
                           tuple(self.sequences[p] for p in positions))
        masks = self.event_masks
        if len(masks) == len(self.event_positions):
            kept_mask = _bitmask(positions, len(self))
            support = {}
            for event, mask in masks.items():
                count = (mask & kept_mask).bit_count()
                if count:
                    support[event] = count
            vars(restricted)["event_support"] = support  # fills the cached property
        return restricted

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(self.event_positions))


def suffix_minima(values) -> tuple[int, ...]:
    """Entry ``i`` is the least of ``values[i:]``. A tuple of ints, which
    the garbage collector stops tracking, unlike a list."""
    return tuple(accumulate(reversed(values), min))[::-1]


def _bitmask(positions, size: int) -> int:
    """The int with bit ``p`` set for each ``p`` in ``positions``, all below
    ``size`` (> 0). It is read from its binary digits, which takes about
    half the time of setting bits one byte at a time."""
    digits = bytearray(b"0") * size
    for p in positions:
        digits[p] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def sort_intervals(intervals, epsilon: int = 0) -> list:
    """Order intervals, plain tuples or named, by start, end, then event name.

    At epsilon 0 this is a strict total order, the intervals' own tuple
    order. For epsilon > 0 quasi-equality is not transitive, so the result
    of the comparator sort depends on the order it starts from; starting it
    from the exact order makes the result a function of the interval set.
    A negative epsilon raises ``ValueError``.
    """
    return _epsilon_order(sorted(intervals), epsilon)


def _epsilon_order(exact: list, epsilon: int) -> list:
    """``sort_intervals`` of ``exact``, a list already in exact order."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0:
        return exact

    def cmp(a, b):
        if interval_precedes(a, b, epsilon):
            return -1
        if interval_precedes(b, a, epsilon):
            return 1
        return 0

    return sorted(exact, key=functools.cmp_to_key(cmp))


def make_sequence(
    sid: int, intervals, epsilon: int = 0, line_no: int | None = None
) -> TimeIntervalSequence:
    """Sort and validate raw ``(start, end, event)`` intervals, any iterable
    of them, into a sequence of plain tuples. An error names ``line_no`` if
    given and the first invalid interval in exact (start, end, event) order."""
    exact = sorted(map(tuple, intervals))
    # Taken first, so a negative epsilon is refused before any interval.
    ordered = _epsilon_order(exact, epsilon) if epsilon else exact
    previous = None  # copies are adjacent here, not always in the epsilon-order
    for interval in exact:
        start, end, event = interval
        if end < start:
            problem = "end < start in"
        elif start < 0:
            problem = "negative time in"
        elif interval == previous:
            problem = "duplicate interval"
        else:
            previous = interval
            continue
        where = f" (line {line_no})" if line_no is not None else ""
        raise DatabaseError(
            f"sequence {sid}{where}: {problem} ({event},{start},{end})")
    return TimeIntervalSequence(sid, tuple(ordered))


# The parse splits a text in blocks of about this many characters, each
# ending just after a "\n", so that it never holds a list of every line.
_BLOCK = 1 << 16


def _lines(source: str | Iterable[str]) -> Iterator[str]:
    """The lines of ``source`` without their ends, one at a time: those of
    ``source.splitlines()`` for a ``str``, else those of each item of an
    iterable of lines, such as an open text file, in turn. An item with no
    line break, the empty string too, is one line."""
    if not isinstance(source, str):
        for item in source:
            yield from item.splitlines() or (item,)
        return
    start, size = 0, len(source)
    while start < size:
        # "\n" ends every kind of line break that can span two characters
        # ("\r\n"), so a block never splits one.
        end = source.find("\n", start + _BLOCK - 1) + 1 or size
        yield from source[start:end].splitlines()
        start = end


def parse_database(text: str | Iterable[str], epsilon: int = 0) -> Database:
    """Parse the line-oriented database format, reporting line numbers on
    error. ``text`` is the whole text or any iterable of its lines, such
    as an open text file; either is read a line at a time."""
    # The sid index the database keeps, filled as the sids are checked.
    by_sid: dict[int, TimeIntervalSequence] = {}
    # One string per distinct event name, so that every per-interval probe
    # of a dict or set keyed by events reads the same few objects. The
    # table is local to this call: unlike sys.intern, it leaves nothing
    # behind once the database is freed.
    names: dict[str, str] = {}
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sid_part, sep, body = line.partition("|")
        if not sep:
            raise DatabaseError(f"line {line_no}: missing '|' separator")
        try:
            sid = int(sid_part)
        except ValueError:
            raise DatabaseError(f"line {line_no}: bad sequence id {sid_part!r}") from None
        if sid <= 0:
            raise DatabaseError(f"line {line_no}: sequence id must be positive")
        if sid in by_sid:
            raise DatabaseError(f"line {line_no}: duplicate sequence id {sid}")
        intervals = []
        for tok in body.split():
            parts = tok.split(",")
            if len(parts) != 3 or not parts[0]:
                raise DatabaseError(f"line {line_no}: malformed token {tok!r}")
            event, start_s, end_s = parts
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise DatabaseError(
                    f"line {line_no}: non-integer timestamp in {tok!r}"
                ) from None
            intervals.append((start, end, names.setdefault(event, event)))
        by_sid[sid] = make_sequence(sid, intervals, epsilon, line_no)
    # The sids are checked, so the database is made without its own check,
    # as restrict makes one, and keeps the parse's index.
    db = object.__new__(Database)
    object.__setattr__(db, "sequences", tuple(by_sid.values()))
    vars(db)["sequence_by_sid"] = by_sid  # fills the cached property
    return db


def _sequence_line(seq: TimeIntervalSequence) -> str:
    """One sequence in the file format, with its newline."""
    body = " ".join(f"{event},{start},{end}" for start, end, event in seq.intervals)
    return f"{seq.sid}|{body}\n"


def serialize_database(db: Database) -> str:
    return "".join(map(_sequence_line, db.sequences))


@dataclass(frozen=True)
class GeneratorParams:
    num_sequences: int
    intervals_per_sequence: int
    alphabet_size: int
    max_time: int = 100
    max_duration: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("num_sequences", "intervals_per_sequence", "alphabet_size",
                     "max_time", "max_duration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        distinct = self.max_time * self.max_duration * self.alphabet_size
        if self.intervals_per_sequence > distinct:
            raise ValueError(
                f"intervals_per_sequence must be at most max_time * max_duration * "
                f"alphabet_size = {distinct}, the number of distinct intervals")


def generate_synthetic(p: GeneratorParams) -> Database:
    """Deterministic random database: events uniform over the alphabet, start
    uniform in [0, max_time), duration uniform in [1, max_duration]. Exact
    duplicates within a sequence are re-drawn.
    """
    return Database(tuple(_synthetic_sequences(p)))


def _synthetic_sequences(p: GeneratorParams):
    """The sequences of ``generate_synthetic(p)``, made one at a time."""
    rng = random.Random(p.seed)
    alphabet = [str(i) for i in range(p.alphabet_size)]
    for sid in range(1, p.num_sequences + 1):
        chosen: set[tuple[int, int, str]] = set()
        while len(chosen) < p.intervals_per_sequence:
            start = rng.randrange(p.max_time)
            end = start + rng.randint(1, p.max_duration)
            chosen.add((start, end, rng.choice(alphabet)))
        yield make_sequence(sid, chosen)
