"""Targeted pattern growth with sequence filtering and query pruning.

The miner grows patterns depth-first by appending events after the current
pattern's last interval. Four independently toggleable strategies cut the
search space:

* sequence filtering (USFP): drop whole sequences that cannot contain the
  query;
* query pair pruning (UQPP): abandon a branch when the last event cannot
  frequently precede the next unmatched query event;
* extension pair pruning (UEPP): skip candidate events whose pair support
  with the last event is below threshold;
* query row pruning (UQRP): drop each row whose own sequence no longer
  holds the unmatched rest of the query after it, or, under a gap bound,
  from which no chain of gap-bounded steps reaches that rest, stepping
  only on query events and on intervals the search could append (of an
  event frequent in the mined sequences, within the duration bounds), and
  with it a branch left with too few sequences; the singleton pass reads
  each sequence only up to the query's latest start and builds only the
  live rows of the seeds, and a seed left with too few is not grown.

The default is USFP plus UQRP. UQPP and UEPP read a pair support matrix,
built only when one of them is on; since UQRP drops the same work row by
row, the matrix costs more to build than they save, and only the paper's
benchmark presets turn them on.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter

from .model import Constraints
from .database import Database
# extend_vdb is not called here, but the benchmark's tracer wraps it by
# name in this module, with usfp_filter, build_singleton_vdbs and
# build_psm; without the name every traced query raises AttributeError.
from .vertical import (  # noqa: F401
    Scan,
    build_psm,
    build_singleton_vdbs,
    extend_prefix,
    extend_vdb,
)

MODE_TARGETED = "targeted"
MODE_FULL = "full"
MODE_FULL_POST = "full-post"
MODES = (MODE_TARGETED, MODE_FULL, MODE_FULL_POST)


@dataclass(frozen=True)
class StrategyFlags:
    usfp: bool = True
    # Off by default: with UQRP on, building the pair matrix costs more than
    # the two pair strategies save (BENCH_8.json).
    uqpp: bool = False
    uepp: bool = False
    uqrp: bool = True  # last, so that positional construction of the first three holds


@dataclass(frozen=True)
class MiningConfig:
    """Mining parameters. ``threads`` is validated and otherwise has no
    effect: mining runs on one thread, and the value is accepted for
    compatibility."""

    min_sup: float
    constraints: Constraints = Constraints()
    max_pattern_length: int | None = None
    strategies: StrategyFlags = StrategyFlags()
    mode: str = MODE_TARGETED
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.min_sup <= 1:
            raise ValueError("min_sup must be in (0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_pattern_length is not None and self.max_pattern_length < 1:
            raise ValueError("max_pattern_length must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True)
class STirpResult:
    events: tuple[str, ...]
    vsup: int
    supporting_sids: tuple[int, ...]


@dataclass
class MiningStats:
    """Counters of one run. ``pruned_uqrp`` counts the work query row
    pruning saves: prefix rows whose window a join cuts short, and the hits
    and seed rows its reach table drops, those that reach the query only
    through intervals of infrequent events or outside the duration bounds
    among them. Rows past the query's latest start are never read or
    counted."""

    sequences_filtered: int = 0
    join_operations: int = 0
    pruned_uqpp: int = 0
    pruned_uepp: int = 0
    pruned_uqrp: int = 0
    patterns: int = 0
    elapsed: float = 0.0


def _query(qes) -> tuple[str, ...]:
    """``qes`` as a nonempty tuple of event names, the one check of a query.
    A string is refused: as a sequence of its characters, "e012" would
    query the events e, 0, 1 and 2."""
    if qes is not None and not isinstance(qes, str):
        events = tuple(qes)
        if events and all(isinstance(e, str) for e in events):
            return events
    raise ValueError(f"query event sequence must be a nonempty tuple of "
                     f"event names, not {qes!r}")


def contains_subsequence(events, qes) -> bool:
    """Greedy left-to-right check that qes embeds order-preservingly in events."""
    qes = tuple(qes)
    if not qes:
        raise ValueError("query event sequence must be nonempty")
    pos = 0
    for e in events:
        if e == qes[pos]:
            pos += 1
            if pos == len(qes):
                return True
    return False


def usfp_filter(db: Database, qes) -> Database:
    """Keep only sequences whose event list contains qes as a subsequence.

    Only the sequences holding the query's rarest event are checked, read
    from the database's event index in database order, so the result keeps
    the database's order; a one-event query keeps them all unchecked. The
    result is ``db.restrict`` of the kept positions, which counts its
    per-event support from ``db``'s masks when every event has one."""
    qes = _query(qes)
    index = db.event_positions
    kept = min((index.get(e, ()) for e in qes), key=len)
    if len(qes) > 1:
        sequences = db.sequences
        kept = [pos for pos in kept
                if contains_subsequence(map(itemgetter(2), sequences[pos].intervals), qes)]
    return db.restrict(kept)


def post_filter(results, qes) -> list[STirpResult]:
    """Restrict full-mining output to patterns containing the query."""
    qes = _query(qes)
    return [r for r in results if contains_subsequence(r.events, qes)]


def _search(qes, seeds, psm, scan, cfg, stats):
    """Grow the singleton databases ``seeds`` depth-first and yield each
    result as it is reached. Every seed's event is a join candidate, but a
    seed with fewer than ``threshold`` sequences, as the seed screen leaves
    one with too few live rows, is not grown. Children are visited in
    event-name order, so with ``seeds`` in that order too the walk yields
    in ``sorted(key=events)`` order: a prefix sorts before its extensions,
    and ``(P, a, ...)`` before ``(P, b)`` when ``a < b``. No event sequence
    is reached twice.

    The stack holds one generator of frequent children per level, and
    depth is not bounded by recursion. A level's children are all joined
    in one scan of the prefix's rows when the level is entered, and each is
    dropped by its generator once yielded. Every join reads ``scan``, the
    query's one ``Scan``. An empty ``qes`` disables query tracking (full
    mining): every node matches. ``psm`` is read only when UQPP or UEPP is
    on. Once done, ``stats`` lacks only patterns and elapsed.
    """
    flags, max_len, threshold = cfg.strategies, cfg.max_pattern_length, scan.threshold
    sf = [seed.events[0] for seed in seeds]

    def children(prefix, last, match):
        # A join is one (prefix, candidate) pair that extension pruning
        # keeps, although all of a prefix's joins share one scan.
        joined = sf
        if flags.uepp:
            joined = [f for f in sf if psm.support(last, f) >= threshold]
            stats.pruned_uepp += len(sf) - len(joined)
        if not joined:
            return
        stats.join_operations += len(joined)
        exts = extend_prefix(prefix, joined, scan, match)
        for f in sorted(exts):
            yield exts.pop(f), match

    stack = [iter([(seed, 0) for seed in seeds if len(seed.by_sid) >= threshold])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        prefix, match = node
        last = prefix.events[-1]
        if match < len(qes) and last == qes[match]:
            match += 1
        if match == len(qes):
            yield STirpResult(prefix.events, prefix.vertical_support(),
                              tuple(prefix.supporting_sids()))
        elif flags.uqpp and psm.support(last, qes[match]) < threshold:
            stats.pruned_uqpp += 1
            continue
        if max_len is None or len(prefix.events) < max_len:
            stack.append(children(prefix, last, match))
    stats.pruned_uqrp = scan.pruned


def _mine_stream(db: Database, qes, cfg: MiningConfig):
    """Check the inputs and set the search up, eagerly. Return the results in
    output order, as an iterator, and stats that are complete once it is
    exhausted: it counts the patterns it yields and times the whole run."""
    t0 = time.perf_counter()
    stats = MiningStats()
    targeted = cfg.mode == MODE_TARGETED
    if targeted or cfg.mode == MODE_FULL_POST:
        qes = _query(qes)
    # The least integer support that is at least min_sup * |DB|, with
    # min_sup read as the decimal it prints as: in floats 0.07 * 100 is
    # 7.000000000000001, which would drop a pattern held by exactly 7.
    threshold = math.ceil(Fraction(str(cfg.min_sup)) * len(db))

    working = db
    if targeted and cfg.strategies.usfp:
        working = usfp_filter(db, qes)
        stats.sequences_filtered = len(db) - len(working)

    c = cfg.constraints
    search_qes = qes if targeted else ()
    flags = cfg.strategies
    # The scan reads mine()'s own db, whose sid index outlives the query;
    # the singleton pass sets its stones.
    scan = Scan(db, c, threshold, search_qes if flags.uqrp else ())
    singletons = build_singleton_vdbs(working, c, threshold, scan)
    sf = sorted(singletons)
    # The search reads the matrix only at (frequent, frequent) and
    # (frequent, query event); infrequent query events stay in scope so
    # that query pruning reads the same support as over all events.
    psm = (build_psm(working, c, set(sf).union(search_qes))
           if sf and (flags.uqpp or flags.uepp) else None)
    results = _search(search_qes, [singletons[e] for e in sf], psm, scan, cfg, stats)
    if cfg.mode == MODE_FULL_POST:
        results = (r for r in results if contains_subsequence(r.events, qes))
    return _counted(results, stats, t0), stats


def _counted(results, stats, t0):
    """Yield ``results``, then set their count and the time since ``t0``."""
    for r in results:
        stats.patterns += 1
        yield r
    stats.elapsed = time.perf_counter() - t0


def mine(db: Database, qes, cfg: MiningConfig):
    """Mine frequent patterns, returning sorted results and run statistics.

    In targeted mode only patterns containing qes are produced; full mode
    emits every frequent pattern; full-post mode mines fully and then
    filters by the query.
    """
    stream, stats = _mine_stream(db, qes, cfg)
    return list(stream), stats


# Benchmark variant presets differing in mode and strategy toggles. The
# first five are the paper's algorithms, which have no query row pruning;
# tatirp12r adds it to tatirp12.
_PRESETS = {
    "fasttirp": (MODE_FULL, StrategyFlags(usfp=False, uqpp=False, uepp=True, uqrp=False)),
    "fasttirp-post": (MODE_FULL_POST,
                      StrategyFlags(usfp=False, uqpp=False, uepp=True, uqrp=False)),
    "tatirp1": (MODE_TARGETED, StrategyFlags(usfp=True, uqpp=False, uepp=True, uqrp=False)),
    "tatirp2": (MODE_TARGETED, StrategyFlags(usfp=False, uqpp=True, uepp=True, uqrp=False)),
    "tatirp12": (MODE_TARGETED, StrategyFlags(usfp=True, uqpp=True, uepp=True, uqrp=False)),
    "tatirp12r": (MODE_TARGETED, StrategyFlags(usfp=True, uqpp=True, uepp=True, uqrp=True)),
}
VARIANTS = tuple(_PRESETS)


def config_for_variant(name: str, base: MiningConfig) -> MiningConfig:
    """``base`` with the mode and strategy toggles of a benchmark variant."""
    if name not in _PRESETS:
        raise ValueError(f"unknown variant {name!r}")
    mode, flags = _PRESETS[name]
    return replace(base, mode=mode, strategies=flags)
