"""Targeted pattern growth with sequence filtering and pair-support pruning.

The miner grows patterns depth-first by appending events after the current
pattern's last interval. Three independently toggleable strategies cut the
search space:

* sequence filtering: drop whole sequences that cannot contain the query;
* query pruning: abandon a branch when the last event cannot frequently
  precede the next unmatched query event;
* extension pruning: skip candidate events whose pair support with the
  last event is below threshold.
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
    uqpp: bool = True
    uepp: bool = True


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
    sequences_filtered: int = 0
    join_operations: int = 0
    pruned_uqpp: int = 0
    pruned_uepp: int = 0
    patterns: int = 0
    elapsed: float = 0.0


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
    qes = tuple(qes)
    if not qes:
        raise ValueError("query event sequence must be nonempty")
    index = db.event_positions
    kept = min((index.get(e, ()) for e in qes), key=len)
    if len(qes) > 1:
        sequences = db.sequences
        kept = [pos for pos in kept
                if contains_subsequence(map(itemgetter(2), sequences[pos].intervals), qes)]
    return db.restrict(kept)


def post_filter(results, qes) -> list[STirpResult]:
    """Restrict full-mining output to patterns containing the query."""
    qes = tuple(qes)
    return [r for r in results if contains_subsequence(r.events, qes)]


def _search(qes, working, sf, singletons, psm, threshold, cfg, stats) -> list[STirpResult]:
    """Grow every frequent seed depth-first and return the emitted results.

    The stack holds one generator of frequent children per level, and
    depth is not bounded by recursion. A level's children are all joined
    in one scan of the prefix's rows when the level is entered, and each is
    dropped by its generator once yielded. An empty ``qes`` disables query
    tracking (full mining): every node matches.
    """
    emissions: list[STirpResult] = []
    flags, c, max_len = cfg.strategies, cfg.constraints, cfg.max_pattern_length

    def children(prefix, last, match):
        # A join is one (prefix, candidate) pair that extension pruning
        # keeps, although all of a prefix's joins share one scan.
        joined = []
        for f in sf:
            if flags.uepp and psm.support(last, f) < threshold:
                stats.pruned_uepp += 1
                continue
            joined.append(f)
        if not joined:
            return
        stats.join_operations += len(joined)
        exts = extend_prefix(prefix, joined, working, c, threshold)
        for f in joined:
            ext = exts.pop(f, None)
            if ext is not None:
                yield ext, match

    stack = [iter([(singletons[e], 0) for e in sf])]
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
            emissions.append(STirpResult(prefix.events, prefix.vertical_support(),
                                         tuple(prefix.supporting_sids())))
        elif flags.uqpp and psm.support(last, qes[match]) < threshold:
            stats.pruned_uqpp += 1
            continue
        if max_len is None or len(prefix.events) < max_len:
            stack.append(children(prefix, last, match))
    return emissions


def _frequent_events(singletons) -> list[str]:
    """The events of the frequent singletons, most frequent first. The
    output set of the miner does not depend on this order; only traversal
    order does."""
    return sorted(singletons, key=lambda e: (-singletons[e].vertical_support(), e))


def _mine_emissions(db: Database, qes, cfg: MiningConfig):
    """Run the pipeline and return the emissions, in search order, and stats."""
    if isinstance(qes, str):
        # A string is a sequence of its characters: "e012" would query the
        # events e, 0, 1 and 2.
        raise ValueError(f"query event sequence must be a tuple of event names, "
                         f"not the string {qes!r}")
    stats = MiningStats()
    targeted = cfg.mode == MODE_TARGETED
    if targeted or cfg.mode == MODE_FULL_POST:
        qes = tuple(qes) if qes is not None else ()
        if not qes:
            raise ValueError("query event sequence required in targeted/full-post modes")
    # The least integer support that is at least min_sup * |DB|, with
    # min_sup read as the decimal it prints as: in floats 0.07 * 100 is
    # 7.000000000000001, which would drop a pattern held by exactly 7.
    threshold = math.ceil(Fraction(str(cfg.min_sup)) * len(db))

    working = db
    if targeted and cfg.strategies.usfp:
        working = usfp_filter(db, qes)
        stats.sequences_filtered = len(db) - len(working)
        if len(working) < threshold:
            return [], stats

    c = cfg.constraints
    singletons = build_singleton_vdbs(working, c, threshold)
    sf = _frequent_events(singletons)
    if not sf:
        return [], stats
    # The search reads the matrix only at (frequent, frequent) and
    # (frequent, query event); infrequent query events stay in scope so
    # that query pruning reads the same support as over all events.
    search_qes = qes if targeted else ()
    psm = build_psm(working, c, set(sf).union(search_qes))

    emissions = _search(search_qes, working, sf, singletons, psm, threshold, cfg, stats)
    return emissions, stats


def mine(db: Database, qes, cfg: MiningConfig):
    """Mine frequent patterns, returning sorted results and run statistics.

    In targeted mode only patterns containing qes are produced; full mode
    emits every frequent pattern; full-post mode mines fully and then
    filters by the query.
    """
    t0 = time.perf_counter()
    emissions, stats = _mine_emissions(db, qes, cfg)
    # Each event sequence is reached from one seed along one path, so the
    # emissions are already unique (test_dedup_is_noop pins this).
    results = sorted(emissions, key=lambda r: r.events)
    if cfg.mode == MODE_FULL_POST:
        results = post_filter(results, qes)
    stats.patterns = len(results)
    stats.elapsed = time.perf_counter() - t0
    return results, stats


# Benchmark variant presets differing in mode and strategy toggles.
_PRESETS = {
    "fasttirp": (MODE_FULL, StrategyFlags(usfp=False, uqpp=False, uepp=True)),
    "fasttirp-post": (MODE_FULL_POST, StrategyFlags(usfp=False, uqpp=False, uepp=True)),
    "tatirp1": (MODE_TARGETED, StrategyFlags(usfp=True, uqpp=False, uepp=True)),
    "tatirp2": (MODE_TARGETED, StrategyFlags(usfp=False, uqpp=True, uepp=True)),
    "tatirp12": (MODE_TARGETED, StrategyFlags(usfp=True, uqpp=True, uepp=True)),
}
VARIANTS = tuple(_PRESETS)


def config_for_variant(name: str, base: MiningConfig) -> MiningConfig:
    """``base`` with the mode and strategy toggles of a benchmark variant."""
    if name not in _PRESETS:
        raise ValueError(f"unknown variant {name!r}")
    mode, flags = _PRESETS[name]
    return replace(base, mode=mode, strategies=flags)
