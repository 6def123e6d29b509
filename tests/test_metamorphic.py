"""Metamorphic checks of the miner: transforms of the input that must leave
its output unchanged. They need no reference implementation, so they hold
the miner to its definitions without sharing its code.

Each trial is a small random database at epsilon 0, 1 or 2 with gap and
duration bounds tight enough to reject some extensions. The miner's output
and search work must not change when:

* every time is shifted by a constant;
* every time, epsilon, gap bound and duration bound is multiplied by k >= 2;
* events are renamed by an order-preserving map (the output mapped back);
* sequence ids are renumbered in an order-preserving way (mapped back).
"""
import random
from dataclasses import replace

import pytest

from tirpmine import Constraints, Database, MiningConfig, StrategyFlags, SymbolicInterval, mine
from tirpmine.database import make_sequence

SEEDS = range(36)


def trial(seed):
    """Raw intervals per sequence id, constraints, min_sup and a query."""
    rng = random.Random(seed)
    epsilon = seed % 3
    alphabet = "ABCD"[: rng.randint(2, 4)]
    raw = {}
    for sid in range(1, rng.randint(3, 8) + 1):
        chosen, size = set(), rng.randint(1, 9)
        while len(chosen) < size:
            start = rng.randrange(25)
            chosen.add(SymbolicInterval(start, start + rng.randint(0, 8), rng.choice(alphabet)))
        raw[sid] = chosen
    min_gap = rng.choice([0, 1])
    min_dura = rng.choice([0, 1])
    constraints = Constraints(
        epsilon=epsilon, min_gap=min_gap, max_gap=rng.randint(max(min_gap, epsilon), 5),
        min_dura=min_dura, max_dura=rng.randint(6, 16))
    min_sup = rng.choice([0.2, 0.3, 0.4, 0.5])
    qes = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
    return raw, constraints, min_sup, qes


def build(raw, epsilon):
    return Database(tuple(make_sequence(sid, ivs, epsilon) for sid, ivs in sorted(raw.items())))


# The default strategies, and all four on, so that the pair matrix and both
# pair-pruning counters are checked under each transform too.
STRATEGIES = (StrategyFlags(), StrategyFlags(uqpp=True, uepp=True))


def run(raw, constraints, min_sup, qes):
    """Full and targeted output, each with its search counters, under each
    of ``STRATEGIES``."""
    db = build(raw, constraints.epsilon)
    outputs = []
    for strategies in STRATEGIES:
        cfg = MiningConfig(min_sup=min_sup, constraints=constraints, strategies=strategies)
        for mode, query in (("full", None), ("targeted", qes)):
            results, stats = mine(db, query, replace(cfg, mode=mode))
            outputs.append((results, (stats.join_operations, stats.pruned_uqpp,
                                      stats.pruned_uepp, stats.pruned_uqrp, stats.patterns)))
    return outputs


@pytest.mark.parametrize("seed", SEEDS)
def test_shifting_every_time_changes_nothing(seed):
    raw, constraints, min_sup, qes = trial(seed)
    shift = random.Random(-seed).randint(1, 1000)
    shifted = {sid: {SymbolicInterval(s + shift, e + shift, ev) for s, e, ev in ivs}
               for sid, ivs in raw.items()}
    assert run(shifted, constraints, min_sup, qes) == run(raw, constraints, min_sup, qes)


@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_times_and_bounds_changes_nothing(seed):
    raw, c, min_sup, qes = trial(seed)
    k = 2 + seed % 3
    scaled = {sid: {SymbolicInterval(k * s, k * e, ev) for s, e, ev in ivs}
              for sid, ivs in raw.items()}
    scaled_c = Constraints(epsilon=k * c.epsilon, min_gap=k * c.min_gap, max_gap=k * c.max_gap,
                           min_dura=k * c.min_dura, max_dura=k * c.max_dura)
    assert run(scaled, scaled_c, min_sup, qes) == run(raw, c, min_sup, qes)


@pytest.mark.parametrize("seed", SEEDS)
def test_order_preserving_event_renaming_changes_nothing(seed):
    raw, constraints, min_sup, qes = trial(seed)
    rng = random.Random(-seed)
    alphabet = sorted({ev for ivs in raw.values() for _, _, ev in ivs} | set(qes))
    # Names of mixed lengths, so that the map preserves string order
    # without preserving length or first letter.
    names = set()
    while len(names) < len(alphabet):
        names.add("".join(rng.choice("abz") for _ in range(rng.randint(1, 4))))
    to_new = dict(zip(alphabet, sorted(names)))
    to_old = {new: old for old, new in to_new.items()}
    renamed = {sid: {SymbolicInterval(s, e, to_new[ev]) for s, e, ev in ivs}
               for sid, ivs in raw.items()}
    outputs = run(renamed, constraints, min_sup, tuple(to_new[e] for e in qes))
    mapped_back = [([replace(r, events=tuple(to_old[e] for e in r.events)) for r in results],
                    work) for results, work in outputs]
    assert mapped_back == run(raw, constraints, min_sup, qes)


@pytest.mark.parametrize("seed", SEEDS)
def test_order_preserving_sid_renumbering_changes_nothing(seed):
    raw, constraints, min_sup, qes = trial(seed)
    sids = sorted(random.Random(-seed).sample(range(1, 10**12), len(raw)))
    to_new = dict(zip(sorted(raw), sids))
    to_old = {new: old for old, new in to_new.items()}
    renumbered = {to_new[sid]: ivs for sid, ivs in raw.items()}
    outputs = run(renumbered, constraints, min_sup, qes)
    mapped_back = [([replace(r, supporting_sids=tuple(to_old[s] for s in r.supporting_sids))
                     for r in results], work) for results, work in outputs]
    assert mapped_back == run(raw, constraints, min_sup, qes)


def test_trials_bind_their_bounds():
    """The bounds reject extensions in most trials: loosening them to
    unbounded changes the full output there, so the transforms above are
    checked on constrained searches and not only on open ones."""
    binding = 0
    for seed in SEEDS:
        raw, c, min_sup, qes = trial(seed)
        loose = replace(c, max_gap=None, max_dura=None)
        binding += run(raw, c, min_sup, qes)[0][0] != run(raw, loose, min_sup, qes)[0][0]
    assert binding >= len(SEEDS) // 2
