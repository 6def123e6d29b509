import itertools
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tirpmine import (
    VARIANTS,
    Constraints,
    Database,
    GeneratorParams,
    MiningConfig,
    StrategyFlags,
    SymbolicInterval,
    build_singleton_vdbs,
    config_for_variant,
    contains_subsequence,
    generate_synthetic,
    mine,
    parse_database,
    post_filter,
    usfp_filter,
)
from tirpmine.database import make_sequence
from tirpmine.miner import _frequent_events, _mine_emissions

from conftest import (
    EXAMPLE_CONSTRAINTS,
    EXAMPLE_MINSUP,
    EXAMPLE_PATTERNS,
    EXAMPLE_QES,
    EXAMPLE_TEXT,
    random_trial,
)


class TestContainsSubsequence:
    def test_s2_lacks_query(self):
        assert not contains_subsequence(("B", "C", "C", "A", "D"), ("A", "C"))

    def test_s1_contains_query(self):
        assert contains_subsequence(("B", "A", "D", "C", "B", "A"), ("A", "C"))

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            contains_subsequence(("A",), ())

    @given(
        st.lists(st.sampled_from("ABC"), max_size=10),
        st.lists(st.sampled_from("ABC"), min_size=1, max_size=4),
    )
    def test_matches_exhaustive_definition(self, events, qes):
        brute = any(
            list(qes) == [events[i] for i in positions]
            for positions in itertools.combinations(range(len(events)), len(qes))
        )
        assert contains_subsequence(tuple(events), tuple(qes)) == brute


class TestUsfpFilter:
    def test_removes_exactly_s2(self, example_db):
        filtered = usfp_filter(example_db, EXAMPLE_QES)
        assert [s.sid for s in filtered.sequences] == [1, 3, 4, 5]

    def test_absent_event_empties_db(self, example_db):
        assert len(usfp_filter(example_db, ("Z",))) == 0

    def test_universal_event_keeps_all(self, example_db):
        assert usfp_filter(example_db, ("A",)) == example_db

    def test_event_index_leaves_equality_and_hash(self, example_db):
        fresh = parse_database(EXAMPLE_TEXT)
        kept = usfp_filter(example_db, ("A",))
        assert "event_positions" in vars(example_db)
        assert "event_positions" not in vars(fresh)
        assert kept == example_db == fresh
        assert hash(kept) == hash(example_db) == hash(fresh)

    def test_empty_database(self):
        assert usfp_filter(Database(()), ("A",)) == Database(())

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_scan_on_random_dbs(self, seed):
        """The indexed filter keeps exactly the sequences, in the same order,
        that a scan of every sequence keeps."""
        db, _constraints, _min_sup, qes = random_trial(seed, epsilon=seed % 3)
        alphabet = db.alphabet
        queries = [qes, qes[:1], (qes[0], qes[0]), alphabet[::-1], alphabet[:3],
                   ("Z",), (alphabet[0], "Z")]
        queries += [(e,) for e in alphabet]
        for q in queries:
            expected = [s for s in db.sequences if contains_subsequence(s.events, q)]
            assert list(usfp_filter(db, q).sequences) == expected


    @pytest.mark.parametrize("seed", range(30))
    def test_carried_support_matches_a_fresh_index(self, seed):
        """The filtered database's per-event support, counted from the
        full database's masks, equals a count over the kept sequences
        alone, and so does the singleton screen reading it, which builds no
        index of its own. A database with an unmasked event leaves the
        count to the kept sequences' own index."""
        db, constraints, _min_sup, qes = random_trial(seed, epsilon=seed % 3)
        # Padded to 65 times its size, the database holds each random event
        # in fewer than 1/64 of its sequences, so those events have no mask.
        padded = Database(db.sequences + tuple(
            make_sequence(sid, [SymbolicInterval(0, 1, "P")])
            for sid in range(100, 100 + 64 * len(db))))
        assert set(padded.event_masks) == {"P"}
        assert set(db.event_masks) == set(db.alphabet)
        alphabet = db.alphabet
        queries = [qes, qes[:1], alphabet[::-1], alphabet[:3], ("Z",), ("P",)]
        queries += [(e,) for e in alphabet]
        for full in (db, padded):
            for q in queries:
                kept = usfp_filter(full, q)
                carried = "event_support" in vars(kept)
                if kept is not full:
                    assert carried == (full is db)
                fresh = Database(kept.sequences)
                assert kept.event_support == {
                    e: len(positions) for e, positions in fresh.event_positions.items()}
                for threshold in range(4):
                    assert (build_singleton_vdbs(kept, constraints, threshold)
                            == build_singleton_vdbs(fresh, constraints, threshold))
                assert kept is full or not carried or "event_positions" not in vars(kept)


class TestMine:
    def test_running_example(self, example_db, example_cfg):
        results, stats = mine(example_db, EXAMPLE_QES, example_cfg)
        assert {r.events for r in results} == EXAMPLE_PATTERNS
        assert stats.patterns == 8
        assert stats.sequences_filtered == 1
        for r in results:
            assert r.vsup == len(r.supporting_sids)
            assert r.vsup >= EXAMPLE_MINSUP * len(example_db)
            assert contains_subsequence(r.events, EXAMPLE_QES)

    def test_results_sorted_by_events(self, example_db, example_cfg):
        results, _ = mine(example_db, EXAMPLE_QES, example_cfg)
        assert [r.events for r in results] == sorted(r.events for r in results)

    def test_empty_database(self, example_cfg):
        results, stats = mine(Database(()), EXAMPLE_QES, example_cfg)
        assert results == []
        assert stats.join_operations == 0

    def test_modes_agree(self, example_db, example_cfg):
        targeted, _ = mine(example_db, EXAMPLE_QES, example_cfg)
        full, _ = mine(example_db, None, replace(example_cfg, mode="full"))
        full_post, _ = mine(example_db, EXAMPLE_QES, replace(example_cfg, mode="full-post"))
        assert full_post == targeted
        assert post_filter(full, EXAMPLE_QES) == targeted
        assert len(full) > len(targeted)

    @pytest.mark.parametrize("min_sup, size, holders",
                             [(0.07, 100, 7), (0.14, 50, 7), (0.55, 100, 55)])
    def test_support_at_the_threshold_is_frequent(self, min_sup, size, holders):
        """A pattern held by exactly min_sup * |DB| sequences is frequent,
        also where that product overshoots in floats (0.07 * 100 is
        7.000000000000001), and one held by a sequence fewer is not."""
        for held in (holders, holders - 1):
            db = parse_database("".join(f"{sid}|{'A' if sid <= held else 'B'},0,1\n"
                                        for sid in range(1, size + 1)))
            results, _ = mine(db, ("A",), MiningConfig(min_sup=min_sup))
            expected = [(("A",), holders)] if held == holders else []
            assert [(r.events, r.vsup) for r in results] == expected

    def test_missing_query_rejected(self, example_db, example_cfg):
        with pytest.raises(ValueError, match="query"):
            mine(example_db, None, example_cfg)

    @pytest.mark.parametrize("mode", ["targeted", "full-post"])
    def test_string_query_rejected(self, example_db, example_cfg, mode):
        # Read as a sequence, "AC" is the query ("A", "C"), which has results.
        cfg = replace(example_cfg, mode=mode)
        assert mine(example_db, ("A", "C"), cfg)[0]
        with pytest.raises(ValueError, match="tuple of event names"):
            mine(example_db, "AC", cfg)

    def test_bad_min_sup_rejected(self):
        with pytest.raises(ValueError, match="min_sup"):
            MiningConfig(min_sup=1.1)
        with pytest.raises(ValueError, match="min_sup"):
            MiningConfig(min_sup=0.0)

    def test_max_pattern_length_caps_output(self, example_db, example_cfg):
        results, _ = mine(example_db, EXAMPLE_QES,
                          replace(example_cfg, max_pattern_length=3))
        assert {r.events for r in results} == {
            p for p in EXAMPLE_PATTERNS if len(p) <= 3
        }

    def test_uqpp_prunes_branches(self, example_db, example_cfg):
        _, stats = mine(example_db, EXAMPLE_QES, example_cfg)
        assert stats.pruned_uqpp > 0
        _, stats_no = mine(
            example_db, EXAMPLE_QES,
            replace(example_cfg, strategies=StrategyFlags(uqpp=False)),
        )
        assert stats_no.pruned_uqpp == 0
        assert stats_no.join_operations >= stats.join_operations


class TestStrategyIndependence:
    @pytest.mark.parametrize("seed", range(15))
    def test_output_identical_across_flag_combinations(self, seed):
        db, constraints, min_sup, qes = random_trial(seed)
        base = MiningConfig(min_sup=min_sup, constraints=constraints,
                            max_pattern_length=5)
        outputs = []
        joins = {}
        for usfp, uqpp, uepp in itertools.product([True, False], repeat=3):
            cfg = replace(base, strategies=StrategyFlags(usfp, uqpp, uepp))
            results, stats = mine(db, qes, cfg)
            outputs.append(results)
            joins[(usfp, uqpp, uepp)] = stats.join_operations
        assert all(o == outputs[0] for o in outputs)
        # more pruning can only reduce join work
        all_on = joins[(True, True, True)]
        assert all(all_on <= j for j in joins.values())

    @pytest.mark.parametrize("seed", range(15))
    def test_post_filter_mode_matches_targeted(self, seed):
        db, constraints, min_sup, qes = random_trial(seed)
        base = MiningConfig(min_sup=min_sup, constraints=constraints,
                            max_pattern_length=5)
        targeted, _ = mine(db, qes, base)
        full_post, _ = mine(db, qes, replace(base, mode="full-post"))
        assert full_post == targeted


def test_dedup_is_noop(example_db, example_cfg):
    emissions, _ = _mine_emissions(example_db, EXAMPLE_QES, example_cfg)
    assert len({r.events for r in emissions}) == len(emissions)


def test_seed_order_does_not_change_output(example_db, example_cfg, monkeypatch):
    baseline, _ = mine(example_db, EXAMPLE_QES, example_cfg)
    original = _frequent_events

    def reversed_order(singletons):
        return list(reversed(original(singletons)))

    monkeypatch.setattr("tirpmine.miner._frequent_events", reversed_order)
    permuted, _ = mine(example_db, EXAMPLE_QES, example_cfg)
    assert permuted == baseline


def test_thread_count_does_not_change_output(example_db, example_cfg):
    one, stats1 = mine(example_db, EXAMPLE_QES, example_cfg)
    four, stats4 = mine(example_db, EXAMPLE_QES, replace(example_cfg, threads=4))
    assert four == one
    assert stats4.join_operations == stats1.join_operations


# Search work per variant on one sparse seeded DB where the pair-support
# matrix prunes in every variant and query pruning fires in tatirp2/12:
# (patterns, join_operations, pruned_uqpp, pruned_uepp), keyed by query and
# min_dura. At min_dura 8 event 1 is infrequent while pairs ending in it are
# not (the matrix does not screen on min_dura), so query pruning depends on
# the matrix holding pairs with infrequent query events. A change to the
# matrix or to the search that shifts a single prune decision shows here.
PINNED_DB = GeneratorParams(num_sequences=50, intervals_per_sequence=10, alphabet_size=12,
                            max_time=60, max_duration=8, seed=2)
PINNED_WORK = {
    (("0",), 0): {"fasttirp": (76, 460, 0, 452), "fasttirp-post": (9, 460, 0, 452),
                  "tatirp1": (9, 50, 0, 274), "tatirp2": (9, 240, 19, 192),
                  "tatirp12": (9, 42, 10, 150)},
    (("2", "0"), 0): {"fasttirp": (76, 460, 0, 452), "fasttirp-post": (1, 460, 0, 452),
                      "tatirp1": (1, 1, 0, 155), "tatirp2": (1, 287, 19, 229),
                      "tatirp12": (1, 1, 11, 23)},
    (("1",), 8): {"fasttirp": (7, 21, 0, 28), "fasttirp-post": (0, 21, 0, 28),
                  "tatirp1": (0, 0, 0, 4), "tatirp2": (0, 11, 3, 17),
                  "tatirp12": (0, 0, 1, 2)},
}


@pytest.mark.parametrize("qes, min_dura", list(PINNED_WORK),
                         ids=[f"{','.join(q)}-min_dura{d}" for q, d in PINNED_WORK])
def test_search_work_is_pinned(qes, min_dura):
    db = generate_synthetic(PINNED_DB)
    base = MiningConfig(min_sup=0.1, constraints=Constraints(
        epsilon=1, max_gap=8, min_dura=min_dura, max_dura=15))
    work = {}
    for variant in VARIANTS:
        _, stats = mine(db, qes, config_for_variant(variant, base))
        work[variant] = (stats.patterns, stats.join_operations,
                         stats.pruned_uqpp, stats.pruned_uepp)
    assert work == PINNED_WORK[qes, min_dura]
