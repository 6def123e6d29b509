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
from tirpmine import miner
from tirpmine.database import make_sequence
from tirpmine.miner import MODES, _mine_stream
from tirpmine.oracle import enumerate_all, target_filter
from tirpmine.vertical import Scan, reach_columns, reach_table

from conftest import (
    EXAMPLE_CONSTRAINTS,
    EXAMPLE_MINSUP,
    EXAMPLE_PATTERNS,
    EXAMPLE_QES,
    EXAMPLE_TEXT,
    earliest_bounds,
    random_trial,
    stoneless_columns,
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

    def test_string_query_rejected(self):
        # Read as its characters, "AC" would keep sequence 1 (A then C) and
        # drop sequence 2, which holds the event AC.
        db = parse_database("1|A,0,1 C,2,3\n2|AC,0,1\n")
        assert [s.sid for s in usfp_filter(db, ("AC",)).sequences] == [2]
        with pytest.raises(ValueError, match="tuple of event names"):
            usfp_filter(db, "AC")

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

    @pytest.mark.parametrize("qes", [None, "AC", (), ("A", 1)],
                             ids=["None", "string", "empty", "non-str event"])
    @pytest.mark.parametrize("entry", ["targeted", "full-post", "usfp_filter",
                                       "post_filter", "post_filter of nothing"])
    def test_every_entry_point_rejects_a_bad_query(self, example_db, example_cfg,
                                                   entry, qes):
        """A query that can never match is refused with ValueError, not mined
        to nothing, wherever it enters."""
        full, _ = mine(example_db, None, replace(example_cfg, mode="full"))
        calls = {
            "targeted": lambda: mine(example_db, qes, example_cfg),
            "full-post": lambda: mine(example_db, qes, replace(example_cfg,
                                                               mode="full-post")),
            "usfp_filter": lambda: usfp_filter(example_db, qes),
            "post_filter": lambda: post_filter(full, qes),
            "post_filter of nothing": lambda: post_filter([], qes),
        }
        with pytest.raises(ValueError, match="tuple of event names"):
            calls[entry]()

    def test_full_mode_needs_no_query(self, example_db, example_cfg):
        results, stats = mine(example_db, None, replace(example_cfg, mode="full"))
        assert results and stats.patterns == len(results)

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
        # Query row pruning is off: it would drop the branches first.
        on = StrategyFlags(uqpp=True, uepp=True, uqrp=False)
        _, stats = mine(example_db, EXAMPLE_QES, replace(example_cfg, strategies=on))
        assert stats.pruned_uqpp > 0
        _, stats_no = mine(
            example_db, EXAMPLE_QES,
            replace(example_cfg, strategies=replace(on, uqpp=False)),
        )
        assert stats_no.pruned_uqpp == 0
        assert stats_no.join_operations >= stats.join_operations

    def test_uqrp_prunes_rows(self, example_db, example_cfg):
        results, stats = mine(example_db, EXAMPLE_QES, example_cfg)
        assert stats.pruned_uqrp > 0
        # The default strategies with only query row pruning turned off.
        off = replace(example_cfg, strategies=replace(example_cfg.strategies, uqrp=False))
        results_off, stats_off = mine(example_db, EXAMPLE_QES, off)
        assert results_off == results
        assert stats_off.pruned_uqrp == 0
        assert stats.join_operations < stats_off.join_operations
        # The count is a function of the inputs.
        assert mine(example_db, EXAMPLE_QES, example_cfg)[1].pruned_uqrp == stats.pruned_uqrp

    def test_pair_matrix_built_only_for_pair_strategies(self, example_db, example_cfg,
                                                        monkeypatch, tmp_path):
        """With UQPP and UEPP off nothing reads the pair support matrix, so
        it is not built, and the output is as before. Both are off in the
        default config and in CLI ``mine``; the paper's presets turn them on."""
        import tirpmine.miner
        from tirpmine.cli import main

        calls = []
        real = tirpmine.miner.build_psm

        def recording_build_psm(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tirpmine.miner, "build_psm", recording_build_psm)
        # example_cfg leaves the strategies at their defaults.
        expected, _ = mine(example_db, EXAMPLE_QES, example_cfg)
        assert calls == []
        for uqpp, uepp in itertools.product([True, False], repeat=2):
            del calls[:]
            flags = StrategyFlags(uqpp=uqpp, uepp=uepp)
            results, _ = mine(example_db, EXAMPLE_QES, replace(example_cfg, strategies=flags))
            assert results == expected
            assert len(calls) == (1 if uqpp or uepp else 0)

        del calls[:]
        db_file, out = tmp_path / "example.db", tmp_path / "out.tsv"
        db_file.write_text(EXAMPLE_TEXT)
        assert main(["mine", "--input", str(db_file), "--qes", ",".join(EXAMPLE_QES),
                     "--min-sup", str(EXAMPLE_MINSUP), "--max-gap", "5",
                     "--max-dura", "20", "--output", str(out)]) == 0
        assert out.read_text().count("\n") == len(expected)
        assert calls == []

        results, _ = mine(example_db, EXAMPLE_QES, config_for_variant("tatirp12r", example_cfg))
        assert results == expected
        assert len(calls) == 1


class TestStrategyIndependence:
    @pytest.mark.parametrize("seed", range(15))
    def test_output_identical_across_flag_combinations(self, seed):
        for epsilon in (0, 1, 2):
            db, constraints, min_sup, qes = random_trial(seed, epsilon=epsilon)
            base = MiningConfig(min_sup=min_sup, constraints=constraints,
                                max_pattern_length=5)
            outputs = []
            joins = {}
            for flags in itertools.product([True, False], repeat=4):
                cfg = replace(base, strategies=StrategyFlags(*flags))
                results, stats = mine(db, qes, cfg)
                outputs.append(results)
                joins[flags] = stats.join_operations
            assert all(o == outputs[0] for o in outputs)
            # more pruning can only reduce join work
            all_on = joins[(True, True, True, True)]
            assert all(all_on <= j for j in joins.values())
            for usfp, uqpp, uepp in itertools.product([True, False], repeat=3):
                assert joins[usfp, uqpp, uepp, True] <= joins[usfp, uqpp, uepp, False]

    def test_post_filter_rejects_string_query(self, example_db, example_cfg):
        full, _ = mine(example_db, None, replace(example_cfg, mode="full"))
        assert post_filter(full, ("A", "C"))
        with pytest.raises(ValueError, match="tuple of event names"):
            post_filter(full, "AC")

    @pytest.mark.parametrize("seed", range(15))
    def test_post_filter_mode_matches_targeted(self, seed):
        db, constraints, min_sup, qes = random_trial(seed)
        base = MiningConfig(min_sup=min_sup, constraints=constraints,
                            max_pattern_length=5)
        targeted, _ = mine(db, qes, base)
        full_post, _ = mine(db, qes, replace(base, mode="full-post"))
        assert full_post == targeted


def _configs(base):
    """``base`` in each mode, then under each benchmark preset."""
    return [*(replace(base, mode=m) for m in MODES),
            *(config_for_variant(v, base) for v in VARIANTS)]


def _trials():
    """The running example, then small random databases at epsilon 0 to 2."""
    yield parse_database(EXAMPLE_TEXT), EXAMPLE_QES, MiningConfig(
        min_sup=EXAMPLE_MINSUP, constraints=EXAMPLE_CONSTRAINTS)
    for seed in range(30):
        for epsilon in (0, 1, 2):
            db, constraints, min_sup, qes = random_trial(seed, epsilon=epsilon)
            yield db, qes, MiningConfig(min_sup=min_sup, constraints=constraints)


def test_dedup_is_noop(example_db, example_cfg):
    emissions = list(_mine_stream(example_db, EXAMPLE_QES, example_cfg)[0])
    assert len({r.events for r in emissions}) == len(emissions)


def test_search_yields_in_output_order():
    """The stream needs no sort: seeds and each level's children are
    visited in event-name order, so the pre-order walk is already sorted."""
    for db, qes, base in _trials():
        for cfg in _configs(base):
            events = [r.events for r in _mine_stream(db, qes, cfg)[0]]
            assert events == sorted(events), (qes, cfg)


def test_a_consumed_stream_leaves_the_stats_of_mine(example_db):
    """``_mine_stream``'s stats are complete once its stream is exhausted:
    they equal ``mine()``'s but for the time, patterns counted after the
    full-post filter included, in every mode and preset."""
    base = MiningConfig(min_sup=EXAMPLE_MINSUP, constraints=EXAMPLE_CONSTRAINTS)
    for cfg in _configs(base):
        results, expected = mine(example_db, EXAMPLE_QES, cfg)
        stream, stats = _mine_stream(example_db, EXAMPLE_QES, cfg)
        assert list(stream) == results
        assert stats.patterns == len(results) and stats.elapsed > 0
        assert replace(stats, elapsed=0) == replace(expected, elapsed=0)


def test_seed_order_changes_no_result_or_counter(monkeypatch):
    """Output and search work do not depend on the order the seeds are
    visited in: the search run over the reversed seed list finds the same
    results and counts the same joins, prunes and patterns."""
    search = miner._search

    def reversed_seeds(qes, seeds, *rest):
        return search(qes, seeds[::-1], *rest)

    for db, qes, base in itertools.islice(_trials(), 0, None, 6):
        for cfg in _configs(base):
            expected, expected_stats = mine(db, qes, cfg)
            with monkeypatch.context() as m:
                m.setattr(miner, "_search", reversed_seeds)
                results, stats = mine(db, qes, cfg)
            assert set(results) == set(expected)
            assert replace(stats, elapsed=0) == replace(expected_stats, elapsed=0)


def test_thread_count_does_not_change_output(example_db, example_cfg):
    one, stats1 = mine(example_db, EXAMPLE_QES, example_cfg)
    four, stats4 = mine(example_db, EXAMPLE_QES, replace(example_cfg, threads=4))
    assert four == one
    assert stats4.join_operations == stats1.join_operations


# Search work per variant, and of the default config that ``mine`` runs, on
# one sparse seeded DB where the pair-support matrix prunes in every variant
# and query pair pruning fires in tatirp2/12/12r: (patterns, join_operations,
# pruned_uqpp, pruned_uepp, pruned_uqrp), keyed by query and min_dura. At
# min_dura 8 event 1 is infrequent while pairs ending in it are not (the
# matrix does not screen on min_dura), so query pruning depends on the
# matrix holding pairs with infrequent query events. A change to the matrix
# or to the search that shifts a single prune decision shows here; so does
# a row at its sequence's last position that counts a cut window. At
# min_dura 8 the seed screen of mine and tatirp12r grows no seed: a chain
# to event 1 steps only on intervals that last at least min_dura, as a hit
# must, and no event keeps enough live seeds, so neither joins at all.
PINNED_DB = GeneratorParams(num_sequences=50, intervals_per_sequence=10, alphabet_size=12,
                            max_time=60, max_duration=8, seed=2)
PINNED_WORK = {
    (("0",), 0): {"fasttirp": (76, 460, 0, 452, 0), "fasttirp-post": (9, 460, 0, 452, 0),
                  "tatirp1": (9, 50, 0, 274, 0), "tatirp2": (9, 240, 19, 192, 0),
                  "tatirp12": (9, 42, 10, 150, 0), "tatirp12r": (9, 41, 3, 139, 45),
                  "mine": (9, 216, 0, 0, 56)},
    (("2", "0"), 0): {"fasttirp": (76, 460, 0, 452, 0), "fasttirp-post": (1, 460, 0, 452, 0),
                      "tatirp1": (1, 1, 0, 155, 0), "tatirp2": (1, 287, 19, 229, 0),
                      "tatirp12": (1, 1, 11, 23, 0), "tatirp12r": (1, 1, 1, 23, 18),
                      "mine": (1, 36, 0, 0, 20)},
    (("1",), 8): {"fasttirp": (7, 21, 0, 28, 0), "fasttirp-post": (0, 21, 0, 28, 0),
                  "tatirp1": (0, 0, 0, 4, 0), "tatirp2": (0, 11, 3, 17, 0),
                  "tatirp12": (0, 0, 1, 2, 0), "tatirp12r": (0, 0, 0, 0, 10),
                  "mine": (0, 0, 0, 0, 10)},
}


@pytest.mark.parametrize("qes, min_dura", list(PINNED_WORK),
                         ids=[f"{','.join(q)}-min_dura{d}" for q, d in PINNED_WORK])
def test_search_work_is_pinned(qes, min_dura):
    db = generate_synthetic(PINNED_DB)
    base = MiningConfig(min_sup=0.1, constraints=Constraints(
        epsilon=1, max_gap=8, min_dura=min_dura, max_dura=15))
    configs = {variant: config_for_variant(variant, base) for variant in VARIANTS}
    configs["mine"] = base
    work = {}
    for name, cfg in configs.items():
        _, stats = mine(db, qes, cfg)
        work[name] = (stats.patterns, stats.join_operations,
                      stats.pruned_uqpp, stats.pruned_uepp, stats.pruned_uqrp)
    assert work == PINNED_WORK[qes, min_dura]


def _oracle_misses(seeds) -> int:
    """Trials, at epsilon 0 to 2 and queries of one to three events, whose
    default targeted output differs from the brute-force oracle's."""
    misses = 0
    for seed in seeds:
        for epsilon in (0, 1, 2):
            db, constraints, min_sup, qes = random_trial(seed, epsilon=epsilon)
            for q in (qes, qes + db.alphabet[:1]):
                cfg = MiningConfig(min_sup=min_sup, constraints=constraints,
                                   max_pattern_length=5)
                results, _ = mine(db, q, cfg)
                expected = target_filter(
                    enumerate_all(db, constraints, 5, min_sup * len(db)), q)
                misses += {r.events: (r.vsup, r.supporting_sids) for r in results} != expected
    return misses


def test_query_row_pruning_matches_the_oracle():
    assert _oracle_misses(range(40)) == 0


def test_query_row_pruning_from_the_earliest_embedding_misses_patterns(monkeypatch):
    """A reach table bounded by the earliest embedding starts drops rows
    that can still reach the query, and with them patterns or supporting
    sequences, which the oracle check above catches."""
    monkeypatch.setattr("tirpmine.vertical.reach_bounds", earliest_bounds)
    assert _oracle_misses(range(40)) > 0


def test_query_row_pruning_without_stepping_stones_misses_patterns(monkeypatch):
    """A reach table whose chains step only on query events drops rows that
    reach the query through other intervals, in the seed screen and in the
    joins, and with them patterns or supporting sequences, which the
    oracle check above catches."""
    monkeypatch.setattr("tirpmine.vertical.reach_columns", stoneless_columns)
    assert _oracle_misses(range(40)) > 0


@pytest.mark.parametrize("text, c", [
    # X bridges A to Z within max_gap 3, but only sequence 1 holds an X.
    ("1|A,0,2 X,4,6 Z,8,9\n2|A,0,2 Z,4,5\n3|A,0,2 Z,4,5\n", Constraints(max_gap=3)),
    # X is frequent, but the one that bridges is shorter than min_dura.
    ("1|A,0,2 X,4,4 Z,7,9\n2|A,0,2 X,3,3 Z,4,5\n3|A,0,2 X,3,3 Z,4,5\n",
     Constraints(max_gap=3, min_dura=1)),
], ids=["infrequent", "too-short"])
def test_query_row_pruning_steps_only_on_intervals_the_search_can_append(text, c):
    """Sequence 1's A reaches Z only through an X the search never appends:
    an infrequent event's interval, or one shorter than min_dura. The chain
    may not step on it, so the seed screen drops that A row, counted in
    ``pruned_uqrp``; a table in which every interval is a stone keeps it.
    The output is the oracle's all the same."""
    db = parse_database(text)
    screened = build_singleton_vdbs(db, c, 2, Scan(db, c, 2, ("A", "Z")))
    assert screened["A"].supporting_sids() == [2, 3]
    # With every interval a stone, sequence 1's A row (position 1, ending
    # at 2) is live.
    _, columns = reach_table(db.sequence_by_sid[1].intervals, ("A", "Z"), 3, {"A", "X", "Z"},
                             0, float("inf"))
    assert columns[1][1] <= 2
    cfg = MiningConfig(min_sup=2 / 3, constraints=c)
    results, stats = mine(db, ("A", "Z"), cfg)
    assert stats.pruned_uqrp == 1
    assert {r.events: (r.vsup, r.supporting_sids) for r in results} \
        == target_filter(enumerate_all(db, c, 3, 2), ("A", "Z")) == {("A", "Z"): (2, (2, 3))}


def test_query_row_pruning_short_of_a_frequent_stone_misses_patterns(monkeypatch):
    """Stones that lack one event frequent in the mined database drop rows
    that reach the query through that event's intervals, and with them
    patterns or supporting sequences, which the oracle check catches."""
    def short_of_one(intervals, qes, starts, gap_reach, stones, *bounds):
        return reach_columns(intervals, qes, starts, gap_reach, set(sorted(stones)[1:]), *bounds)

    monkeypatch.setattr("tirpmine.vertical.reach_columns", short_of_one)
    assert _oracle_misses(range(40)) > 0
