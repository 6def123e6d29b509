import os
import subprocess
import sys
from pathlib import Path

import pytest

from tirpmine import StrategyFlags, cli
from tirpmine.cli import main

from conftest import EXAMPLE_TEXT

MINE_FLAGS = ["--qes", "A,C", "--min-sup", "0.4", "--max-gap", "5", "--max-dura", "20"]


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.db"
    path.write_text(EXAMPLE_TEXT)
    return path


def run_mine(example_file, tmp_path, *extra):
    out = tmp_path / "out.tsv"
    stats = tmp_path / "stats.txt"
    code = main(["mine", "--input", str(example_file), *MINE_FLAGS,
                 "--output", str(out), "--stats", str(stats), *extra])
    return code, out, stats


def test_mine_running_example(example_file, tmp_path):
    code, out, stats = run_mine(example_file, tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    events, vsup, sids = lines[0].split("\t")
    assert events == "A C"
    assert int(vsup) == len(sids.split(","))
    kv = dict(line.split("=") for line in stats.read_text().splitlines())
    assert kv["patterns"] == "8"
    assert kv["sequences_filtered"] == "1"
    assert float(kv["elapsed_ms"]) >= 0


def test_mine_output_sorted(example_file, tmp_path):
    _, out, _ = run_mine(example_file, tmp_path)
    firsts = [line.split("\t")[0].split(" ") for line in out.read_text().splitlines()]
    assert firsts == sorted(firsts)


def test_targeted_and_full_post_byte_identical(example_file, tmp_path):
    _, out1, _ = run_mine(example_file, tmp_path, "--mode", "targeted")
    text1 = out1.read_text()
    _, out2, _ = run_mine(example_file, tmp_path, "--mode", "full-post")
    assert out2.read_text() == text1


def test_strategy_toggles_do_not_change_output(example_file, tmp_path):
    _, out, _ = run_mine(example_file, tmp_path)
    baseline = out.read_text()
    for flag in ("--no-usfp", "--no-uqpp", "--no-uepp"):
        _, out2, _ = run_mine(example_file, tmp_path, flag)
        assert out2.read_text() == baseline


def test_min_sup_out_of_range_fails(example_file, tmp_path, capsys):
    code = main(["mine", "--input", str(example_file), "--qes", "A,C",
                 "--min-sup", "1.1"])
    assert code != 0
    assert "min_sup" in capsys.readouterr().err


def test_support_at_the_threshold_is_printed(tmp_path, capsys):
    # 7 of 100 sequences hold A, and 0.07 * 100 is 7.000000000000001 in floats.
    db = tmp_path / "seven.db"
    db.write_text("".join(f"{sid}|{'A' if sid <= 7 else 'B'},0,1\n" for sid in range(1, 101)))
    assert main(["mine", "--input", str(db), "--qes", "A", "--min-sup", "0.07"]) == 0
    assert capsys.readouterr().out == "A\t7\t1,2,3,4,5,6,7\n"


def test_query_event_with_whitespace_fails(example_file, capsys):
    # No event name in a database file can hold whitespace, so such a query
    # would silently match nothing.
    code = main(["mine", "--input", str(example_file), "--qes", "A, C", "--min-sup", "0.4"])
    assert code == 2
    assert "' C'" in capsys.readouterr().err


def test_zero_threads_fails(example_file, capsys):
    code = main(["mine", "--input", str(example_file), *MINE_FLAGS, "--threads", "0"])
    assert code == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-gap", "--max-dura"])
def test_upper_bound_below_minus_one_fails(example_file, capsys, flag):
    code = main(["mine", "--input", str(example_file), "--qes", "A,C",
                 "--min-sup", "0.4", flag, "-7"])
    assert code == 2
    assert flag in capsys.readouterr().err
    # -1 still means unbounded
    assert main(["mine", "--input", str(example_file), "--qes", "A,C",
                 "--min-sup", "0.4", flag, "-1"]) == 0


def test_deep_meeting_chain_does_not_recurse(tmp_path):
    chain = tmp_path / "chain.db"
    chain.write_text("1|" + " ".join(f"A,{2 * i},{2 * i + 2}" for i in range(300)) + "\n")
    out = tmp_path / "out.tsv"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code = main(["mine", "--input", str(chain), "--qes", "A", "--min-sup", "1",
                     "--max-gap", "0", "--max-dura", "-1", "--output", str(out)])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert len(out.read_text().splitlines()) == 300


def test_malformed_input_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.db"
    bad.write_text("1|A,5,2\n")
    code = main(["mine", "--input", str(bad), "--qes", "A", "--min-sup", "0.5"])
    assert code != 0
    assert "line 1" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    code = main(["mine", "--input", str(tmp_path / "nope.db"),
                 "--qes", "A", "--min-sup", "0.5"])
    assert code != 0


def test_bench_running_example(example_file, tmp_path):
    table = tmp_path / "table.tsv"
    code = main(["bench", "--input", str(example_file), *MINE_FLAGS,
                 "--output", str(table)])
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0].split("\t") == ["variant", "patterns", "join_operations", "elapsed_ms"]
    rows = {l.split("\t")[0]: l.split("\t") for l in lines[1:]}
    for variant in ("fasttirp-post", "tatirp1", "tatirp2", "tatirp12"):
        assert rows[variant][1] == "8"
    assert int(rows["fasttirp"][1]) > 8


def test_bench_names_disagreeing_variants(example_file, tmp_path, monkeypatch, capsys):
    def bench_table(name):
        table = tmp_path / name
        code = main(["bench", "--input", str(example_file), *MINE_FLAGS,
                     "--output", str(table)])
        # elapsed_ms is the last column and varies from run to run
        return code, [line.rsplit("\t", 1)[0] for line in table.read_text().splitlines()]

    _, expected = bench_table("agree.tsv")
    real_mine = cli.mine

    def mine_dropping_first_tatirp1_result(db, qes, cfg):
        results, stats = real_mine(db, qes, cfg)
        if cfg.strategies == StrategyFlags(uqpp=False) and cfg.mode == "targeted":
            results = results[1:]
        return results, stats

    monkeypatch.setattr(cli, "mine", mine_dropping_first_tatirp1_result)
    code, table = bench_table("disagree.tsv")
    assert code == 1
    assert table == expected
    err = capsys.readouterr().err
    assert "pattern 'A C': fasttirp-post has vsup=" in err
    assert "tatirp1 lacks it" in err


def test_bench_single_variant(example_file, tmp_path):
    table = tmp_path / "table.tsv"
    code = main(["bench", "--input", str(example_file), *MINE_FLAGS,
                 "--variants", "tatirp12", "--output", str(table)])
    assert code == 0
    assert len(table.read_text().splitlines()) == 2


def test_bench_unknown_variant(example_file, capsys):
    code = main(["bench", "--input", str(example_file), *MINE_FLAGS,
                 "--variants", "nope"])
    assert code != 0
    assert "--variants" in capsys.readouterr().err


@pytest.mark.parametrize("variants", [",", ""])
def test_bench_no_variant(example_file, capsys, variants):
    # An empty list would print only the table header and compare nothing.
    code = main(["bench", "--input", str(example_file), *MINE_FLAGS,
                 "--variants", variants])
    assert code == 2
    assert "--variants" in capsys.readouterr().err


class TestGen:
    def test_more_intervals_than_distinct_ones_fails(self, capsys):
        # 1 time x 1 duration x 1 event allows one distinct interval, not 5
        code = main(["gen", "--sequences", "2", "--intervals", "5", "--alphabet", "1",
                     "--max-time", "1", "--max-duration", "1"])
        assert code == 2
        assert "intervals" in capsys.readouterr().err

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.db", tmp_path / "b.db"
        args = ["gen", "--sequences", "50", "--intervals", "5", "--alphabet", "10",
                "--seed", "7"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_generated_file_is_mineable(self, tmp_path):
        db_path = tmp_path / "gen.db"
        assert main(["gen", "--sequences", "30", "--intervals", "6",
                     "--alphabet", "4", "--seed", "1",
                     "--output", str(db_path)]) == 0
        out = tmp_path / "out.tsv"
        assert main(["mine", "--input", str(db_path), "--qes", "0",
                     "--min-sup", "0.2", "--output", str(out)]) == 0

    def test_runs_as_a_module(self, tmp_path):
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        db_path = tmp_path / "gen.db"
        done = subprocess.run(
            [sys.executable, "-m", "tirpmine", "gen", "--sequences", "3", "--intervals", "4",
             "--alphabet", "2", "--output", str(db_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(db_path.read_text().splitlines()) == 3

    def test_zero_sequences_fails(self, tmp_path, capsys):
        code = main(["gen", "--sequences", "0", "--intervals", "5",
                     "--alphabet", "3", "--output", str(tmp_path / "x.db")])
        assert code != 0
        assert "num_sequences" in capsys.readouterr().err
