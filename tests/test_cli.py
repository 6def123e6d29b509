import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tirpmine import GeneratorParams, StrategyFlags, cli, generate_synthetic, serialize_database
from tirpmine.cli import main

from conftest import EXAMPLE_TEXT

MINE_FLAGS = ["--qes", "A,C", "--min-sup", "0.4", "--max-gap", "5", "--max-dura", "20"]


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.db"
    path.write_text(EXAMPLE_TEXT)
    return path


def module_env():
    """The environment in which ``python -m tirpmine`` imports this checkout."""
    src = Path(cli.__file__).parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


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
    """``--no-usfp`` changes no output, but it does turn the sequence filter
    off: the running example's S2 lacks the query and is dropped only with
    the filter on."""
    def run(*extra):
        _, out, stats = run_mine(example_file, tmp_path, *extra)
        kv = dict(line.split("=") for line in stats.read_text().splitlines())
        return out.read_text(), kv["sequences_filtered"]

    baseline, filtered = run()
    assert filtered == "1"
    assert run("--no-usfp") == (baseline, "0")


@pytest.mark.parametrize("argv", [
    ["mine", "--no-uqpp"],
    ["mine", "--no-uepp"],
    ["bench", "--stats", "stats.txt"],
])
def test_removed_settings_are_refused(example_file, capsys, argv):
    command, *extra = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(example_file), *MINE_FLAGS, *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_stats_report_query_row_pruning(example_file, tmp_path):
    """The default mine builds no pair matrix, so neither pair strategy
    prunes, while query row pruning does; the keys keep their order."""
    _, _, stats = run_mine(example_file, tmp_path)
    lines = stats.read_text().splitlines()
    assert [line.split("=")[0] for line in lines] == [
        "sequences_filtered", "join_operations", "pruned_uqpp", "pruned_uepp",
        "pruned_uqrp", "patterns", "elapsed_ms"]
    kv = dict(line.split("=") for line in lines)
    assert kv["pruned_uqpp"] == "0"
    assert kv["pruned_uepp"] == "0"
    assert int(kv["pruned_uqrp"]) > 0


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


@pytest.mark.parametrize("qes", ["A,,C", "A,", ","])
def test_query_with_an_empty_event_fails(example_file, capsys, qes):
    # Dropping the empty name would mine a different query than the one given.
    code = main(["mine", "--input", str(example_file), "--qes", qes, "--min-sup", "0.4"])
    assert code == 2
    assert "''" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["mine"], ["mine", "--mode", "full-post"], ["bench"],
                                     ["bench", "--variants", "fasttirp,tatirp1"]])
def test_missing_query_fails_before_the_database_is_read(tmp_path, capsys, command):
    # The input does not exist, so only a check made before reading it
    # can name --qes.
    code = main([*command, "--input", str(tmp_path / "missing.db"), "--min-sup", "0.4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--qes" in err and "missing.db" not in err


@pytest.mark.parametrize("command", [["mine", "--mode", "full"],
                                     ["bench", "--variants", "fasttirp"]])
def test_full_mode_runs_without_a_query(example_file, capsys, command):
    assert main([*command, "--input", str(example_file), "--min-sup", "0.4"]) == 0
    assert capsys.readouterr().out


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


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # About 670 kB of results, ten times a pipe's buffer: the reader's close
    # comes while mine is still writing.
    db = tmp_path / "gen.db"
    assert main(["gen", "--sequences", "300", "--intervals", "14", "--alphabet", "6",
                 "--seed", "1", "--output", str(db)]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "tirpmine", "mine", "--mode", "full", "--input", str(db),
         "--min-sup", "0.05"],
        env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert len(proc.stdout.readline().split("\t")) == 3
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err == "tirpmine mine: [Errno 32] Broken pipe\n"


def test_gen_into_a_closed_stdout_exits_2_without_a_traceback():
    # About 350 kB, five times a pipe's buffer: the reader's close comes
    # while gen is still writing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "tirpmine", "gen", "--sequences", "2000", "--intervals", "20",
         "--alphabet", "20", "--seed", "1"],
        env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().startswith("1|")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err == "tirpmine gen: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("db_text, extra", [
    (EXAMPLE_TEXT + "6|A,5,2\n", []),
    (EXAMPLE_TEXT, ["--min-sup", "2"]),
    (EXAMPLE_TEXT, ["--stats", os.path.join(os.devnull, "stats.txt")]),
], ids=["malformed-line", "min-sup-2", "stats-path-not-writable"])
def test_refused_run_leaves_the_output_file_as_it_was(tmp_path, db_text, extra):
    db, out = tmp_path / "in.db", tmp_path / "out.tsv"
    db.write_text(db_text)
    out.write_bytes(b"kept\n")
    assert main(["mine", "--input", str(db), *MINE_FLAGS, "--output", str(out), *extra]) == 2
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("before", [None, b"kept\n"], ids=["new", "existing"])
def test_output_that_cannot_be_opened_leaves_the_stats_path_as_it_was(tmp_path, before):
    """A run refused because ``--output`` cannot be opened removes the empty
    ``--stats`` file it made first, and leaves one that was there before."""
    stats = tmp_path / "stats.txt"
    if before is not None:
        stats.write_bytes(before)
    db = tmp_path / "in.db"
    db.write_text(EXAMPLE_TEXT)
    assert main(["mine", "--input", str(db), *MINE_FLAGS, "--stats", str(stats),
                 "--output", os.path.join(os.devnull, "out.tsv")]) == 2
    assert (stats.read_bytes() if stats.exists() else None) == before


def test_stats_over_the_output_or_input_file_is_refused(example_file, tmp_path, capsys):
    """A ``--stats`` path naming the ``--output`` file would overwrite the
    results, and one naming the ``--input`` file the database: either exits
    2 with a message naming ``--stats``, before any file is opened to
    write. Paths are compared resolved, so another spelling of the same
    path, or a symbolic link to it, is refused too."""
    out, link = tmp_path / "out.tsv", tmp_path / "link.db"
    link.symlink_to(example_file)
    new = tmp_path / "new.tsv"
    for output, stats, kept in ((out, tmp_path / "." / "out.tsv", b"kept\n"),
                                (new, tmp_path / ".." / tmp_path.name / "new.tsv", None),
                                (out, link, b"kept\n")):
        if kept is not None:
            out.write_bytes(kept)
        assert main(["mine", "--input", str(example_file), *MINE_FLAGS,
                     "--output", str(output), "--stats", str(stats)]) == 2
        err = capsys.readouterr().err
        assert "--stats" in err and err.count("\n") == 1
        assert (output.read_bytes() if output.exists() else None) == kept
        assert example_file.read_text() == EXAMPLE_TEXT


def test_stats_hard_linked_to_the_output_or_input_file_is_refused(example_file, tmp_path,
                                                                   capsys):
    """A hard link has its own resolved path, so only the file's identity
    shows that a ``--stats`` path linked to ``--input`` or ``--output``
    would overwrite it: either exits 2 with a message naming ``--stats``,
    and both files keep their bytes."""
    out = tmp_path / "out.tsv"
    out.write_bytes(b"kept\n")
    for target in (example_file, out):
        stats = tmp_path / f"stats-{target.name}"
        os.link(target, stats)
        assert main(["mine", "--input", str(example_file), *MINE_FLAGS,
                     "--output", str(out), "--stats", str(stats)]) == 2
        err = capsys.readouterr().err
        assert "--stats" in err and err.count("\n") == 1
        assert out.read_bytes() == b"kept\n"
        assert example_file.read_text() == EXAMPLE_TEXT


@pytest.mark.parametrize("mode", ["targeted", "full"])
def test_output_does_not_depend_on_the_hash_seed(tmp_path, mode):
    """``gen`` and ``mine --stats``, each run as ``python -m tirpmine`` under
    PYTHONHASHSEED 0 and 1, which reorder every set of event names: the
    database, the results and the stats but ``elapsed_ms`` are the same
    bytes."""
    runs = []
    for seed in ("0", "1"):
        env = {**module_env(), "PYTHONHASHSEED": seed}
        db, out, stats = (tmp_path / f"{name}-{seed}" for name in ("db", "out", "stats"))
        for argv in (["gen", "--sequences", "40", "--intervals", "8", "--alphabet", "6",
                      "--max-time", "40", "--seed", "3", "--output", str(db)],
                     ["mine", "--input", str(db), "--mode", mode, "--qes", "0",
                      "--min-sup", "0.2", "--max-gap", "5", "--output", str(out),
                      "--stats", str(stats)]):
            done = subprocess.run([sys.executable, "-m", "tirpmine", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        counters = [line for line in stats.read_bytes().splitlines()
                    if not line.startswith(b"elapsed_ms=")]
        runs.append((db.read_bytes(), out.read_bytes(), counters))
    assert runs[0] == runs[1]
    assert runs[0][1].count(b"\n") > 1 and len(runs[0][2]) == 6


@pytest.mark.parametrize(
    "before", [b"", b"".join(b"%d|A,0,5\n" % sid for sid in range(1, 2_001))],
    ids=["first-line", "past-the-decoders-first-chunk"])
def test_input_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys, before):
    # The file is decoded as it is parsed, so the byte's position is
    # counted within the decoder's chunk and is not pinned here.
    db, out = tmp_path / "in.db", tmp_path / "out.tsv"
    db.write_bytes(before + b"9999|A,0,5 \xff,1,2\n")
    out.write_bytes(b"kept\n")
    assert main(["mine", "--input", str(db), *MINE_FLAGS, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tirpmine mine: 'utf-8' codec can't decode byte 0xff in position ")
    assert err.count("\n") == 1 and err.endswith(": invalid start byte\n")
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("copy", [lambda data: data.replace(b"\n", b"\r\n"),
                                  lambda data: b"\xef\xbb\xbf" + data], ids=["crlf", "bom"])
def test_crlf_or_bom_input_mines_as_plain(example_file, tmp_path, copy):
    other = tmp_path / "other.db"
    other.write_bytes(copy(example_file.read_bytes()))
    outputs = []
    for path in (example_file, other):
        out = tmp_path / f"{path.stem}.tsv"
        assert main(["mine", "--input", str(path), *MINE_FLAGS, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != b""


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
        tatirp1 = StrategyFlags(usfp=True, uqpp=False, uepp=True, uqrp=False)
        if cfg.strategies == tatirp1 and cfg.mode == "targeted":
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
        db_path = tmp_path / "gen.db"
        done = subprocess.run(
            [sys.executable, "-m", "tirpmine", "gen", "--sequences", "3", "--intervals", "4",
             "--alphabet", "2", "--output", str(db_path)],
            env=module_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(db_path.read_text().splitlines()) == 3

    def test_writes_the_database_generate_synthetic_makes(self, tmp_path):
        path = tmp_path / "gen.db"
        assert main(["gen", "--sequences", "40", "--intervals", "6", "--alphabet", "5",
                     "--seed", "4", "--output", str(path)]) == 0
        db = generate_synthetic(GeneratorParams(40, 6, 5, seed=4))
        assert path.read_text() == serialize_database(db)

    def test_memory_does_not_grow_with_the_sequences(self):
        # gen holds one sequence at a time; the whole database of 20,000
        # sequences would trace about 11.5 MB.
        tracemalloc.start()
        try:
            assert main(["gen", "--sequences", "20000", "--intervals", "4",
                         "--alphabet", "10", "--seed", "3", "--output", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_zero_sequences_fails(self, tmp_path, capsys):
        code = main(["gen", "--sequences", "0", "--intervals", "5",
                     "--alphabet", "3", "--output", str(tmp_path / "x.db")])
        assert code != 0
        assert "num_sequences" in capsys.readouterr().err
