"""Tests of the benchmark itself: metrics, output gate, generator.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, generate_text, text_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough that a run takes a second or two.
TINY = {
    "motif-search": dict(sequences=200, min_sup=0.1),
    "wide-filter": dict(sequences=2000),
    "long-seq": dict(sequences=30, intervals=40),
}


@pytest.fixture(scope="module")
def tm():
    return run.import_program()


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


def expected_metrics(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_spec_names_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(tm, name, trace):
    result = run.run_workload(tm, tiny(name), seed=5, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[name].queries)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected_metrics(trace)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    stamp = result["stamp"]
    assert stamp["seed"] == 5 and stamp["db_sha256"] and stamp["cpu_count"]
    if not trace:
        factor = result["host_factor"]["queries"]
        assert factor > 0
        assert result["metrics"]["query_s.p50"]["value"] == pytest.approx(
            result["raw"]["query_s.p50"] / factor)


def test_exact_counters_repeat(tm):
    w = tiny("long-seq")
    first = run.run_workload(tm, w, seed=2, seconds=0.01, trace=True)["metrics"]
    second = run.run_workload(tm, w, seed=2, seconds=0.01, trace=True)["metrics"]
    for name in ("miner.joins", "miner.pruned_uqpp", "miner.pruned_uepp",
                 "miner.patterns", "vertical.extend_rows_in"):
        assert first[name] == second[name]


def corrupted_golden(w, seed):
    return {w.name: {
        "seed": seed,
        "db_sha256": text_digest(generate_text(w, seed)),
        "outputs": {run.query_key(q): "0" * 64 for q in w.queries},
    }}


def test_corrupted_digest_trips_gate(tm):
    w = tiny("motif-search")
    result = run.run_workload(tm, w, seed=3, seconds=0.01, trace=False,
                              golden=corrupted_golden(w, 3))
    assert result["stamp"]["expected"] == "golden"
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_corrupted_digest_fails_the_command(tm, tmp_path, monkeypatch, capsys):
    w = tiny("long-seq")
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(corrupted_golden(w, 4)))
    monkeypatch.setitem(run.WORKLOADS, w.name, w)
    monkeypatch.setattr(run, "GOLDEN_FILE", golden)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    code = run.main(["--workload", w.name, "--seed", "4", "--seconds", "0.01"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_counter_drift_is_a_failure():
    gate = run.Gate({"a": run.digest(b"x")})
    stats = SimpleNamespace(join_operations=3, pruned_uqpp=1, pruned_uepp=2, patterns=1)
    gate.check(("a",), b"x", stats)
    assert gate.failed == 0
    gate.check(("a",), b"x", SimpleNamespace(**{**vars(stats), "join_operations": 4}))
    assert gate.failed == 1


def test_generator_is_byte_deterministic():
    for name in WORKLOADS:
        w = tiny(name)
        assert generate_text(w, 7) == generate_text(w, 7)
        assert generate_text(w, 7) != generate_text(w, 8)


def test_generator_matches_golden_databases():
    golden = run.load_golden()
    for name in ("motif-search", "long-seq"):
        w = WORKLOADS[name]
        assert text_digest(generate_text(w, golden[name]["seed"])) == golden[name]["db_sha256"]


def test_without_program_sources_the_command_fails(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
