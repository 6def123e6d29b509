"""Seeded query benchmark for tirpmine.

Run every workload, each in its own process, untraced and then traced:

    python3 bench/run.py [--seed N] [--seconds S]

Run one workload in this process and print its metrics:

    python3 bench/run.py --workload motif-search --seed 1 --seconds 20 --trace 0

Each run generates its database text from the seed, parses it several times
(``setup_s``), then answers the workload's query mix in a closed loop with one
client until ``--seconds`` have passed, always finishing the pass it is in.
A query is ``mine()`` plus formatting the result with the CLI's formatter.
Every output is checked against a reference the timed path did not produce.
End-to-end times are divided by the host factor of ``hostspeed.py``, a fixed
kernel timed between the calls, so that the shared host's speed phases
cancel; the raw times are printed beside them.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 1`` wraps the program's
layer functions and reports the per-layer metrics instead of the end-to-end
ones; spans and the full result are written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_FILE = BENCH_DIR / "golden.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
# Parse at least this many times, and until this much time has gone by.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPS = 25

sys.path.insert(0, str(BENCH_DIR))
from hostspeed import HostClock, HostSpeed  # noqa: E402
from tracing import Tracer, covered  # noqa: E402
from workloads import (  # noqa: E402
    CONSTRAINTS, REFERENCE_PRESET, WORKLOADS, Workload, generate_text, text_digest,
)


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import tirpmine from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tirpmine" / "__init__.py").is_file():
        raise ProgramMissing(f"no tirpmine sources under {src}")
    sys.path.insert(0, str(src))
    import tirpmine
    import tirpmine.cli

    if Path(tirpmine.__file__).resolve().parent != (src / "tirpmine").resolve():
        raise ProgramMissing(f"tirpmine imported from {tirpmine.__file__}, not {src}")
    return tirpmine


def reference_bytes(results) -> bytes:
    """The documented result format, written here rather than by the CLI."""
    return "".join(
        " ".join(r.events) + "\t" + str(r.vsup) + "\t"
        + ",".join(str(s) for s in r.supporting_sids) + "\n"
        for r in results
    ).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def query_key(q) -> str:
    return ",".join(q)


def mining_config(tm, w: Workload):
    return tm.MiningConfig(
        min_sup=w.min_sup,
        constraints=tm.Constraints(epsilon=w.epsilon, **CONSTRAINTS),
        threads=w.threads,
    )


def reference_digests(tm, w: Workload, db) -> dict[str, str]:
    """Outputs recomputed with another strategy preset on one thread."""
    cfg = tm.config_for_variant(REFERENCE_PRESET, replace(mining_config(tm, w), threads=1))
    return {query_key(q): digest(reference_bytes(tm.mine(db, q, cfg)[0]))
            for q in w.queries}


def load_golden() -> dict:
    if not GOLDEN_FILE.is_file():
        return {}
    return json.loads(GOLDEN_FILE.read_text())


def expected_outputs(tm, w: Workload, seed: int, db, db_sha: str, golden: dict):
    """Golden digests when they were made from this exact database, else a
    reference computed now, untimed."""
    entry = golden.get(w.name)
    if entry and entry["seed"] == seed:
        if entry["db_sha256"] == db_sha:
            return entry["outputs"], "golden"
        print(f"warning: {w.name} seed {seed} database differs from the golden "
              "one; using the reference preset", file=sys.stderr)
    return reference_digests(tm, w, db), "reference:" + REFERENCE_PRESET


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Gate:
    """Counts attempts and failures; a query fails if it raises, if its bytes
    differ from the expected digest, or if its search counters differ from
    those of its first run."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.counters: dict[str, tuple[int, int, int, int]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, q, out: bytes, stats) -> None:
        key = query_key(q)
        counters = (stats.join_operations, stats.pruned_uqpp, stats.pruned_uepp,
                    stats.patterns)
        first = self.counters.setdefault(key, counters)
        if digest(out) != self.expected.get(key) or counters != first:
            self.failed += 1
            print(f"FAILED {key}: output or counters differ", file=sys.stderr)

    def run(self, q, fn):
        """Run one query through ``fn`` and check it; returns seconds or None."""
        self.attempted += 1
        try:
            seconds, out, stats = fn(q)
        except Exception:  # a failed query is counted, not fatal
            self.failed += 1
            print(f"FAILED {query_key(q)}:", file=sys.stderr)
            traceback.print_exc()
            return None
        self.check(q, out, stats)
        return seconds


def timed_query(db, cfg, q, mine, fmt):
    """One query as a user runs it: mine, then format the result bytes."""
    start = perf_counter()
    results, stats = mine(db, q, cfg)
    out = fmt(results).encode()
    return perf_counter() - start, out, stats


def run_workload(tm, w: Workload, seed: int, seconds: float, trace: bool,
                 golden: dict | None = None) -> dict:
    """One run of one workload; returns the stamped result with metrics."""
    with HostSpeed(w.threads) as speed:
        return measure(tm, w, seed, seconds, trace, golden, speed)


def measure(tm, w: Workload, seed: int, seconds: float, trace: bool,
            golden: dict | None, speed: HostSpeed) -> dict:
    golden = load_golden() if golden is None else golden
    start = perf_counter()
    text = generate_text(w, seed)
    phases = {"generate_s": perf_counter() - start}
    db_sha = text_digest(text)
    tracer = Tracer() if trace else None
    parse = tracer.wrap("database.parse", tm.parse_database) if tracer else tm.parse_database

    setup: list[float] = []
    setup_clock = HostClock(speed)
    db = None
    while len(setup) < SETUP_REPS or (sum(setup) < SETUP_SECONDS
                                      and len(setup) < SETUP_MAX_REPS):
        db = None  # drop the previous copy so every parse sees the same heap
        gc.collect()
        setup_clock.tick()
        start = perf_counter()
        db = parse(text, epsilon=w.epsilon)
        setup.append(perf_counter() - start)
        setup_clock.tick()
    del text

    start = perf_counter()
    expected, source = expected_outputs(tm, w, seed, db, db_sha, golden)
    phases["expected_s"] = perf_counter() - start
    gate = Gate(expected)
    cfg = mining_config(tm, w)
    mine, fmt = tm.mine, tm.cli._format_results

    def untraced(q):
        return timed_query(db, cfg, q, mine, fmt)

    def traced(q):
        return run_traced(tm, tracer, gate, db, cfg, q)

    if source == "golden":  # otherwise the reference pass has warmed up
        for q in w.queries:
            gate.run(q, untraced)
    gc.collect()

    clock = HostClock(speed)
    samples: list[tuple[tuple[str, ...], float | None]] = []
    traced_samples: list[float | None] = []

    # Each query starts from an empty collector state, so that a full
    # collection falls inside the query that causes it, not in whichever
    # query happens to come next.
    def sample(q):
        gc.collect()
        clock.tick()
        samples.append((q, gate.run(q, untraced)))

    passes = 0
    begin = perf_counter()
    while passes == 0 or perf_counter() - begin < seconds:
        for i, q in enumerate(w.queries):
            samples_first = not tracer or (passes + i) % 2 == 0
            # Untraced and traced runs of one query swap order from pass to
            # pass, so that host drift falls on both alike.
            if samples_first:
                sample(q)
            if tracer:
                gc.collect()
                traced_samples.append(gate.run(q, traced))
                if not samples_first:
                    sample(q)
        passes += 1
    phases["measure_s"] = perf_counter() - begin

    ok = [s for _, s in samples if s is not None]
    by_query: dict[str, list[float]] = {}
    for q, s in samples:
        if s is not None:
            by_query.setdefault(query_key(q), []).append(s)
    result = {
        "stamp": stamp(w, seed, seconds, trace, db_sha, source),
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted,
        "passes": passes,
        "samples": len(ok),
        "setup_samples": setup,
        "host_factor": {"setup": setup_clock.factor(), "queries": clock.factor()},
        "phase_s": phases,
        "query_median_s": {k: statistics.median(v) for k, v in by_query.items()},
    }
    if not ok:
        result["metrics"] = {}
        return result
    if tracer:
        metrics = layer_metrics(tracer, w, gate, db, passes)
        traced_ok = [s for s in traced_samples if s is not None]
        if traced_ok:
            metrics["trace.overhead_s"] = (
                statistics.median(traced_ok) - statistics.median(ok), "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        result["spans_file"] = str(write_spans(tracer, w, seed).relative_to(ROOT))
    else:
        raw = {
            "setup_s": statistics.median(setup),
            "query_s.p50": statistics.median(ok),
            "query_s.p90": percentile(ok, 90),
            "queries_per_s": len(ok) / sum(ok),
        }
        result["raw"] = raw
        f_setup, f = setup_clock.factor(), clock.factor()
        metrics = {
            "setup_s": (raw["setup_s"] / f_setup, "s"),
            "query_s.p50": (raw["query_s.p50"] / f, "s"),
            "query_s.p90": (raw["query_s.p90"] / f, "s"),
            "queries_per_s": (raw["queries_per_s"] * f, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def run_traced(tm, tracer: Tracer, gate: Gate, db, cfg, q):
    """One query with the layer functions wrapped for the length of the call."""
    m = tm.miner
    tracer.patch(m, "usfp_filter", "miner.usfp_filter",
                 lambda a, r: (len(a[0]), len(r)))
    tracer.patch(m, "build_singleton_vdbs", "vertical.singletons",
                 lambda a, r: (sum(len(v.rows) for v in r.values()),))
    # Pair checks are computed, not counted: n(n-1)/2 per working sequence.
    tracer.patch(m, "build_psm", "vertical.psm",
                 lambda a, r: (len(r), sum(len(s.intervals) * (len(s.intervals) - 1) // 2
                                           for s in a[0].sequences)))
    tracer.patch(m, "extend_vdb", "vertical.extend",
                 lambda a, r: (len(a[0].rows), len(r.rows), r.vertical_support()))
    tracer.query = gate.attempted
    try:
        return timed_query(db, cfg, q, tracer.wrap("miner.mine", tm.mine, root=True),
                           tracer.wrap("cli.format", tm.cli._format_results))
    finally:
        tracer.query = None
        tracer.unpatch()


def layer_metrics(tracer: Tracer, w: Workload, gate: Gate, db, passes: int) -> dict:
    """Per-layer metrics from the spans of the traced queries.

    Times are busy seconds per traced query; counts are per pass of the
    query mix. Under threads, busy time is summed over threads.
    """
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[4], []).append(span)
    mines = by_name.get("miner.mine", [])
    queries = len(mines)

    def spans(name):
        return by_name.get(name, [])

    def per_query(name):
        return sum(s[3] - s[2] for s in spans(name)) / queries

    def per_pass(name, i):
        return sum(s[7][i] for s in spans(name)) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    search_wall = search_self = 0.0
    for m in mines:
        kids = children.get(m[0], [])
        wall = (m[3] - m[2]) - sum(s[3] - s[2] for s in kids if s[1] != "vertical.extend")
        search_wall += wall
        search_self += wall - covered((s[2], s[3]) for s in kids if s[1] == "vertical.extend")

    parse_s = statistics.median(s[3] - s[2] for s in spans("database.parse"))
    intervals = sum(len(s.intervals) for s in db.sequences)
    threshold = w.min_sup * len(db)
    joins = spans("vertical.extend")
    rows_in = per_pass("vertical.extend", 0)
    extend_busy = sum(s[3] - s[2] for s in joins)
    counters = [sum(gate.counters[query_key(q)][i] for q in w.queries) for i in range(4)]
    return {
        "database.parse_s": (parse_s, "s"),
        "database.intervals": (intervals, "count"),
        "database.parse_us_per_interval": (parse_s / intervals * 1e6, "us"),
        "miner.usfp_filter_s": (per_query("miner.usfp_filter"), "s"),
        "miner.usfp_kept_frac": (ratio(per_pass("miner.usfp_filter", 1),
                                       per_pass("miner.usfp_filter", 0)), "fraction"),
        "vertical.singletons_s": (per_query("vertical.singletons"), "s"),
        "vertical.singleton_rows": (per_pass("vertical.singletons", 0), "count"),
        "vertical.psm_s": (per_query("vertical.psm"), "s"),
        "vertical.psm_entries": (per_pass("vertical.psm", 0), "count"),
        "vertical.psm_pair_checks": (per_pass("vertical.psm", 1), "count"),
        "vertical.extend_s": (per_query("vertical.extend"), "s"),
        "vertical.extend_rows_in": (rows_in, "count"),
        "vertical.extend_rows_out": (per_pass("vertical.extend", 1), "count"),
        "vertical.extend_us_per_row_in": (
            ratio(extend_busy, rows_in * passes) * 1e6, "us"),
        "miner.joins": (counters[0], "count"),
        "miner.pruned_uqpp": (counters[1], "count"),
        "miner.pruned_uepp": (counters[2], "count"),
        "miner.patterns": (counters[3], "count"),
        "miner.join_useful_frac": (
            ratio(sum(1 for s in joins if s[7][2] >= threshold), len(joins)), "fraction"),
        "miner.join_empty_frac": (
            ratio(sum(1 for s in joins if s[7][1] == 0), len(joins)), "fraction"),
        "miner.search_wall_s": (search_wall / queries, "s"),
        "miner.search_self_s": (search_self / queries, "s"),
        "cli.format_s": (per_query("cli.format"), "s"),
    }


def write_spans(tracer: Tracer, w: Workload, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{w.name}-seed{seed}-spans.tsv"
    with path.open("w") as fh:
        fh.write("id\tname\tstart\tend\tparent\tquery\tthread\tattrs\n")
        for span in tracer.spans:
            fh.write("\t".join(map(str, span[:7])) + "\t"
                     + ",".join(map(str, span[7])) + "\n")
    return path


def stamp(w: Workload, seed, seconds, trace, db_sha, expected_source) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": w.params(),
        "db_sha256": db_sha,
        "expected": expected_source,
    }


def report(result: dict) -> str:
    """Human-readable lines: the stamp, the gate, and each metric with its unit."""
    st = result["stamp"]
    lines = [
        "stamp " + json.dumps(st, sort_keys=True),
        f"{st['workload']} seed {st['seed']} trace {st['trace']}: "
        f"{result['passes']} passes, {result['attempted']} queries attempted, "
        f"{result['failed']} failed, failed_frac {result['failed_frac']:g}",
    ]
    hf = result["host_factor"]
    lines.append(f"  host factor: setup {hf['setup']:.4g}, queries {hf['queries']:.4g}"
                 " (times below are divided by it; raw times after 'raw')")
    counts = {"setup_s": len(result["setup_samples"])}
    raw = result.get("raw", {})
    for name, m in result["metrics"].items():
        n = counts.get(name, result["samples"])
        note = " (computed)" if name == "vertical.psm_pair_checks" else ""
        if name in raw:
            note += f" raw {raw[name]:.6g}"
        lines.append(f"  {name:34s} {m['value']:<14.6g} {m['unit']:8s} n={n}{note}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit code {proc.returncode}", flush=True)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        tm = import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)

    result = run_workload(tm, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(report(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
