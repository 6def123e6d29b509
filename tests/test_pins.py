"""Counters pinned on the benchmark's own inputs.

``benchmark_counters.tsv`` holds, for every query of every workload in
``bench/workloads.py`` at seed 1, mined with the default config, the
columns workload, query, sequences_filtered, join_operations,
pruned_uqpp, pruned_uepp, pruned_uqrp and patterns. The benchmark's gate
checks each output and that a query's counters agree across passes, but
not ``pruned_uqrp``'s value, so a change in query row pruning's work shows
here. The workloads module is only read, never edited.
"""
import importlib.util
import sys
from pathlib import Path

from tirpmine import Constraints, MiningConfig, mine, parse_database

HERE = Path(__file__).parent
WORKLOADS = HERE.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_default_config_counters_of_every_benchmark_query():
    bench = _workloads()
    rows = []
    for w in bench.WORKLOADS.values():
        db = parse_database(bench.generate_text(w, 1), epsilon=w.epsilon)
        cfg = MiningConfig(min_sup=w.min_sup,
                           constraints=Constraints(epsilon=w.epsilon, **bench.CONSTRAINTS))
        for q in w.queries:
            _, s = mine(db, q, cfg)
            rows.append("\t".join(map(str, (
                w.name, ",".join(q), s.sequences_filtered, s.join_operations,
                s.pruned_uqpp, s.pruned_uepp, s.pruned_uqrp, s.patterns))) + "\n")
    assert "".join(rows) == (HERE / "benchmark_counters.tsv").read_text()
