"""Command-line front end: mine, bench, and gen subcommands."""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .model import Constraints
from .database import (
    DatabaseError,
    GeneratorParams,
    _sequence_line,
    _synthetic_sequences,
    parse_database,
)
from .miner import (
    MODE_FULL,
    MODES,
    VARIANTS,
    MiningConfig,
    StrategyFlags,
    _mine_stream,
    config_for_variant,
    mine,
)

# Default constraint values for the CLI; min_sup has no default and is required.
DEFAULTS = dict(epsilon=0, min_gap=0, max_gap=30, min_dura=0, max_dura=2000)


def _add_mining_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="database file to mine")
    p.add_argument("--qes", help="comma-separated query event sequence")
    p.add_argument("--min-sup", type=float, required=True,
                   help="minimum support as a fraction of the database size")
    p.add_argument("--epsilon", type=int, default=DEFAULTS["epsilon"])
    p.add_argument("--min-gap", type=int, default=DEFAULTS["min_gap"])
    p.add_argument("--max-gap", type=int, default=DEFAULTS["max_gap"],
                   help="maximum gap for the before relation; -1 for unbounded")
    p.add_argument("--min-dura", type=int, default=DEFAULTS["min_dura"])
    p.add_argument("--max-dura", type=int, default=DEFAULTS["max_dura"],
                   help="maximum pattern duration; -1 for unbounded")
    p.add_argument("--max-length", type=int, default=None,
                   help="cap on events per pattern (default unbounded)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility (must be >= 1); "
                        "mining runs on one thread")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tirpmine",
        description="Targeted mining of time-interval related patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine patterns from a database file")
    _add_mining_args(p_mine)
    p_mine.add_argument("--mode", choices=MODES, default="targeted")
    p_mine.add_argument("--no-usfp", action="store_true",
                        help="turn sequence filtering off")
    p_mine.add_argument("--output", help="result file (default stdout)")
    p_mine.add_argument("--stats", help="write run statistics to this file")

    p_bench = sub.add_parser("bench", help="compare algorithm variants on one input")
    _add_mining_args(p_bench)
    p_bench.add_argument("--variants", default=",".join(VARIANTS),
                         help="comma-separated variant names")
    p_bench.add_argument("--output", help="comparison table file (default stdout)")

    p_gen = sub.add_parser("gen", help="generate a synthetic database file")
    p_gen.add_argument("--output", help="output file (default stdout)")
    p_gen.add_argument("--sequences", type=int, required=True)
    p_gen.add_argument("--intervals", type=int, required=True)
    p_gen.add_argument("--alphabet", type=int, required=True)
    p_gen.add_argument("--max-time", type=int, default=100)
    p_gen.add_argument("--max-duration", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def _upper_bound(value: int, flag: str) -> int | None:
    """A ``--max-*`` value as a constraint: -1 means unbounded."""
    if value < -1:
        raise ValueError(f"{flag} must be >= 0, or -1 for unbounded")
    return None if value == -1 else value


def _constraints(args) -> Constraints:
    return Constraints(
        epsilon=args.epsilon,
        min_gap=args.min_gap,
        max_gap=_upper_bound(args.max_gap, "--max-gap"),
        min_dura=args.min_dura,
        max_dura=_upper_bound(args.max_dura, "--max-dura"),
    )


def _config(args, **fields) -> MiningConfig:
    """The config of the flags ``mine`` and ``bench`` share; ``fields`` sets the rest."""
    return MiningConfig(
        min_sup=args.min_sup,
        constraints=_constraints(args),
        max_pattern_length=args.max_length,
        threads=args.threads,
        **fields,
    )


def _parse_qes(args, required: bool) -> tuple[str, ...] | None:
    if args.qes is None:
        if required:
            raise ValueError("--qes is required: only full mode mines without a query")
        return None
    qes = tuple(args.qes.split(","))
    for e in qes:
        if e.split() != [e]:
            raise ValueError(f"--qes event {e!r} is empty or contains whitespace, "
                             "unlike every event name in a database file")
    return qes


def _load_db(args):
    # Parsed a line at a time, never held whole, past any byte-order mark.
    # Bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError.
    with open(args.input, encoding="utf-8-sig") as fh:
        return parse_database(fh, epsilon=args.epsilon)


def _open(path: str | None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


def _result_line(r) -> str:
    return "{}\t{}\t{}\n".format(" ".join(r.events), r.vsup,
                                 ",".join(map(str, r.supporting_sids)))


def _format_results(results) -> str:
    """The lines ``mine`` writes for ``results``; the benchmark times this."""
    return "".join(map(_result_line, results))


def _format_stats(stats) -> str:
    return (
        f"sequences_filtered={stats.sequences_filtered}\n"
        f"join_operations={stats.join_operations}\n"
        f"pruned_uqpp={stats.pruned_uqpp}\n"
        f"pruned_uepp={stats.pruned_uepp}\n"
        f"pruned_uqrp={stats.pruned_uqrp}\n"
        f"patterns={stats.patterns}\n"
        f"elapsed_ms={stats.elapsed * 1000:.3f}\n"
    )


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: where both exist, by device and
    inode, which sees hard links too; else by their resolved paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_mine(args) -> int:
    for flag, path in (("--input", args.input), ("--output", args.output)):
        if args.stats and path and _same_file(args.stats, path):
            raise ValueError(f"--stats names the same file as {flag}, which it would overwrite")
    qes = _parse_qes(args, required=args.mode != MODE_FULL)
    flags = StrategyFlags(usfp=not args.no_usfp)
    cfg = _config(args, strategies=flags, mode=args.mode)
    db = _load_db(args)
    results, stats = _mine_stream(db, qes, cfg)
    # Every check is made by now, and the stats path opens to append, which
    # writes nothing, so a refused run leaves --output as it was; a stats
    # file this run made is removed if the results are not written.
    made = bool(args.stats) and not os.path.lexists(args.stats)
    if args.stats:
        open(args.stats, "a", encoding="utf-8").close()
    try:
        with _open(args.output) as fh:
            fh.writelines(map(_result_line, results))
    except BaseException:
        if made:
            os.remove(args.stats)
        raise
    if args.stats:
        _write(args.stats, _format_stats(stats))
    return 0


def _cmd_bench(args) -> int:
    names = [v for v in args.variants.split(",") if v]
    if not names:
        raise ValueError("--variants must name at least one variant")
    for name in names:
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r} in --variants")
    base = _config(args)
    configs = [(name, config_for_variant(name, base)) for name in names]
    qes = _parse_qes(args, required=any(cfg.mode != MODE_FULL for _, cfg in configs))
    db = _load_db(args)

    rows = []
    targeted_outputs = {}
    for name, cfg in configs:
        results, stats = mine(db, qes, cfg)
        rows.append((name, stats.patterns, stats.join_operations, stats.elapsed * 1000))
        if name != "fasttirp":  # full-mode output is deliberately a superset
            targeted_outputs[name] = {r.events: (r.vsup, r.supporting_sids) for r in results}

    table = "variant\tpatterns\tjoin_operations\telapsed_ms\n"
    table += "".join(
        f"{n}\t{p}\t{j}\t{ms:.3f}\n" for n, p, j, ms in rows
    )
    _write(args.output, table)

    outputs = list(targeted_outputs.items())
    disagreeing = [(n, out) for n, out in outputs[1:] if out != outputs[0][1]]
    if disagreeing:
        (first, a), (other, b) = outputs[0], disagreeing[0]
        events = min(e for e in a.keys() | b.keys() if a.get(e) != b.get(e))
        print(f"bench: variant outputs disagree (bug): pattern {' '.join(events)!r}: "
              f"{_describe(first, a, events)}; {_describe(other, b, events)}",
              file=sys.stderr)
        return 1
    return 0


def _describe(variant, output, events) -> str:
    if events not in output:
        return f"{variant} lacks it"
    vsup, sids = output[events]
    return f"{variant} has vsup={vsup} sids={','.join(map(str, sids))}"


def _cmd_gen(args) -> int:
    params = GeneratorParams(
        num_sequences=args.sequences,
        intervals_per_sequence=args.intervals,
        alphabet_size=args.alphabet,
        max_time=args.max_time,
        max_duration=args.max_duration,
        seed=args.seed,
    )
    # A sequence at a time and a line per write, as mine does: memory does
    # not grow with the database, and a reader that closes early ends the
    # run in main's OSError branch.
    with _open(args.output) as fh:
        fh.writelines(map(_sequence_line, _synthetic_sequences(params)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_gen(args)
    except (DatabaseError, ValueError, OSError) as exc:
        print(f"tirpmine {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
