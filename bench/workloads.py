"""Workload definitions and the benchmark's own seeded database generator.

The generator writes database text directly instead of going through
``tirpmine.generate_synthetic`` or ``serialize_database``, so that a change
to the program cannot change the inputs it is measured on.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass

# Endpoints of planted intervals move by up to this much, so that epsilon 1
# changes their relations.
JITTER = 1
# The strategy preset that recomputes expected outputs for the gate.
REFERENCE_PRESET = "tatirp1"
# The CLI's default constraints when this benchmark was written, fixed here
# so that a change of CLI defaults cannot change a workload.
CONSTRAINTS = dict(min_gap=0, max_gap=30, min_dura=0, max_dura=2000)


@dataclass(frozen=True)
class Motif:
    """A planted pattern: events with (start offset, duration) from an anchor."""

    events: tuple[str, ...]
    shape: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sequences: int
    intervals: int  # per sequence, planted intervals included
    alphabet: int
    zipf: float  # exponent of the event-rank distribution; 0 is uniform
    time_span: int
    max_duration: int
    motifs: tuple[Motif, ...]
    plant_rate: float  # share of sequences that receive each motif
    epsilon: int
    min_sup: float
    threads: int
    queries: tuple[tuple[str, ...], ...]
    # Write each line in (start, end, event) order. At epsilon > 0 the
    # parser's sort depends on token order; canonical order keeps the golden
    # output valid for a sort that does not.
    sorted_tokens: bool

    def params(self) -> dict:
        """The generator and mining parameters, for stamping results."""
        return {k: v for k, v in asdict(self).items() if k != "why"}


def generate_text(w: Workload, seed: int) -> str:
    """Database text for workload ``w``; the same seed gives the same bytes."""
    rng = random.Random(f"{w.name}:{seed}")
    # Each motif goes into exactly the same number of sequences on every
    # seed, so query costs vary little from seed to seed.
    hosts = [set(rng.sample(range(1, w.sequences + 1), round(w.plant_rate * w.sequences)))
             for _ in w.motifs]
    planted = [sum(len(m.events) for m, h in zip(w.motifs, hosts) if sid in h)
               for sid in range(1, w.sequences + 1)]
    deck = _zipf_deck(w, w.sequences * w.intervals - sum(planted))
    rng.shuffle(deck)
    lines = []
    for sid in range(1, w.sequences + 1):
        chosen: set[tuple[int, int, str]] = set()
        for motif, motif_hosts in zip(w.motifs, hosts):
            if sid not in motif_hosts:
                continue
            width = max(off + dur for off, dur in motif.shape)
            anchor = rng.randrange(max(1, w.time_span - width))
            for event, (off, dur) in zip(motif.events, motif.shape):
                start = max(0, anchor + off + rng.randint(-JITTER, JITTER))
                end = max(start, anchor + off + dur + rng.randint(-JITTER, JITTER))
                chosen.add((start, end, event))
        while len(chosen) < w.intervals:
            event = deck.pop()
            while True:
                start = rng.randrange(w.time_span)
                end = start + rng.randint(1, w.max_duration)
                if (start, end, event) not in chosen:
                    break
            chosen.add((start, end, event))
        tokens = sorted(chosen, key=lambda t: (t[0], t[1], t[2]))
        if not w.sorted_tokens:
            rng.shuffle(tokens)
        lines.append(f"{sid}|" + " ".join(f"{e},{s},{t}" for s, t, e in tokens))
    return "\n".join(lines) + "\n"


def _zipf_deck(w: Workload, size: int) -> list[str]:
    """``size`` background events, each event exactly as often as its Zipf
    weight gives (largest remainder), so that event counts and hence query
    costs do not vary with the seed."""
    weights = [1.0 / (r + 1) ** w.zipf for r in range(w.alphabet)]
    shares = [size * x / sum(weights) for x in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(w.alphabet), key=lambda r: counts[r] - shares[r])
    for r in by_remainder[: size - sum(counts)]:
        counts[r] += 1
    return [f"e{r:03d}" for r, n in enumerate(counts) for _ in range(n)]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _motif(tag: str, shape) -> Motif:
    return Motif(tuple(f"{tag}{c}" for c in "abcd"[: len(shape)]), tuple(shape))


# Offsets are a few time units apart, so planted pairs meet, overlap or
# share endpoints, and the jitter moves them across relation borders once
# epsilon is 1.
_SHAPES = (
    ((0, 10), (10, 6), (14, 10), (26, 8)),
    ((0, 20), (5, 5), (20, 10), (30, 4)),
    ((0, 8), (8, 8), (16, 8), (24, 8)),
    ((0, 12), (0, 6), (12, 12), (25, 5)),
)

# Query mixes have an odd size, so the median of whole passes falls inside
# one query's samples rather than on the edge between two; with five
# queries p90 falls inside the dearest query's samples too.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="motif-search",
            why="the one workload where the default targeted config searches "
                "hard, so query and extension pruning fire and extend_vdb "
                "is its largest layer",
            sequences=2000, intervals=30, alphabet=200, zipf=1.0,
            time_span=1000, max_duration=30,
            motifs=tuple(_motif(f"m{i}", s) for i, s in enumerate(_SHAPES)),
            plant_rate=0.05, epsilon=0, min_sup=0.02, threads=1,
            # Two cheap motif queries below three single events of well
            # apart costs: the median is the cheapest single event's and p90
            # the dearest one's, each the middle of many samples.
            queries=(("m0a", "m0b", "m0c"), ("m1a", "m1c"),
                     ("e012",), ("e016",), ("e020",)),
            sorted_tokens=False,
        ),
        Workload(
            name="wide-filter",
            why="setup and the sequence filter bound it: 1M intervals to parse, "
                "100k sequences to filter, and almost no joins, so search-core "
                "changes should leave it unchanged",
            sequences=100_000, intervals=10, alphabet=100, zipf=0.0,
            time_span=200, max_duration=30,
            motifs=(_motif("m0", _SHAPES[0][:2]),),
            plant_rate=0.08, epsilon=0, min_sup=0.05, threads=1,
            queries=(("e000",), ("m0a",), ("e050",)),
            sorted_tokens=False,
        ),
        Workload(
            name="long-seq",
            why="long sequences make the PSM build O(n^2) per sequence, the PSM "
                "bound prunes little, epsilon=1 takes the comparator sort path, "
                "and it is the only workload that runs the thread pool",
            sequences=120, intervals=120, alphabet=200, zipf=1.0,
            time_span=1200, max_duration=30,
            motifs=tuple(_motif(f"m{i}", s) for i, s in enumerate(_SHAPES[:3])),
            plant_rate=0.4, epsilon=1, min_sup=0.2, threads=2,
            queries=(("m0a", "m0b"), ("m1a", "m1c"), ("m2a", "m2b", "m2c"),
                     ("m0b",), ("m1d",)),
            sorted_tokens=True,
        ),
    )
}
