"""Host speed, measured with a fixed kernel timed between the program's calls.

A shared host runs the same code up to about 1.5x slower for tens of
seconds at a time, and a pure-Python loop slows down with it. The kernel
below is fixed work of the kinds the program does: splitting text, parsing
integers, building dicts of tuples and sets (cache-resident), and following
references through a large object graph in scattered order (bound by memory,
as the program is on large databases). It does not call the program, so a
change to the program cannot change it. A run times the kernel between its
parses and queries and divides its times by

    factor = median kernel time in this phase of the run / REFERENCE_S

which gives seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel runs in a helper process, so that its object graph is not part
of the run's memory, and on as many threads at once as the workload mines
with, so that it meets the same contention for the second core and the
interpreter lock:

    python3 bench/hostspeed.py THREADS    # reads a count per line, prints the times
"""
from __future__ import annotations

import random
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# About the kernel's median time on one thread on a 2-vCPU x86-64 host with
# CPython 3.11; it only sets the scale of normalised times.
REFERENCE_S = 0.015
GRAPH_NODES = 400_000
STEPS = 20_000  # references followed per kernel call


def _kernel_text() -> str:
    rng = random.Random(0)
    lines = []
    for sid in range(1, 121):
        tokens = []
        for _ in range(10):
            start = rng.randrange(1000)
            tokens.append(f"e{rng.randrange(60):03d},{start},{start + rng.randint(1, 30)}")
        lines.append(f"{sid}|" + " ".join(tokens))
    return "\n".join(lines)


def _graph() -> list:
    """One cycle through GRAPH_NODES nodes ``[value, next]`` in shuffled order."""
    rng = random.Random(0)
    nodes = [[i, None] for i in range(GRAPH_NODES)]
    order = list(range(GRAPH_NODES))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a][1] = nodes[b]
    return nodes[order[0]]


class Kernel:
    def __init__(self):
        self.text = _kernel_text()
        self.cursor = _graph()

    def __call__(self) -> int:
        rows: dict[str, list[tuple[int, int, int]]] = {}
        for line in self.text.splitlines():
            sid, _, body = line.partition("|")
            for token in body.split():
                event, start, end = token.split(",")
                rows.setdefault(event, []).append((int(sid), int(start), int(end)))
        total = 0
        for event_rows in rows.values():
            event_rows.sort(key=lambda r: (r[1], -r[2], r[0]))
            total += len({sid for sid, _, _ in event_rows})
        # Walk on from where the last call stopped, so the nodes visited are
        # rarely still in cache.
        node = self.cursor
        for _ in range(STEPS):
            total += node[0]
            node = node[1]
        self.cursor = node
        return total


def serve(threads: int) -> None:
    """Helper process: for each count read, run the kernel that many times
    on ``threads`` threads at once and print each time."""
    kernels = [Kernel() for _ in range(threads)]
    with ThreadPoolExecutor(threads) as pool:
        for line in sys.stdin:
            times = []
            for _ in range(int(line)):
                start = perf_counter()
                list(pool.map(Kernel.__call__, kernels))
                times.append(perf_counter() - start)
            print(" ".join(map(repr, times)), flush=True)


class HostSpeed:
    """The helper process; use as a context manager, which stops it."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(threads)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def time(self, times: int) -> list[float]:
        self._proc.stdin.write(f"{times}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper process ended")
        return [float(x) for x in line.split()]

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class HostClock:
    """Kernel times taken during one phase of a run."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.samples: list[float] = []

    def tick(self, times: int = 2) -> None:
        self.samples.extend(self.speed.time(times))

    def factor(self) -> float:
        """How much slower than the reference host this phase ran."""
        return statistics.median(self.samples) / (REFERENCE_S * self.speed.threads)


if __name__ == "__main__":
    serve(int(sys.argv[1]))
