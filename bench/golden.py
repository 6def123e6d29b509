"""Write ``golden.json``: expected output digests for the default seed.

    python3 bench/golden.py

Outputs come from the reference strategy preset (tatirp1) on one thread,
written in the documented result format by the benchmark, not by the CLI.
Run it again only when a workload or the generator changes; commit the
result together with that change.
"""
from __future__ import annotations

import json

from run import DEFAULT_SEED, GOLDEN_FILE, import_program, reference_digests
from workloads import REFERENCE_PRESET, WORKLOADS, generate_text, text_digest


def main() -> None:
    tm = import_program()
    golden = {}
    for w in WORKLOADS.values():
        text = generate_text(w, DEFAULT_SEED)
        db = tm.parse_database(text, epsilon=w.epsilon)
        golden[w.name] = {
            "seed": DEFAULT_SEED,
            "db_sha256": text_digest(text),
            "reference": REFERENCE_PRESET,
            "outputs": reference_digests(tm, w, db),
        }
        print(w.name, golden[w.name]["db_sha256"], flush=True)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
