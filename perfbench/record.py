"""Record the answer digest of every input set in perfbench/digests.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a forcelab checkout whose answers are trusted, after
a change to the workloads' inputs or answers.  With workload names it
records only those and keeps the other workloads' digests.  A digest is recorded only
from a round in which every verdict passed and the instances compared equal
the count derived from the inputs; an input set whose round fails is
reported and left without a digest, so that the benchmark keeps failing on
it until the program is fixed and the digests are recorded again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import DIGESTS, BenchmarkError, run_worker
from workloads import SEED_CLASSES, WORKLOADS


def main(argv=None) -> int:
    root = Path.cwd()
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"record: unknown workload(s) {sorted(unknown)}", file=sys.stderr)
        return 2
    book = {"seed_classes": SEED_CLASSES, "digests": {}}
    if names:
        book["digests"] = json.loads(DIGESTS.read_text())["digests"]
    failed = 0
    for workload in sorted(names or WORKLOADS):
        digests = {}
        for seed_class in range(SEED_CLASSES):
            try:
                r = run_worker(root, workload, seed_class, "round", 0, None, 600)
            except BenchmarkError as e:
                print(f"record: {e}", file=sys.stderr)
                return 2
            bad = [claim for claim, ok in r["claims"] if not ok]
            if bad or r["checked"] != r["expected"]:
                print(f"record: {workload} input set {seed_class} failed, no digest: "
                      f"{bad or 'instance count'}", file=sys.stderr)
                failed += 1
                continue
            digests[str(seed_class)] = r["digest"]
            print(f"{workload} {seed_class:2d} {r['verify_s']:8.2f} s {r['digest']}")
        book["digests"][workload] = digests
        DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
