"""Freeze the default seed's outputs as references for later commits.

    python3 perfbench/freeze.py

Run it on a commit whose outputs are trusted. It refuses to write when any
operation fails its checks (for groups that includes Molien == projector
oracle), so only outputs on which both routes agree are frozen.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, EXPECTED, run_worker

COUNTS = {"random-groups": 450, "random-pages": 1300}


def main():
    frozen = {}
    for workload, count in COUNTS.items():
        _, data = run_worker(workload, DEFAULT_SEED, count=count)
        bad = [op["why"] for op in data["ops"] if not op["ok"]]
        if bad:
            print("%s: %d failed operations, first: %s" % (workload, len(bad), bad[0]),
                  file=sys.stderr)
            return 1
        frozen[workload] = [op["out"] for op in data["ops"]]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (workload, outs) in enumerate(frozen.items()):
            rows = ",\n".join("    " + json.dumps(out) for out in outs)
            fh.write('  "%s": [\n%s\n  ]%s\n' % (workload, rows, "," if i == 0 else ""))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
