"""Record golden.json: the outputs every benchmark check compares against.

Run once, from the root of a checkout at the commit whose outputs are the
reference, and commit the result:

    python3 perfbench/record_golden.py

It runs every pool entry of every workload at the benchmark and the
self-test sizes (a few minutes), applies each operation's own rules, and
refuses to write when one fails or two sizes disagree on a shared entry.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    root = os.getcwd()
    if not run.sources_present(root):
        print("record_golden: no pabi sources under ./src", file=sys.stderr)
        return 2
    run.prepare(root)
    import workloads

    golden = {}
    for size in (workloads.FULL, workloads.TINY):
        for name in ("cli", "certify", "witness"):
            workload = workloads.make_workload(name, 0, size, root)
            for op in list(workload.all_ops()):
                result = op.run()
                errors = op.rules(result)
                if errors:
                    print(f"{op.key}: {errors}", file=sys.stderr)
                    return 1
                value = json.loads(json.dumps(op.summary(result)))
                if golden.setdefault(op.key, value) != value:
                    print(f"{op.key}: sizes disagree", file=sys.stderr)
                    return 1
            print(f"recorded {name} at size {size.long_horizon}", file=sys.stderr)
    path = os.path.join(run.BENCH_DIR, "golden.json")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
