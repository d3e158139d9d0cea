"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload at the TINY size, plain and traced, and checks that
   each run is correct and emits every metric BENCHMARK.json declares, with
   its unit and a finite value, plus the workload-specific named metrics.
2. Perturbs recorded certificate values by 1e-9 relative and checks that
   the run counts the failures: error_rate > 0 and correct is false.

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import copy
import math
import os
import sys

import run

NAMED = {
    "cli": ("query_p50_s", "query_p90_s", "queries_per_s"),
    "certify": ("certificate_p50_s", "horizon_steps_per_s", "epsilons_per_s"),
    "witness": ("oracle_checks_per_s", "validate_mixing_s", "chain_steps_per_s",
                "sgd_chain_steps_per_s"),
}
COMMON = ("setup_s", "error_rate", "peak_rss_mb")


def tiny_run(name: str, traced: int, root: str, golden: dict) -> dict:
    import workloads

    return run.run_benchmark(name, 1, 0, traced, root, workloads.TINY, golden, setup_repeats=1)


def main() -> int:
    root = os.getcwd()
    if not run.sources_present(root):
        print("selftest: no pabi sources under ./src", file=sys.stderr)
        return 2
    run.prepare(root)
    import workloads

    golden = workloads.load_golden(os.path.join(run.BENCH_DIR, "golden.json"))
    problems = []
    for name in NAMED:
        for traced in (0, 1):
            units = run.declared_metrics(root, traced)
            result = tiny_run(name, traced, root, golden)
            final = run.final_line(result, units)
            label = f"{name} trace={traced}"
            if not final["correct"] or final["failed"] or final["attempted"] < 1:
                problems.append(f"{label}: {final['failed']} of {final['attempted']} failed")
            for metric, entry in final["metrics"].items():
                if entry["unit"] != units[metric] or not math.isfinite(entry["value"]):
                    problems.append(f"{label}: bad metric {metric} {entry}")
            if not traced:
                missing = set(NAMED[name] + COMMON) - set(result["named"])
                if missing:
                    problems.append(f"{label}: named metrics missing: {sorted(missing)}")
            print(f"{label}: {len(final['metrics'])} metrics, {final['attempted']} operations")

    corrupted = copy.deepcopy(golden)
    prefix = f"certify/step/T={workloads.TINY.long_horizon}/"
    for key, value in corrupted.items():
        if key.startswith(prefix):
            value["objective"] *= 1.0 + 1e-9
    result = tiny_run("certify", 0, root, corrupted)
    error_rate = result["named"]["error_rate"]
    print(f"corrupted record: {result['failed']} of {result['attempted']} failed, "
          f"error_rate {error_rate:.3f}")
    if result["correct"] or not error_rate > 0:
        problems.append("a corrupted recorded value was not counted as a failure")

    for problem in problems:
        print("PROBLEM " + problem, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
