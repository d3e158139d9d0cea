"""pabi benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout (the sources are taken from ./src):

    python3 perfbench/run.py --workload cli|certify|witness --seed N \
        --seconds S --trace 0|1

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  It runs whole rounds (a fixed mix of
operations, see workloads.py) until S seconds have passed, checks every
output, and prints one `metric` line per metric followed, as the last
line, by a JSON object {correct, attempted, failed, metrics}.  Everything
runs in this process or one child at a time, with PABI_THREADS=1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  That file
declares one set of names for all workloads, so the workload-specific
metrics are reported under shared names:

    metric        cli                   certify                    witness
    op_p50_s      query_p50_s           certificate_p50_s (T=1e6)  validate_mixing_s
    alt_op_p50_s  refusal query median  epsilon batch median       long run_chains median
    round_s       median time of one round of the workload's mix

No percentile above the median is gated: a run holds fewer than the
hundred samples a 90th percentile needs (cli's query_p90_s is printed
with its sample count).

setup_s is the median, over three fresh interpreters, of the time from
process start until the workload could run its first timed operation
(imports, golden values, input generation).  peak_rss_mb is this
process's peak resident memory; for cli it is the largest child's, that
is one `pabi` query's (the benchmark's own process does no pabi work).
The workload-specific names (queries_per_s, horizon_steps_per_s,
epsilons_per_s, oracle_checks_per_s, chain_steps_per_s,
sgd_chain_steps_per_s, error_rate, ...) are printed as `named` lines and
stored with the provenance and every operation's time in perfbench/out/.
error_rate is not a BENCHMARK.json metric since it is 0 on correct code;
the result's `attempted` and `failed` carry it.

Times are reported in reference seconds.  On a shared machine the speed
of a core drifts, by up to about 2x over tens of seconds, which would
swamp the differences between two versions of pabi.  So a fixed piece of
benchmark-owned work runs right before and right after every timed
operation and set-up, and each time is scaled by the reference time of
that work over the mean of its two measured times.  The work is
calibrate() for operations in this process and calibrate_child() (a
child interpreter importing numpy) for set-ups and CLI queries, which
run in child processes.  The raw median calibration times of the run
are reported as `named calibration_s` and `named child_calibration_s`.

--trace 1 runs a fixed number of rounds untraced and the same rounds with
spans around every public pabi call (spans.py), then the traced-only
probes, and reports the per-layer metrics: self time per span name summed
over the traced rounds (scaled by the run's median calibration), counts,
`python -X importtime` figures and the tracing overhead.  Every workload
reports every per-layer metric; a function the workload never calls
reads 0.  Spans are written to perfbench/out/ at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACE_ROUNDS = 2  # fixed, so the traced counts repeat exactly for a seed
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CAL_REF_S = 0.025  # calibrate() at the reference speed
CHILD_CAL_REF_S = 0.25  # calibrate_child() at the reference speed
THREAD_VARS = ("PABI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Imports pabi from ./src and builds the workload, like main() does before
# its first timed operation, then says so.
SETUP_CHILD = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
run.setup(sys.argv[1], int(sys.argv[2]), {root!r})
print("ready", flush=True)
"""


@dataclass
class Record:
    round: int
    kind: str
    key: str
    seconds: float  # reference seconds
    ok: bool
    work: int
    in_process: bool


@dataclass
class Session:
    """One benchmark run: the workload, its records and calibration samples."""

    workload: object = None
    golden: dict = None
    cal: list = field(default_factory=list)  # calibrate() samples
    child_cal: list = field(default_factory=list)  # calibrate_child() samples

    @property
    def scale(self) -> float:
        """Reference seconds per second for the run as a whole."""
        return CAL_REF_S / statistics.median(self.cal)

    def calibrated(self, fn, in_process: bool = True) -> tuple:
        """fn()'s result, the exception it raised or None, and its duration
        in reference seconds.

        Work done in child processes is calibrated by a reference child
        process, work in this process by calibrate().  The heap is
        collected first, untimed, so every call starts from the same
        collector state.  The calibration after one call serves as the one
        before the next.
        """
        probe, samples, ref = ((calibrate, self.cal, CAL_REF_S) if in_process
                               else (calibrate_child, self.child_cal, CHILD_CAL_REF_S))
        gc.collect()
        if not samples:
            samples.append(probe())
        before = samples[-1]
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - the caller reports it
            result, error = None, exc
        elapsed = time.perf_counter() - start
        after = probe()
        samples.append(after)
        return result, error, elapsed * 2.0 * ref / (before + after)

    def execute(self, op, round_index: int, tracer=None) -> Record:
        import workloads

        def run():
            with tracer.operation(f"op.{op.kind}") if tracer else nullcontext():
                return op.run()

        result, error, seconds = self.calibrated(run, op.in_process)
        try:
            if error is not None:
                raise error
            errors = workloads.check(op, result, self.golden)
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            errors = [traceback.format_exc()]
        for err in errors:
            print(f"FAILED {op.key}: {err}", file=sys.stderr)
        return Record(round_index, op.kind, op.key, seconds, not errors, op.work, op.in_process)

    def run_round(self, round_index: int, tracer=None) -> list:
        return [self.execute(op, round_index, tracer) for op in self.workload.round(round_index)]

    def run_timed(self, seconds: float) -> list:
        """As many whole rounds as start within `seconds`, at least one."""
        records = []
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            records += self.run_round(r)
            r += 1
        return records

    def run_traced(self, tracer) -> tuple:
        """Each of TRACE_ROUNDS rounds once untraced and once traced.

        The order alternates (untraced first, then traced first, ...), so
        warm-up and drift do not all land on one side of the overhead.
        """
        import spans as tracing

        untraced, traced = [], []
        for r in range(TRACE_ROUNDS):
            for with_spans in ((False, True) if r % 2 == 0 else (True, False)):
                if not with_spans:
                    untraced += self.run_round(r)
                    continue
                self.workload.tracer = tracer
                undo = tracing.install(tracer)
                try:
                    traced += self.run_round(r, tracer)
                finally:
                    tracing.uninstall(undo)
                    self.workload.tracer = None
        return untraced, traced


@dataclass(frozen=True)
class _Cell:
    a: float
    b: float


def calibrate() -> float:
    """Wall time of fixed benchmark-owned work (CAL_REF_S at the reference speed).

    It mixes what pabi's hot paths spend their time on: an interpreted
    float loop, many small frozen dataclass objects, numpy arithmetic on
    a cache-sized array and on a fresh 32 MB one (page faults and memory
    bandwidth).  The collector is off meanwhile, so the time does not
    depend on the size of the heap.
    """
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += math.sqrt(i + 1.0)
        cells = [_Cell(i * 0.5, acc) for i in range(10_000)]
        x = np.arange(250_000, dtype=float)
        for _ in range(4):
            x = np.sqrt(x * 1.0001 + cells[-1].b)
        big = np.empty(4_000_000)
        big.fill(x[-1])
        big *= 1.0001
        float(big.sum())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate_child() -> float:
    """Wall time of a child interpreter that imports numpy, which is what
    every pabi process does first: process start, dynamic loading, page
    faults.  A core's speed in this process tracks that poorly."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - start


def sources_present(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "pabi", "__init__.py"))


def prepare(root: str) -> None:
    """Single-threaded numerics, and pabi imported from the checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = src
    for path in (src, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(name: str, seed: int, root: str, size=None, golden=None, traced=False):
    prepare(root)
    import pabi
    import workloads

    origin = os.path.dirname(os.path.abspath(pabi.__file__))
    if origin != os.path.join(root, "src", "pabi"):
        raise RuntimeError(f"pabi imported from {origin}, not from ./src")
    if golden is None:
        golden = workloads.load_golden(os.path.join(BENCH_DIR, "golden.json"))
    workload = workloads.make_workload(name, seed, size or workloads.FULL, root, traced)
    return workload, golden


def measure_setup(session: Session, name: str, seed: int, root: str, repeats: int) -> float:
    """Median set-up time of fresh interpreters, in reference seconds."""
    code = SETUP_CHILD.format(bench=BENCH_DIR, src=os.path.join(root, "src"), root=root)
    times = []
    for _ in range(repeats):
        proc = None
        lines = []

        def start_child():
            nonlocal proc
            proc = subprocess.Popen([sys.executable, "-c", code, name, str(seed)], cwd=root,
                                    stdout=subprocess.PIPE)
            lines.append(proc.stdout.readline())

        _, error, seconds = session.calibrated(start_child, in_process=False)
        if proc is not None:
            proc.stdout.close()
            proc.wait(timeout=120)
        if error is not None or lines != [b"ready\n"] or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {error or proc.returncode}")
        times.append(seconds)
    return statistics.median(times)


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def round_times(records: list) -> list:
    totals = {}
    for rec in records:
        totals[rec.round] = totals.get(rec.round, 0.0) + rec.seconds
    return list(totals.values())


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, records: list, setup_s: float) -> dict:
    head = [r.seconds for r in records if r.kind in workload.headline]
    alt = [r.seconds for r in records if r.kind in workload.alt]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload.name == "cli"),
        "op_p50_s": statistics.median(head),
        "alt_op_p50_s": statistics.median(alt),
        "round_s": statistics.median(round_times(records)),
    }


def named(workload, records: list, e2e: dict, session: Session) -> dict:
    """The workload's metrics under their workload-specific names."""

    def of(*kinds):
        return [r for r in records if r.kind in kinds]

    def rate(recs):
        return sum(r.work for r in recs) / sum(r.seconds for r in recs)

    out = {
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "error_rate": sum(not r.ok for r in records) / len(records),
        "calibration_s": statistics.median(session.cal) if session.cal else None,
        "child_calibration_s": statistics.median(session.child_cal),
    }
    if workload.name == "cli":
        queries = [r.seconds for r in of("query", "refusal")]
        out.update(query_p50_s=e2e["op_p50_s"], query_p90_s=p90(queries), queries=len(queries),
                   queries_per_s=rate(of("query", "refusal")))
    elif workload.name == "certify":
        steps = [r for r in records if r.kind.startswith("step-")]
        out.update(certificate_p50_s=e2e["op_p50_s"], horizon_steps_per_s=rate(steps),
                   epsilons_per_s=rate(of("epsilons")))
    else:
        out.update(oracle_checks_per_s=rate(of("oracle")), validate_mixing_s=e2e["op_p50_s"],
                   chain_steps_per_s=rate(of("chains")), sgd_chain_steps_per_s=rate(of("sgd")))
    return out


def import_times(root: str) -> dict:
    """Median `python -X importtime -c "import pabi"` totals, in seconds."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pabi"], cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        entries = []  # (depth, cumulative us, module), children before parents
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, int(cumulative), name.strip()))
        pabi_us = next(cum for depth, cum, name in entries if name == "pabi")
        # a scipy module counts when its parent (next shallower entry) is not scipy
        scipy_us = 0
        for i, (depth, cum, name) in enumerate(entries):
            if name.split(".")[0] != "scipy":
                continue
            parent = next((n for d, _, n in entries[i + 1:] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                scipy_us += cum
        samples.append((pabi_us / 1e6, scipy_us / 1e6))
    return {
        "import.pabi_s": statistics.median(s[0] for s in samples),
        "import.scipy_s": statistics.median(s[1] for s in samples),
    }


def per_layer(tracer, untraced: list, traced: list, root: str, session: Session) -> dict:
    import spans as tracing

    spans = tracer.finished()
    own = tracing.self_times(spans)
    out = dict(import_times(root))
    out["shifts.objective_evals"] = sum(s["calls"] for s in spans if s["name"] == "shifts.objective_E")
    for name in ("shifts.runtime_warnings", "simulate.streams_built", "simulate.normals_drawn",
                 "simulate.noise_bytes_computed", "simulate.mask_bytes_computed"):
        out[name] = tracer.counts.get(name, 0)
    for name in ("shifts.iteration_spec", "shifts.solve_closed_form", "shifts.stationarity_residuals",
                 "shifts.numeric_oracle", "bounds.renyi_bound_general", "bounds.dissipative_series",
                 "privacy.epsilon_nsgd", "privacy.alpha_star", "privacy.sweep",
                 "simulate.rng_stream", "simulate.run_chains", "simulate.run_chains_noiseless",
                 "simulate.empirical_tv", "simulate.run_noisy_sgd"):
        out[name + "_s"] = own.get(name, 0.0)
    for module in ("cli", "shifts", "bounds", "privacy", "simulate"):
        out[f"self.{module}_s"] = sum(v for k, v in own.items() if k.split(".")[0] == module)
    # cli: inclusive main() time per subcommand; start-up is the rest of
    # the subprocess wall time of the same query
    mains = {}
    for s in spans:
        if s["name"].startswith("cli.") and s["name"].endswith(".main"):
            mains[s["name"]] = mains.get(s["name"], 0.0) + s["duration"]
    for sub in ("bound", "shifts", "mixing", "privacy", "simulate"):
        out[f"cli.{sub}.main_s"] = mains.get(f"cli.{sub}.main", 0.0)
    scale = session.scale  # span times are raw; records are already scaled
    out = {k: scale * v if k.endswith("_s") else v for k, v in out.items()}
    query = {(r.round, r.key): r.seconds for r in traced if not r.in_process}
    main = {(r.round, r.key): r.seconds for r in traced if r.kind == "main"}
    gaps = [query[k] - main[k] for k in query if k in main]
    out["cli.startup_s"] = statistics.median(gaps) if gaps else 0.0
    base = sum(r.seconds for r in untraced if r.in_process)
    with_spans = sum(r.seconds for r in traced if r.in_process)
    out["trace.overhead_pct"] = 100.0 * (with_spans - base) / base
    return out


def provenance(name: str, seed: int, seconds: float, traced: int, root: str) -> dict:
    import numpy
    import scipy

    import pabi

    commit = None  # stays None outside a git checkout
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             None)
    except OSError:
        pass
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pabi": pabi.__version__,
        "PABI_THREADS": os.environ.get("PABI_THREADS"),
    }


def run_benchmark(name: str, seed: int, seconds: float, traced: int, root: str, size=None,
                  golden=None, setup_repeats: int = SETUP_REPEATS) -> dict:
    session = Session()
    setup_s = None if traced else measure_setup(session, name, seed, root, setup_repeats)
    workload, golden = setup(name, seed, root, size, golden, bool(traced))
    session.workload, session.golden = workload, golden
    # The benchmark's own long-lived objects (records, inputs) stay out of
    # the collector's way, so pabi's allocations pay only for themselves.
    gc.freeze()
    import spans as tracing

    tracer = None
    if not traced:
        records = session.run_timed(seconds)
        metrics = end_to_end(workload, records, setup_s)
        names = named(workload, records, metrics, session)
    else:
        tracer = tracing.Tracer()
        untraced, records = session.run_traced(tracer)
        workload.tracer = tracer
        probes = [session.execute(op, TRACE_ROUNDS, tracer) for op in workload.probes()]
        metrics = per_layer(tracer, untraced, records, root, session)
        records = untraced + records + probes
        names = {"calibration_s": statistics.median(session.cal)}
    failed = sum(not r.ok for r in records)
    return {
        "provenance": provenance(name, seed, seconds, traced, root),
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "named": names,
        "records": [[r.round, r.kind, r.key, r.seconds, r.ok] for r in records],
        "spans": tracer.finished() if tracer else None,
        "counts": tracer.counts if tracer else None,
    }


def declared_metrics(root: str, traced: int) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def final_line(result: dict, units: dict) -> dict:
    """The final result line: every declared metric with its unit."""
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return {**{k: result[k] for k in ("correct", "attempted", "failed")}, "metrics": metrics}


def write_outputs(result: dict) -> None:
    prov = result["provenance"]
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{prov['workload']}_seed{prov['seed']}_trace{prov['trace']}"
    summary = {k: v for k, v in result.items() if k not in ("spans", "counts")}
    with open(os.path.join(out_dir, f"BENCH_{stem}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    if result["spans"] is not None:
        with open(os.path.join(out_dir, f"spans_{stem}.json"), "w") as fh:
            json.dump({"provenance": prov, "counts": result["counts"], "spans": result["spans"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "certify", "witness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not sources_present(root):
        print("perfbench: no pabi sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace, root)
    write_outputs(result)
    print("provenance " + json.dumps(result["provenance"]))
    for name, value in result["named"].items():
        print(f"named {name} {value!r}")
    final = final_line(result, units)
    for name, metric in final["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
