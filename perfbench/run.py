"""peaksched benchmark: one workload, timed end to end, answers checked.

Run from the repository root:

    python3 perfbench/run.py --workload compare-year --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``compare-year``, ``sweep-ramp``, ``verify-full`` and ``montecarlo``.  The
seed generates the inputs; the program sees only the generated files and
values.  Every pass runs in this one process and thread: the first pass
warms up untimed, then passes repeat while the next one is expected to end
within ``--seconds`` (at least three), and the median pass is reported.

Times are reported at the reference speed: a fixed piece of work
(``reference_seconds``) is timed before and after every pass, and a fresh
interpreter importing standard-library modules before and after every
set-up repeat, and the measured time is scaled by the reference's nominal
time over the mean of the two.  On a shared host the speed given to this process drifts
by tens of percent between runs; the scaled times drift far less.  The
measured times are printed and kept in the run summary too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s`` and ``wall_ref_s`` at the reference speed, ``peak_rss_mb``).
With ``--trace 1`` untraced and traced passes alternate, and it carries the
per-layer metrics of the traced passes plus ``trace_overhead_frac``.  A run
summary (machine, every pass time, and for traced runs each pass's per-span
and per-layer self times) and every traced span are written under
``.perfbench-out/``.  Failures (cell errors, non-zero exit codes, failed
checks, a missed Monte Carlo gate, fingerprint mismatches) are counted in
``failed``; the run's ``error_frac`` is ``failed / attempted``.
"""
import os

# Pin native thread pools before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PINS = BENCH_DIR / "fingerprints.json"

SETUP_REPEATS = 11
MIN_PASSES = 3
# Median of reference_seconds() on the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one thread).
REFERENCE_S = 0.026
# The reference runs after each measured interval for this share of its time:
# the host's speed changes within a second, so a short reference samples it
# too thinly to stand for a pass of several seconds.
REFERENCE_SHARE = 0.2
# Set-up is mostly a fresh interpreter importing modules, which the host
# slows in its own way, so its reference is a fresh interpreter importing
# standard-library modules: start-up, file reads, unmarshalling and module
# bodies, none of it peaksched's.
SETUP_REFERENCE = "import argparse, csv, dataclasses, decimal, email.message, http.client, json, statistics, xml.dom.minidom"
# Median of fresh_import_seconds(SETUP_REFERENCE) on the same machine.
SETUP_REFERENCE_S = 0.055


def reference_seconds(budget: float) -> float:
    """Mean wall seconds of one round of a fixed piece of work that does not
    touch peaksched, repeated until ``budget`` seconds have passed (at least
    once).  A round holds the three kinds of work the workloads spend their
    time in: scalar math in the interpreter (the quadrature), dict updates
    in the interpreter (the per-call bookkeeping and the ramp DP) and numpy
    on year-long arrays (the layer runs).  Timed right before and after a
    pass, it slows down with the pass when the host does, so a pass's time
    over the reference's tracks the program rather than the host.
    """
    rounds = 0
    started = time.perf_counter()
    while True:
        total = 0.0
        for i in range(1, 40_000):
            x = i * 1e-4
            total += math.exp(-x) * math.log1p(x) / (1 + x * x)
        table: dict[int, int] = {}
        for i in range(60_000):
            table[i % 997] = table.get(i % 997, 0) + i * i % 7
        year = np.random.default_rng(0).random(8760)
        for _ in range(60):
            year = np.sort(year + np.cumsum(np.minimum(year, 0.5)) * 1e-9)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= budget:
            return elapsed / rounds


def fresh_import_seconds(statement: str) -> float:
    """Seconds a fresh interpreter takes to run the import ``statement``,
    as timed inside it."""
    probe = subprocess.run(
        [sys.executable, "-c", f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout)


def at_reference(seconds: float, before: float, after: float, nominal: float = REFERENCE_S) -> float:
    """``seconds`` measured between reference timings ``before`` and
    ``after``, scaled to the reference speed ``nominal``."""
    return seconds * nominal / ((before + after) / 2)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(workload, seed: int, work: Path) -> tuple[list[float], list[float], dict]:
    """Seconds of a fresh interpreter's ``import peaksched`` plus generating
    and writing the workload's inputs, once per repeat, as measured and at
    the set-up reference speed."""
    measured, scaled = [], []
    inputs = None
    before = fresh_import_seconds(SETUP_REFERENCE)
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds("import peaksched")
        started = time.perf_counter()
        inputs = workload.make_inputs(seed, work / "inputs")
        measured.append(imported + time.perf_counter() - started)
        after = fresh_import_seconds(SETUP_REFERENCE)
        scaled.append(at_reference(measured[-1], before, after, SETUP_REFERENCE_S))
        before = after
    return measured, scaled, inputs


def run_passes(workload, inputs: dict, out: Path, seconds: float, tracer=None):
    """One untimed warm-up pass, then timed passes while the next one is
    expected to end within ``seconds`` (at least ``MIN_PASSES``); with a
    tracer every untraced pass is followed by a traced one.  Reference
    timings follow the warm-up and every pass, so each timed pass sits
    between two and gets its ``reference_s`` time."""
    warmup = workload.run_pass(inputs, out)
    untraced, traced = [], []
    refs = [reference_seconds(REFERENCE_SHARE * warmup.seconds)]

    def timed(result):
        refs.append(reference_seconds(REFERENCE_SHARE * result.seconds))
        result.reference_s = at_reference(result.seconds, refs[-2], refs[-1])
        return result

    started = last = time.perf_counter()
    step = 0.0
    while len(untraced) < MIN_PASSES or last - started + step <= seconds:
        untraced.append(timed(workload.run_pass(inputs, out)))
        if tracer is not None:
            with tracer.traced_pass():
                result = workload.run_pass(inputs, out)
            tracer.pass_walls.append(result.seconds)
            traced.append(timed(result))
        now = time.perf_counter()
        step, last = now - last, now
    return warmup, untraced, traced, refs


def tally(workload, inputs: dict, passes: list, pinned: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over every pass, and what went wrong.

    Each pass adds its cells (or checks, or runs) and its exit code, plus
    one fingerprint comparison: against the pinned fingerprint when the
    seed is pinned, else against the warm-up pass (reports are
    byte-identical for a fixed seed).
    """
    reference = pinned if pinned is not None else passes[0].fingerprint
    attempted, failed, problems = 0, 0, []
    for result in passes:
        attempted += result.attempted + 1
        failed += result.failed
        problems.extend(result.problems)
        if result.fingerprint != reference:
            failed += 1
            problems.append(f"fingerprint {result.fingerprint} differs from {reference}")
    invariants = workload.check(inputs, passes[0])
    attempted += 1
    failed += bool(invariants)
    problems.extend(invariants)
    return attempted, failed, sorted(set(problems))


def highest_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    return int(100 * (n - 10) / n) if n >= 20 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "peaksched" / "__init__.py").is_file():
        print(f"error: no peaksched sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, fingerprint_key

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text())
    pinned = pins["workloads"].get(workload.name, {}).get(fingerprint_key(workload, args.seed))

    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_measured, setup_scaled, inputs = measure_setup(workload, args.seed, work)
    setup_s = statistics.median(setup_scaled)
    tracer = Tracer() if args.trace else None
    warmup, untraced, traced, refs = run_passes(workload, inputs, work / "out", args.seconds, tracer)
    attempted, failed, problems = tally(workload, inputs, [warmup, *untraced, *traced], pinned)
    walls = [r.seconds for r in untraced]
    scaled = [r.reference_s for r in untraced]
    wall_ref_s = statistics.median(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    info = machine_info()
    pct = highest_percentile(len(walls))

    def spread(values: list[float]) -> str:
        values = sorted(values)
        tail = f"; p{pct} {values[int(len(values) * pct / 100)]:.4f} s" if pct else "; too few for a tail percentile"
        return f"median of {len(values)} passes{tail}"

    print(f"peaksched benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} numpy={info['numpy']} "
          f"threads={info['threads']}")
    print(f"setup_s      {setup_s:.4f} s   (median of {SETUP_REPEATS} imports + input generations at the set-up "
          f"reference speed; as measured {statistics.median(setup_measured):.4f} s)")
    print(f"wall_ref_s   {wall_ref_s:.4f} s   ({spread(scaled)}; at the reference speed, {REFERENCE_S} s a reference round)")
    print(f"wall_s       {statistics.median(walls):.4f} s   ({spread(walls)}; as measured, not gated)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"error_frac   {failed}/{attempted} = {failed / attempted:.3g}  "
          f"(fingerprint {'pinned' if pinned is not None else 'not pinned for this seed; passes compared'})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    summary = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "machine": info,
        "reference_s": REFERENCE_S, "reference_measured_s": refs, "setup_s": setup_measured, "setup_ref_s": setup_scaled,
        "wall_s": walls, "wall_ref_s": scaled, "attempted": attempted, "failed": failed, "problems": problems,
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref_s": {"value": wall_ref_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        summary["passes"] = tracer.pass_tables()
        per_pass = [layer_metrics(table) for table in summary["passes"]]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": PER_LAYER[name][0]}
            for name in per_pass[0]
        }
        summary["traced_wall_ref_s"] = [r.reference_s for r in traced]
        traced_wall = statistics.median(summary["traced_wall_ref_s"])
        metrics["trace_overhead_frac"] = {"value": traced_wall / wall_ref_s - 1,
                                          "unit": PER_LAYER["trace_overhead_frac"][0]}
        tracer.write(work / "spans.npz")
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    summary["metrics"] = metrics
    (work / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"run summary{' with per-pass spans and per-layer self times' if tracer else ''}: {work / 'summary.json'}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
