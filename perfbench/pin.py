"""Pin the benchmark's answer fingerprints for a set of seeds.

    python3 perfbench/pin.py 0-31 7331

Runs one pass of every workload per seed on the code in ``src/``, refuses
to pin a pass that fails its own checks, and writes the fingerprints to
``perfbench/fingerprints.json`` (keeping the seeds already pinned).  Pin on
a commit whose answers are trusted; a later change that alters any pinned
answer then shows up as failed operations in ``run.py``.
"""
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import WORKLOADS, fingerprint_key  # noqa: E402

PINS = BENCH_DIR / "fingerprints.json"


def parse_seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    pins = json.loads(PINS.read_text())
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        for workload in WORKLOADS.values():
            table = pins["workloads"].setdefault(workload.name, {})
            for seed in parse_seeds(argv):
                key = fingerprint_key(workload, seed)
                if key in table:
                    continue
                work = Path(tmp) / f"{workload.name}-{seed}"
                inputs = workload.make_inputs(seed, work / "inputs")
                result = workload.run_pass(inputs, work / "out")
                problems = result.problems + workload.check(inputs, result)
                if result.failed or problems:
                    print(f"{workload.name} seed {seed}: not pinned: {problems}", file=sys.stderr)
                    return 1
                table[key] = result.fingerprint
                print(f"{workload.name} seed {seed}: {result.seconds:.2f} s pinned", flush=True)
                PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
