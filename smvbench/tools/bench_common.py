"""What check_manifest.py and selftest.py share: reading BENCHMARK.json and
running the benchmark the way the driver does."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_manifest():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_benchmark(manifest, workload, seed, seconds, trace):
    """One run, from the repository root. Returns the result object printed
    on the last line of standard output; raises if the run breaks the
    contract (non-zero exit, no result line)."""
    command = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: result has keys {sorted(result)}")
    return result
