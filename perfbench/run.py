#!/usr/bin/env python3
"""The repository benchmark: builds hadad and its workload runner from this
checkout, runs one workload, checks its results and prints its metrics.

    python3 perfbench/run.py --workload mixed_rw --seed 7 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload again
with one span per public call and prints the per-layer metrics. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The raw run document (header, latencies, spans) is kept under
<build dir>/runs/. Exits non-zero, without a result line, when the build or
the run fails, and with a result line but non-zero when any result is wrong
or a traced run's spans leave more than 5% of request time unattributed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["cold_plan", "mixed_rw", "factorized"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the benchmark's build directory when set.
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build():
    """Configures and builds the workload runner (both no-ops when up to date);
    returns its path."""
    out = build_dir() / "perfbench"
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return out / "hadad_perfbench"


def source_digest():
    """sha256 over the library sources and build files, so runs of
    different code never compare silently (the checkout may lack git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    try:
        subprocess.run([str(binary), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", str(out),
                        "--commit", commit()],
                       check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        doc = json.loads(out.read_text())
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: run failed: {e}")
        return 2

    header = dict(doc["header"], source_sha256=source_digest())
    print("run header: " + json.dumps(header, sort_keys=True))
    if not header["optimized"]:
        warning = ("WARNING: NOT AN OPTIMIZED BUILD (" + header["build_type"] +
                   ") -- these numbers are not comparable to optimized runs")
        print(warning)
        log(warning)
    for failure in doc["failures"]:
        log("FAILED: " + failure)

    try:
        result = metrics.result_line(doc, trace=bool(args.trace))
    except metrics.TooFewSamples as e:
        log(f"perfbench: run too short to report every metric: {e}")
        return 2
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print(f"  spans written to {out}")
        unattributed = result["metrics"]["trace.unattributed_ratio"]["value"]
        if unattributed > metrics.MAX_UNATTRIBUTED:
            log(f"FAILED: trace.unattributed_ratio {unattributed:.4f} is above "
                f"{metrics.MAX_UNATTRIBUTED}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
