#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The program and the benchmark are built with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use. The last
line of standard output is the JSON result; its metrics are checked against
BENCHMARK.json before it is printed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gate_calm", "gate_overcommit", "service_adversarial", "sim_table2")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}", 2)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}", 2)
    return build_dir


def check_result(line, trace, spec):
    """Validates the binary's result line against BENCHMARK.json; fills the
    per-layer metrics a workload does not exercise with 0."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in wanted:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric.get("unit") != wanted[name]:
            fail(f"metric {name} unit {metric.get('unit')} != {wanted[name]}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} value {value!r} is not a finite number")
        if not trace and value == 0:
            fail(f"end-to-end metric {name} is 0")
    missing = [n for n in wanted if n not in metrics]
    if missing and not trace:
        fail(f"missing end-to-end metrics {missing}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": wanted[name]}
    result["metrics"] = {n: metrics[n] for n in wanted}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("perfbench_test")
        code, _ = run([str(build_dir / "perfbench_test")], RUN_TIMEOUT_S)
        sys.exit(code)
    if args.workload is None:
        fail("--workload is required", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = build("perfbench")
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    code, out = run([str(build_dir / "perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace", str(args.trace),
                     "--trace-dir", str(trace_dir)],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    result_line = next((l for l in reversed(lines) if l.startswith("{")), None)
    for line in lines:
        if line is not result_line:
            print(line)
    sys.stdout.flush()
    if result_line is None:
        fail(f"no result line (exit code {code})")
    result = check_result(result_line, args.trace == 1, spec)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        fail(f"a correctness check failed (exit code {code})")


if __name__ == "__main__":
    main()
