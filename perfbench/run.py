#!/usr/bin/env python3
"""Benchmark of the Non-Tree Routing library, its LDRG loop and ntr_serve.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first run builds the library, ntr_serve and the harness (a separate
CMake project in this directory) into .bench_build/perfbench. Each run
generates its inputs from --seed, does a fixed amount of work sized by
--seconds (never stopped by a clock), checks every output, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}. --trace 0
prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the same
work again with spans recorded at the library boundaries and prints the
per-layer metrics, writing the spans to .bench_build/perfbench/traces/.

--self-test runs a tiny configuration of every workload twice and checks
that counts and quality metrics repeat exactly, that every metric in
BENCHMARK.json is printed with its unit, that no two metrics print the
same fractional number, and that BENCHMARK.json records why each workload
exists and which layers move which end-to-end metrics.
"""

import argparse
import fcntl
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "ntr_perfbench"
SERVER = BUILD / "ntr" / "tools" / "ntr_serve"


def run_timeout_s(seconds):
    """Limit on one harness run. A traced run does the timed work twice,
    plus replays and checks, so the limit grows with --seconds; the floor
    keeps a hung run of the configured length within three minutes."""
    return max(170.0, 8.0 * seconds)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness and ntr_serve; build output
    goes to stderr so stdout stays the result line."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                        "ntr_perfbench", "ntr_serve_cli"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_harness(workload, seed, seconds, trace):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--serve-bin", str(SERVER)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    # Own process group: on a timeout the harness and the ntr_serve it
    # started are killed together and reaped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    timeout = run_timeout_s(seconds)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"harness ran longer than {timeout:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-1])


def validate(result, spec, trace):
    """The result must carry exactly the metrics BENCHMARK.json names for
    this mode, each with its unit and a finite value."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {missing}, extra {extra}")
    for name, metric in got.items():
        if metric.get("unit") != wanted[name]:
            raise RuntimeError(f"{name}: unit {metric.get('unit')!r}, "
                               f"BENCHMARK.json says {wanted[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"{name}: value {value!r} is not a finite number")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            raise RuntimeError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise RuntimeError("attempted no operation")


def repeated_equal_values(metrics):
    """Pairs of metric names printing the same fractional value. Two
    measurements agreeing to every digit means one number was printed
    twice; whole-number counts may agree by chance and are skipped."""
    by_value = {}
    for name, m in metrics.items():
        if m["value"] != int(m["value"]):
            by_value.setdefault(m["value"], []).append(name)
    return [(a, b) for names in by_value.values()
            for i, a in enumerate(names) for b in names[i + 1:]]


def self_test(spec):
    """Tiny runs of every workload, twice per mode; returns failures."""
    failures = []
    layers = sorted({m["name"].split(".")[0] for m in spec["per_layer"]} - {"trace"})
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    whys = [w["why"] for w in spec["workloads"]]
    for layer in layers:
        if not any(re.search(rf"\b{layer}\b", why) for why in whys):
            failures.append(f"no workload's why names layer {layer!r}")
    for w in spec["workloads"]:
        if not any(name in w["why"] for name in e2e_names):
            failures.append(f"{w['name']}: why names no end-to-end metric")
    exact_units = {"count", "ratio"}
    exact_names = {"core.pruned_share", "flow.wns_gain_ps"}
    for w in spec["workloads"]:
        for trace in (False, True):
            runs = []
            for _ in range(2):
                try:
                    r = run_harness(w["name"], 7, 0.5, trace)
                    validate(r, spec, trace)
                except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
                    failures.append(f"{w['name']} trace={int(trace)}: {e}")
                    break
                if not r["correct"] or r["failed"]:
                    failures.append(f"{w['name']} trace={int(trace)}: "
                                    f"{r['failed']} of {r['attempted']} operations failed")
                for a, b in repeated_equal_values(r["metrics"]):
                    failures.append(f"{w['name']}: {a} and {b} print the same number")
                runs.append(r)
            if len(runs) < 2:
                continue
            for name, m in runs[0]["metrics"].items():
                if m["unit"] in exact_units or name in exact_names:
                    if m["value"] != runs[1]["metrics"][name]["value"]:
                        failures.append(f"{w['name']}: {name} did not repeat "
                                        f"({m['value']} vs {runs[1]['metrics'][name]['value']})")
            log(f"self-test {w['name']} trace={int(trace)} done")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not args.self_test and args.workload not in names:
            raise RuntimeError(f"--workload must be one of {names}")
        build()
        if args.self_test:
            failures = self_test(spec)
            for f in failures:
                log(f"self-test FAILED: {f}")
            if failures:
                return 1
            log("self-test ok")
            return 0
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        result = run_harness(args.workload, args.seed, seconds, bool(args.trace))
        validate(result, spec, bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
