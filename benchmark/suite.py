#!/usr/bin/env python3
"""Run the whole benchmark suite and summarise it.

For every workload in BENCHMARK.json: one untraced run per seed (default
seed 7 five times), each reporting every end-to-end metric, then one traced
run for the per-layer metrics. Prints median, q1, q3, min and max per metric
and writes everything to a results file that benchmark/compare.py reads.

Checks (any failure exits 1):
  - every run exits 0 and reports correct=true;
  - every run reports exactly the metric names and units in BENCHMARK.json;
  - runs with the same seed report the same event digest and identical
    simulated-time metrics (only the host metrics may differ).

Normally started through benchmark/run.sh, which builds the driver first.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Host metrics measure this machine; every other end-to-end metric is
# simulated and must repeat exactly for a seed.
HOST_METRICS = {"setup_s", "run_cal_s", "peak_heap_mb", "bytes_per_node"}
RUN_TIMEOUT_S = 180


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    """Median, q1, q3, min and max (statistics.quantiles' default method)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def run_once(binary, workload, seed, seconds, trace, smoke):
    """One driver run; returns (result dict, digest string, error or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {RUN_TIMEOUT_S} s"
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, None, f"exit {proc.returncode}, no result line"
    match = re.search(r"digest=(\d+)", proc.stderr)
    digest = match.group(1) if match else None
    if proc.returncode != 0 or not result.get("correct"):
        return result, digest, f"exit {proc.returncode}, correct={result.get('correct')}"
    return result, digest, None


def check_metrics(result, expected, label, errors):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        errors.append(f"{label}: metrics differ from BENCHMARK.json "
                      f"(missing {missing}, extra {extra}, wrong units {wrong})")


def machine_shape(binary):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal"):
            mem_kb = int(line.split()[1])
    cache = {}
    cache_file = Path(binary).parent / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "ram_gb": round(mem_kb / 1024 / 1024, 1), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "kernel": platform.release(), "git_sha": sha or "unknown"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", required=True, help="focusbench binary")
    parser.add_argument("--out", default=str(ROOT / "build" / "benchmark" / "results.json"))
    parser.add_argument("--seeds", default="7,7,7,7,7",
                        help="comma-separated seeds, one untraced run each; "
                        "the traced run uses the first")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload once at 1/10 of its window")
    args = parser.parse_args()

    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.smoke:
        seeds = seeds[:1]
    seconds = spec["run_seconds"]

    started = time.time()
    errors = []
    doc = {"schema": "focusbench-results-v1", "machine": machine_shape(args.bin),
           "run_seconds": seconds, "seeds": seeds, "smoke": args.smoke,
           "workloads": {}}
    for workload in workloads:
        runs, digests = [], {}
        for i, seed in enumerate(seeds):
            label = f"{workload} seed {seed} run {i + 1}"
            result, digest, error = run_once(args.bin, workload, seed, seconds,
                                             False, args.smoke)
            if error:
                errors.append(f"{label}: {error}")
            if result is None:
                continue
            check_metrics(result, e2e_units, label, errors)
            values = {n: m["value"] for n, m in result["metrics"].items()}
            values["seed"] = seed
            runs.append(values)
            digests.setdefault(seed, []).append((digest, values))
        for seed, seen in digests.items():
            first_digest, first = seen[0]
            for digest, values in seen[1:]:
                if digest != first_digest:
                    errors.append(f"{workload} seed {seed}: digest {digest} != {first_digest}")
                for name in e2e_units.keys() - HOST_METRICS:
                    if values.get(name) != first.get(name):
                        errors.append(f"{workload} seed {seed}: simulated metric "
                                      f"{name} differs between runs")
        entry = {"digests": {str(s): seen[0][0] for s, seen in digests.items()},
                 "runs": runs, "summary": {}, "per_layer": {}}
        for name, unit in e2e_units.items():
            values = [r[name] for r in runs if name in r]
            if values:
                entry["summary"][name] = {"unit": unit, **quartiles(values)}
        if not args.smoke:
            result, digest, error = run_once(args.bin, workload, seeds[0], seconds,
                                             True, False)
            label = f"{workload} traced"
            if error:
                errors.append(f"{label}: {error}")
            if result is not None:
                check_metrics(result, layer_units, label, errors)
                entry["per_layer"] = result["metrics"]
                if digest != entry["digests"].get(str(seeds[0])):
                    errors.append(f"{label}: digest {digest} differs from the untraced runs")
        doc["workloads"][workload] = entry
        print_workload(workload, entry)

    doc["errors"] = errors
    doc["elapsed_s"] = round(time.time() - started, 1)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out} ({doc['elapsed_s']} s)")
    for error in errors:
        print(f"FAILED: {error}")
    return 1 if errors else 0


def print_workload(workload, entry):
    print(f"== {workload} (digests {sorted(set(entry['digests'].values()))})")
    print(f"  {'metric':26s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s}")
    for name, s in entry["summary"].items():
        print(f"  {name:26s} {s['unit']:6s} " + " ".join(
            f"{s[k]:12.6g}" for k in ("median", "q1", "q3", "min", "max")))
    if entry["per_layer"]:
        print("  per-layer (traced run):")
        for name, m in entry["per_layer"].items():
            print(f"    {name:36s} {m['value']:14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
