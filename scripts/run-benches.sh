#!/usr/bin/env bash
# Run the kernel-facing benchmarks and write the machine-readable perf
# trajectory point BENCH_core.json: micro_core + micro_control
# (google-benchmark) plus the fixed-seed 400-node scenario-throughput macro
# bench (events/sec, wall time, peak RSS).
#
# Usage:
#   scripts/run-benches.sh [build-dir] [out.json]
#   scripts/run-benches.sh --compare [build-dir] [baseline.json]
#
# --compare runs the benches into a temporary file (the baseline is NOT
# appended to) and diffs the fresh numbers against the most recent committed
# trajectory entry with the SAME workload shape — matching nodes, seed,
# sim_seconds, shards and sub-shard split — in the baseline (default:
# BENCH_core.json), so pinned large-fleet, sharded or sub-sharded entries
# never get diffed against the stock
# 400-node run. Any tracked micro bench more than 25% slower, scenario
# throughput more than 25% lower, or bytes_per_node more than 25% higher,
# makes the script exit non-zero. Intended as an informational CI gate —
# shared runners are noisy, so treat failures as a prompt to re-measure, not
# as ground truth.
#
# Environment:
#   LABEL     trajectory label (default: current git short sha)
#   MIN_TIME  google-benchmark --benchmark_min_time, as a plain double in
#             seconds — older libbenchmark rejects the "0.05s" spelling
#             (default: 0.05)
#   NODES     scenario size (default: 400)
#   SIM_SECS  simulated seconds to run (default: 60)
#   SEED      scenario seed (default: 7)
#   SHARDS    0 = legacy single kernel; N >= 1 = region-sharded mode with N
#             worker threads (default: 0)
#   SUB_SHARDS       sharded mode: kernels per data region (default: 1)
#   EDGE_SUB_SHARDS  sharded mode: kernels at the app edge (default: 1)
#   RECORD_MS        telemetry sampling cadence in ms of sim time; 0 = off
#                    (default: 0). Recording is observation-only: the digest
#                    gate above holds with it on or off.
#   SLO              SLO spec path (see obs/slo.hpp). Violations make the
#                    bench exit non-zero and the trajectory entry records
#                    slo_pass=false (default: none)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)

compare=0
if [[ "${1:-}" == "--compare" ]]; then
  compare=1
  shift
fi

build_dir=${1:-"$repo_root/build"}
if [[ $compare -eq 1 ]]; then
  baseline=${2:-"$repo_root/BENCH_core.json"}
  out=$(mktemp /tmp/bench-compare-XXXXXX.json)
  trap 'rm -f "$out"' EXIT
else
  out=${2:-"$repo_root/BENCH_core.json"}
fi
label=${LABEL:-$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo local)}
min_time=${MIN_TIME:-0.05}
nodes=${NODES:-400}
sim_secs=${SIM_SECS:-60}
seed=${SEED:-7}
shards=${SHARDS:-0}
sub_shards=${SUB_SHARDS:-1}
edge_sub_shards=${EDGE_SUB_SHARDS:-1}
record_ms=${RECORD_MS:-0}
slo=${SLO:-}

cmake --build "$build_dir" -j --target micro_core micro_control micro_gossip \
  micro_sharded scenario_throughput

run_micro() {
  local bench_bin=$1 out_json=$2
  "$bench_bin" \
    --benchmark_min_time="$min_time" \
    --benchmark_format=console \
    --benchmark_out_format=json \
    --benchmark_out="$out_json"
}

micro_core_json="$build_dir/micro_core_results.json"
micro_control_json="$build_dir/micro_control_results.json"
micro_gossip_json="$build_dir/micro_gossip_results.json"
micro_sharded_json="$build_dir/micro_sharded_results.json"
run_micro "$build_dir/bench/micro_core" "$micro_core_json"
run_micro "$build_dir/bench/micro_control" "$micro_control_json"
run_micro "$build_dir/bench/micro_gossip" "$micro_gossip_json"
run_micro "$build_dir/bench/micro_sharded" "$micro_sharded_json"

# Fold the suites into one google-benchmark-shaped document for
# scenario_throughput's --micro ingestion.
micro_json="$build_dir/micro_combined_results.json"
python3 - "$micro_core_json" "$micro_control_json" "$micro_gossip_json" \
    "$micro_sharded_json" "$micro_json" <<'PY'
import json, sys
inputs, out = sys.argv[1:-1], sys.argv[-1]
doc = json.load(open(inputs[0]))
for path in inputs[1:]:
    doc["benchmarks"] = doc.get("benchmarks", []) + \
        json.load(open(path)).get("benchmarks", [])
json.dump(doc, open(out, "w"), indent=1)
PY

append_args=()
if [[ $compare -eq 0 && -f "$out" ]]; then
  append_args=(--append "$out")
fi
shard_args=()
if [[ "$shards" -gt 0 ]]; then
  shard_args=(--shards "$shards")
  if [[ "$sub_shards" -ne 1 ]]; then
    shard_args+=(--sub-shards "$sub_shards")
  fi
  if [[ "$edge_sub_shards" -ne 1 ]]; then
    shard_args+=(--edge-sub-shards "$edge_sub_shards")
  fi
fi
telemetry_args=()
if [[ "$record_ms" -gt 0 ]]; then
  telemetry_args+=(--record-ms "$record_ms")
fi
if [[ -n "$slo" ]]; then
  telemetry_args+=(--slo "$slo")
fi
"$build_dir/bench/scenario_throughput" \
  --nodes "$nodes" --sim-seconds "$sim_secs" --seed "$seed" \
  --micro "$micro_json" --label "$label" \
  "${append_args[@]}" "${shard_args[@]}" "${telemetry_args[@]}" --out "$out"

if [[ $compare -eq 1 ]]; then
  python3 - "$baseline" "$out" <<'PY'
import json, sys

THRESHOLD = 0.25  # fractional regression that fails the check

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
trajectory = json.load(open(baseline_path))["trajectory"]
fresh = json.load(open(fresh_path))["trajectory"][-1]


def shape(entry):
    """Workload identity of a trajectory entry; compare only like-for-like.

    The sub-shard split is part of the shape: a 100k-node sub-sharded run has
    different windows, kernels and rng layout than an unsplit one, so gating
    one against the other would be meaningless.

    The last two keys are historical: older entries were measured with the
    since-removed per-edge window scheduler or message-routed store. Fresh
    runs never carry them, so reading them here keeps those entries from
    ever gating a global-window run.
    """
    return (entry.get("nodes"), entry.get("seed"), entry.get("sim_seconds"),
            entry.get("shards", 0), entry.get("sub_shards", 1),
            entry.get("edge_sub_shards", 1),
            entry.get("per_edge_windows", False),
            entry.get("async_store", False))


matching = [e for e in trajectory if shape(e) == shape(fresh)]
if not matching:
    print(f"no baseline entry in {baseline_path} matches workload shape "
          f"{shape(fresh)} (see shape()); nothing to compare")
    sys.exit(0)
baseline = matching[-1]

failures = []

base_micro = baseline.get("micro", {})
fresh_micro = fresh.get("micro", {})
for name, entry in sorted(base_micro.items()):
    if name not in fresh_micro:
        continue  # bench renamed/removed; nothing to compare
    old = entry.get("real_time_ns")
    new = fresh_micro[name].get("real_time_ns")
    if not old or not new:
        continue
    ratio = new / old
    marker = " <-- REGRESSION" if ratio > 1 + THRESHOLD else ""
    print(f"{name:40s} {old:14.1f} ns -> {new:14.1f} ns  ({ratio:5.2f}x){marker}")
    if ratio > 1 + THRESHOLD:
        failures.append(name)

old_eps = baseline.get("events_per_sec")
new_eps = fresh.get("events_per_sec")
if old_eps and new_eps:
    ratio = new_eps / old_eps
    marker = " <-- REGRESSION" if ratio < 1 - THRESHOLD else ""
    print(f"{'scenario events/sec':40s} {old_eps:14.1f}    -> {new_eps:14.1f}     "
          f"({ratio:5.2f}x){marker}")
    if ratio < 1 - THRESHOLD:
        failures.append("scenario_throughput")

old_bpn = baseline.get("bytes_per_node")
new_bpn = fresh.get("bytes_per_node")
if old_bpn and new_bpn:
    ratio = new_bpn / old_bpn
    marker = " <-- REGRESSION" if ratio > 1 + THRESHOLD else ""
    print(f"{'scenario bytes/node':40s} {old_bpn:14.1f}    -> {new_bpn:14.1f}     "
          f"({ratio:5.2f}x){marker}")
    if ratio > 1 + THRESHOLD:
        failures.append("bytes_per_node")

if baseline.get("digest") and fresh.get("digest") and \
        baseline["digest"] != fresh["digest"]:
    print(f"scenario digest changed: {baseline['digest']} -> {fresh['digest']}")
    failures.append("scenario_digest")

if failures:
    print(f"\nFAIL: {len(failures)} regression(s) vs {baseline_path}: "
          + ", ".join(failures))
    sys.exit(1)
print(f"\nOK: no bench regressed more than {int(THRESHOLD * 100)}% vs "
      f"{baseline_path}")
PY
fi
