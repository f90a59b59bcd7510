#!/usr/bin/env sh
# Runs the performance benchmarks and records the numbers that the perf
# trajectory tracks (see DESIGN.md "Parallel mining & G² fast path",
# "§3c Serving architecture", and "§3f Batched CI testing").
#
#   tools/run_bench.sh [build-dir] [mining-json] [serving-json]
#
# Defaults: build-dir = build, mining-json = BENCH_mining.json,
# serving-json = BENCH_serving.json (repo root). Each JSON is
# google-benchmark's --benchmark_format=json output: the TemporalPC
# mining benchmarks (device sweep, thread sweep, G² kernel and batched-CI
# micro-benchmarks) and the DetectionService throughput sweep.
#
# When the mining JSON already exists (the committed baseline), the new
# file gains a top-level "baseline_delta" section mapping each benchmark
# name to new_real_time / baseline_real_time, and the ratios are printed —
# < 1.0 is a speedup over the committed numbers.
set -eu

build_dir="${1:-build}"
mining_json="${2:-BENCH_mining.json}"
serving_json="${3:-BENCH_serving.json}"
mining_bin="$build_dir/bench/bench_complexity"
serving_bin="$build_dir/bench/bench_serving_throughput"
ingestion_bin="$build_dir/bench/bench_ingestion"
fleet_bin="$build_dir/bench/bench_fleet_memory"

for bench_bin in "$mining_bin" "$serving_bin" "$ingestion_bin" "$fleet_bin"; do
  if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not built (cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
    exit 1
  fi
done

baseline_json=""
if [ -f "$mining_json" ]; then
  baseline_json="$(mktemp)"
  cp "$mining_json" "$baseline_json"
fi

# BM_TrainStages carries the per-stage span totals (mine_ns / cpt_ns /
# threshold_ns / tpc_level_ns counters) from the obs tracer. The
# BM_*CI_simd_<backend> variants record the per-backend kernel ratios.
"$mining_bin" \
  --benchmark_filter='BM_TemporalPCMining|BM_GSquareTest|BM_TrainStages|BM_BatchedCI|BM_PerSubsetCI' \
  --benchmark_out="$mining_json" \
  --benchmark_out_format=json

echo "wrote $mining_json"

# Stamp SIMD provenance (chosen backend + the host's vector CPU flags)
# into the JSON, then — when a committed baseline exists AND it ran on
# the same backend — append the baseline_delta section. A baseline from
# a different backend (or one predating provenance) is skipped: a
# scalar-vs-avx512 ratio measures the hardware, not the change.
python3 - "$mining_json" ${baseline_json:+"$baseline_json"} <<'PY'
import json
import re
import sys

new_path = sys.argv[1]
baseline_path = sys.argv[2] if len(sys.argv) > 2 else None
with open(new_path) as f:
    fresh = json.load(f)

backend = fresh.get("context", {}).get("simd_backend", "unknown")
cpu_flags = []
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith(("flags", "Features")):
                cpu_flags = sorted(
                    t for t in line.split(":", 1)[1].split()
                    if re.match(r"^(avx|popcnt|asimd|neon)", t))
                break
except OSError:
    pass
fresh["simd"] = {"backend": backend, "host_cpu_flags": cpu_flags}
print("simd backend: %s (host flags: %s)" % (backend, " ".join(cpu_flags)))

if baseline_path:
    with open(baseline_path) as f:
        baseline = json.load(f)
    old_backend = baseline.get("simd", {}).get("backend") or \
        baseline.get("context", {}).get("simd_backend")
    if old_backend is not None and old_backend != backend:
        print("baseline_delta: skipped — baseline ran on backend '%s', "
              "this run on '%s'" % (old_backend, backend))
    else:
        old_times = {
            b["name"]: b["real_time"]
            for b in baseline.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"
        }
        delta = {}
        for bench in fresh.get("benchmarks", []):
            if bench.get("run_type", "iteration") != "iteration":
                continue
            name = bench["name"]
            if name in old_times and old_times[name] > 0:
                delta[name] = bench["real_time"] / old_times[name]
        fresh["baseline_delta"] = delta
        if delta:
            print("baseline_delta (new/old real_time; < 1.0 is faster):")
            for name in sorted(delta):
                print("  %-40s %.3f" % (name, delta[name]))
        else:
            print("baseline_delta: no overlapping benchmarks with the "
                  "baseline")

with open(new_path, "w") as f:
    json.dump(fresh, f, indent=1)
    f.write("\n")
PY
rm -f "${baseline_json:-}" 2>/dev/null || true

"$serving_bin" \
  --benchmark_out="$serving_json" \
  --benchmark_out_format=json

# The network ingestion plane (loopback TCP JSONL soak + parse floor +
# churn soak) rides in the serving JSON as a top-level "ingestion"
# section, so one file tracks the whole serving-path perf trajectory.
ingestion_json="$(mktemp)"
"$ingestion_bin" \
  --benchmark_out="$ingestion_json" \
  --benchmark_out_format=json

# Fleet-scale model dedup (shared skeleton + COW deltas): the residency
# and throughput numbers ride in the serving JSON as a top-level "fleet"
# section with a summary the perf trajectory can assert on
# (dedup_ratio >= 5, exact accounting).
fleet_json="$(mktemp)"
"$fleet_bin" \
  --benchmark_out="$fleet_json" \
  --benchmark_out_format=json

python3 - "$serving_json" "$ingestion_json" "$fleet_json" <<'PY'
import json
import sys

serving_path, ingestion_path, fleet_path = sys.argv[1:4]
with open(serving_path) as f:
    serving = json.load(f)
with open(ingestion_path) as f:
    ingestion = json.load(f)
with open(fleet_path) as f:
    fleet = json.load(f)

serving["ingestion"] = {
    "context": ingestion.get("context", {}),
    "benchmarks": ingestion.get("benchmarks", []),
}

fleet_benchmarks = [
    b for b in fleet.get("benchmarks", [])
    if b.get("run_type", "iteration") == "iteration"
]
summary = {}
for bench in fleet_benchmarks:
    if bench["name"].startswith("BM_FleetResidency"):
        summary["resident_bytes"] = bench.get("resident_bytes")
        summary["private_equivalent_bytes"] = bench.get(
            "private_equivalent_bytes")
        summary["bytes_per_tenant"] = bench.get("bytes_per_tenant")
        summary["dedup_ratio"] = bench.get("dedup_ratio")
        summary["accounting_exact"] = bench.get("accounting_exact") == 1.0
    elif bench["name"].startswith("BM_FleetThroughput"):
        summary["events_per_second"] = bench.get("items_per_second")
serving["fleet"] = {"benchmarks": fleet_benchmarks, "summary": summary}
if summary:
    print("fleet model dedup (10k tenants, one template):")
    for key in sorted(summary):
        print("  %-32s %s" % (key, summary[key]))

# The root-cause localization plane pays per *alarm*, not per event: the
# summary section records the attribution walk's unit cost so the perf
# trajectory can check the alarm-path overhead stays microseconds-scale
# while BM_ServeThroughput/BM_SessionProcess pin the no-alarm hot path.
root_cause = [
    b for b in serving.get("benchmarks", [])
    if b["name"].startswith("BM_RootCauseAttribution")
    and b.get("run_type", "iteration") == "iteration"
]
if root_cause:
    bench = root_cause[0]
    serving["root_cause"] = {
        "attribution_ns": bench["real_time"],
        "attributions_per_second": bench.get("items_per_second"),
        "fixture_reports": bench.get("reports"),
    }
    print("  %-40s %.0f ns/attribution" %
          ("BM_RootCauseAttribution", bench["real_time"]))
events_per_second = {
    b["name"]: b.get("items_per_second")
    for b in ingestion.get("benchmarks", [])
    if b.get("run_type", "iteration") == "iteration"
}
for name in sorted(events_per_second):
    rate = events_per_second[name]
    if rate:
        print("  %-40s %.0f events/s" % (name, rate))

with open(serving_path, "w") as f:
    json.dump(serving, f, indent=1)
    f.write("\n")
PY
rm -f "$ingestion_json" "$fleet_json"

echo "wrote $serving_json (with ingestion and fleet sections)"
