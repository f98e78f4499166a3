#!/usr/bin/env bash
# Tier-1 gate: full build + full test suite, then the concurrency-sensitive
# admission/gate tests again under ThreadSanitizer and under ASan+UBSan.
#
#   scripts/tier1.sh            # all stages
#   scripts/tier1.sh --no-tsan  # skip both sanitizer stages
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
[[ "${1:-}" == "--no-tsan" ]] && run_tsan=0

echo "== tier-1: build + full test suite =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

if [[ "$run_tsan" == 1 ]]; then
  echo "== tier-1: admission core/gate/parity + profiler + fault tests under ThreadSanitizer =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" \
    --target runtime_test core_test integration_test profiler_test trace_test \
             fault_test service_test
  ( cd build-tsan && ctest \
      -R 'AdmissionGate|AdmissionCore|AdmissionParity|ContendedStress|Sharding|Waitlist|GateRace|Combiner|ProfilePipeline|TraceArena|MatrixDeterminism|FaultGate|FaultScenario|Watchdog|Reclaim|ServiceRace|ServicePump|ShardMailbox|SubmissionQueue|TenantLedger|Adversary|Credit' \
      --output-on-failure -j "$(nproc)" )

  echo "== tier-1: admission core/gate/waitlist + feedback/cluster + fault/recovery tests under ASan+UBSan =="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)" \
    --target runtime_test core_test integration_test fault_test trace_test \
             util_test service_test cluster_test
  ( cd build-asan && ctest \
      -R 'AdmissionGate|AdmissionCore|AdmissionParity|ContendedStress|Sharding|GateRace|Combiner|MultiResource\.|Waitlist|WakeStrategy|FaultInjector|FaultScenario|FaultGate|Watchdog|EscalationLadder|Reclaim|TraceCorrupt|AtomicFile|ServiceRace|ServicePump|ServiceFrontEnd|ShardHash|ShardMailbox|Arrival|SubmissionQueue|TenantLedger|Adversary|Credit|Feedback|DemandCorrector|Cluster' \
      --output-on-failure -j "$(nproc)" )
fi

echo "== tier-1: profiler perf snapshot (BENCH_profiler.json) =="
# Small trace keeps the gate fast; the acceptance-scale run is
#   build/bench/micro_profiler --records 50000000 --jobs 4 --sample-rate 0.01
( cd build/bench && ./micro_profiler --records 2000000 --jobs 4 \
    --sample-rate 0.02 --out BENCH_profiler.json )

echo "== tier-1: gate overhead snapshot (BENCH_gate.json) =="
# Exits non-zero if the uncontended begin/end round trip regresses more
# than 10% over the pre-AdmissionCore baseline (189 ns).
( cd build/bench && ./micro_gate --iters 1000000 --out BENCH_gate.json )

echo "== tier-1: multi-demand gate points (vector admission path) =="
# The 3-demand begin_multi round trip and its 8-thread contended throughput
# must stay within 10% of the committed BENCH_gate.json snapshot after
# normalizing both sides by their own calibration factor (latency scales
# with machine slowness; throughput scales inversely).
json_field() { sed -n "s/.*\"$2\": \([0-9.]*\),*.*/\1/p" "$1"; }
fresh_gate="build/bench/BENCH_gate.json"
fresh_mf="$(json_field "$fresh_gate" machine_factor)"
base_mf="$(json_field BENCH_gate.json machine_factor)"
gate_point() {  # name fresh base lower|higher
  awk -v name="$1" -v f="$2" -v b="$3" -v better="$4" \
      -v fmf="$fresh_mf" -v bmf="$base_mf" 'BEGIN {
    if (better == "lower") {
      adj = f / fmf; base = b / bmf; limit = base * 1.10;
      printf "%s: %.3f adj (baseline %.3f, ceiling %.3f)\n", name, adj, base, limit;
      exit (adj <= limit) ? 0 : 1;
    }
    adj = f * fmf; base = b * bmf; limit = base * 0.90;
    printf "%s: %.3f adj (baseline %.3f, floor %.3f)\n", name, adj, base, limit;
    exit (adj >= limit) ? 0 : 1;
  }'
}
for key in multi_uncontended_ns multi_contended_mops; do
  fresh="$(json_field "$fresh_gate" "$key")"
  base="$(json_field BENCH_gate.json "$key")"
  if [[ -z "$fresh" || -z "$base" ]]; then
    echo "error: $key missing from the fresh or the committed snapshot"
    exit 1
  fi
  better=lower
  [[ "$key" == *_mops ]] && better=higher
  gate_point "$key" "$fresh" "$base" "$better"
done

echo "== tier-1: contended admission throughput at min(nproc, 16) threads =="
# Scaling gate for the sharded AdmissionCore. micro_gate measures the point
# at min(nproc, 16) threads and records the count; it is compared only
# against a committed point taken at the same count (a different count is
# a different quantity), with the same 10% floor as above.
fresh_mops16="$(json_field "$fresh_gate" contended_mops_16)"
fresh_t16="$(json_field "$fresh_gate" contended_threads_16)"
base_mops16="$(json_field BENCH_gate.json contended_mops_16)"
base_t16="$(json_field BENCH_gate.json contended_threads_16)"
if [[ -z "$fresh_mops16" || -z "$fresh_t16" ]]; then
  echo "error: micro_gate produced no contended_mops_16 point"
  exit 1
fi
if [[ "$fresh_t16" == "$base_t16" && -n "$base_mops16" ]]; then
  gate_point "contended_mops_16 ($fresh_t16 threads)" "$fresh_mops16" \
    "$base_mops16" higher
else
  echo "contended_mops_16: $fresh_mops16 Mops/s at $fresh_t16 threads;" \
       "the committed point is at ${base_t16:-no} threads, not compared"
fi

echo "== tier-1: simulation hot-path snapshot (BENCH_sim.json) =="
# Exits non-zero if any engine scenario regresses more than 10% over the
# post-overhaul baseline, if the parallel matrix is not bit-identical to the
# serial one, or if sampled-sets miss ratios drift beyond the 2% budget.
( cd build/bench && ./micro_sim_engine --reps 3 --out BENCH_sim.json )

echo "== tier-1: parallel fig9 smoke (determinism across --jobs) =="
# The full fig9 sweep fanned across every core, twice, plus a serial run:
# all three CSVs must be byte-identical or run_matrix has a race.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
build/bench/fig9_gflops --quick --csv --jobs "$(nproc)" > "$smoke_dir/par1.csv"
build/bench/fig9_gflops --quick --csv --jobs "$(nproc)" > "$smoke_dir/par2.csv"
build/bench/fig9_gflops --quick --csv --jobs 1 > "$smoke_dir/serial.csv"
cmp "$smoke_dir/par1.csv" "$smoke_dir/par2.csv"
cmp "$smoke_dir/par1.csv" "$smoke_dir/serial.csv"

echo "== tier-1: power-cap smoke (multi-resource gates + determinism) =="
# Quick energy-cap + mixed-workload cells: the watts budget must hold, the
# multi-resource admission must beat LLC-only on GFLOPS/W, and the CSV must
# be byte-identical regardless of --jobs fan-out.
build/bench/power_cap --quick --csv --jobs "$(nproc)" > "$smoke_dir/power_par.csv"
build/bench/power_cap --quick --csv --jobs 1 > "$smoke_dir/power_serial.csv"
cmp "$smoke_dir/power_par.csv" "$smoke_dir/power_serial.csv"
# Exits non-zero when the cap is violated, never binds, or the mixed cell
# loses its 1.05x efficiency edge.
( cd build/bench && ./power_cap --quick --jobs "$(nproc)" \
    --out BENCH_power_quick.json > /dev/null )

echo "== tier-1: fault-matrix smoke (ledger + determinism across --jobs) =="
# Seeded fault grid through both substrates: exits non-zero on any invariant
# ledger failure, and the CSV must be byte-identical regardless of fan-out.
build/tools/fault_matrix --seed 1 --seeds 2 --jobs "$(nproc)" \
  --out "$smoke_dir/fault_par.csv"
build/tools/fault_matrix --seed 1 --seeds 2 --jobs 1 \
  --out "$smoke_dir/fault_serial.csv"
cmp "$smoke_dir/fault_par.csv" "$smoke_dir/fault_serial.csv"

echo "== tier-1: fault matrix and scheduler simulator (pinned stdout) =="
# The fault-matrix CSV (watchdog, reclaim and ledger counters per cell) and
# the simulator's Water_nsq policy table must match their committed stdout
# byte for byte; the fault matrix at any --jobs fan-out.
for jobs in 1 "$(nproc)"; do
  build/tools/fault_matrix --seed 1 --seeds 2 --jobs "$jobs" \
    | cmp - tests/fault/fault_matrix.expected
done
build/tools/rda_sched_sim --workload Water_nsq --policy all --quick \
  | cmp - tests/tools/rda_sched_sim_water_nsq.expected

echo "== tier-1: cluster placement outputs (pinned stdout) =="
# The two programs that drive src/cluster print deterministic tables; each
# must match its committed stdout byte for byte, at any --jobs fan-out.
for jobs in 1 "$(nproc)"; do
  build/bench/ablate_cluster --jobs "$jobs" \
    | cmp - tests/cluster/ablate_cluster.expected
done
build/examples/cluster_placement \
  | cmp - tests/cluster/cluster_placement.expected

echo "== tier-1: waitlist and oversubscription ablations (pinned stdout) =="
# Wake order and the Compromise bound are deterministic in the simulator:
# both tables must match their committed stdout byte for byte, at any --jobs
# fan-out.
for jobs in 1 "$(nproc)"; do
  for b in ablate_waitlist ablate_oversub; do
    build/bench/$b --jobs "$jobs" | cmp - "tests/core/$b.expected"
  done
done

echo "== tier-1: service front-end smoke (determinism across --jobs) =="
# The deterministic service cells (arrival stream -> batched admission ->
# locality routing, including the node-death cell) fanned out and serial:
# byte-identical CSVs or the cell runner has a race / the simulation leaks
# host state into results.
build/bench/service_load --quick --csv --jobs "$(nproc)" \
  > "$smoke_dir/service_par.csv"
build/bench/service_load --quick --csv --jobs 1 \
  > "$smoke_dir/service_serial.csv"
cmp "$smoke_dir/service_par.csv" "$smoke_dir/service_serial.csv"

echo "== tier-1: sharded drain smoke (determinism across --shards) =="
# The same cells through 1, 4, and 16 drain shards: the tenant-hash
# partition plus the seniority-ordered mailbox merge must reproduce the
# single-queue schedule byte-for-byte, mailboxed ledger column included.
# The serial CSV above ran at the default sharding (one per node), so the
# cmp chain also pins default == explicit.
build/bench/service_load --quick --csv --jobs 1 --shards 1 \
  > "$smoke_dir/service_k1.csv"
build/bench/service_load --quick --csv --jobs "$(nproc)" --shards 4 \
  > "$smoke_dir/service_k4.csv"
build/bench/service_load --quick --csv --jobs 1 --shards 16 \
  > "$smoke_dir/service_k16.csv"
cmp "$smoke_dir/service_serial.csv" "$smoke_dir/service_k1.csv"
cmp "$smoke_dir/service_serial.csv" "$smoke_dir/service_k4.csv"
cmp "$smoke_dir/service_serial.csv" "$smoke_dir/service_k16.csv"

echo "== tier-1: adversary smoke (ledger determinism across --jobs/--shards) =="
# The adversarial-tenant cells with the TenantLedger engaged: fanned-out,
# serial, and 1/16-shard runs must be byte-identical — including the
# ledger_fingerprint column, which pins audit order, credit balances, and
# penalty rungs themselves to the K-invariance contract (DESIGN §17).
build/bench/adversary --quick --csv --jobs "$(nproc)" \
  > "$smoke_dir/adversary_par.csv"
build/bench/adversary --quick --csv --jobs 1 \
  > "$smoke_dir/adversary_serial.csv"
build/bench/adversary --quick --csv --jobs 1 --shards 1 \
  > "$smoke_dir/adversary_k1.csv"
build/bench/adversary --quick --csv --jobs "$(nproc)" --shards 16 \
  > "$smoke_dir/adversary_k16.csv"
cmp "$smoke_dir/adversary_par.csv" "$smoke_dir/adversary_serial.csv"
cmp "$smoke_dir/adversary_serial.csv" "$smoke_dir/adversary_k1.csv"
cmp "$smoke_dir/adversary_serial.csv" "$smoke_dir/adversary_k16.csv"

echo "== tier-1: adversary snapshot (BENCH_adversary.json) =="
# Exits non-zero if one WSS inflator among eight tenants costs honest
# tenants < 25% unenforced (the attack stopped mattering), if enforcement
# recovers < 90% of all-honest honest-tenant goodput, if an all-honest
# fleet pays > 2% for the machinery, if Jain fairness fails to improve,
# if credit conservation breaks — or, against the committed snapshot, if
# recovery falls > 0.10 or any cell's honest goodput drops > 10%.
( cd build/bench && ./adversary --out BENCH_adversary.json \
    --baseline ../../BENCH_adversary.json )

echo "== tier-1: service load snapshot (BENCH_service.json) =="
# Exits non-zero if locality routing stops out-serving random placement on
# any arrival shape, if the fault cell loses work, or — against the
# committed snapshot — if goodput drops >10%, p99 admission latency grows
# >10%, or (on >=8-thread hosts) the batched submission pump loses its 2x
# edge over per-call admission / the sharded drain loses its 2x scaling
# at 4 drain workers / the batched pump falls >10% below a committed point
# taken at the same thread count, after machine-drift calibration. A
# snapshot recorded with a different arrival count is an error too (both
# here and for the adversary snapshot above): the gate must compare, never
# skip.
( cd build/bench && ./service_load --out BENCH_service.json \
    --baseline ../../BENCH_service.json )
# The wall-clock pump points are measured on every host and recorded with
# pump_hw_threads (below 8 threads they are not gated: the producers and
# drainers time-slice one another). A missing point is an error.
fresh_service="build/bench/BENCH_service.json"
pump_threads="$(json_field "$fresh_service" pump_hw_threads)"
for key in batch_speedup drain_scaling; do
  val="$(json_field "$fresh_service" "$key")"
  if [[ -z "$val" || -z "$pump_threads" ]]; then
    echo "error: service_load produced no $key point"
    exit 1
  fi
  echo "pump $key: $val at $pump_threads hardware threads"
done

echo "tier-1 OK"
