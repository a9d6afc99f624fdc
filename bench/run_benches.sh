#!/usr/bin/env bash
# Runs the benchmark suite and records the perf trajectory as JSON.
#
# Usage: bench/run_benches.sh [BUILD_DIR] [OUT_JSON] [RUNTIME_OUT_JSON] \
#                             [SERVICE_OUT_JSON] [CHAIN_OUT_JSON] \
#                             [RUNTIME_EXEC_OUT_JSON] [PLAN_OPT_OUT_JSON]
#   BUILD_DIR         cmake build directory containing the bench binaries
#                     (default: build)
#   OUT_JSON          output path for the chase google-benchmark JSON report
#                     (default: BENCH_chase.json in the current directory)
#   RUNTIME_OUT_JSON  output path for the runtime-resilience JSON report
#                     (default: BENCH_runtime.json in the current directory)
#   SERVICE_OUT_JSON  output path for the query-service JSON report
#                     (default: BENCH_service.json in the current directory)
#   CHAIN_OUT_JSON    output path for the chain proof-search JSON report
#                     (default: BENCH_chain_search.json in the current
#                     directory)
#   RUNTIME_EXEC_OUT_JSON
#                     output path for the execution-engine JSON report
#                     (default: BENCH_runtime_exec.json in the current
#                     directory)
#   PLAN_OPT_OUT_JSON output path for the plan-optimizer JSON report
#                     (default: BENCH_plan_opt.json in the current directory)
#
# BENCH_chase.json includes BM_ChaseTransitiveClosure in both evaluation
# modes (seminaive:0 = naive oracle, seminaive:1 = semi-naïve delta chase),
# the headline naive-vs-delta comparison.
#
# BENCH_runtime.json covers the fault-tolerant executor: the historic direct
# path (BM_ExecuteDirect) vs FaultInjectingSource at fault rates 0 / 1% /
# 10% (BM_ExecuteFaultInjected, rate_permille arg). The rate-0 run vs the
# direct run is the zero-fault overhead of the retry machinery, printed
# below when python3 is available (target: <= 5%).
#
# BENCH_service.json covers the concurrent query service: per-request plan
# cost cold (every request skips the cache) vs warm (BM_ServicePlanCold /
# BM_ServicePlanWarm — the cache amortization ratio, target >= 10x),
# end-to-end throughput with 1 / 2 / 4 workers (BM_ServiceThroughput,
# thread-scaling of the serving path), and overload behavior against a
# bounded queue
# (BM_ServiceOverload: goodput, shed rate, and the p50/p99 latency of a
# rejected Submit — the fast-fail path should stay in the microseconds).
# It also covers the PR-9 robustness features: BM_ServiceCoalescedBurst
# (duplicate-heavy burst with single-flight coalescing off vs on; the
# summary prints the searches-per-burst collapse) and
# BM_ServiceSnapshotRestart (cold restart vs restart warmed from a plan-
# cache snapshot; the summary prints the restart speedup and confirms a
# warmed restart re-proves nothing).
# BENCH_runtime_exec.json covers the execution engines on a join-heavy
# plan: BM_ExecuteRowOracle (tuple-at-a-time) vs BM_ExecuteVectorized
# (columnar batches) at growing instance sizes. Both produce bit-identical
# results; the summary prints the vectorized speedup per size (target:
# >= 5x on the larger sizes).
#
# BENCH_chain_search.json covers one proof search on the hard chain
# workload (BM_ChainSearch, k=10 relations with m=3 methods each). Every row
# records nodes_expanded, nodes_created, best_cost and host_cores.
#
# BENCH_plan_opt.json covers the plan-IR optimizer (DESIGN.md §11):
# BM_Optimize* records cost-before/after and per-pass cost deltas on the
# join-heavy and chain plan families, and BM_Exec*Unopt/Opt pairs measure
# the execution-time delta the optimized plan buys on the vectorized
# engine (on the chain family, all of it from binding-join elimination, at
# an unchanged cost).
#
# All summaries are printed below.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_chase.json}"
RUNTIME_OUT_JSON="${3:-BENCH_runtime.json}"
SERVICE_OUT_JSON="${4:-BENCH_service.json}"
CHAIN_OUT_JSON="${5:-BENCH_chain_search.json}"
RUNTIME_EXEC_OUT_JSON="${6:-BENCH_runtime_exec.json}"
PLAN_OPT_OUT_JSON="${7:-BENCH_plan_opt.json}"
CHASE_BIN="${BUILD_DIR}/bench/bench_chase"
RUNTIME_BIN="${BUILD_DIR}/bench/bench_runtime_faults"
SERVICE_BIN="${BUILD_DIR}/bench/bench_service"
CHAIN_BIN="${BUILD_DIR}/bench/bench_chain_search"
RUNTIME_EXEC_BIN="${BUILD_DIR}/bench/bench_runtime"
PLAN_OPT_BIN="${BUILD_DIR}/bench/bench_plan_opt"

for bin in "${CHASE_BIN}" "${RUNTIME_BIN}" "${SERVICE_BIN}" \
           "${CHAIN_BIN}" "${RUNTIME_EXEC_BIN}" "${PLAN_OPT_BIN}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found; build first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
done

# Refuse to record a perf trajectory from a debug build of this repo:
# debug timings are not comparable to the committed Release numbers. The
# check reads CMAKE_BUILD_TYPE from the build tree's cache. Set
# LCP_ALLOW_DEBUG_BENCH=1 to override for local debugging; do not commit
# the resulting JSONs. (The separate library_build_type field in the JSON
# context describes how the *google-benchmark library* was compiled — a
# distro debug library only adds harness overhead; a warning for that is
# printed after the first report below.)
CMAKE_BUILD_TYPE=""
if [[ -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  CMAKE_BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "${BUILD_DIR}/CMakeCache.txt" | head -1)"
fi
case "${CMAKE_BUILD_TYPE}" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    if [[ "${LCP_ALLOW_DEBUG_BENCH:-0}" != "1" ]]; then
      echo "error: ${BUILD_DIR} is not a Release build" >&2
      echo "  (CMAKE_BUILD_TYPE='${CMAKE_BUILD_TYPE}'); rebuild with" >&2
      echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release" >&2
      echo "  or set LCP_ALLOW_DEBUG_BENCH=1 to run anyway (do not" >&2
      echo "  commit the resulting JSONs)" >&2
      exit 1
    fi
    echo "warning: recording benchmarks from a non-Release build" \
      "(CMAKE_BUILD_TYPE='${CMAKE_BUILD_TYPE}')" >&2
    ;;
esac

"${CHASE_BIN}" \
  --benchmark_out="${OUT_JSON}" \
  --benchmark_out_format=json \
  ${BENCH_MIN_TIME:+--benchmark_min_time="${BENCH_MIN_TIME}"}

echo "wrote ${OUT_JSON}"

# Loud warning when the google-benchmark *library* itself is a debug build
# (context.library_build_type): the harness adds overhead it wouldn't in a
# release library. Nothing this script can fix — the library ships with the
# machine — but readers of the committed JSONs should know.
if grep -q '"library_build_type": *"debug"' "${OUT_JSON}"; then
  echo "warning: the google-benchmark LIBRARY on this host is a debug" >&2
  echo "  build (library_build_type=debug in the JSON context); absolute" >&2
  echo "  timings include extra harness overhead" >&2
fi

"${RUNTIME_BIN}" \
  --benchmark_out="${RUNTIME_OUT_JSON}" \
  --benchmark_out_format=json \
  ${BENCH_MIN_TIME:+--benchmark_min_time="${BENCH_MIN_TIME}"}

echo "wrote ${RUNTIME_OUT_JSON}"

# Zero-fault overhead: wrapped source at rate 0 vs the direct path, per
# instance size. Informational only — CI perf gates belong in a dedicated
# environment, not a shared runner.
if command -v python3 >/dev/null 2>&1; then
  python3 - "${RUNTIME_OUT_JSON}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
direct, wrapped0 = {}, {}
for b in report.get("benchmarks", []):
    name = b.get("name", "")
    if b.get("run_type") == "aggregate":
        continue
    if name.startswith("BM_ExecuteDirect/"):
        n = name.split("n:")[1].split("/")[0]
        direct[n] = b["real_time"]
    elif name.startswith("BM_ExecuteFaultInjected/") and "rate_permille:0" in name:
        n = name.split("n:")[1].split("/")[0]
        wrapped0[n] = b["real_time"]
for n in sorted(direct, key=int):
    if n in wrapped0 and direct[n] > 0:
        pct = 100.0 * (wrapped0[n] / direct[n] - 1.0)
        print(f"zero-fault overhead (n={n}): {pct:+.1f}% "
              f"(direct {direct[n]:.0f}ns -> wrapped {wrapped0[n]:.0f}ns)")
EOF
fi

"${SERVICE_BIN}" \
  --benchmark_out="${SERVICE_OUT_JSON}" \
  --benchmark_out_format=json \
  ${BENCH_MIN_TIME:+--benchmark_min_time="${BENCH_MIN_TIME}"}

echo "wrote ${SERVICE_OUT_JSON}"

# Cache amortization (cold/warm plan cost) and worker scaling
# (items_per_second by worker count). Informational, like the overhead
# number above.
if command -v python3 >/dev/null 2>&1; then
  python3 - "${SERVICE_OUT_JSON}" <<'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
cold = warm = overload = None
scaling, coalesce, restart = {}, {}, {}
for b in report.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("name", "")
    if name.startswith("BM_ServicePlanCold"):
        cold = b.get("items_per_second")
    elif name.startswith("BM_ServicePlanWarm"):
        warm = b.get("items_per_second")
    elif name.startswith("BM_ServiceThroughput/") and "items_per_second" in b:
        workers = name.split("workers:")[1].split("/")[0]
        scaling[workers] = b["items_per_second"]
    elif name.startswith("BM_ServiceOverload"):
        overload = b
    elif name.startswith("BM_ServiceCoalescedBurst/"):
        coalesce[name.split("coalescing:")[1].split("/")[0]] = b
    elif name.startswith("BM_ServiceSnapshotRestart/"):
        restart[name.split("warm:")[1].split("/")[0]] = b
if cold and warm and cold > 0:
    print(f"plan-cache amortization: {warm / cold:.1f}x "
          f"(cold {cold:,.0f} -> warm {warm:,.0f} plans/s)")
to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
if "0" in coalesce and "1" in coalesce:
    off, on = coalesce["0"], coalesce["1"]
    ratio = off["real_time"] / on["real_time"] if on["real_time"] else 0.0
    off_ms = off["real_time"] * to_ms.get(off.get("time_unit", "ns"), 1e-6)
    on_ms = on["real_time"] * to_ms.get(on.get("time_unit", "ns"), 1e-6)
    print(f"coalesced burst: searches/burst "
          f"{off.get('searches_per_burst', 0):.1f} -> "
          f"{on.get('searches_per_burst', 0):.1f} "
          f"({on.get('followers_per_burst', 0):.1f} followers rode along), "
          f"{off_ms:.1f}ms -> {on_ms:.1f}ms per burst ({ratio:.1f}x)")
if "0" in restart and "1" in restart:
    cold_r, warm_r = restart["0"], restart["1"]
    ratio = (cold_r["real_time"] / warm_r["real_time"]
             if warm_r["real_time"] else 0.0)
    cold_us = cold_r["real_time"] * to_ms.get(
        cold_r.get("time_unit", "ns"), 1e-6) * 1e3
    warm_us = warm_r["real_time"] * to_ms.get(
        warm_r.get("time_unit", "ns"), 1e-6) * 1e3
    print(f"snapshot-warmed restart: {cold_us:.0f}us cold -> "
          f"{warm_us:.0f}us warm ({ratio:.1f}x); re-proofs/restart "
          f"{cold_r.get('searches_per_restart', 0):.1f} -> "
          f"{warm_r.get('searches_per_restart', 0):.1f} "
          f"({warm_r.get('entries_loaded_per_restart', 0):.1f} plans loaded "
          "from snapshot)")
if overload is not None:
    print(f"overload (4x capacity burst): "
          f"goodput {overload.get('goodput', 0):,.0f} req/s, "
          f"shed rate {100 * overload.get('shed_rate', 0):.0f}%, "
          f"reject latency p50 {overload.get('reject_p50_us', 0):.1f}us / "
          f"p99 {overload.get('reject_p99_us', 0):.1f}us")
for w in sorted(scaling, key=int):
    base = scaling.get("1")
    speedup = f", {scaling[w] / base:.2f}x vs 1 worker" if base else ""
    print(f"throughput ({w} workers): {scaling[w]:,.0f} req/s{speedup}")
cores = os.cpu_count() or 1
if scaling and cores < max(int(w) for w in scaling):
    print(f"note: host has {cores} core(s); worker scaling beyond that "
          "measures contention, not speedup")
EOF
fi

"${CHAIN_BIN}" \
  --benchmark_out="${CHAIN_OUT_JSON}" \
  --benchmark_out_format=json \
  ${BENCH_MIN_TIME:+--benchmark_min_time="${BENCH_MIN_TIME}"}

echo "wrote ${CHAIN_OUT_JSON}"

"${RUNTIME_EXEC_BIN}" \
  --benchmark_out="${RUNTIME_EXEC_OUT_JSON}" \
  --benchmark_out_format=json \
  ${BENCH_MIN_TIME:+--benchmark_min_time="${BENCH_MIN_TIME}"}

echo "wrote ${RUNTIME_EXEC_OUT_JSON}"

# Vectorized-vs-row speedup on the join-heavy execution plan, per instance
# size. Informational, like the other summaries.
if command -v python3 >/dev/null 2>&1; then
  python3 - "${RUNTIME_EXEC_OUT_JSON}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
row, vec = {}, {}
for b in report.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("name", "")
    if "n:" not in name:
        continue
    n = name.split("n:")[1].split("/")[0]
    if name.startswith("BM_ExecuteRowOracle/"):
        row[n] = b["real_time"]
    elif name.startswith("BM_ExecuteVectorized/"):
        vec[n] = b["real_time"]
for n in sorted(row, key=int):
    if n in vec and vec[n] > 0:
        print(f"vectorized speedup (n={n}): {row[n] / vec[n]:.1f}x "
              f"(row {row[n]:.2f}ms -> vectorized {vec[n]:.2f}ms)")
EOF
fi

"${PLAN_OPT_BIN}" \
  --benchmark_out="${PLAN_OPT_OUT_JSON}" \
  --benchmark_out_format=json \
  ${BENCH_MIN_TIME:+--benchmark_min_time="${BENCH_MIN_TIME}"}

echo "wrote ${PLAN_OPT_OUT_JSON}"

# Plan-optimizer effect: cost reduction per family (with per-pass
# attribution) and the execution-time delta of the optimized plan.
# Informational, like the other summaries.
if command -v python3 >/dev/null 2>&1; then
  python3 - "${PLAN_OPT_OUT_JSON}" <<'SUMEOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
opt_rows, exec_rows = {}, {}
for b in report.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("name", "")
    if name.startswith("BM_Optimize"):
        opt_rows[name] = b
    elif name.startswith("BM_Exec"):
        exec_rows[name] = b
for name in sorted(opt_rows):
    b = opt_rows[name]
    before, after = b.get("cost_before", 0), b.get("cost_after", 0)
    pct = 100.0 * (1.0 - after / before) if before else 0.0
    deltas = ", ".join(
        f"{p}={b[p + '_cost_delta']:g}"
        for p in ("pushdown", "join_reorder", "binding_join")
        if b.get(p + "_cost_delta"))
    attribution = f" [{deltas}]" if deltas else ""
    print(f"{name}: cost {before:g} -> {after:g} (-{pct:.0f}%), "
          f"commands {b.get('commands_before', 0):g} -> "
          f"{b.get('commands_after', 0):g}{attribution}")
to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
for family in ("JoinHeavy", "Chain"):
    unopt = exec_rows.get(f"BM_Exec{family}Unopt")
    opt = exec_rows.get(f"BM_Exec{family}Opt")
    if not unopt or not opt or not opt["real_time"]:
        continue
    scale = to_ms.get(unopt.get("time_unit", "ns"), 1e-6)
    print(f"exec time ({family}): "
          f"{unopt['real_time'] * scale:.2f}ms unoptimized -> "
          f"{opt['real_time'] * scale:.2f}ms optimized "
          f"({unopt['real_time'] / opt['real_time']:.2f}x)")
SUMEOF
fi
