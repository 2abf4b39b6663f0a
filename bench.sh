#!/usr/bin/env bash
# bench.sh — run the headline benchmark groups and emit one JSON report
# per group, so the perf trajectory is tracked PR over PR.
#
# Usage:
#   ./bench.sh            # full run (stable numbers, ~a minute)
#   ./bench.sh --smoke    # CI smoke: one short iteration set, asserts
#                         # the benchmarks still run, not their speed
#   ./bench.sh report     # fold existing BENCH_*.json groups into one
#                         # BENCH_report.json trend artifact
#   ./bench.sh gate       # re-run all five groups (distill, kms, qnet,
#                         # ipsec, flow) at GATE_BENCHTIME and fail (exit 1)
#                         # on a >20% throughput drop against
#                         # BENCH_baseline.json (or $BENCH_BASELINE);
#                         # writes a fresh baseline when none exists,
#                         # refreshes it on pass — a rolling regression
#                         # gate for CI
#
# COUNT=n runs each benchmark n times; the per-group JSON then records
# the mean, `spread_pct` run-to-run variance, and `best_throughput`.
# Measured at COUNT=3: single-run spread reaches ~20% on the qnet
# transport and ~50% on the shortest distill multiplies (bimodal
# scheduler noise), so the gate compares best-of-GATE_COUNT (default 3)
# throughput — stable well inside the 20% tolerance — which is what
# lets it cover all five groups instead of just ipsec/kms.
#
# Groups:
#   distill -> BENCH_distill.json   the distillation fast path, one row
#                                   per layer it crosses (DESIGN.md §7)
#     BenchmarkMul4096 / BenchmarkMul1024  GF(2^n) windowed-comb multiply
#     BenchmarkMask4096                    word-batched LFSR subsets
#     BenchmarkBBN4096QBER5                rank-indexed BBN Cascade, 5% QBER
#     BenchmarkApply4096to2048             privacy amplification end to end
#     BenchmarkPipeline_DistillPerFrame    full sift->EC->entropy->PA frame
#   kms     -> BENCH_kms.json       key delivery service: one
#                                   allocate-and-claim against a
#                                   64 kbit / 8 Mbit standing ledger
#                                   backlog, the path IKE quick mode and
#                                   PoolView withdrawals take
#                                   (DESIGN.md §8)
#   qnet    -> BENCH_qnet.json      unified QKD network layer: one
#                                   end-to-end striped transport (route,
#                                   reserve, per-hop OTP, reconstruct)
#                                   at k = 1/2/3 disjoint paths
#                                   (DESIGN.md §9)
#   ipsec   -> BENCH_ipsec.json     gateway dataplane: outbound seal /
#                                   inbound open through SPD+SAD on the
#                                   cached key schedules (AES + OTP),
#                                   single-packet and 64-packet batched
#                                   paths, plus 8 tunnels in parallel,
#                                   AES seal+open at 64 / 176 / 512 /
#                                   1400 B payloads (80 / 192 / 528 /
#                                   1416 B inner packets), one SAD
#                                   rollover install against 64 / 1024 /
#                                   25,000 tunnels, one HMAC-SHA1 tag
#                                   over the 104- and 1440-byte ESP
#                                   bodies of a 64 and a 1400 B payload,
#                                   and one AES-128-CTR keystream over
#                                   each of the four inner packets
#                                   (DESIGN.md §10-11)
#   flow    -> BENCH_flow.json      closed-loop replenishment control:
#                                   foreground credit-controller and
#                                   LEDBAT-style background ticks on the
#                                   KDS pressure signal, plus sampled
#                                   overload-to-mark latency (DESIGN.md
#                                   §13)
#   ike     -> BENCH_ike.json       IKE quick mode: one negotiation from
#                                   the lockstep pool, and one exchange
#                                   over 1 or 32 tunnels (perfbench's
#                                   rekey batch) keyed from KDS streams
#                                   (DESIGN.md §11); not gated
set -euo pipefail
cd "$(dirname "$0")"

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
mode="${1:-run}"
if [[ "$mode" == "--smoke" ]]; then
    BENCHTIME=10x
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

run() { # pkg, regex
    go test -run '^$' -bench "$2" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem "$1" | tee -a "$out"
}

# Fold the accumulated benchmark lines into a JSON report. Keys are
# benchmark names; values ns/op plus allocation counters and custom
# metrics (MB/s throughput, sampled p99-ns latency) when present.
# With COUNT > 1 each benchmark contributes several samples; the report
# records their mean plus `spread_pct` — (max-min)/mean of per-sample
# throughput — so run-to-run variance is tracked next to the number
# itself and the regression-gate tolerance can be audited against it.
emit() { # json_path
    python3 - "$out" "$1" <<'EOF'
import json, re, sys
from collections import defaultdict

samples = defaultdict(list)
pat = re.compile(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$')
for line in open(sys.argv[1]):
    m = pat.match(line.strip())
    if not m:
        continue
    name, iters, ns, rest = m.groups()
    row = {"iterations": int(iters), "ns_per_op": float(ns)}
    if (t := re.search(r'([\d.]+) MB/s', rest)):
        row["mb_per_s"] = float(t.group(1))
    if (t := re.search(r'([\d.]+) p99-ns', rest)):
        row["p99_ns"] = float(t.group(1))
    if (t := re.search(r'([\d.]+) B/op\s+([\d.]+) allocs/op', rest)):
        row["bytes_per_op"] = float(t.group(1))
        row["allocs_per_op"] = float(t.group(2))
    samples[name].append(row)

def throughput(row):
    return row.get("mb_per_s", 1e9 / row["ns_per_op"])

rows = {}
for name, runs in samples.items():
    row = dict(runs[0])
    for key in ("ns_per_op", "mb_per_s", "p99_ns"):
        vals = [r[key] for r in runs if key in r]
        if vals:
            row[key] = sum(vals) / len(vals)
    if len(runs) > 1:
        tps = [throughput(r) for r in runs]
        mean = sum(tps) / len(tps)
        row["samples"] = len(runs)
        row["spread_pct"] = round(100 * (max(tps) - min(tps)) / mean, 1) if mean > 0 else 0.0
        # Best-of-N throughput: what the gate compares. The mean of a
        # bimodal sample moves with scheduler luck; the best run tracks
        # the code's actual capability.
        row["best_throughput"] = max(tps)
    rows[name] = row

with open(sys.argv[2], "w") as f:
    json.dump(rows, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(rows)} benchmarks)")
if not rows:
    sys.exit("no benchmark output parsed")
EOF
    : > "$out"
}

run_distill_group() {
    run ./internal/gf2/     'BenchmarkMul4096$|BenchmarkMul1024$'
    run ./internal/rng/     'BenchmarkMask4096$'
    run ./internal/cascade/ 'BenchmarkBBN4096QBER5$'
    run ./internal/privacy/ 'BenchmarkApply4096to2048$'
    run .                   'BenchmarkPipeline_DistillPerFrame$'
    emit BENCH_distill.json
}

run_kms_group() {
    run . 'BenchmarkKMS_ClaimBacklog$'
    emit BENCH_kms.json
}

run_qnet_group() {
    run ./internal/qnet/ 'BenchmarkQnet_Stripe(1|2|3)Path$'
    emit BENCH_qnet.json
}

run_ipsec_group() {
    run ./internal/ipsec/ 'Benchmark(Gateway_(SealAES|OpenAES|SealOpenAES|SealOTP|Parallel|SealAESBatch|OpenAESBatch|SealOTPBatch|ParallelBatch)|SAD_Rollover)$'
    run ./internal/hmacsha1/ 'BenchmarkSum$'
    run ./internal/aesctr/ 'BenchmarkXORKeyStream$'
    emit BENCH_ipsec.json
}

run_flow_group() {
    run ./internal/flow/ 'BenchmarkFlow_(ControllerTick|BackgroundTick|MarkLatency)$'
    emit BENCH_flow.json
}

run_ike_group() {
    run ./internal/ike/ 'BenchmarkNegotiate$'
    run ./internal/ike/ 'BenchmarkNegotiateBatch$/^(1|32)$'
    emit BENCH_ike.json
}

# report: merge whatever per-group reports exist into one trend
# artifact, keyed by group.
if [[ "$mode" == "report" ]]; then
    python3 - <<'EOF'
import json, os, sys

groups = {}
for g in ("distill", "kms", "qnet", "ipsec", "flow", "ike"):
    path = f"BENCH_{g}.json"
    if os.path.exists(path):
        with open(path) as f:
            groups[g] = json.load(f)
if not groups:
    sys.exit("no BENCH_*.json group reports found (run ./bench.sh first)")
with open("BENCH_report.json", "w") as f:
    json.dump({"groups": groups}, f, indent=2, sort_keys=True)
    f.write("\n")
n = sum(len(v) for v in groups.values())
print(f"wrote BENCH_report.json ({len(groups)} groups, {n} benchmarks)")
EOF
    exit 0
fi

# gate: benchstat-style regression check on the perf-critical groups.
# Throughput (MB/s when reported, 1/ns_per_op otherwise) must stay
# within GATE_TOLERANCE of the rolling baseline.
if [[ "$mode" == "gate" ]]; then
    BENCHTIME="${GATE_BENCHTIME:-0.3s}"
    COUNT="${GATE_COUNT:-3}"
    baseline="${BENCH_BASELINE:-BENCH_baseline.json}"
    run_distill_group
    run_kms_group
    run_qnet_group
    run_ipsec_group
    run_flow_group
    python3 - "$baseline" "${GATE_TOLERANCE:-0.20}" <<'EOF'
import json, os, sys

baseline_path, tol = sys.argv[1], float(sys.argv[2])
cur = {}
for g in ("distill", "kms", "qnet", "ipsec", "flow"):
    with open(f"BENCH_{g}.json") as f:
        cur.update(json.load(f))

def throughput(row):
    # best_throughput (best of GATE_COUNT runs) when recorded: robust
    # against the bimodal run-to-run noise the spread_pct rows measure.
    if "best_throughput" in row:
        return row["best_throughput"]
    if "mb_per_s" in row:
        return row["mb_per_s"]
    return 1e9 / row["ns_per_op"]

if not os.path.exists(baseline_path):
    with open(baseline_path, "w") as f:
        json.dump(cur, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"no baseline at {baseline_path}; wrote one ({len(cur)} benchmarks), gate passes vacuously")
    sys.exit(0)

with open(baseline_path) as f:
    base = json.load(f)

failed = []
for name in sorted(set(cur) & set(base)):
    b, c = throughput(base[name]), throughput(cur[name])
    if b <= 0:
        continue
    delta = (c - b) / b
    flag = "FAIL" if delta < -tol else "ok"
    print(f"  {flag:4s} {name}: {b:.1f} -> {c:.1f} ({delta:+.1%})")
    if delta < -tol:
        failed.append(name)
for name in sorted(set(cur) - set(base)):
    print(f"  new  {name}: {throughput(cur[name]):.1f}")

if failed:
    sys.exit(f"bench gate: {len(failed)} benchmark(s) regressed more than {tol:.0%}: {', '.join(failed)}")

# Rolling baseline: a passing run becomes the next comparison point.
with open(baseline_path, "w") as f:
    json.dump(cur, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"bench gate: all {len(set(cur) & set(base))} common benchmarks within {tol:.0%}; baseline refreshed")
EOF
    exit 0
fi

# --- full run: all six groups ----------------------------------------
run_distill_group
run_kms_group
run_qnet_group
run_ipsec_group
run_flow_group
run_ike_group
