#!/bin/sh
# Build with benchmarks enabled, run micro_perf, and write the results
# to BENCH_micro.json at the repo root so successive PRs accumulate a
# perf trajectory on the same machine.
#
# Usage:
#   bench/run_bench.sh [--smoke] [--out FILE]
#                      [--executor inprocess|tcp]
#                      [extra google-benchmark args...]
#       --smoke   reduced grid: 1 repetition, for CI smoke runs; writes
#                 build-bench/BENCH_smoke.json unless --out is given
#       --out F   write the JSON to F instead of the default
#       --executor E  run the BM_Suite* grid benchmarks through the
#                 given cell executor (exported as L0VLIW_EXECUTOR;
#                 tcp exercises the NDJSON wire protocol over a
#                 loopback --serve daemon micro_perf hosts in-process)
#
#   bench/run_bench.sh --diff OLD NEW [THRESHOLD_PCT]
#       Compare two results and print a per-benchmark delta table,
#       exiting 1 past THRESHOLD_PCT (default 10) — callers that want a
#       report-only diff (the CI smoke-bench job) ignore the status.
#       When L0VLIW_STORE=host:port is set and OLD/NEW are not existing
#       files, they are git revs and the diff is answered by the result
#       store (`l0store query ... diff`, suite ${L0VLIW_SUITE:-micro});
#       otherwise OLD/NEW are google-benchmark grid-JSON files and the
#       offline python path below compares them locally.
set -e

repo=$(cd "$(dirname "$0")/.." && pwd)
build="$repo/build-bench"

if [ "$1" = "--diff" ]; then
    old="$2"; new="$3"; threshold="${4:-10}"
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "usage: bench/run_bench.sh --diff OLD NEW [THRESHOLD_PCT]" >&2
        exit 2
    fi
    if [ -n "$L0VLIW_STORE" ] && [ ! -f "$old" ] && [ ! -f "$new" ]; then
        # Rev-vs-rev through the store daemon; exit status is the
        # store's verdict (1 = regression past threshold).
        l0store="$repo/build/l0store"
        if [ ! -x "$l0store" ]; then
            cmake -B "$repo/build" -S "$repo" > /dev/null
            cmake --build "$repo/build" --target l0store -j > /dev/null
        fi
        exec "$l0store" query "$L0VLIW_STORE" diff \
            "${L0VLIW_SUITE:-micro}" "$old" "$new" "$threshold"
    fi
    exec python3 - "$old" "$new" "$threshold" <<'PYEOF'
import json, sys

old_path, new_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])

NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def load(path):
    """name -> real_time in ns (real_time is reported in the
    benchmark's own time_unit), preferring the _mean aggregate when the
    file was written with --benchmark_report_aggregates_only."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        name = b["name"]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "mean":
                continue
            name = name[: -len("_mean")] if name.endswith("_mean") else name
        out[name] = float(b["real_time"]) * NS_PER.get(b.get("time_unit", "ns"), 1.0)
    return out

old, new = load(old_path), load(new_path)
common = sorted(set(old) & set(new))
if not common:
    print("no common benchmarks between %s and %s" % (old_path, new_path))
    sys.exit(2)

width = max(len(n) for n in common)
print("%-*s  %12s  %12s  %8s" % (width, "benchmark", "old(ns)", "new(ns)", "delta"))
regressed = []
for name in common:
    delta = 100.0 * (new[name] - old[name]) / old[name]
    flag = ""
    if delta > threshold:
        flag = "  <-- regression"
        regressed.append(name)
    print("%-*s  %12.0f  %12.0f  %+7.1f%%%s"
          % (width, name, old[name], new[name], delta, flag))
for name in sorted(set(old) - set(new)):
    print("%-*s  only in %s" % (width, name, old_path))
for name in sorted(set(new) - set(old)):
    print("%-*s  only in %s" % (width, name, new_path))
print("\n%d/%d benchmarks beyond +%.1f%% (positive = slower)"
      % (len(regressed), len(common), threshold))
sys.exit(1 if regressed else 0)
PYEOF
fi

smoke=0
out=""
while [ $# -gt 0 ]; do
    case "$1" in
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --executor)
        case "$2" in
        inprocess|tcp) ;;
        *) echo "--executor wants inprocess|tcp, got '$2'" >&2
           exit 2 ;;
        esac
        L0VLIW_EXECUTOR="$2"; export L0VLIW_EXECUTOR; shift 2 ;;
    *) break ;;
    esac
done
if [ -z "$out" ]; then
    if [ "$smoke" = 1 ]; then
        out="$build/BENCH_smoke.json"
    else
        out="$repo/BENCH_micro.json"
    fi
fi

cmake -B "$build" -S "$repo" -DL0VLIW_BENCH=ON \
      -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$build" --target micro_perf -j > /dev/null

if [ "$smoke" = 1 ]; then
    # Reduced grid: one repetition, no aggregates — enough to diff
    # against the committed trajectory, cheap enough for every PR.
    "$build/micro_perf" \
        --benchmark_out="$out" \
        --benchmark_out_format=json \
        --benchmark_repetitions=1 \
        "$@"
else
    "$build/micro_perf" \
        --benchmark_out="$out" \
        --benchmark_out_format=json \
        --benchmark_repetitions=5 \
        --benchmark_report_aggregates_only=true \
        "$@"
fi

echo "wrote $out"
