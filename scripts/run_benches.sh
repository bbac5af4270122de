#!/usr/bin/env bash
# Runs the crypto micro-benchmarks and records the results as JSON, then
# the observability smoke pass: the obs-overhead guard, the Fig. 11a,
# decentralized-execution and in-network aggregation figures of
# bench_figures (each emits a machine-readable run report), the scale
# smoke bench, the schema
# checker (tools/obs/check_obs.py) over the emitted
# artifacts, and the perf gate (tools/obs/bench_diff.py) against the
# committed baselines in bench/baselines/.
#
# Usage: scripts/run_benches.sh [build-dir] [output-json]
#   build-dir    defaults to ./build (configured+built already)
#   output-json  defaults to bench/out/BENCH_crypto.json
#
# Bench artifacts land in bench/out/ (gitignored).  To refresh a perf
# baseline after an intentional change, copy the new report over:
#   cp bench/out/BENCH_scale.report.json bench/baselines/
#
# The JSON output is the calibration input for core::CostModel (see
# EXPERIMENTS.md "Calibration"); re-run this after touching src/crypto.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bench_out="$repo_root/bench/out"
out_json="${2:-$bench_out/BENCH_crypto.json}"
mkdir -p "$bench_out"

bench_bin="$build_dir/bench/bench_crypto_micro"
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build first: cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
  exit 1
fi

echo "Running bench_crypto_micro -> $out_json"
"$bench_bin" \
  --benchmark_format=json \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json

echo "Done. Summary (name: real_time):"
python3 - "$out_json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
for b in data.get("benchmarks", []):
    print(f"  {b['name']:<28} {b['real_time']:>12.0f} {b['time_unit']}")
EOF

echo
echo "Running bench_obs_overhead (asserts alloc-free hot paths)"
"$build_dir/bench/bench_obs_overhead"

echo
echo "Running bench_figures fig11a -> $bench_out/BENCH_fig11a.report.json"
CICERO_REPORT_DIR="$bench_out" "$build_dir/bench/bench_figures" fig11a > /dev/null

echo "Validating run report"
python3 "$repo_root/tools/obs/check_obs.py" "$bench_out/BENCH_fig11a.report.json"

echo
echo "Running bench_scale --smoke -> $bench_out/BENCH_scale.report.json"
CICERO_REPORT_DIR="$bench_out" "$build_dir/bench/bench_scale" --smoke

echo "Validating scale run report"
python3 "$repo_root/tools/obs/check_obs.py" "$bench_out/BENCH_scale.report.json"

echo
echo "Running bench_figures decentralized -> $bench_out/BENCH_decentralized.report.json"
CICERO_REPORT_DIR="$bench_out" "$build_dir/bench/bench_figures" decentralized > /dev/null

echo "Validating decentralized run report"
python3 "$repo_root/tools/obs/check_obs.py" "$bench_out/BENCH_decentralized.report.json"

echo
echo "Running bench_figures innet -> $bench_out/BENCH_innet.report.json"
CICERO_REPORT_DIR="$bench_out" "$build_dir/bench/bench_figures" innet > /dev/null

echo "Validating in-network aggregation run report"
python3 "$repo_root/tools/obs/check_obs.py" "$bench_out/BENCH_innet.report.json"

echo
echo "Perf gate: bench_diff vs bench/baselines/"
python3 "$repo_root/tools/obs/bench_diff.py" --self-test
diff_rc=0
for report in "$bench_out"/BENCH_*.report.json; do
  base="$repo_root/bench/baselines/$(basename "$report")"
  if [[ -f "$base" ]]; then
    python3 "$repo_root/tools/obs/bench_diff.py" "$report" "$base" \
      ${BENCH_DIFF_SOFT:+--soft} || diff_rc=$?
  fi
done
if [[ "$diff_rc" -ne 0 ]]; then
  echo "perf gate: regression detected (see above; refresh bench/baselines/ if intended)" >&2
  exit "$diff_rc"
fi

echo
# Chaos smoke: one deterministic lossy-network run.  The chaos binary is
# only present when the full test tree was built (obs-smoke CI builds
# selected bench/example targets only), so its absence is not an error.
chaos_bin="$build_dir/tests/cicero_chaos_tests"
if [[ -x "$chaos_bin" ]]; then
  echo "Running chaos smoke (seeded loss determinism)"
  "$chaos_bin" --gtest_filter='ChaosDeterminism.SameSeedBitIdenticalRun'
else
  echo "Chaos suite not built ($chaos_bin missing); skipping chaos smoke."
fi
