#!/usr/bin/env bash
# Runs every bench_e2e workload N times, each run in its own process, and
# folds the reports into OUTDIR/BENCH_<workload>.json.
#
#   bench_e2e/run_benchmark.sh OUTDIR [N=5] [FIRST_SEED=1] [SET=0]
#
# Iteration i uses seed FIRST_SEED+i and alternates the workload order
# (forward on even i, reversed on odd i), so slow drift on the machine does
# not always land on the same workload. Runs are tagged with SET, so two
# sets of the same commit can live in one directory and be compared with
#   bench_e2e/compare_runs.py OUTDIR OUTDIR --set-a 0 --set-b 1
# TRACE=1 adds a --trace 1 run after each untraced one (per-layer metrics).
# The reports record the CPU model and nproc of the machine.
set -euo pipefail

if [ $# -lt 1 ]; then
  sed -n '2,14p' "$0" >&2
  exit 2
fi
out=$1
n=${2:-5}
first_seed=${3:-1}
set_tag=${4:-0}
trace=${TRACE:-0}

cd "$(dirname "$0")/.."
mkdir -p "$out/runs"
read -r -a workloads < <(python3 -c \
  'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
cpu_model=$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)

for ((i = 0; i < n; i++)); do
  seed=$((first_seed + i))
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((j = ${#workloads[@]} - 1; j >= 0; j--)); do order+=("${workloads[j]}"); done
  fi
  for w in "${order[@]}"; do
    modes=(0)
    [ "$trace" = 1 ] && modes+=(1)
    for t in "${modes[@]}"; do
      tag="${w}.set${set_tag}.seed${seed}.trace${t}"
      echo "run $tag" >&2
      python3 bench_e2e/run.py --workload "$w" --seed "$seed" --trace "$t" \
        --json-out "$out/runs/$tag.json" > "$out/runs/$tag.log"
    done
  done
done

python3 bench_e2e/compare_runs.py --collect "$out" --set "$set_tag" \
  --cpu-model "${cpu_model:-unknown}" --nproc "$(nproc)"
