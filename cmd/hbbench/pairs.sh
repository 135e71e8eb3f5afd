#!/usr/bin/env bash
# Runs the benchmark on two checkouts in alternating pairs and records
# every run's result line for `hbbench compare`:
#
#   bash cmd/hbbench/pairs.sh PARENT_DIR CHANGE_DIR RUNS OUT [WORKLOAD ...]
#   .bench_build/hbbench compare -bench BENCHMARK.json OUT.parent OUT.change
#
# Pair i runs every workload with seed i on both sides, the parent first
# in odd pairs and the change first in even ones. OUT.parent and
# OUT.change get one "<workload> <result json>" line per run; OUT.log
# collects the runs' standard error. Passing the same directory twice
# measures the benchmark's own run-to-run spread.
set -euo pipefail
if [ $# -lt 4 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR RUNS OUT [WORKLOAD ...]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
runs=$3
out=$(realpath -m "$4")
shift 4
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(figures-quick sweep-b16 serve-mixed cluster-sweep)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$parent/BENCHMARK.json")

one() { # dir side workload seed
	local line
	line=$(cd "$1" && bash cmd/hbbench/bench.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>>"$out.log" | tail -n 1)
	echo "$3 $line" >>"$out.$2"
}

for ((i = 1; i <= runs; i++)); do
	for w in "${workloads[@]}"; do
		if ((i % 2 == 1)); then
			one "$parent" parent "$w" "$i"
			one "$change" change "$w" "$i"
		else
			one "$change" change "$w" "$i"
			one "$parent" parent "$w" "$i"
		fi
	done
done
