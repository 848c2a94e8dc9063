#!/usr/bin/env bash
# Runs every workload on N seeds, untraced, and appends each result to a
# record file for `run.sh compare`. Run from the repository root:
#
#   bash perfbench/sweep.sh parent.jsonl 10
#   bash perfbench/sweep.sh change.jsonl 10
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Seeds run 1..N; for paired runs of two commits, alternate which commit
# runs first. Seed 7919 is held out: run it separately (FIRST_SEED=7919
# N=1) before claiming a gain.
set -euo pipefail
out="${1:?usage: sweep.sh OUT.jsonl [N]}"
n="${2:-10}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
first="${FIRST_SEED:-1}"
for wl in fleet-chaos papi-read-loop serve-during-ingest; do
	for ((seed = first; seed < first + n; seed++)); do
		bash perfbench/run.sh --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 --record "$out" | tail -n 1
	done
done
