#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload fleet-chaos --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, Go telemetry files) stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

PERFBENCH_COMMIT="$(GIT_DIR="$root/.git" git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
PERFBENCH_COMMAND="bash perfbench/run.sh $*"
export PERFBENCH_COMMIT PERFBENCH_COMMAND
exec "$out/perfbench" "$@"
