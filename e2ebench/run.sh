#!/usr/bin/env bash
# Builds the command-latency benchmark from the checkout's sources and
# runs it with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload fib --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go caches, telemetry) stays under
# .bench_build in the checkout root. Without the ldb module beside it
# the build fails and the script exits non-zero before printing anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$root/.bench_build/config" # go env file, telemetry
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C e2ebench build -o "$root/.bench_build/e2ebench" . >&2
# Freed heap goes back to the kernel with MADV_FREE, so the runtime
# reuses it without faulting it in again. With the default MADV_DONTNEED
# an lcc session takes about 2,100 page faults (about 60 with MADV_FREE),
# whose cost on a VM varies with the host rather than with the debugger.
export GODEBUG=madvdontneed=0
exec "$root/.bench_build/e2ebench" "$@"
