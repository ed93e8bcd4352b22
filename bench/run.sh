#!/bin/bash
# Entry point of the benchmark, named by BENCHMARK.json and run from the
# repository root: builds bench/ and execs it with the given arguments. Go's
# caches are pointed inside the checkout so that nothing is written outside.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
