#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments. Every file the Go toolchain writes
# (build cache, module path, config) stays under .bench_build/.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
(cd "$root/perfbench" && go build -o "$out/g10perf" .) >&2
exec "$out/g10perf" "$@"
