#!/usr/bin/env bash
# Builds the benchmark from the sources in the working directory (the
# repository root) and runs it; every argument is passed through, e.g.
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 25 --trace 0
# The Go build cache, the binary and the result files stay under .bench_build.
# In a git checkout the commit is recorded; elsewhere git finds no repository
# (the search stops at the working directory) and the benchmark names the
# code by a digest of its sources.
set -euo pipefail
root=$(pwd -P)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git rev-parse --verify -q HEAD 2>/dev/null || true)
exec "$build/perfbench" --commit "$commit" "$@"
