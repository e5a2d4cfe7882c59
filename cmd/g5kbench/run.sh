#!/usr/bin/env bash
# BENCHMARK.json's command: builds g5kbench from the checkout it is started
# in (its root) and runs it with the arguments given. The go build cache, the
# toolchain's temporary files and the binary all go under cmd/g5kbench/.build/
# (ignored by cmd/g5kbench/.gitignore), so a run reads the go toolchain and
# otherwise reads and writes nothing outside its checkout. The first run in a
# checkout compiles the standard library too (≈ 20 s); later ones find
# everything cached. No VCS stamp: a checkout is not a repository, and one
# that sits below somebody else's would fail the build on git's ownership
# check. By hand, `go run ./cmd/g5kbench` does the same with the user's own
# cache.
set -euo pipefail
build="$PWD/cmd/g5kbench/.build"
mkdir -p "$build/cache" "$build/tmp"
GOCACHE="$build/cache" GOTMPDIR="$build/tmp" go build -buildvcs=false -o "$build/g5kbench" ./cmd/g5kbench
exec "$build/g5kbench" "$@"
