#!/usr/bin/env bash
# Builds the ledger binary from this checkout and runs it. Everything the
# build and the run write — Go build cache, the go command's own counters
# and temp files, binaries, traces — stays under .bench_build/ at the root
# of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$root/benchmarks" -o "$out/ledger" .
exec "$out/ledger" -root "$root" "$@"
