#!/usr/bin/env bash
# The benchmark's single entry point. It builds facilsim and
# facilbench from source into .bench_build/ (build time is never
# measured), then runs facilbench with the given flags from the
# repository root. Every Go cache and temporary file stays under
# .bench_build/. Examples:
#
#   bench/run.sh -workload fleet -seed 3 -seconds 20 -trace 0   # one run
#   bench/run.sh -quick                                          # smoke set
#   bench/run.sh -runs 3 -seed 1                                 # full set
#   bench/run.sh -compare parent.json change.json
#
# See bench/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, the go command detaches an upload process that
# outlives the build; off keeps every process this script starts its own.
printf 'off\n' >"$build/config/go/telemetry/mode"

go build -o "$build/bin/facilsim" ./cmd/facilsim
(cd bench && go build -o "$build/bin/facilbench" ./cmd/facilbench)
exec "$build/bin/facilbench" -facilsim "$build/bin/facilsim" "$@"
