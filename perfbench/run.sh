#!/usr/bin/env bash
# Builds rbexp, rbserve and perfbench from source into .bench_build/,
# then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kernels|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare -parent <checkout> -change <checkout>
#
# Everything it writes (Go build cache, binaries, span dumps, server logs)
# stays under .bench_build/. Build output goes to standard error, so the
# JSON result stays the last line of standard output.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rbexp" ] || [ ! -d "$root/cmd/rbserve" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root; the simulator's sources are missing here" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp GOPATH=$build/gopath
# The go command keeps its settings and telemetry under the user config
# directory; keep those inside the checkout too.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$build/bin/" ./cmd/rbexp ./cmd/rbserve >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" "$@"
