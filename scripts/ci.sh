#!/bin/sh
# Tier-1 gate: static checks, the full test suite under the race detector,
# and the quick tier of the differential verification suite (lockstep
# oracle, machine invariants, the poll-vs-event scheduler backend gate,
# adder and converter equivalence).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go run ./cmd/rblint ./...
# Machine-readable lint artifact + rule-coverage gate: the -json report is
# kept as a CI artifact, and the set of analyzers that actually ran is
# diffed against the checked-in baseline so a rule silently dropping out of
# Analyzers() (or a rename) fails the build instead of passing vacuously.
LINT_ART="${LINT_ART:-rblint_report.json}"
go run ./cmd/rblint -json ./... >"$LINT_ART"
sed -n 's/.*"analyzer": "\([a-z]*\)".*/\1/p' "$LINT_ART" | sort >"$LINT_ART.rules"
diff scripts/rblint_rules.baseline "$LINT_ART.rules"
go build ./...
# Race instrumentation slows the experiment-matrix tests well past the
# default 10m package timeout; they pass with room to spare given 40m.
go test -race -timeout 40m ./...
# -quick includes the backends layer: the event-driven scheduler must be
# bit-identical to the poll oracle on every checked (machine, workload) cell.
go run ./cmd/rbcheck -quick
# Fault-injection gate: detection floors (gate coverage, 100% residue on
# single digit flips, full watchdog recovery) plus the deterministic
# service-chaos outcome counts; non-zero exit on any regression. -grid adds
# the grid chaos campaign: routing under worker kills, hedge races, the
# heartbeat health model, and torn-journal resume with byte-identity.
go run ./cmd/rbfault -quick -grid >/dev/null
# The service-chaos faults wedge and release every pool worker, so run the
# campaign again with a multi-worker pool whatever the host's CPU count.
GOMAXPROCS=4 go run ./cmd/rbfault -quick -grid >/dev/null
# Fuzz smoke leg: a few seconds of coverage-guided search on the
# differential fuzz targets — the packed 64-lane engine vs the scalar
# oracle, plus the adder-equivalence and lockstep targets. Any minimized
# crasher lands in testdata/fuzz and replays as a regular test case.
go test -run '^$' -fuzz '^FuzzPackedEvalEquivalence$' -fuzztime 5s ./internal/gates/
go test -run '^$' -fuzz '^FuzzAdderEquivalence$' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz '^FuzzLockstep$' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz '^FuzzCheckpointRoundtrip$' -fuzztime 5s ./internal/ckpt/
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 5s ./internal/grid/
# Focused race leg: the packages with real cross-goroutine traffic (worker
# pool, response cache, HTTP service, fault campaigns) get a second -race
# shake beyond the one-shot full run above, to catch schedule-dependent
# races like Submit-vs-Close. -cpu 1,2,4 runs them at fixed GOMAXPROCS
# values so the gate does not depend on the host's CPU count: a hang that
# only appears with several pool workers (or only with one) fails here on
# any machine.
go test -race -count=2 -cpu 1,2,4 -timeout 40m ./internal/pool/ ./internal/rcache/ ./internal/server/ ./internal/fault/ ./internal/grid/

# rbserve smoke test: boot the server on an ephemeral port, probe liveness
# and metrics with its built-in client (no curl dependency), and require the
# served fig9 text to be byte-identical to rbexp's output.
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"; [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true' EXIT
go build -o "$BIN/rbserve" ./cmd/rbserve
go build -o "$BIN/rbexp" ./cmd/rbexp
"$BIN/rbserve" -addr 127.0.0.1:0 -addr-file "$BIN/addr" &
SRV_PID=$!
for _ in $(seq 1 100); do
	[ -s "$BIN/addr" ] && break
	sleep 0.1
done
[ -s "$BIN/addr" ]
ADDR="$(head -n1 "$BIN/addr")"
"$BIN/rbserve" -get "http://$ADDR/healthz" | grep -q '^ok$'
"$BIN/rbserve" -get "http://$ADDR/metrics" | grep -q '"requests"'
"$BIN/rbserve" -get "http://$ADDR/v1/experiment/fig9?format=text" >"$BIN/fig9.srv"
"$BIN/rbexp" -exp fig9 >"$BIN/fig9.cli"
diff "$BIN/fig9.srv" "$BIN/fig9.cli"
kill "$SRV_PID"
wait "$SRV_PID" || true
SRV_PID=''

# Grid smoke test: two worker processes plus a coordinator routing across
# them. The coordinator's batch artifact endpoint must be byte-identical to
# serial rbexp — the distributed sweep changes where cells run, never what
# they compute. Also exercises the SSE stream shape end to end.
"$BIN/rbserve" -role worker -addr 127.0.0.1:0 -addr-file "$BIN/w1.addr" &
W1_PID=$!
"$BIN/rbserve" -role worker -addr 127.0.0.1:0 -addr-file "$BIN/w2.addr" &
W2_PID=$!
trap 'rm -rf "$BIN"; for p in "${SRV_PID:-}" "${W1_PID:-}" "${W2_PID:-}" "${CO_PID:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done' EXIT
for _ in $(seq 1 100); do
	[ -s "$BIN/w1.addr" ] && [ -s "$BIN/w2.addr" ] && break
	sleep 0.1
done
[ -s "$BIN/w1.addr" ] && [ -s "$BIN/w2.addr" ]
W1="$(head -n1 "$BIN/w1.addr")"
W2="$(head -n1 "$BIN/w2.addr")"
"$BIN/rbserve" -role coordinator -workers "http://$W1,http://$W2" \
	-addr 127.0.0.1:0 -addr-file "$BIN/co.addr" &
CO_PID=$!
for _ in $(seq 1 100); do
	[ -s "$BIN/co.addr" ] && break
	sleep 0.1
done
[ -s "$BIN/co.addr" ]
CO="$(head -n1 "$BIN/co.addr")"
"$BIN/rbserve" -get "http://$CO/healthz" | grep -q '^ok$'
"$BIN/rbserve" -get "http://$CO/v1/batch?artifact=fig9&format=text" >"$BIN/fig9.grid"
diff "$BIN/fig9.grid" "$BIN/fig9.cli"
# The figure endpoints route through the same grid Runner.
"$BIN/rbserve" -get "http://$CO/v1/experiment/fig9?format=text" >"$BIN/fig9.grid2"
diff "$BIN/fig9.grid2" "$BIN/fig9.cli"
# Both workers actually served cells, and the stream terminates with done.
"$BIN/rbserve" -get "http://$CO/metrics" | grep -q '"mode": *"coordinator"'
"$BIN/rbserve" -get "http://$CO/v1/batch?machines=baseline&widths=4&workloads=compress&format=sse" \
	| grep -q '^event: done$'
kill "$W1_PID" "$W2_PID" "$CO_PID"
wait "$W1_PID" "$W2_PID" "$CO_PID" 2>/dev/null || true
W1_PID='' W2_PID='' CO_PID=''

# Grid chaos smoke test: durable journaled batches with crash-resume, plus
# worker registration heartbeats. A coordinator with a journal dir starts
# with NO seed workers; two workers -register into its grid. A fig9 batch is
# then interrupted by killing one worker and the coordinator mid-flight; a
# coordinator restarted on the same journal dir resumes the incomplete
# journal — re-dispatching only the cells the journal is missing — and the
# recovered output must be byte-identical to serial rbexp.
trap 'rm -rf "$BIN"; for p in "${SRV_PID:-}" "${W1_PID:-}" "${W2_PID:-}" "${CO_PID:-}" "${W3_PID:-}" "${W4_PID:-}" "${GET_PID:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done' EXIT
JDIR="$BIN/journals"
mkdir -p "$JDIR"
"$BIN/rbserve" -role coordinator -journal-dir "$JDIR" -grid-inflight 1 \
	-addr 127.0.0.1:0 -addr-file "$BIN/co3.addr" &
CO_PID=$!
for _ in $(seq 1 100); do
	[ -s "$BIN/co3.addr" ] && break
	sleep 0.1
done
[ -s "$BIN/co3.addr" ]
CO="$(head -n1 "$BIN/co3.addr")"
"$BIN/rbserve" -role worker -addr 127.0.0.1:0 -addr-file "$BIN/w3.addr" \
	-register "http://$CO" &
W3_PID=$!
"$BIN/rbserve" -role worker -addr 127.0.0.1:0 -addr-file "$BIN/w4.addr" \
	-register "http://$CO" &
W4_PID=$!
# Registration heartbeats (not -workers seeds) are the only path into this
# grid: wait until both workers have joined the registry.
for _ in $(seq 1 100); do
	"$BIN/rbserve" -get "http://$CO/metrics" | grep -q '"live": *2' && break
	sleep 0.1
done
"$BIN/rbserve" -get "http://$CO/metrics" | grep -q '"live": *2'
# Start the batch, then SIGKILL a worker and the coordinator mid-flight.
# -grid-inflight 1 serialises cell dispatch, so a fig9 sweep comfortably
# outlives a kill 0.7s in with some cells already journaled.
"$BIN/rbserve" -get "http://$CO/v1/batch?artifact=fig9&format=text" >/dev/null 2>&1 &
GET_PID=$!
sleep 0.4
kill -9 "$W4_PID" 2>/dev/null || true
sleep 0.3
kill -9 "$CO_PID" 2>/dev/null || true
wait "$GET_PID" 2>/dev/null || true
wait "$W4_PID" "$CO_PID" 2>/dev/null || true
GET_PID='' W4_PID='' CO_PID=''
ls "$JDIR" | grep -q '\.rbjl$'  # the interrupted batch left a journal...
! ls "$JDIR" | grep -q '\.out$' # ...and no rendered output yet
# Restart the coordinator on the same journal dir, seeded with the surviving
# worker; the incomplete journal resumes in the background once it's up.
W3="$(head -n1 "$BIN/w3.addr")"
"$BIN/rbserve" -role coordinator -journal-dir "$JDIR" -workers "http://$W3" \
	-addr 127.0.0.1:0 -addr-file "$BIN/co4.addr" 2>"$BIN/co4.log" &
CO_PID=$!
for _ in $(seq 1 300); do
	ls "$JDIR"/*.out >/dev/null 2>&1 && break
	sleep 0.1
done
ls "$JDIR"/*.out
# Byte-identity: the resumed batch's rendered output equals serial rbexp.
diff "$JDIR"/*.out "$BIN/fig9.cli"
# The resume log proves no cell ran twice: replayed + re-dispatched == total.
RESUME="$(sed -n 's/.*resumed: \([0-9]*\) cells from journal, \([0-9]*\) re-dispatched, \([0-9]*\) total.*/\1 \2 \3/p' "$BIN/co4.log")"
[ -n "$RESUME" ]
set -- $RESUME
[ "$(($1 + $2))" -eq "$3" ]
[ "$3" -gt 0 ]
CO4="$(head -n1 "$BIN/co4.addr")"
"$BIN/rbserve" -get "http://$CO4/metrics" >"$BIN/co4.metrics"
grep -q '"batches_resumed": *1' "$BIN/co4.metrics"
grep -q '"hedges"' "$BIN/co4.metrics"
kill "$W3_PID" "$CO_PID"
wait "$W3_PID" "$CO_PID" 2>/dev/null || true
W3_PID='' CO_PID=''
