#!/usr/bin/env bash
# The tier-1 verification gate, runnable locally and from CI:
#
#   scripts/ci.sh
#
# Steps: format check, release build of every target (libs, bins,
# tests, examples), the full test suite, the benchmark harness's own
# suite, then live-serve smokes through the real binary.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --all-targets"
cargo build --release --all-targets

echo "==> cargo test -q"
cargo test -q

# The benchmark harness is its own workspace, frozen between benchmark
# PRs, that the suite above never compiles: a change that breaks a
# name it imports, or an answer its checker recomputes, must fail here
# (~30 s, including the 16 s `--smoke` run), not in the benchmark.
echo "==> cargo test -q --offline --manifest-path e2ebench/Cargo.toml"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

# The multi-world tenancy suite is the gate for the admin control
# plane (world.load/swap/evict/list, stats, swap cache invalidation);
# run it by name so a renamed or dropped target fails loudly instead
# of silently vanishing from the suite above.
echo "==> cargo test -q --test service_tenancy"
cargo test -q --test service_tenancy

# Smoke the adaptive trial policy over the wire: an `mc` query with an
# adaptive `trials` object must certify under the fixed budget and
# echo its certificate through a real client connection.
echo "==> cargo test -q --test service_adaptive"
cargo test -q --test service_adaptive

# Telemetry end to end: a live serve must echo per-stage trace spans,
# report them through the `metrics` admin op, and stay bit-identical
# with tracing on or off.
echo "==> cargo test -q --test service_metrics"
cargo test -q --test service_metrics

# Durability end to end: a server with an attached world store must
# survive a restart with bit-identical answers and certificates served
# from its snapshots (warm result cache), under the same generations.
echo "==> cargo test -q --test service_store"
cargo test -q --test service_store

# The transport contract: a reply over 8 KiB must not wait out a
# Nagle/delayed-ACK round (one `write` per line, TCP_NODELAY), and the
# injected hang-ups (`short_write`, `close_after`) must reach the peer
# as EOF, not as a hang.
echo "==> cargo test -q --test service_transport"
cargo test -q --test service_transport

# Smoke top-k boundary certification over the wire through the real
# binary: start a serve on an ephemeral port, issue a --certify-top
# query, and require the top-k certificate in the human output.
echo "==> biorank --certify-top wire smoke"
serve_log="$(mktemp)"
./target/release/biorank serve --addr 127.0.0.1:0 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
addr=""
for _ in $(seq 1 240); do
    addr=$(sed -n 's/^biorank-serve listening on \([0-9.:]*\) .*/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.5
done
if [ -z "$addr" ]; then
    echo "biorank serve never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi
# Capture, then match: `grep -q` exits on first match and would close
# the pipe while the client is still printing answer rows, panicking
# it with a broken stdout.
certify_out="$(./target/release/biorank query GALT --addr "$addr" --method mc --top 5 --certify-top)"
echo "$certify_out" >&2
echo "$certify_out" | grep -q "top-5 + boundary certified"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Single-flight smoke through the real binary: concurrent identical
# word-estimator queries must coalesce onto one flight
# (queries.coalesced > 0 in `admin metrics`) while every client still
# gets its answer. The trial count is sized so the first flight is
# still computing when the later clients connect.
echo "==> biorank single-flight (queries.coalesced > 0) wire smoke"
: >"$serve_log"
./target/release/biorank serve --addr 127.0.0.1:0 --workers 4 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 240); do
    addr=$(sed -n 's/^biorank-serve listening on \([0-9.:]*\) .*/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.5
done
if [ -z "$addr" ]; then
    echo "single-flight smoke serve never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi
query_pids=()
for _ in 1 2 3 4; do
    ./target/release/biorank query GALT --addr "$addr" --method mc \
        --estimator word --trials 8000000 --top 3 >/dev/null &
    query_pids+=($!)
done
for pid in "${query_pids[@]}"; do
    wait "$pid"
done
metrics_out="$(./target/release/biorank admin metrics --addr "$addr")"
echo "$metrics_out" >&2
echo "$metrics_out" | grep -Eq "queries\.coalesced +[1-9]"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Cost-based planner smoke through the real binary: a default serve
# plans every `mc` query that doesn't pin an estimator (the serve
# default is `auto`), counting each decision under
# planner.chosen.<strategy> — the counters must sum to exactly the
# planned request count. A forced --estimator request then routes
# around the planner: the query counter moves, the chosen counters
# don't.
echo "==> biorank planner auto/opt-out wire smoke"
: >"$serve_log"
./target/release/biorank serve --addr 127.0.0.1:0 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 240); do
    addr=$(sed -n 's/^biorank-serve listening on \([0-9.:]*\) .*/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.5
done
if [ -z "$addr" ]; then
    echo "planner smoke serve never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi
for protein in GALT CFTR LPL; do
    ./target/release/biorank query "$protein" --addr "$addr" --method mc --top 3 >/dev/null
done
# The fourth planned request asks for its plan back: --explain must
# print the chosen strategy, prediction, and feature vector.
explain_out="$(./target/release/biorank query GALT --addr "$addr" --method mc --top 3 --explain)"
echo "$explain_out" >&2
echo "$explain_out" | grep -q "  plan: "
echo "$explain_out" | grep -q "    features: "
# Explicit opt-out: a pinned estimator must not touch the planner.
./target/release/biorank query GALT --addr "$addr" --method mc --estimator word --top 3 >/dev/null
metrics_out="$(./target/release/biorank admin metrics --addr "$addr")"
echo "$metrics_out" >&2
chosen_total=$(echo "$metrics_out" | awk '/planner\.chosen\./ {sum += $2} END {print sum + 0}')
served_total=$(echo "$metrics_out" | awk '$1 == "queries" {sum += $2} END {print sum + 0}')
if [ "$chosen_total" -ne 4 ]; then
    echo "planner.chosen.* counters sum to $chosen_total, expected 4 (one per planned request)" >&2
    exit 1
fi
if [ "$served_total" -ne 5 ]; then
    echo "queries counter reads $served_total, expected 5 (4 planned + 1 forced)" >&2
    exit 1
fi
# CLI parity: `query` without --addr runs the same request in-process
# on a fresh engine, so its certificate and answer rows must equal the
# server's (the header line carries the address and wall-clock micros).
echo "==> biorank query local == --addr parity smoke"
for extra in "" "--certify-top"; do
    parity_args="GALT --method mc --estimator word --trials 1000 --top 5 $extra"
    # shellcheck disable=SC2086
    local_rows="$(./target/release/biorank query $parity_args | grep -v "candidate functions")"
    # shellcheck disable=SC2086
    remote_rows="$(./target/release/biorank query $parity_args --addr "$addr" | grep -v "candidate functions")"
    echo "$local_rows" >&2
    [ "$(echo "$local_rows" | wc -l)" -ge 5 ]
    if [ "$local_rows" != "$remote_rows" ]; then
        echo "local and --addr answers differ for: biorank query $parity_args" >&2
        diff <(echo "$local_rows") <(echo "$remote_rows") >&2 || true
        exit 1
    fi
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Restart recovery smoke through the real binary: a --data-dir serve
# answers a certified query, checkpoints, dies, and the restarted
# process serves the identical answers + certificate from its
# snapshots (result cache hit, warm.replayed > 0) — never by
# re-running integration or Monte Carlo.
echo "==> biorank --data-dir restart recovery smoke"
data_dir="$(mktemp -d)"
answers_a="$(mktemp)"
answers_b="$(mktemp)"
trap 'kill "$serve_pid" 2>/dev/null || true;
      rm -f "$serve_log" "$answers_a" "$answers_b"; rm -rf "$data_dir"' EXIT
start_durable_serve() {
    : >"$serve_log"
    ./target/release/biorank serve --addr 127.0.0.1:0 --workers 2 \
        --data-dir "$data_dir" "$@" >"$serve_log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 240); do
        addr=$(sed -n 's/^biorank-serve listening on \([0-9.:]*\) .*/\1/p' "$serve_log")
        [ -n "$addr" ] && break
        sleep 0.5
    done
    if [ -z "$addr" ]; then
        echo "durable biorank serve never reported its address" >&2
        cat "$serve_log" >&2
        exit 1
    fi
}
# The per-query header carries the address and wall-clock micros;
# compare only the certificate and answer rows.
start_durable_serve
./target/release/biorank query GALT --addr "$addr" --method mc --top 5 --certify-top |
    grep -v "candidate functions via" >"$answers_a"
./target/release/biorank admin world.load aux --seed 99 --addr "$addr"
./target/release/biorank admin checkpoint --addr "$addr" |
    tee /dev/stderr | grep -q "2 world(s) snapshotted"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
start_durable_serve
grep -q "2 world(s) recovered" "$serve_log"
restart_out="$(./target/release/biorank query GALT --addr "$addr" --method mc --top 5 --certify-top)"
echo "$restart_out" | grep -q "result cache hit"
echo "$restart_out" | grep -v "candidate functions via" >"$answers_b"
diff "$answers_a" "$answers_b"
# Capture, then match — `grep -q` would close the pipe mid-print
# (the planner histograms pushed `warm.replayed` off the tail).
restart_metrics="$(./target/release/biorank admin metrics --addr "$addr")"
echo "$restart_metrics" | grep -q "warm.replayed"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Budget-shrink reboot: under --worlds 1 only the pinned default fits,
# so restoring aux evicts it — and that eviction must be as durable as
# any other. Wait until it is WAL-logged (the boot itself logs nothing
# else), kill, and the next default-budget boot must recover one world:
# a zombie aux would make it two.
echo "==> biorank --data-dir budget-shrink reboot smoke"
start_durable_serve --worlds 1
logged=""
for _ in $(seq 1 100); do
    shrink_metrics="$(./target/release/biorank admin metrics --addr "$addr")"
    logged=$(echo "$shrink_metrics" | awk '$1 == "store.wal_append" {print $2}')
    [ -n "$logged" ] && [ "$logged" -ge 1 ] && break
    sleep 0.1
done
if [ -z "$logged" ] || [ "$logged" -lt 1 ]; then
    echo "the --worlds 1 reboot never WAL-logged aux's eviction" >&2
    echo "$shrink_metrics" >&2
    exit 1
fi
echo "$shrink_metrics" | grep -Eq "tenancy\.evict\.lru +1$"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
start_durable_serve
grep -q "1 world(s) recovered" "$serve_log"
kill "$serve_pid" 2>/dev/null || true

# Overload + graceful-drain smoke through the real binary: flood past
# a tiny connection budget and require the id-less shed notice, require
# the shed to be accounted in `admin metrics`, then drain with a query
# still in flight — the query must answer and the serve must exit 0.
echo "==> biorank overload shed + graceful drain smoke"
: >"$serve_log"
./target/release/biorank serve --addr 127.0.0.1:0 --workers 2 \
    --max-connections 2 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 240); do
    addr=$(sed -n 's/^biorank-serve listening on \([0-9.:]*\) .*/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.5
done
if [ -z "$addr" ]; then
    echo "overload smoke serve never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi
host="${addr%:*}"
port="${addr##*:}"
# Fill the budget with two held connections, each proven live by a
# round-trip (even an unparseable line gets an error response).
exec 3<>"/dev/tcp/$host/$port"
printf 'not json\n' >&3
IFS= read -r _probe <&3
exec 4<>"/dev/tcp/$host/$port"
printf 'not json\n' >&4
IFS= read -r _probe <&4
# Connection three is over budget: one id-less overload notice, then
# close — no thread was spawned for it.
exec 5<>"/dev/tcp/$host/$port"
shed_line=""
IFS= read -r shed_line <&5 || true
echo "shed notice: $shed_line" >&2
echo "$shed_line" | grep -q '"error":"overloaded"'
echo "$shed_line" | grep -q '"retry_after_ms"'
exec 5<&- 5>&- 3<&- 3>&- 4<&- 4>&-
# Freed slots readmit; the permit release races the next accept, so
# retry until metrics answer and account for the shed.
shed_count=""
metrics_out=""
for _ in $(seq 1 50); do
    if metrics_out="$(./target/release/biorank admin metrics --addr "$addr" 2>/dev/null)"; then
        shed_count=$(echo "$metrics_out" | awk '$1 == "shed.connections" {print $2}')
        [ -n "$shed_count" ] && [ "$shed_count" -ge 1 ] && break
    fi
    sleep 0.2
done
if [ -z "$shed_count" ] || [ "$shed_count" -lt 1 ]; then
    echo "shed.connections never accounted for the flood" >&2
    echo "$metrics_out" >&2
    exit 1
fi
# Drain with a slow word-estimator query in flight: zero dropped.
./target/release/biorank query GALT --addr "$addr" --method mc \
    --estimator word --trials 8000000 --top 3 >/dev/null &
query_pid=$!
sleep 1
./target/release/biorank admin server.drain --addr "$addr" |
    tee /dev/stderr | grep -q "server drained"
wait "$query_pid"
if wait "$serve_pid"; then
    echo "serve exited 0 after drain" >&2
else
    echo "serve exited nonzero after drain" >&2
    exit 1
fi

echo "OK"
