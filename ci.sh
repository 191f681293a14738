#!/bin/sh
# The full local CI gate. Run from the repository root before committing.
#
# Usage: ./ci.sh
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (-D warnings, intra-doc links resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# perfbench/ is a package of its own (empty [workspace] table), so the
# workspace clippy and test runs above never compile it.
echo "==> perfbench unit tests (separate package)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> mosc-obs disabled-recorder overhead guard"
cargo test -q -p mosc-obs disabled_recorder_is_inert

echo "==> mosc-cli profile smoke (specs/smoke.json)"
profile_out=$(cargo run -q --bin mosc-cli -- profile specs/smoke.json --obs=json)
test -n "$profile_out" || { echo "profile emitted no telemetry" >&2; exit 1; }
echo "$profile_out" | grep -q '"type":"profile","solver":"Governor"' \
    || { echo "profile missing per-solver records" >&2; exit 1; }

echo "==> period-map scaling smoke (dense ops sublinear in m)"
pm_field() { # pm_field <m> <field>
    echo "$profile_out" | sed -n "s/.*\"type\":\"periodmap\",\"m\":$1,.*\"$2\":\([0-9]*\).*/\1/p"
}
fast_1=$(pm_field 1 fast_ops); fast_64=$(pm_field 64 fast_ops); fast_256=$(pm_field 256 fast_ops)
dense_64=$(pm_field 64 dense_ops); expm_fast_64=$(pm_field 64 fast_expm); expm_dense_64=$(pm_field 64 dense_expm)
test -n "$fast_1" && test -n "$fast_256" && test -n "$dense_64" \
    || { echo "profile missing periodmap records" >&2; exit 1; }
# The modal kernel's dense-op count must not grow with the oscillation
# factor (flat, not merely sublinear) ...
test "$fast_256" -le $((fast_1 * 4)) \
    || { echo "period_map dense ops grew with m: $fast_1 -> $fast_256" >&2; exit 1; }
# ... and must beat the interval-by-interval reference >= 5x at m = 64.
test $((dense_64 + expm_dense_64)) -ge $(((fast_64 + expm_fast_64) * 5)) \
    || { echo "period_map kernel not >=5x cheaper at m=64: fast $fast_64+$expm_fast_64 vs dense $dense_64+$expm_dense_64" >&2; exit 1; }

echo "==> AO TPT ranking smoke (one steady-state call per exact peak evaluation)"
ao_obs=$(cargo run -q --bin mosc-cli -- solve --algo ao --rows 3 --cols 3 --levels 4 --tmax 67.5 --obs=json)
ao_counter() { # ao_counter <name>
    echo "$ao_obs" | sed -n "s/.*\"type\":\"counter\",\"name\":\"$1\",\"value\":\([0-9]*\).*/\1/p"
}
ss_calls=$(ao_counter steady_state.calls); pe_calls=$(ao_counter peak_eval.calls)
test -n "$ss_calls" && test -n "$pe_calls" \
    || { echo "AO --obs=json missing kernel counters" >&2; exit 1; }
# The TPT pass ranks its trials by superposition: no trial is evaluated.
test "$ss_calls" -eq "$pe_calls" \
    || { echo "AO TPT evaluated trials: steady_state.calls $ss_calls vs peak_eval.calls $pe_calls" >&2; exit 1; }

echo "==> PCO sampled-peak smoke (same samples and evaluations, cut trials stop early)"
# Release build: debug builds add the solvers' debug_assert analyzer hooks,
# whose own peak evaluations would move the counts.
pco_obs=$(cargo run -q --release --bin mosc-cli -- solve --algo pco --rows 2 --cols 2 --levels 4 --tmax 63.05 --obs=json)
pco_counter() { # pco_counter <name>
    echo "$pco_obs" | sed -n "s/.*\"type\":\"counter\",\"name\":\"$1\",\"value\":\([0-9]*\).*/\1/p"
}
pco_matmuls=$(pco_counter period_map.matmuls)
pco_ss=$(pco_counter steady_state.calls); pco_pe=$(pco_counter peak_eval.calls)
pco_cut=$(pco_counter pco.trials_cut)
test -n "$pco_matmuls" && test -n "$pco_ss" && test -n "$pco_pe" && test -n "$pco_cut" \
    || { echo "PCO --obs=json missing kernel counters" >&2; exit 1; }
# The sample grid and the evaluation count must not move. A phase trial or
# refill candidate stops at its first sample above its cutoff, so 24 of the
# 32 trials are cut and far fewer samples are projected (one basis change
# per projected sample and per polish point).
test "$pco_matmuls" -eq 3893 && test "$pco_ss" -eq 133 && test "$pco_pe" -eq 133 && test "$pco_cut" -eq 24 \
    || { echo "PCO counts moved: period_map.matmuls $pco_matmuls (want 3893), steady_state.calls $pco_ss, peak_eval.calls $pco_pe (want 133), pco.trials_cut $pco_cut (want 24)" >&2; exit 1; }

echo "==> period-map bench artifact (BENCH_periodmap.json)"
cargo run -q --release -p mosc-bench --bin periodmap -- --csv target/bench >/dev/null
# Record presence here; structure (schema-v2 meta, quantile ordering, rate
# sanity) is the M10x deny-mode analyze gate below.
grep -q '"type":"periodmap"' target/bench/BENCH_periodmap.json \
    || { echo "BENCH_periodmap.json missing periodmap records" >&2; exit 1; }

echo "==> reproduction shape checks (validate_all)"
# Every paper shape check plus the kernel-attribution checks; a check that
# goes stale when a kernel changes fails here. Writes BENCH_obs.json (ignored).
validate_out=$(cargo run -q --release -p mosc-bench --bin validate_all) \
    || { echo "$validate_out"; echo "validate_all: a shape check failed" >&2; exit 1; }

echo "==> mosc-serve smoke (daemon, cached solve, typed errors, drained shutdown)"
cargo build -q --release --bin mosc-cli
serve_log=target/bench/serve_smoke.log
mkdir -p target/bench
# Port 0: the kernel picks a free port, the daemon prints the real address.
./target/release/mosc-cli serve --obs=json --addr 127.0.0.1:0 >"$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q 'mosc-serve listening on' "$serve_log" && break
    sleep 0.1
done
serve_addr=$(sed -n 's/^mosc-serve listening on //p' "$serve_log")
test -n "$serve_addr" || { echo "daemon never announced its address" >&2; exit 1; }
smoke_platform=$(tr -d ' \n' < specs/smoke.json | sed -e 's/^{"platform"://' -e 's/}$//')
serve_out=$(printf '%s\n' \
    "{\"id\":\"s1\",\"solver\":\"ao\",\"platform\":$smoke_platform}" \
    "{\"id\":\"s2\",\"solver\":\"ao\",\"platform\":$smoke_platform}" \
    'this is not json' \
    '{"id":"bye","op":"shutdown"}' \
    | ./target/release/mosc-cli client --addr "$serve_addr")
echo "$serve_out" | grep -q '"id":"s1","status":"ok".*"cached":false' \
    || { echo "serve smoke: first solve not a cold ok" >&2; echo "$serve_out" >&2; exit 1; }
echo "$serve_out" | grep -q '"id":"s2","status":"ok".*"cached":true' \
    || { echo "serve smoke: repeated solve missed the cache" >&2; echo "$serve_out" >&2; exit 1; }
echo "$serve_out" | grep -q '"status":"error","kind":"parse"' \
    || { echo "serve smoke: malformed request not answered with a parse error" >&2; echo "$serve_out" >&2; exit 1; }
echo "$serve_out" | grep -q '"shutting_down":true' \
    || { echo "serve smoke: shutdown op not acknowledged" >&2; echo "$serve_out" >&2; exit 1; }
wait "$serve_pid" || { echo "serve smoke: daemon exited non-zero" >&2; cat "$serve_log" >&2; exit 1; }
grep -q 'mosc-serve drained and stopped' "$serve_log" \
    || { echo "serve smoke: daemon did not drain cleanly" >&2; cat "$serve_log" >&2; exit 1; }
# The drained daemon's telemetry must pass the M060-M062 serve lints —
# in deny mode, so even warning-level findings fail the gate.
grep -v '^mosc-serve' "$serve_log" > target/bench/serve_smoke.jsonl
./target/release/mosc-cli analyze -D warnings target/bench/serve_smoke.jsonl \
    || { echo "serve smoke: telemetry failed the M06x lints" >&2; exit 1; }

echo "==> mosc-serve observability smoke (access log, timeline, metrics exposition, M07x/M10x lints)"
access_log=target/bench/serve_access.jsonl
obs_timeline=target/bench/serve_timeline.jsonl
obs_log=target/bench/serve_obs_smoke.log
# --obs=json arms the recorder (latency histograms and kernel counters only
# record while it is on); --slow-ms 0 makes every request a "slow" one so
# the governor entry must carry its span tree; --timeline writes the
# windowed sampler's records.
./target/release/mosc-cli serve --obs=json --addr 127.0.0.1:0 \
    --access-log "$access_log" --slow-ms 0 \
    --timeline "$obs_timeline" --timeline-window-ms 250 >"$obs_log" 2>&1 &
obs_pid=$!
for _ in $(seq 1 50); do
    grep -q 'mosc-serve listening on' "$obs_log" && break
    sleep 0.1
done
obs_addr=$(sed -n 's/^mosc-serve listening on //p' "$obs_log")
test -n "$obs_addr" || { echo "observability daemon never announced its address" >&2; exit 1; }
# 100 mixed solve requests: ao/pco alternating over 10 t_max_c variants
# (cold solves + cache hits), closed by one short-horizon governor solve —
# the only solver whose access-log entry can show a nonzero expm.calls delta.
awk 'BEGIN {
    for (i = 0; i < 99; i++) {
        solver = (i % 2 == 0) ? "ao" : "pco";
        printf "{\"id\":\"q%d\",\"solver\":\"%s\",\"platform\":{\"rows\":1,\"cols\":2,\"levels\":[0.6,1.3],\"t_max_c\":%d},\"options\":{\"max_m\":64,\"m_patience\":4,\"t_unit_divisor\":50}}\n", i, solver, 55 + i % 10;
    }
    printf "{\"id\":\"qgov\",\"solver\":\"governor\",\"platform\":{\"rows\":1,\"cols\":2,\"levels\":[0.6,1.3],\"t_max_c\":55},\"options\":{\"governor_horizon\":10.0,\"governor_warmup\":5.0,\"governor_control_period\":0.01}}\n";
}' | ./target/release/mosc-cli client --addr "$obs_addr" > target/bench/serve_obs_responses.txt
test "$(grep -c '"status":"ok"' target/bench/serve_obs_responses.txt)" -eq 100 \
    || { echo "observability smoke: not all 100 requests came back ok" >&2; exit 1; }
# Out-of-range numbers: a deadline past what a Duration holds, one that fits
# a Duration but no Instant, and a number past the f64 range each get a
# parse error, and the event loop lives on to answer a ping on a fresh
# connection.
edge_platform='{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}'
edge_out=$(printf '%s\n' \
    "{\"id\":\"edge1\",\"solver\":\"ao\",\"platform\":$edge_platform,\"options\":{\"deadline_ms\":1e300}}" \
    "{\"id\":\"edge2\",\"solver\":\"ao\",\"platform\":$edge_platform,\"options\":{\"deadline_ms\":1e22}}" \
    "{\"id\":\"edge3\",\"solver\":\"ao\",\"platform\":$edge_platform,\"options\":{\"base_period\":1e999}}" \
    | ./target/release/mosc-cli client --addr "$obs_addr") \
    || { echo "observability smoke: the daemon dropped an out-of-range line" >&2; exit 1; }
test "$(echo "$edge_out" | grep -c '"status":"error","kind":"parse"')" -eq 3 \
    || { echo "observability smoke: out-of-range numbers not answered with three parse errors" >&2; echo "$edge_out" >&2; exit 1; }
edge_ping=$(printf '%s\n' '{"id":"edge-ping","op":"ping"}' \
    | ./target/release/mosc-cli client --addr "$obs_addr") \
    || { echo "observability smoke: daemon stopped answering after out-of-range numbers" >&2; exit 1; }
echo "$edge_ping" | grep -q '"pong":true' \
    || { echo "observability smoke: no pong after out-of-range numbers" >&2; echo "$edge_ping" >&2; exit 1; }
stats_out=$(./target/release/mosc-cli stats --addr "$obs_addr")
echo "$stats_out" | grep -q 'p50' \
    || { echo "observability smoke: stats summary missing latency quantiles" >&2; exit 1; }
echo "$stats_out" | grep -q 'p999' \
    || { echo "observability smoke: stats summary missing the p999 tail quantile" >&2; exit 1; }
echo "$stats_out" | grep -q 'queue' \
    || { echo "observability smoke: stats summary missing queue depth" >&2; exit 1; }
./target/release/mosc-cli metrics --addr "$obs_addr" > target/bench/serve_metrics.txt
# Every exposition line is a comment or `name[{labels}] value`, with an
# optional OpenMetrics exemplar suffix (` # {trace_id="..."} value`) on
# histogram buckets ...
awk '
    /^#/ { next }
    /^mosc_serve_[a-z0-9_]+(\{[^}]*\})? ([0-9eE+.-]+|\+Inf)( # \{trace_id="[0-9a-f]+"\} [0-9eE+.-]+)?$/ { ok++; next }
    { print "bad exposition line: " $0 > "/dev/stderr"; bad++ }
    END { exit (bad > 0 || ok == 0) }
' target/bench/serve_metrics.txt \
    || { echo "observability smoke: metrics exposition does not parse" >&2; exit 1; }
# ... and the solve-latency histogram counts sum to the served solve count.
hist_total=$(awk '/^mosc_serve_latency_seconds_count\{/ && /phase="total"/ && !/op="proto"/ { s += $2 } END { print s + 0 }' target/bench/serve_metrics.txt)
test "$hist_total" -eq 100 \
    || { echo "observability smoke: histogram counts sum to $hist_total, expected 100" >&2; exit 1; }
# The tail-quantile and queue-depth gauges parse as numbers, and the
# quantile chain read off the exposition is monotone: p50 <= p99 <= p999.
awk '
    /^mosc_serve_latency_p50_seconds /  { p50  = $2 + 0; seen++ }
    /^mosc_serve_latency_p99_seconds /  { p99  = $2 + 0; seen++ }
    /^mosc_serve_latency_p999_seconds / { p999 = $2 + 0; seen++ }
    /^mosc_serve_queue_depth /          { depth = $2 + 0; seen++ }
    END {
        if (seen != 4) { print "missing quantile/queue gauges (" seen "/4)" > "/dev/stderr"; exit 1 }
        if (p50 <= 0 || p99 < p50 || p999 < p99) {
            print "quantile gauges not monotone: " p50 " " p99 " " p999 > "/dev/stderr"; exit 1
        }
        if (depth < 0) { print "negative queue depth " depth > "/dev/stderr"; exit 1 }
    }
' target/bench/serve_metrics.txt \
    || { echo "observability smoke: p999/queue-depth gauges missing or inconsistent" >&2; exit 1; }
printf '%s\n' '{"id":"bye","op":"shutdown"}' \
    | ./target/release/mosc-cli client --addr "$obs_addr" >/dev/null
wait "$obs_pid" || { echo "observability smoke: daemon exited non-zero" >&2; cat "$obs_log" >&2; exit 1; }
# Exactly one access line per request line sent (100 solves, three
# out-of-range lines, ping, stats, metrics, shutdown) and one drain
# summary: an append that drops or doubles lines fails here.
obs_access=$(grep -c '"type":"access"' "$access_log")
test "$obs_access" -eq 107 \
    || { echo "observability smoke: $obs_access access lines, expected 107" >&2; exit 1; }
obs_summary=$(grep -c '"type":"serve_summary"' "$access_log")
test "$obs_summary" -eq 1 \
    || { echo "observability smoke: $obs_summary serve_summary lines, expected 1" >&2; exit 1; }
# The slow-request entry for the governor solve carries its span tree and a
# nonzero expm.calls delta (one per modal `advance` step).
grep '"id":"qgov"' "$access_log" | grep -q '"spans":.*reactive.simulate' \
    || { echo "observability smoke: governor access entry has no span tree" >&2; exit 1; }
gov_expm=$(sed -n 's/.*"id":"qgov".*"expm_calls":\([0-9]*\).*/\1/p' "$access_log")
test -n "$gov_expm" && test "$gov_expm" -gt 0 \
    || { echo "observability smoke: governor expm.calls delta is '$gov_expm', expected > 0" >&2; exit 1; }
grep -q '"type":"timeline"' "$obs_timeline" \
    || { echo "observability smoke: daemon produced no timeline windows" >&2; exit 1; }
# Every access line and the drain trailer must pass the M07x access lints
# and the M082/M09x cross-line joins, and the timeline the M101/M102
# window lints — in deny mode.
./target/release/mosc-cli analyze -D warnings "$access_log" \
    || { echo "observability smoke: access log failed the M07x/M09x lints" >&2; exit 1; }
./target/release/mosc-cli analyze -D warnings "$obs_timeline" \
    || { echo "observability smoke: timeline failed the M10x lints" >&2; exit 1; }

echo "==> solve_batch smoke (client --batch, registry warm/cold, M110/M111 lints)"
bt_access=target/bench/batch_access.jsonl
bt_log=target/bench/batch_daemon.log
./target/release/mosc-cli serve --obs=json --addr 127.0.0.1:0 \
    --access-log "$bt_access" >"$bt_log" 2>&1 &
bt_pid=$!
for _ in $(seq 1 50); do
    grep -q 'mosc-serve listening on' "$bt_log" && break
    sleep 0.1
done
bt_addr=$(sed -n 's/^mosc-serve listening on //p' "$bt_log")
test -n "$bt_addr" || { echo "batch smoke: daemon never announced its address" >&2; exit 1; }
# Two solve lines over one platform: `client --batch` folds them into a
# single solve_batch dispatch whose resolve interns the platform.
batch_lines() {
    printf '%s\n' \
        "{\"id\":\"b1\",\"solver\":\"ao\",\"platform\":$smoke_platform,\"options\":{\"max_m\":64,\"m_patience\":4,\"t_unit_divisor\":50}}" \
        "{\"id\":\"b2\",\"solver\":\"ao\",\"platform\":$smoke_platform,\"options\":{\"max_m\":64,\"m_patience\":4,\"t_unit_divisor\":50,\"threads\":2}}"
}
bt_cold=$(batch_lines | ./target/release/mosc-cli client --batch --addr "$bt_addr" 2>&1)
echo "$bt_cold" | grep -q 'registry cold' \
    || { echo "batch smoke: first batch did not resolve cold" >&2; echo "$bt_cold" >&2; exit 1; }
test "$(echo "$bt_cold" | grep -c '"status":"ok"')" -eq 2 \
    || { echo "batch smoke: cold batch did not answer both variants" >&2; echo "$bt_cold" >&2; exit 1; }
bt_warm=$(batch_lines | ./target/release/mosc-cli client --batch --addr "$bt_addr" 2>&1)
echo "$bt_warm" | grep -q 'registry warm' \
    || { echo "batch smoke: repeated batch missed the registry" >&2; echo "$bt_warm" >&2; exit 1; }
echo "$bt_warm" | grep -q '"cached":true' \
    || { echo "batch smoke: repeated batch missed the solution cache" >&2; echo "$bt_warm" >&2; exit 1; }
# A third batch on the same floorplan under another T_max: a cold registry
# key, but the floorplan's thermal model is already built, so variant 0's
# access entry must report no eigendecomposition.
shared_platform=$(echo "$smoke_platform" | sed 's/"t_max_c":[0-9.]*/"t_max_c":58.0/')
bt_shared=$(printf '%s\n' \
    "{\"id\":\"c1\",\"solver\":\"ao\",\"platform\":$shared_platform}" \
    "{\"id\":\"c2\",\"solver\":\"pco\",\"platform\":$shared_platform}" \
    | ./target/release/mosc-cli client --batch --addr "$bt_addr" 2>&1)
echo "$bt_shared" | grep -q 'registry cold' \
    || { echo "batch smoke: a new T_max did not resolve cold" >&2; echo "$bt_shared" >&2; exit 1; }
test "$(echo "$bt_shared" | grep -c '"status":"ok"')" -eq 2 \
    || { echo "batch smoke: the new-T_max batch did not answer both variants" >&2; echo "$bt_shared" >&2; exit 1; }
printf '%s\n' '{"id":"bye","op":"shutdown"}' \
    | ./target/release/mosc-cli client --addr "$bt_addr" >/dev/null
wait "$bt_pid" || { echo "batch smoke: daemon exited non-zero" >&2; cat "$bt_log" >&2; exit 1; }
grep '"id":"c1#0"' "$bt_access" | grep -q '"eigen_calls":0.0' \
    || { echo "batch smoke: a built floorplan was eigendecomposed again" >&2; grep '"id":"c1#0"' "$bt_access" >&2; exit 1; }
# The per-variant access entries carry registry attribution; the M110/M111
# joins (warm-recompute, resolve disagreement) must pass in deny mode.
./target/release/mosc-cli analyze -D warnings "$bt_access" \
    || { echo "batch smoke: access log failed the M110/M111 registry lints" >&2; exit 1; }

echo "==> distributed-tracing smoke (v1+v2 clients, flight dumps, exemplars, waterfall, M12x)"
tr_access=target/bench/trace_access.jsonl
tr_flight=target/bench/trace_flight.jsonl
tr_log=target/bench/trace_daemon.log
# Flight recorder armed (--flight-dump), every request "slow" so each one
# leaves a ring snapshot behind, access log on for the trace identities.
./target/release/mosc-cli serve --obs=json --addr 127.0.0.1:0 \
    --access-log "$tr_access" --flight-dump "$tr_flight" --slow-ms 0 >"$tr_log" 2>&1 &
tr_pid=$!
for _ in $(seq 1 50); do
    grep -q 'mosc-serve listening on' "$tr_log" && break
    sleep 0.1
done
tr_addr=$(sed -n 's/^mosc-serve listening on //p' "$tr_log")
test -n "$tr_addr" || { echo "trace smoke: daemon never announced its address" >&2; exit 1; }
# A v1 client first: no trace member on the wire, and the response must be
# byte-compatible with the pre-trace protocol.
v1_out=$(printf '%s\n' "{\"id\":\"v1req\",\"solver\":\"ao\",\"platform\":$smoke_platform}" \
    | ./target/release/mosc-cli client --addr "$tr_addr")
echo "$v1_out" | grep -q '"id":"v1req","status":"ok"' \
    || { echo "trace smoke: v1 client request failed" >&2; echo "$v1_out" >&2; exit 1; }
if echo "$v1_out" | grep -q '"trace"'; then
    echo "trace smoke: v1 response unexpectedly grew a trace member" >&2; exit 1
fi
# A v2 client: --trace originates a context per request and prints the
# minted trace id to stderr — the id this whole section follows around.
tr_err=target/bench/trace_client.err
printf '%s\n' "{\"id\":\"t1\",\"solver\":\"ao\",\"platform\":$smoke_platform}" \
    | ./target/release/mosc-cli client --addr "$tr_addr" --trace \
    > target/bench/trace_client.out 2>"$tr_err"
grep -q '"id":"t1","status":"ok"' target/bench/trace_client.out \
    || { echo "trace smoke: v2 client request failed" >&2; cat target/bench/trace_client.out >&2; exit 1; }
trace_id=$(sed -n 's/^trace \([0-9a-f]\{32\}\).*/\1/p' "$tr_err" | head -n 1)
test -n "$trace_id" || { echo "trace smoke: client printed no trace id" >&2; cat "$tr_err" >&2; exit 1; }
# The trace id must reach at least one histogram exemplar in the
# exposition before any later request can displace it from its bucket.
./target/release/mosc-cli metrics --addr "$tr_addr" > target/bench/trace_metrics.txt
grep -q "# {trace_id=\"$trace_id\"}" target/bench/trace_metrics.txt \
    || { echo "trace smoke: exposition has no exemplar for trace $trace_id" >&2; exit 1; }
# A traced solve_batch: every variant entry must continue one trace.
tb_err=target/bench/trace_batch.err
batch_lines | ./target/release/mosc-cli client --batch --addr "$tr_addr" --trace \
    > target/bench/trace_batch.out 2>"$tb_err"
test "$(grep -c '"status":"ok"' target/bench/trace_batch.out)" -eq 2 \
    || { echo "trace smoke: traced batch did not answer both variants" >&2; cat target/bench/trace_batch.out >&2; exit 1; }
batch_trace=$(sed -n 's/^trace \([0-9a-f]\{32\}\).*/\1/p' "$tb_err" | head -n 1)
test -n "$batch_trace" || { echo "trace smoke: batch client printed no trace id" >&2; cat "$tb_err" >&2; exit 1; }
# Force a deadline-exceeded anomaly: an already-expired deadline trips the
# queued-deadline check, which snapshots the flight ring with reason
# "deadline". The I/O thread answers cache hits before the queue, so
# the request carries a threads value no earlier request used — threads is
# part of the cache key — guaranteeing a miss and a real enqueue.
printf '%s\n' "{\"id\":\"tdl\",\"solver\":\"ao\",\"platform\":$smoke_platform,\"options\":{\"deadline_ms\":0,\"threads\":777}}" \
    | ./target/release/mosc-cli client --addr "$tr_addr" --trace \
    > target/bench/trace_deadline.out 2>/dev/null
grep -q '"kind":"deadline"' target/bench/trace_deadline.out \
    || { echo "trace smoke: expired deadline not answered with a deadline error" >&2; cat target/bench/trace_deadline.out >&2; exit 1; }
printf '%s\n' '{"id":"bye","op":"shutdown"}' \
    | ./target/release/mosc-cli client --addr "$tr_addr" >/dev/null
wait "$tr_pid" || { echo "trace smoke: daemon exited non-zero" >&2; cat "$tr_log" >&2; exit 1; }
# The v2 trace id appears verbatim in the access log ...
grep -q "\"trace_id\":\"$trace_id\"" "$tr_access" \
    || { echo "trace smoke: trace $trace_id missing from the access log" >&2; exit 1; }
# ... in every variant entry of the batch dispatch, all sharing one parent
# (the dispatch span) ...
test "$(grep -c "\"trace_id\":\"$batch_trace\"" "$tr_access")" -ge 2 \
    || { echo "trace smoke: batch variants did not continue trace $batch_trace" >&2; exit 1; }
batch_parents=$(grep "\"trace_id\":\"$batch_trace\"" "$tr_access" \
    | sed -n 's/.*"parent_id":"\([0-9a-f]*\)".*/\1/p' | sort -u | wc -l)
test "$batch_parents" -eq 1 \
    || { echo "trace smoke: batch variants disagree on their dispatch parent" >&2; exit 1; }
# ... and in a flight dump, including the forced deadline dump.
grep -q '"type":"flight_dump"' "$tr_flight" \
    || { echo "trace smoke: no flight dump was written" >&2; exit 1; }
grep -q '"reason":"deadline"' "$tr_flight" \
    || { echo "trace smoke: the deadline anomaly left no flight dump" >&2; exit 1; }
grep -q "$trace_id" "$tr_flight" \
    || { echo "trace smoke: trace $trace_id missing from the flight dumps" >&2; exit 1; }
# The joined waterfall renders the trace from those artifacts ...
./target/release/mosc-cli trace "$tr_access" "$tr_flight" --trace-id "$trace_id" \
    > target/bench/trace_waterfall.txt
grep -q "trace $trace_id" target/bench/trace_waterfall.txt \
    || { echo "trace smoke: waterfall did not render trace $trace_id" >&2; cat target/bench/trace_waterfall.txt >&2; exit 1; }
grep -q 'span ' target/bench/trace_waterfall.txt \
    || { echo "trace smoke: waterfall has no span rows" >&2; exit 1; }
./target/release/mosc-cli trace "$tr_access" "$tr_flight" --format json \
    | grep -q "\"trace_id\":\"$batch_trace\"" \
    || { echo "trace smoke: JSON join lost the batch trace" >&2; exit 1; }
# ... and the whole story passes deny-mode M120-M124 (plus the M06x-M11x
# lints the artifacts already answer to).
./target/release/mosc-cli analyze -D warnings "$tr_access" "$tr_flight" \
    || { echo "trace smoke: artifacts failed the deny-mode M12x lints" >&2; exit 1; }

echo "==> deny-mode analyze over the bench artifact (M10x bench lints)"
./target/release/mosc-cli analyze -D warnings target/bench/BENCH_periodmap.json \
    || { echo "deny-mode analyze failed on BENCH_periodmap.json" >&2; exit 1; }

echo "==> solution-claim cross-check (solve --claim, M081 recompute, SARIF smoke)"
printf '%s\n' '{"platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 55.0}}' \
    > target/bench/claim_spec.json
./target/release/mosc-cli solve --algo ao --rows 1 --cols 2 --levels 2 --tmax 55 \
    --claim target/bench/claim.json >/dev/null
./target/release/mosc-cli analyze -D warnings \
    target/bench/claim_spec.json target/bench/claim.json \
    || { echo "claim cross-check: M081 recompute rejected the solver's own claim" >&2; exit 1; }
./target/release/mosc-cli analyze --format sarif \
    target/bench/claim_spec.json target/bench/claim.json \
    | grep -q '"version":"2.1.0"' \
    || { echo "claim cross-check: SARIF output missing schema version" >&2; exit 1; }

# The sanitizer jobs need the nightly toolchain plus the miri / rust-src
# components. They gate gracefully: absent tooling skips with a notice
# rather than failing the whole pipeline (the container may be offline).
if rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    nightly_components=$(rustup component list --toolchain nightly --installed 2>/dev/null || true)

    echo "==> miri: mosc-obs unit tests under the interpreter"
    if echo "$nightly_components" | grep -q '^miri'; then
        MIRIFLAGS=-Zmiri-disable-isolation cargo +nightly miri test -q -p mosc-obs --lib \
            || { echo "miri found undefined behaviour in mosc-obs" >&2; exit 1; }
    else
        echo "    (skipped: miri component not installed for nightly)"
    fi

    echo "==> thread sanitizer: mosc-serve loopback smoke"
    if echo "$nightly_components" | grep -q '^rust-src'; then
        RUSTFLAGS=-Zsanitizer=thread cargo +nightly test -q -Zbuild-std \
            --target x86_64-unknown-linux-gnu -p mosc-serve --test loopback \
            || { echo "thread sanitizer flagged a data race in mosc-serve" >&2; exit 1; }
    else
        echo "    (skipped: rust-src component not installed for nightly)"
    fi
else
    echo "==> sanitizers skipped: no nightly toolchain installed"
fi

echo "==> all checks passed"
