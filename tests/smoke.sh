#!/bin/sh
# Offline smoke test: full release build, a warning-free clippy pass, the
# complete test suite (including the execution-mode equivalence suite, the
# source-scan guards — statement and row counts of a source element, the
# parent-build artifact fixture, concurrent typed appends — the query-edge
# regressions: a query writes nothing (epoch, log and catalog of every engine
# unchanged) and two callers sharing query and element names on one database
# do not interact — the read-path suite: every door (SQL text live, at a
# snapshot, in a transaction; a statement value over a table, on a node) one
# function, one `query` span, one count; EXPLAIN counts nothing and ANALYZE
# one run; joins against the reference executor and the parent build's bytes
# — the write-path
# suite: the every-door model (execute, programmatic call, transaction, script
# and replay leave the same catalog and the same log) and the parent-build
# log/dump fixtures — the transaction
# suites: the as-of-BEGIN isolation model, the import count guard, concurrent
# `add_run` — the WAL crash-consistency suites (an import and a delete killed
# at every frame, a dump restored without its log), the log-reader suite (a
# seeded crash-and-reopen model: acknowledged ⇒ recovered over any number of
# reopens, the file ends at its last whole unit; logs the parent build wrote),
# and the replication chaos/failover suites), the
# stand-alone benchmark package's build and tests (so a refactor that breaks
# the API it is pinned to fails here, not in the benchmark driver), a
# replicated CLI query diffed against the unsharded run, a
# warning-free documentation build, an HTTP server round trip
# (`perfbase serve` answering ingest and query over a real socket, diffed
# against the CLI), and the sqldb microbenchmarks plus the 256-connection
# server stress harness (both write into BENCH_sqldb.json at the repo
# root, gated by bench_guard).
# Must pass with no network access beyond loopback and no external crates.
# Not run from here: `tests/bench_history.sh [seed]`, which appends one run of
# the five BENCHMARK.json workloads to the committed BENCH_history.jsonl —
# the trajectory across commits; informational, never gating.
set -eu

cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== clippy (deny warnings) =="
cargo clippy -q -- -D warnings

echo "== tests =="
cargo test -q

echo "== benchmark package (pinned to the public API; builds and tests offline) =="
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test --manifest-path benchmark/Cargo.toml

echo "== execution-mode equivalence (inline / threads / placed / sharded) =="
cargo test -q -p perfbase --test sharded_equivalence

echo "== source scan (O(1) statements + same rows visited, parent-build fixture, concurrent appends) =="
cargo test -q -p perfbase --test source_scan
cargo test -q -p perfbase --test sharded_equivalence source_scan_matches
cargo test -q -p sqldb --test concurrency concurrent_typed_scans

echo "== query edges (a query writes nothing; two callers on one database do not interact) =="
cargo test -q -p perfbase-core --lib a_query_writes_nothing
cargo test -q -p perfbase-core --lib concurrent_queries_on_one_database_do_not_interact

echo "== read path (every door one function, EXPLAIN is the plan that ran, parent-build join corpus and goldens) =="
cargo test -q -p sqldb --test read_path
cargo test -q -p perfbase --test explain_golden

echo "== write path (every door one outcome, parent-build log and dump fixtures) =="
cargo test -q -p sqldb --test write_path

echo "== transactions (as-of-BEGIN isolation model, cost in counts, concurrent add_run) =="
cargo test -q -p sqldb --test txn_isolation
cargo test -q -p perfbase --test import_cost_guard
cargo test -q -p perfbase --test concurrent_import

echo "== crash consistency (WAL kill points + kill-during-import) =="
cargo test -q -p sqldb --test wal_crash
cargo test -q -p perfbase --test crash_recovery

echo "== log reader (one unit reader: crash-and-reopen model, parent-written logs; overflow is a 400, a panic costs no worker) =="
cargo test -q -p sqldb --test log_units
cargo test -q -p pbserver --test http_api

echo "== replication (log shipping, chaos kills, failover equivalence) =="
cargo test -q -p sqldb --test repl_chaos
cargo test -q -p perfbase --test replication_failover

echo "== explain plans (golden files) + telemetry round trip =="
cargo test -q -p perfbase --test explain_golden
cargo test -q -p perfbase --test telemetry_export
cargo test -q -p perfbase --test transfer_stats

echo "== query trace round trip =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/exp.xml" <<'EOF'
<?xml version="1.0"?>
<experiment>
  <name>smoke</name>
  <user access="admin">smoke</user>
  <parameter occurence="once"><name>n</name><datatype>integer</datatype></parameter>
  <parameter><name>step</name><datatype>integer</datatype></parameter>
  <result><name>elapsed</name><datatype>float</datatype></result>
</experiment>
EOF
cat > "$SMOKE_DIR/input.xml" <<'EOF'
<?xml version="1.0"?>
<input>
  <named><variable>n</variable><match>n =</match></named>
  <tabular>
    <start match="step elapsed"/>
    <column index="1"><variable>step</variable></column>
    <column index="2"><variable>elapsed</variable></column>
  </tabular>
</input>
EOF
printf 'n = 4\n\nstep elapsed\n1 1.25\n2 1.5\n' > "$SMOKE_DIR/run1.out"
printf 'n = 8\n\nstep elapsed\n1 2.5\n2 2.75\n' > "$SMOKE_DIR/run2.out"
cat > "$SMOKE_DIR/q.xml" <<'EOF'
<?xml version="1.0"?>
<query name="smoke_q">
  <source id="s"><parameter name="n" carry="true"/><value name="elapsed"/></source>
  <operator id="a" type="avg" input="s"/>
  <output id="o" input="a" format="ascii" title="elapsed by n"/>
</query>
EOF
PB=./target/release/perfbase
"$PB" setup --def "$SMOKE_DIR/exp.xml" --db "$SMOKE_DIR/exp.pbdb" --user smoke >/dev/null
"$PB" input --db "$SMOKE_DIR/exp.pbdb" --desc "$SMOKE_DIR/input.xml" --user smoke \
    "$SMOKE_DIR/run1.out" "$SMOKE_DIR/run2.out" >/dev/null
"$PB" query --db "$SMOKE_DIR/exp.pbdb" --spec "$SMOKE_DIR/q.xml" --user smoke \
    --trace "$SMOKE_DIR/q.trace" --stats-export "$SMOKE_DIR/telem" >/dev/null
test -s "$SMOKE_DIR/q.trace" || { echo "empty query trace"; exit 1; }
grep -q "dag" "$SMOKE_DIR/q.trace" || { echo "trace missing dag span"; exit 1; }
# The in-process export must attribute the query's SELECT traffic.
awk '$1 == "select" && $2 > 0 { found = 1 } END { exit !found }' \
    "$SMOKE_DIR/telem/telemetry_run.txt" \
    || { echo "stats export missing select activity"; exit 1; }
"$PB" stats >/dev/null

echo "== replicated query round trip (4 nodes, 1 replica per shard) =="
"$PB" query --db "$SMOKE_DIR/exp.pbdb" --spec "$SMOKE_DIR/q.xml" --user smoke \
    > "$SMOKE_DIR/solo.out"
"$PB" query --db "$SMOKE_DIR/exp.pbdb" --spec "$SMOKE_DIR/q.xml" --user smoke \
    --nodes 4 --replicas 1 > "$SMOKE_DIR/repl_full.out"
grep -q "== replication ==" "$SMOKE_DIR/repl_full.out" \
    || { echo "missing replication report"; exit 1; }
# The query outputs (everything before the transfer/replication reports)
# must match the unsharded run byte for byte.
sed '/^== transfer ==$/,$d' "$SMOKE_DIR/repl_full.out" > "$SMOKE_DIR/repl.out"
diff "$SMOKE_DIR/solo.out" "$SMOKE_DIR/repl.out" \
    || { echo "replicated query output diverges from unsharded"; exit 1; }

echo "== server round trip (HTTP vs CLI) =="
PBHTTP=./target/release/pbhttp
"$PB" serve --db "$SMOKE_DIR/exp.pbdb" --addr 127.0.0.1:0 \
    > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while ! grep -q "listening on" "$SMOKE_DIR/serve.log" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "server did not start"; cat "$SMOKE_DIR/serve.log"; exit 1; }
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.log")
"$PBHTTP" GET "http://$ADDR/health" | grep -q ok \
    || { echo "health check failed"; exit 1; }
SMOKE_SQL='SELECT step, elapsed FROM pb_rundata_1 ORDER BY step'
"$PBHTTP" POST "http://$ADDR/query" "$SMOKE_SQL" > "$SMOKE_DIR/http.out"
"$PB" sql --db "$SMOKE_DIR/exp.pbdb" "$SMOKE_SQL" > "$SMOKE_DIR/cli.out"
diff "$SMOKE_DIR/http.out" "$SMOKE_DIR/cli.out" \
    || { echo "HTTP /query and 'perfbase sql' disagree"; exit 1; }
printf 'step\telapsed\n99\t3.125\n' > "$SMOKE_DIR/batch.tsv"
"$PBHTTP" POST "http://$ADDR/ingest?table=pb_rundata_1" "@$SMOKE_DIR/batch.tsv" \
    | grep -q "inserted 1 row" || { echo "HTTP ingest failed"; exit 1; }
"$PBHTTP" POST "http://$ADDR/query" 'SELECT count(*) FROM pb_rundata_1' \
    | grep -q '^3$' || { echo "ingested row not visible over HTTP"; exit 1; }

echo "== transactional import over HTTP (/begin .. /commit) =="
SID=$("$PBHTTP" POST "http://$ADDR/session")
"$PBHTTP" -H "X-Session: $SID" POST "http://$ADDR/begin" \
    | grep -q "begun" || { echo "/begin failed"; exit 1; }
printf 'step\telapsed\n100\t4.0\n' > "$SMOKE_DIR/txn1.tsv"
printf 'step\telapsed\n101\t4.5\n' > "$SMOKE_DIR/txn2.tsv"
"$PBHTTP" -H "X-Session: $SID" POST "http://$ADDR/ingest?table=pb_rundata_1" \
    "@$SMOKE_DIR/txn1.tsv" | grep -q "buffered 1 row" \
    || { echo "txn ingest 1 not buffered"; exit 1; }
"$PBHTTP" -H "X-Session: $SID" POST "http://$ADDR/ingest?table=pb_rundata_1" \
    "@$SMOKE_DIR/txn2.tsv" | grep -q "buffered 1 row" \
    || { echo "txn ingest 2 not buffered"; exit 1; }
# Uncommitted rows stay invisible to other clients ...
"$PBHTTP" POST "http://$ADDR/query" 'SELECT count(*) FROM pb_rundata_1' \
    | grep -q '^3$' || { echo "buffered txn rows leaked before commit"; exit 1; }
# ... but the transaction reads its own writes ...
"$PBHTTP" -H "X-Session: $SID" POST "http://$ADDR/query" \
    'SELECT count(*) FROM pb_rundata_1' \
    | grep -q '^5$' || { echo "txn does not read its own writes"; exit 1; }
# ... and the commit publishes both ingests atomically.
"$PBHTTP" -H "X-Session: $SID" POST "http://$ADDR/commit" \
    | grep -q "committed" || { echo "/commit failed"; exit 1; }
"$PBHTTP" POST "http://$ADDR/query" 'SELECT count(*) FROM pb_rundata_1' \
    | grep -q '^5$' || { echo "committed txn rows not visible"; exit 1; }
"$PBHTTP" -H "X-Session: $SID" POST "http://$ADDR/session/close" >/dev/null

"$PBHTTP" POST "http://$ADDR/shutdown" >/dev/null
wait "$SERVE_PID" || { echo "server exited non-zero"; cat "$SMOKE_DIR/serve.log"; exit 1; }

echo "== docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== microbench =="
cargo run --release -p bench --bin microbench

echo "== server stress (256 connections, quick workload) =="
cargo run --release -p bench --bin server_stress -- --quick

echo "== bench regression guard =="
cargo run --release -p bench --bin bench_guard

echo "== net Rust LOC (informational; the figure CHANGES.md reports) =="
sh tests/loc.sh crates/sqldb/src/exec.rs crates/core/src/query/exec.rs || true
sh tests/loc.sh crates/sqldb/src/wal.rs crates/sqldb/src/repl.rs crates/sqldb/src/engine.rs || true

echo "smoke: OK"
