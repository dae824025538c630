//! Concurrency stress tests: the engine must support the perfbase access
//! pattern — many concurrent readers over shared run tables while each
//! query element writes only its own temp table (paper §4.2/§4.3) — and,
//! since the MVCC work, serve snapshot-isolated analysts concurrently with
//! live imports.

mod common;

use common::Rng;
use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{Engine, Snapshot, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn concurrent_readers_see_consistent_counts() {
    let db = Arc::new(Engine::new());
    db.execute("CREATE TABLE t (a INTEGER, b FLOAT)").unwrap();
    let rows: Vec<Vec<Value>> = (0..5_000)
        .map(|i| vec![Value::Int(i % 50), Value::Float(i as f64)])
        .collect();
    db.insert_rows("t", rows).unwrap();

    let handles: Vec<_> = (0..8)
        .map(|k| {
            let db = db.clone();
            thread::spawn(move || {
                for _ in 0..20 {
                    let rs = db
                        .query(&format!(
                            "SELECT count(*), sum(b) FROM t WHERE a = {}",
                            k % 50
                        ))
                        .unwrap();
                    assert_eq!(rs.rows()[0][0], Value::Int(100));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn writers_on_distinct_temp_tables_do_not_interfere() {
    let db = Arc::new(Engine::new());
    let handles: Vec<_> = (0..8)
        .map(|k| {
            let db = db.clone();
            thread::spawn(move || {
                let table = format!("scratch_{k}");
                db.execute(&format!("CREATE TEMP TABLE {table} (x INTEGER)"))
                    .unwrap();
                for i in 0..200 {
                    db.execute(&format!("INSERT INTO {table} VALUES ({i})"))
                        .unwrap();
                }
                let rs = db.query(&format!("SELECT count(*) FROM {table}")).unwrap();
                assert_eq!(rs.rows()[0][0], Value::Int(200));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.temp_table_names().len(), 8);
}

/// The source elements of a parallel wave: every thread scans the same run
/// tables — pinning the same versions — and appends what it selects to a
/// table of its own, while a writer keeps committing to one of the scanned
/// tables. Each vector must be the one a lone thread builds.
#[test]
fn concurrent_typed_scans_share_pinned_tables() {
    use sqldb::sql::parse_expr;
    use sqldb::{Cell, Column, DataType, Schema, Table};
    const RUNS: i64 = 12;
    const THREADS: usize = 6;
    let db = Arc::new(Engine::new());
    for run in 0..RUNS {
        db.execute(&format!(
            "CREATE TABLE run_{run} (mode TEXT, chunk INTEGER, bw FLOAT)"
        ))
        .unwrap();
        // Every table interns the modes in another order.
        let modes = ["write", "rewrite", "read"];
        let rows = (0..24)
            .map(|i| {
                vec![
                    Value::Text(modes[((i + run) % 3) as usize].to_string()),
                    Value::Int(1 << (i % 8)),
                    Value::Float((run * 100 + i) as f64),
                ]
            })
            .collect();
        db.insert_rows(&format!("run_{run}"), rows).unwrap();
    }
    let vector = |db: &Engine, mode: &str| {
        let schema = Schema::new(vec![
            Column::new("run", DataType::Int),
            Column::new("mode", DataType::Text),
            Column::new("bw", DataType::Float),
        ])
        .unwrap();
        let filter = parse_expr(&format!("mode = '{mode}' AND chunk >= 4 AND bw < 5000")).unwrap();
        let mut out = Table::new(schema);
        for run in 0..RUNS {
            let (pinned, positions) = db.scan(&format!("run_{run}"), Some(&filter)).unwrap();
            let run = Value::Int(run);
            let cells = [Cell::Constant(&run), Cell::Column(0), Cell::Column(2)];
            out.append_selected(&pinned, &positions, &cells).unwrap();
        }
        out
    };
    let want: Vec<Vec<Vec<Value>>> = ["write", "rewrite", "read"]
        .iter()
        .map(|m| vector(&db, m).to_rows())
        .collect();
    assert!(want.iter().all(|rows| rows.len() == 72));

    let start = Arc::new(std::sync::Barrier::new(THREADS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, start, stop) = (db.clone(), start.clone(), stop.clone());
        thread::spawn(move || {
            start.wait();
            // Rows the filter never selects: the vectors do not depend on
            // how far the writer got.
            while !stop.load(Ordering::Relaxed) {
                db.execute("INSERT INTO run_3 VALUES ('write', 8, 9999.0)")
                    .unwrap();
            }
        })
    };
    let want = Arc::new(want);
    let handles: Vec<_> = (0..THREADS)
        .map(|k| {
            let (db, start, want) = (db.clone(), start.clone(), want.clone());
            thread::spawn(move || {
                start.wait();
                for round in 0..20 {
                    let mode = ["write", "rewrite", "read"][k % 3];
                    let rows = vector(&db, mode).to_rows();
                    assert!(rows == want[k % 3], "thread {k} round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn readers_concurrent_with_a_writer_never_see_torn_rows() {
    let db = Arc::new(Engine::new());
    db.execute("CREATE TABLE log (pair_lo INTEGER, pair_hi INTEGER)")
        .unwrap();

    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            for i in 0..400i64 {
                // Invariant: pair_hi == pair_lo + 1 in every committed row.
                db.execute(&format!("INSERT INTO log VALUES ({i}, {})", i + 1))
                    .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            thread::spawn(move || {
                for _ in 0..50 {
                    let rs = db
                        .query("SELECT count(*) FROM log WHERE pair_hi <> pair_lo + 1")
                        .unwrap();
                    assert_eq!(rs.rows()[0][0], Value::Int(0), "torn row observed");
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(db.row_count("log").unwrap(), 400);
}

#[test]
fn cluster_nodes_used_from_many_threads() {
    let cluster = Arc::new(Cluster::new(4, LatencyModel::none()));

    let handles: Vec<_> = (0..8)
        .map(|k| {
            let cluster = cluster.clone();
            thread::spawn(move || {
                let dst = 1 + (k % 3);
                let table = format!("copy_{k}");
                let node = &cluster.node(dst).engine;
                node.execute(&format!("CREATE TABLE {table} (x INTEGER)"))
                    .unwrap();
                node.execute(&format!("INSERT INTO {table} VALUES (1), (2), (3)"))
                    .unwrap();
                cluster.charge_shipment(3);
                let count = common::select(&format!("SELECT count(*) FROM {table}"));
                let rs = cluster.select(dst, 0, &table, &count).unwrap();
                assert_eq!(rs.rows()[0][0], Value::Int(3));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cluster.stats();
    assert_eq!(stats.messages, 24); // 8 shipments (header + payload each) + 8 remote fetches
}

/// The 16-spec snapshot corpus: every optimized code path (point lookup,
/// compiled filter, fast and general aggregation, GROUP BY, DISTINCT,
/// ORDER BY, LIMIT, IN lists, ranges, joins) over the shared `runs` and
/// `hosts` tables. Results at a pinned snapshot must be byte-identical no
/// matter when they run or what writers do in the meantime.
fn snapshot_corpus() -> Vec<String> {
    vec![
        "SELECT * FROM runs WHERE run_index = 7".to_string(),
        "SELECT fs, bw FROM runs WHERE run_index = 3 AND bw > 250.0".to_string(),
        "SELECT * FROM runs WHERE run_index = 5 OR bw > 900.0".to_string(),
        "SELECT count(*), avg(bw), min(bw), max(bw) FROM runs".to_string(),
        "SELECT run_index, bw * 2 + 1 FROM runs WHERE bw > 600.0 ORDER BY 2 DESC".to_string(),
        "SELECT fs, count(*), sum(bw) FROM runs GROUP BY fs ORDER BY fs".to_string(),
        "SELECT fs, nodes, avg(bw) FROM runs GROUP BY fs, nodes ORDER BY fs, nodes".to_string(),
        "SELECT DISTINCT fs, nodes FROM runs ORDER BY fs, nodes LIMIT 7".to_string(),
        "SELECT upper(fs), abs(bw - 500.0) FROM runs WHERE fs IS NOT NULL LIMIT 11".to_string(),
        "SELECT * FROM runs WHERE fs LIKE 'u%' ORDER BY run_index, bw, nodes".to_string(),
        "SELECT * FROM runs WHERE nodes IN (1, 4, 16) AND run_index <> 2".to_string(),
        "SELECT stddev(bw), variance(bw), median(bw) FROM runs".to_string(),
        "SELECT * FROM runs WHERE run_index >= 4 AND run_index < 11".to_string(),
        "SELECT count(*) FROM runs WHERE run_index NOT IN (1, 3)".to_string(),
        "SELECT runs.fs, hosts.rack FROM runs JOIN hosts ON runs.nodes = hosts.node_id \
         ORDER BY runs.fs, hosts.rack LIMIT 40"
            .to_string(),
        "SELECT hosts.rack, count(*), avg(runs.bw) FROM runs \
         JOIN hosts ON runs.nodes = hosts.node_id GROUP BY hosts.rack ORDER BY hosts.rack"
            .to_string(),
    ]
}

/// One import batch: `batch` committed in a single statement, so a
/// snapshot either sees all of it or none of it.
fn import_batch(rng: &mut Rng, batch: usize) -> Vec<Vec<Value>> {
    const FS: [&str; 4] = ["ufs", "nfs", "pvfs", "unknown"];
    (0..batch)
        .map(|_| {
            vec![
                Value::Int(rng.int(0, 20)),
                Value::Text(FS[rng.below(4) as usize].to_string()),
                Value::Int(1 << rng.below(5)),
                Value::Float(rng.float(0.0, 1000.0)),
            ]
        })
        .collect()
}

/// Serial rerun of the corpus at a pinned snapshot, as TSV. This is the
/// ground truth a concurrent reader must reproduce byte-for-byte.
fn corpus_tsv_at(db: &Engine, snap: &Snapshot) -> Vec<String> {
    snapshot_corpus()
        .iter()
        .map(|sql| db.query_at(snap, sql).unwrap().render_tsv())
        .collect()
}

/// The tentpole isolation property: N writers continuously import batches
/// while M readers pin snapshots and run the 16-spec corpus against them.
/// Every reader must observe (a) results byte-identical to a serial rerun
/// of the same corpus at the same pinned snapshot — snapshot reads are
/// repeatable, (b) row counts that are exact batch multiples — imports are
/// never half-visible, and (c) agreement between the optimized and the
/// reference executor at the snapshot.
#[test]
fn snapshot_readers_match_serial_execution_under_concurrent_writers() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const BATCH: usize = 25;
    const BATCHES_PER_WRITER: usize = 40;

    let db = Arc::new(Engine::new());
    db.execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, nodes INTEGER, bw FLOAT)")
        .unwrap();
    db.execute("CREATE INDEX ix_runs_ri ON runs (run_index)")
        .unwrap();
    db.execute("CREATE TABLE hosts (node_id INTEGER, rack TEXT)")
        .unwrap();
    let hosts: Vec<Vec<Value>> = (0..6)
        .map(|i| vec![Value::Int(1 << i), Value::Text(format!("rack{}", i % 3))])
        .collect();
    db.insert_rows("hosts", hosts).unwrap();
    // Seed data so early snapshots exercise every query shape.
    let mut rng = Rng::new(0x5EED);
    db.insert_rows("runs", import_batch(&mut rng, BATCH))
        .unwrap();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                let mut rng = Rng::new(0xB00 + w as u64);
                for _ in 0..BATCHES_PER_WRITER {
                    db.insert_rows("runs", import_batch(&mut rng, BATCH))
                        .unwrap();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let db = db.clone();
            thread::spawn(move || {
                for round in 0..12 {
                    let snap = db.snapshot();
                    // (b) Batch atomicity: committed imports are all-or-nothing.
                    let n = snap.row_count("runs").unwrap();
                    assert_eq!(
                        n % BATCH,
                        0,
                        "reader {r} round {round}: half-applied import visible ({n} rows)"
                    );
                    let rs = db.query_at(&snap, "SELECT count(*) FROM runs").unwrap();
                    assert_eq!(rs.rows()[0][0], Value::Int(n as i64));

                    // First pass over the corpus, racing the writers.
                    let live: Vec<String> = snapshot_corpus()
                        .iter()
                        .map(|sql| db.query_at(&snap, sql).unwrap().render_tsv())
                        .collect();
                    // (a) Serial rerun at the same snapshot: byte-identical.
                    assert_eq!(
                        live,
                        corpus_tsv_at(&db, &snap),
                        "reader {r} round {round}: snapshot read not repeatable"
                    );
                    // (c) Reference executor agrees at the snapshot.
                    for sql in &snapshot_corpus()[..6] {
                        assert_eq!(
                            db.query_at(&snap, sql).unwrap(),
                            db.query_reference_at(&snap, sql).unwrap(),
                            "reader {r} round {round}: executor mismatch on {sql}"
                        );
                    }
                }
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    for h in readers {
        h.join().unwrap();
    }
    let total = (WRITERS * BATCHES_PER_WRITER + 1) * BATCH;
    assert_eq!(db.row_count("runs").unwrap(), total);

    // A snapshot pinned now is at the final epoch and sees everything.
    let last = db.snapshot();
    assert_eq!(last.row_count("runs").unwrap(), total);
    assert_eq!(last.epoch(), db.epoch());
}

/// Writer liveness: a long analytical scan over a pinned snapshot must not
/// block imports. The reader pins a snapshot of a large table and scans it
/// continuously; meanwhile a writer commits 50 batches and must finish
/// well within the watchdog window — if snapshot reads held table locks,
/// the writer would starve and the recv would time out.
#[test]
fn long_scan_does_not_block_imports() {
    let db = Arc::new(Engine::new());
    db.execute("CREATE TABLE big (run_index INTEGER, fs TEXT, nodes INTEGER, bw FLOAT)")
        .unwrap();
    let mut rng = Rng::new(0xB16);
    for _ in 0..10 {
        db.insert_rows("big", import_batch(&mut rng, 2_000))
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let scanning = Arc::new(AtomicBool::new(false));
    let scanner = {
        let db = db.clone();
        let (stop, scanning) = (stop.clone(), scanning.clone());
        thread::spawn(move || {
            // Pin once; every scan below reads this frozen version.
            let snap = db.snapshot();
            let expect = db
                .query_at(&snap, "SELECT count(*), sum(bw), stddev(bw) FROM big")
                .unwrap();
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                scanning.store(true, Ordering::Relaxed);
                let rs = db
                    .query_at(&snap, "SELECT count(*), sum(bw), stddev(bw) FROM big")
                    .unwrap();
                assert_eq!(rs, expect, "pinned snapshot drifted mid-scan");
                scans += 1;
            }
            scans
        })
    };

    let (tx, rx) = std::sync::mpsc::channel();
    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            // Import under a reader that is scanning, not before it starts:
            // on a busy host 50 batches can beat the scanner's first pass.
            while !scanning.load(Ordering::Relaxed) {
                thread::yield_now();
            }
            let mut rng = Rng::new(0xF00D);
            for _ in 0..50 {
                db.insert_rows("big", import_batch(&mut rng, 100)).unwrap();
            }
            tx.send(()).unwrap();
        })
    };

    // The writer must not be starved by the scanning reader.
    rx.recv_timeout(std::time::Duration::from_secs(30))
        .expect("writer starved: imports blocked behind a snapshot scan");
    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let scans = scanner.join().unwrap();
    assert!(scans > 0, "scanner never completed a pass");
    assert_eq!(db.row_count("big").unwrap(), 10 * 2_000 + 50 * 100);
}

#[test]
fn dump_while_reading_is_consistent() {
    let db = Arc::new(Engine::new());
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    for i in 0..100 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            thread::spawn(move || {
                for _ in 0..10 {
                    let dump = db.dump_sql();
                    let restored = Engine::from_sql_dump(&dump).unwrap();
                    assert_eq!(restored.row_count("t").unwrap(), 100);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
