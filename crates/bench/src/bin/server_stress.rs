//! Server stress harness: hundreds of concurrent HTTP clients driving a
//! mixed import/query workload against the `pbserver` front end, checking
//! isolation invariants on every response and recording exact client-side
//! p50/p99 latencies per endpoint into `BENCH_sqldb.json` (appended as the
//! `"server_stress"` block; run `microbench` first).
//!
//! Three guard metrics feed `bench_guard` (floors in `BENCH_floors.json`):
//!
//! * `snapshot_read_parity` — p50 of a query at a pinned snapshot vs the
//!   same query on the live catalog, in-process. Snapshot reads must not
//!   regress: both scan a pinned `Arc<Table>` with no lock held.
//! * `server_mixed_reads` — `/query` p50 with no other load vs under a
//!   concurrent import stream. MVCC means readers should barely notice
//!   the writers.
//! * `server_writer_liveness` — ingest throughput solo vs while heavy
//!   analytical scans run. Writers must never be starved by readers.
//!
//! Every import is one atomic batch of [`BATCH`] rows; every client checks
//! `count(*) % BATCH == 0` on each read — a non-zero remainder would mean
//! a half-applied import escaped its commit, and the harness exits 1.
//!
//! Usage: `server_stress [--connections N] [--quick]` (default 256
//! connections; `--quick` shrinks the workload for smoke runs).

use pbserver::{Server, ServerConfig};
use sqldb::{Engine, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rows per import batch; the isolation invariant checks multiples of it.
const BATCH: usize = 250;

const FS_NAMES: [&str; 4] = ["ufs", "nfs", "pvfs", "unknown"];

// ---- tiny deterministic rng (splitmix64) ---------------------------------

struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

// ---- minimal keep-alive HTTP client --------------------------------------

struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A starved request must fail the harness loudly, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { stream })
    }

    /// One request/response on the kept-alive connection. Returns
    /// `(status, body, wall latency)`.
    fn call(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<(u16, String, Duration)> {
        let started = Instant::now();
        let mut req = format!(
            "{method} {target} HTTP/1.1\r\nHost: stress\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;

        // Read headers byte-wise until the blank line, then the body.
        let mut head = Vec::new();
        let mut b = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            self.stream.read_exact(&mut b)?;
            head.push(b[0]);
            if head.len() > 64 << 10 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "oversized response head",
                ));
            }
        }
        let head = String::from_utf8_lossy(&head).to_string();
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim())
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8_lossy(&body).to_string(),
            started.elapsed(),
        ))
    }
}

// ---- latency accounting --------------------------------------------------

#[derive(Default)]
struct LatencySink {
    query: Mutex<Vec<u64>>,
    ingest: Mutex<Vec<u64>>,
    stats: Mutex<Vec<u64>>,
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn summarize(samples: &Mutex<Vec<u64>>) -> (u64, u64, usize) {
    let mut v = samples.lock().unwrap().clone();
    v.sort_unstable();
    (exact_quantile(&v, 0.50), exact_quantile(&v, 0.99), v.len())
}

// ---- workload ------------------------------------------------------------

fn ingest_body(rng: &mut Rng) -> String {
    let mut body = String::from("run_index\tfs\tnodes\tbw\n");
    for _ in 0..BATCH {
        body.push_str(&format!(
            "{}\t{}\t{}\t{:.3}\n",
            rng.below(20),
            FS_NAMES[rng.below(4) as usize],
            1u64 << rng.below(5),
            rng.below(1_000_000) as f64 / 1000.0
        ));
    }
    body
}

const READ_QUERIES: [&str; 4] = [
    "SELECT count(*) FROM runs",
    "SELECT fs, count(*), sum(bw) FROM runs GROUP BY fs ORDER BY fs",
    "SELECT count(*), avg(bw), min(bw), max(bw) FROM runs WHERE run_index = 7",
    "SELECT count(*) FROM runs WHERE nodes IN (1, 4, 16)",
];

/// One stress client: keep-alive connection, mixed workload, invariant
/// checks on every read. Returns `(requests_done, overload_503s)`;
/// isolation violations increment the shared counter.
#[allow(clippy::too_many_arguments)]
fn stress_client(
    addr: std::net::SocketAddr,
    seed: u64,
    requests: usize,
    sink: &LatencySink,
    violations: &AtomicU64,
    rejected: &AtomicU64,
) -> (u64, u64) {
    let mut rng = Rng::new(seed);
    let Ok(mut client) = Client::connect(addr) else {
        return (0, 0);
    };
    let mut done = 0u64;
    let mut overloaded = 0u64;
    // Every 4th client works inside a pinned session for a while, checking
    // repeatable reads; the rest read the live catalog.
    let mut session: Option<(String, String)> = None; // (id, first count body)
    if seed.is_multiple_of(4) {
        if let Ok((200, body, _)) = client.call("POST", "/session", &[], "") {
            session = Some((body.trim().to_string(), String::new()));
        }
    }
    for i in 0..requests {
        let roll = rng.below(100);
        if roll < 25 {
            let body = ingest_body(&mut rng);
            match client.call("POST", "/ingest?table=runs", &[], &body) {
                Ok((200, _, lat)) => {
                    sink.ingest.lock().unwrap().push(lat.as_nanos() as u64);
                    done += 1;
                }
                Ok((503, _, _)) => {
                    rejected.fetch_add(1, Ordering::Relaxed);
                    overloaded += 1;
                }
                Ok((status, body, _)) => panic!("ingest -> {status}: {body}"),
                Err(_) => break,
            }
        } else if roll < 95 {
            let sql = READ_QUERIES[rng.below(READ_QUERIES.len() as u64) as usize];
            let headers: Vec<(&str, &str)> = match &session {
                Some((id, _)) => vec![("X-Session", id.as_str())],
                None => Vec::new(),
            };
            match client.call("POST", "/query", &headers, sql) {
                Ok((200, body, lat)) => {
                    sink.query.lock().unwrap().push(lat.as_nanos() as u64);
                    done += 1;
                    if sql == READ_QUERIES[0] {
                        // Isolation invariant: never a partial batch.
                        let n: u64 = body
                            .lines()
                            .nth(1)
                            .and_then(|l| l.trim().parse().ok())
                            .unwrap_or(1);
                        if !n.is_multiple_of(BATCH as u64) {
                            eprintln!("ISOLATION VIOLATION: count(*) = {n} (batch {BATCH})");
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        // Repeatable reads inside a session: the count must
                        // never change between requests.
                        if let Some((_, first)) = session.as_mut() {
                            if first.is_empty() {
                                *first = body.clone();
                            } else if *first != body {
                                eprintln!("ISOLATION VIOLATION: session read drifted");
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Ok((503, _, _)) => {
                    rejected.fetch_add(1, Ordering::Relaxed);
                    overloaded += 1;
                }
                Ok((status, body, _)) => panic!("query -> {status}: {body}"),
                Err(_) => break,
            }
        } else {
            match client.call("GET", "/stats", &[], "") {
                Ok((200, _, lat)) => {
                    sink.stats.lock().unwrap().push(lat.as_nanos() as u64);
                    done += 1;
                }
                Ok((503, _, _)) => {
                    rejected.fetch_add(1, Ordering::Relaxed);
                    overloaded += 1;
                }
                Ok((status, body, _)) => panic!("stats -> {status}: {body}"),
                Err(_) => break,
            }
        }
        // Half-way through, session clients fall back to live reads so
        // their pinned versions can be reclaimed.
        if i == requests / 2 {
            if let Some((id, _)) = session.take() {
                let _ = client.call("POST", &format!("/session/close?id={id}"), &[], "");
            }
        }
    }
    if let Some((id, _)) = session {
        let _ = client.call("POST", &format!("/session/close?id={id}"), &[], "");
    }
    (done, overloaded)
}

fn seed_engine(rows: usize) -> Arc<Engine> {
    let engine = Arc::new(Engine::new());
    engine
        .execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, nodes INTEGER, bw FLOAT)")
        .unwrap();
    engine
        .execute("CREATE INDEX ix_stress_ri ON runs (run_index)")
        .unwrap();
    let mut rng = Rng::new(0x5EED);
    let batches = rows.div_ceil(BATCH);
    for _ in 0..batches {
        let rows: Vec<Vec<Value>> = (0..BATCH)
            .map(|_| {
                vec![
                    Value::Int(rng.below(20) as i64),
                    Value::Text(FS_NAMES[rng.below(4) as usize].to_string()),
                    Value::Int(1 << rng.below(5)),
                    Value::Float(rng.below(1_000_000) as f64 / 1000.0),
                ]
            })
            .collect();
        engine.insert_rows("runs", rows).unwrap();
    }
    engine
}

/// p50 of `n` runs of `f`, in nanoseconds.
fn p50_ns(n: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    exact_quantile(&samples, 0.5)
}

fn main() {
    let mut connections: usize = 256;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connections" => {
                connections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--connections N");
            }
            "--quick" => quick = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    let requests_per_conn = if quick { 6 } else { 12 };

    // ---- guard 1: snapshot read parity (in-process) ----------------------
    let engine = seed_engine(10_000);
    let parity_sql = "SELECT fs, count(*), sum(bw) FROM runs GROUP BY fs ORDER BY fs";
    let reps = if quick { 40 } else { 200 };
    let live_p50 = p50_ns(reps, || {
        engine.query(parity_sql).unwrap();
    });
    let snap = engine.snapshot();
    let snap_p50 = p50_ns(reps, || {
        engine.query_at(&snap, parity_sql).unwrap();
    });
    drop(snap);
    let parity = live_p50 as f64 / snap_p50.max(1) as f64;
    println!(
        "snapshot_read_parity: live p50 {live_p50} ns, snapshot p50 {snap_p50} ns ({parity:.2}x)"
    );

    // ---- serve the same engine ------------------------------------------
    // At least 4 places at the gate even on a single-core box: the liveness
    // phase needs a free place for the writer while scans hold others.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(4);
    let handle = Server::start(
        engine.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            max_sessions: connections + 32,
            queue: connections.max(64),
            session_ttl: None,
        },
    )
    .expect("start server");
    let addr = handle.addr();
    println!(
        "serving on {addr} with {threads} request(s) at once at the gate, \
         {connections} client connection(s)"
    );

    // ---- main spike: `connections` concurrent mixed clients --------------
    let sink = Arc::new(LatencySink::default());
    let violations = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let spike_started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let sink = sink.clone();
            let violations = violations.clone();
            let rejected = rejected.clone();
            std::thread::spawn(move || {
                stress_client(
                    addr,
                    c as u64,
                    requests_per_conn,
                    &sink,
                    &violations,
                    &rejected,
                )
            })
        })
        .collect();
    let mut total_done = 0u64;
    for w in workers {
        let (done, _overloaded) = w.join().expect("client thread");
        total_done += done;
    }
    let spike_wall = spike_started.elapsed();
    let (query_p50, query_p99, query_n) = summarize(&sink.query);
    let (ingest_p50, ingest_p99, ingest_n) = summarize(&sink.ingest);
    let (stats_p50, stats_p99, stats_n) = summarize(&sink.stats);
    println!(
        "spike: {total_done} request(s) in {spike_wall:?}, {} rejected 503, {} isolation violation(s)",
        rejected.load(Ordering::Relaxed),
        violations.load(Ordering::Relaxed)
    );
    println!("  /query  p50 {query_p50} ns  p99 {query_p99} ns  ({query_n} samples)");
    println!("  /ingest p50 {ingest_p50} ns  p99 {ingest_p99} ns  ({ingest_n} samples)");
    println!("  /stats  p50 {stats_p50} ns  p99 {stats_p99} ns  ({stats_n} samples)");

    // ---- guard 2: mixed reads -------------------------------------------
    // The same aggregation query, over the same (post-spike) table: first
    // with the server otherwise idle, then while two importer connections
    // stream batches. MVCC snapshot scans mean the reader should see CPU
    // sharing, not lock waits — the ratio of the two p50s is the guard.
    let mixed_sql = READ_QUERIES[1];
    let read_p50 = |client: &mut Client, n: usize| -> u64 {
        let mut lats: Vec<u64> = (0..n)
            .map(|_| {
                let (status, resp, lat) = client
                    .call("POST", "/query", &[], mixed_sql)
                    .expect("mixed-reads query");
                assert_eq!(status, 200, "mixed-reads query: {resp}");
                lat.as_nanos() as u64
            })
            .collect();
        lats.sort_unstable();
        exact_quantile(&lats, 0.5)
    };
    let mixed_reps = if quick { 15 } else { 40 };
    let mut reader = Client::connect(addr).expect("connect reader");
    let solo_read_p50 = read_p50(&mut reader, mixed_reps);
    let stop_importers = Arc::new(AtomicU64::new(0));
    let importers: Vec<_> = (0..2)
        .map(|k| {
            let stop = stop_importers.clone();
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(addr) else {
                    return;
                };
                let mut rng = Rng::new(0xB0B + k);
                while stop.load(Ordering::Relaxed) == 0 {
                    let body = ingest_body(&mut rng);
                    if c.call("POST", "/ingest?table=runs", &[], &body).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let the imports ramp up
    let mixed_read_p50 = read_p50(&mut reader, mixed_reps);
    stop_importers.store(1, Ordering::Relaxed);
    for i in importers {
        let _ = i.join();
    }
    let mixed_reads = solo_read_p50 as f64 / mixed_read_p50.max(1) as f64;
    println!(
        "mixed_reads: query p50 solo {solo_read_p50} ns, under imports {mixed_read_p50} ns ({mixed_reads:.2}x)"
    );

    // ---- guard 3: writer liveness under heavy scans ----------------------
    // Measure ingest latency (a fixed number of batches, so the table does
    // not balloon) alone, then again while session-pinned analytical scans
    // hammer the pool. The ratio of the two p50s is the liveness guard: a
    // reader-starved writer would see its latency explode.
    let liveness_batches = if quick { 10 } else { 30 };
    let measure_ingest_p50 = |client: &mut Client, n: usize| -> u64 {
        let mut rng = Rng::new(0xF00D);
        let mut lats: Vec<u64> = (0..n)
            .map(|_| {
                let body = ingest_body(&mut rng);
                let (status, resp, lat) = client
                    .call("POST", "/ingest?table=runs", &[], &body)
                    .expect("liveness ingest (timeout = starved writer)");
                assert_eq!(status, 200, "liveness ingest: {resp}");
                lat.as_nanos() as u64
            })
            .collect();
        lats.sort_unstable();
        exact_quantile(&lats, 0.5)
    };
    let mut writer = Client::connect(addr).expect("connect writer");
    let solo_ingest_p50 = measure_ingest_p50(&mut writer, liveness_batches);

    let stop_scans = Arc::new(AtomicU64::new(0));
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop_scans.clone();
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(addr) else {
                    return;
                };
                // Pin a session so the scans are genuine snapshot reads.
                let session = match c.call("POST", "/session", &[], "") {
                    Ok((200, body, _)) => Some(body.trim().to_string()),
                    _ => None,
                };
                while stop.load(Ordering::Relaxed) == 0 {
                    let headers: Vec<(&str, &str)> = match &session {
                        Some(id) => vec![("X-Session", id.as_str())],
                        None => Vec::new(),
                    };
                    let _ = c.call(
                        "POST",
                        "/query",
                        &headers,
                        "SELECT fs, nodes, count(*), sum(bw), stddev(bw) FROM runs \
                         GROUP BY fs, nodes ORDER BY fs, nodes",
                    );
                }
                if let Some(id) = session {
                    let _ = c.call("POST", &format!("/session/close?id={id}"), &[], "");
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let the scans ramp up
    let contended_ingest_p50 = measure_ingest_p50(&mut writer, liveness_batches);
    stop_scans.store(1, Ordering::Relaxed);
    for s in scanners {
        let _ = s.join();
    }
    let liveness = solo_ingest_p50 as f64 / contended_ingest_p50.max(1) as f64;
    println!(
        "writer_liveness: ingest p50 solo {solo_ingest_p50} ns, under scans {contended_ingest_p50} ns ({liveness:.2}x)"
    );

    // ---- overload burst: a tiny server must shed load with 503 -----------
    let tiny_engine = seed_engine(BATCH);
    let tiny = Server::start(
        tiny_engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_sessions: 64,
            queue: 2,
            session_ttl: None,
        },
    )
    .expect("start tiny server");
    let tiny_addr = tiny.addr();
    let burst: Vec<_> = (0..32)
        .map(|_| {
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(tiny_addr) else {
                    return (0u64, 0u64);
                };
                let mut ok = 0;
                let mut shed = 0;
                for _ in 0..4 {
                    match c.call(
                        "POST",
                        "/query",
                        &[],
                        "SELECT fs, count(*), sum(bw) FROM runs GROUP BY fs ORDER BY fs",
                    ) {
                        Ok((200, _, _)) => ok += 1,
                        Ok((503, _, _)) => shed += 1,
                        Ok((status, body, _)) => panic!("burst -> {status}: {body}"),
                        Err(_) => break,
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let (mut burst_ok, mut burst_shed) = (0u64, 0u64);
    for b in burst {
        let (ok, shed) = b.join().expect("burst thread");
        burst_ok += ok;
        burst_shed += shed;
    }
    tiny.stop();
    tiny.join();
    println!("overload burst: {burst_ok} served, {burst_shed} shed with 503");

    handle.stop();
    handle.join();

    // ---- verdicts --------------------------------------------------------
    let violation_count = violations.load(Ordering::Relaxed);
    let mut failed = false;
    if violation_count != 0 {
        eprintln!("FAIL: {violation_count} isolation violation(s)");
        failed = true;
    }
    if burst_shed == 0 {
        eprintln!("FAIL: overload burst produced no 503s — admission control inert");
        failed = true;
    }
    if contended_ingest_p50 == 0 {
        eprintln!("FAIL: writer made no progress under concurrent scans");
        failed = true;
    }

    // ---- append the server_stress block to BENCH_sqldb.json --------------
    let path = "BENCH_sqldb.json";
    let previous = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}".to_string());
    // Strip any earlier server_stress block, then the closing brace.
    let head = match previous.find("\"server_stress\"") {
        Some(i) => previous[..i].trim_end().trim_end_matches(',').to_string(),
        None => previous
            .trim_end()
            .trim_end_matches('}')
            .trim_end()
            .to_string(),
    };
    let comma = if head.ends_with('{') { "" } else { "," };
    let block = format!(
        "{comma}\n  \"server_stress\": {{\n    \"connections\": {connections},\n    \"requests\": {total_done},\n    \"rejected_503\": {},\n    \"isolation_violations\": {violation_count},\n    \"overload_burst\": {{\"served\": {burst_ok}, \"shed_503\": {burst_shed}}},\n    \"endpoints\": {{\n      \"query\":  {{\"p50_ns\": {query_p50}, \"p99_ns\": {query_p99}, \"samples\": {query_n}}},\n      \"ingest\": {{\"p50_ns\": {ingest_p50}, \"p99_ns\": {ingest_p99}, \"samples\": {ingest_n}}},\n      \"stats\":  {{\"p50_ns\": {stats_p50}, \"p99_ns\": {stats_p99}, \"samples\": {stats_n}}}\n    }},\n    \"guards\": [\n      {{\"name\": \"snapshot_read_parity\", \"live_p50_ns\": {live_p50}, \"snapshot_p50_ns\": {snap_p50}, \"speedup\": {parity:.2}}},\n      {{\"name\": \"server_mixed_reads\", \"solo_p50_ns\": {solo_read_p50}, \"mixed_p50_ns\": {mixed_read_p50}, \"speedup\": {mixed_reads:.2}}},\n      {{\"name\": \"server_writer_liveness\", \"solo_ingest_p50_ns\": {solo_ingest_p50}, \"contended_ingest_p50_ns\": {contended_ingest_p50}, \"speedup\": {liveness:.2}}}\n    ]\n  }}\n}}\n",
        rejected.load(Ordering::Relaxed),
    );
    std::fs::write(path, head + &block).expect("write BENCH_sqldb.json");
    println!("appended server_stress block to {path}");

    if failed {
        std::process::exit(1);
    }
}
