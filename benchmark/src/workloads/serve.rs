//! Reads beside writes over HTTP, against an in-process `Server::start` with
//! the default `ServerConfig`.
//!
//! The served engine holds the preloaded experiment and a columnar `samples`
//! table. One keep-alive reader runs a closed loop, round-robin over four
//! statements; in the mixed phase one writer connection posts a fixed-size
//! `/ingest` batch on a fixed schedule (open loop: a batch is timed from when
//! it was due, not from when it could be sent), so the table has the same
//! size at the same time on any two commits. Two client threads, never more,
//! and they and the server's threads share one processor (see
//! `host::pin_to_current_cpu`).
//! The reader runs the reference kernel after every round of four statements.
//! Because the table grows, a scan late in the run does more work than one
//! early in it; the end-to-end values therefore take a scan's latency per row
//! of the table it saw, times the rows the table starts with.
//!
//! Row `i` of `samples` is a function of `i` alone, which lets every reply be
//! checked against a closed form: a `scan` must show a row total that is a
//! whole number of batches with each group's share of exactly that total —
//! a reply that mixes two versions of the table cannot pass.

use super::{ms, text, Checks, Counters, Ctx, Measured, Res, Roles, Scale, Stage, StageOut};
use crate::data::{self, Digest, InputFile};
use crate::http::{Client, Pacer};
use crate::reference::Reference;
use crate::stats::{median, Latencies, Sample, Summary};
use crate::trace::Recorder;
use pbserver::{Server, ServerConfig, ServerHandle};
use perfbase::sqldb::{Engine, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statement kinds of the reader's round, in order.
const KINDS: [&str; 4] = ["point", "rundata", "scan", "filter_scan"];
const HTTP_SPANS: [&str; 4] = [
    "http.point",
    "http.rundata",
    "http.scan",
    "http.filter_scan",
];
const DIRECT_SPANS: [&str; 4] = [
    "direct.point",
    "direct.rundata",
    "direct.scan",
    "direct.filter_scan",
];

const FS_NAMES: [&str; 3] = ["nfs", "pvfs", "ufs"];
const SCAN_SQL: &str = "SELECT fs, count(*), avg(val) FROM samples GROUP BY fs ORDER BY fs";
const FILTER_SQL: &str = "SELECT count(*) FROM samples WHERE grp = 3 AND val > 50.0";

pub struct ServeStage {
    engine: Arc<Engine>,
    server: Option<ServerHandle>,
    files: Vec<InputFile>,
    scale: Scale,
    digest: String,
    /// Rows in `samples` now; grows by every acknowledged batch.
    rows: usize,
    next_op: u64,
}

impl Drop for ServeStage {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
            server.join();
        }
    }
}

/// Column values of `samples` row `i`.
fn sample(i: usize) -> (i64, &'static str, f64) {
    let grp = (i % 10) as i64;
    let val = ((i * 7919) % 10_007) as f64 / 100.0;
    (grp, FS_NAMES[i % 3], val)
}

fn passes_filter(i: usize) -> bool {
    let (grp, _, val) = sample(i);
    grp == 3 && val > 50.0
}

/// What the reader and the writer measured in one phase.
#[derive(Default)]
struct Phase {
    reference: Reference,
    reads: [Latencies; 4],
    /// The same, the two scans' at the table's initial size.
    sized: [Latencies; 4],
    /// Milliseconds per reply of each round, scans at the initial size.
    per_read: Latencies,
    direct: [Latencies; 4],
    /// Scan latency per row in the table when it ran, in ns.
    scan_ns_per_row: Vec<f64>,
    /// Replies, and the time the reader waited for them.
    replies: usize,
    waited_ms: f64,
    ingest: Latencies,
    /// The same, per row of the table the batch went into, times the rows
    /// the table starts with.
    ingest_sized: Latencies,
    late_ms: Vec<f64>,
    acked: usize,
    refused: usize,
    wall: Duration,
    cow_clones: f64,
}

impl Stage for ServeStage {
    const ROLES: Roles = Roles {
        ops_per_s: "reads_per_ref_s",
        primary_ms: "http_scan_ref_ms",
        secondary_ms: "http_ingest_ref_ms",
    };

    fn setup(ctx: &Ctx) -> Res<ServeStage> {
        // Before the server starts, so that its threads are pinned as well.
        crate::host::pin_to_current_cpu().map_err(text)?;
        let files = data::campaign(ctx.seed, 1, ctx.scale.preload_reps);
        let mut digest = Digest::of_inputs(&[&files]);
        digest.add(format!("samples {:?}", ctx.scale).as_bytes());
        let engine = super::preload(&files)?.engine().clone();
        engine
            .execute(
                "CREATE TABLE samples (id INTEGER NOT NULL, grp INTEGER, fs TEXT, val FLOAT) \
                 USING COLUMNAR",
            )
            .map_err(text)?;
        let rows = ctx.scale.sample_rows;
        for first in (0..rows).step_by(10_000) {
            let batch = (first..rows.min(first + 10_000))
                .map(|i| {
                    let (grp, fs, val) = sample(i);
                    vec![
                        Value::Int(i as i64),
                        Value::Int(grp),
                        Value::Text(fs.into()),
                        Value::Float(val),
                    ]
                })
                .collect();
            engine.insert_rows("samples", batch).map_err(text)?;
        }
        let server = Server::start(engine.clone(), ServerConfig::default()).map_err(text)?;
        Ok(ServeStage {
            engine,
            server: Some(server),
            files,
            scale: ctx.scale,
            digest: digest.hex(),
            rows,
            next_op: 0,
        })
    }

    fn input_digest(&self) -> String {
        self.digest.clone()
    }

    /// Untraced: the mixed phase for the whole budget. Traced: a solo phase
    /// (reader alone) for a third of it, then the mixed phase, each HTTP call
    /// followed by the same statement run directly on the engine.
    fn run(&mut self, budget: Duration, rec: &mut Recorder, checks: &mut Checks) -> Res<StageOut> {
        let (solo, snapshot_over_live) = if rec.is_on() {
            let ratio = self.snapshot_over_live()?;
            (Some(self.phase(budget / 3, false, rec, checks)?), ratio)
        } else {
            (None, f64::NAN)
        };
        let mixed_budget = if solo.is_some() {
            budget * 2 / 3
        } else {
            budget
        };
        let mixed = self.phase(mixed_budget, true, rec, checks)?;

        // The table must hold exactly the acknowledged batches.
        let stored = self
            .engine
            .query("SELECT count(*) FROM samples")
            .map_err(text)?;
        let stored = stored.rows()[0][0].as_i64().unwrap_or(-1);
        checks.expect(stored == self.rows as i64, || {
            format!(
                "samples holds {stored} rows, expected {} after the acknowledged batches",
                self.rows
            )
        });

        let p50 = |k: usize, phase: &Phase| phase.reads[k].measured(50.0);
        // Ingest latency has two modes — a batch that finds the table pinned
        // by a scan waits and pays for a copy of it, one that does not is
        // several times faster — with few batches between them, where the
        // median falls: it jumps from run to run, and either quartile tells
        // of one mode only. The mean tells of both and of their shares. A
        // copy costs what the table holds, hence per row here too.
        let ingest = mixed.ingest_sized.mean_at_reference_speed(&mixed.reference);
        let mut out = StageOut {
            named: vec![
                Measured::new(
                    "reads_per_ref_s",
                    "req/s",
                    mixed
                        .per_read
                        .at_reference_speed(&mixed.reference)
                        .per_second(),
                ),
                Measured::new(
                    "http_scan_ref_ms",
                    "ms",
                    mixed.sized[2].at_reference_speed(&mixed.reference),
                ),
                Measured::new("http_ingest_ref_ms", "ms", ingest),
                Measured::new(
                    "http_reads_per_s",
                    "req/s",
                    Summary::single(mixed.replies as f64 * 1e3 / mixed.waited_ms),
                ),
                Measured::new("http_scan_p50_ms", "ms", p50(2, &mixed)),
                Measured::tail("http_scan_p90_ms", &mixed.reads[2], 90.0),
                Measured::tail("http_ingest_p75_ms", &mixed.ingest, 75.0),
                Measured::new("http_ingest_p50_ms", "ms", mixed.ingest.measured(50.0)),
                Measured::new("http_point_p50_ms", "ms", p50(0, &mixed)),
                Measured::new("http_rundata_p50_ms", "ms", p50(1, &mixed)),
                Measured::new("http_filter_scan_p50_ms", "ms", p50(3, &mixed)),
            ],
            ..StageOut::default()
        };
        if let Some(solo) = solo {
            let direct_p50 = |k: usize| solo.direct[k].measured(50.0).value;
            out.layers = vec![
                ("server.solo_point_p50_ms", p50(0, &solo).value),
                ("server.solo_scan_p50_ms", p50(2, &solo).value),
                (
                    "server.overhead_point_us",
                    (p50(0, &solo).value - direct_p50(0)) * 1e3,
                ),
                // Per row of the table at the time, so that the growth the
                // writer causes is not counted as interference.
                (
                    "server.mixed_over_solo_scan",
                    median(&mixed.scan_ns_per_row) / median(&solo.scan_ns_per_row),
                ),
                (
                    "server.ingest_rows_per_s",
                    (mixed.acked * self.scale.batch_rows) as f64 / mixed.wall.as_secs_f64(),
                ),
                ("server.rejected_503", mixed.refused as f64),
                (
                    "server.writer_late_ms",
                    mixed.late_ms.iter().copied().fold(0.0, f64::max),
                ),
                ("sqldb.exec.scan_ms", direct_p50(2)),
                ("sqldb.exec.point_us", direct_p50(0) * 1e3),
                (
                    "sqldb.mvcc.cow_clones_per_ingest",
                    super::per(mixed.cow_clones, mixed.acked.max(1) as f64),
                ),
                ("sqldb.mvcc.snapshot_over_live", snapshot_over_live),
            ];
        }
        let [point, rundata, scan, filter_scan] = mixed.reads;
        out.series = vec![
            ("http.point", point),
            ("http.rundata", rundata),
            ("http.scan", scan),
            ("http.filter_scan", filter_scan),
            ("http.ingest", mixed.ingest),
        ];
        out.reference = mixed.reference;
        Ok(out)
    }
}

impl ServeStage {
    /// Median `query_at` on a pinned snapshot over median `query` on the live
    /// catalog, same scan, interleaved.
    fn snapshot_over_live(&self) -> Res<f64> {
        let snapshot = self.engine.snapshot();
        let (mut live, mut pinned) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            let t = Instant::now();
            self.engine.query(SCAN_SQL).map_err(text)?;
            live.push(ms(t.elapsed()));
            let t = Instant::now();
            self.engine.query_at(&snapshot, SCAN_SQL).map_err(text)?;
            pinned.push(ms(t.elapsed()));
        }
        Ok(median(&pinned) / median(&live))
    }

    /// The statement of kind `k` for the reader's `round`-th round.
    fn statement(&self, k: usize, round: usize) -> String {
        let run_id = round % self.files.len() + 1;
        match k {
            0 => format!("SELECT run_id, fs, technique FROM pb_runs WHERE run_id = {run_id}"),
            1 => format!(
                "SELECT s_chunk, b_separate FROM pb_rundata_{run_id} WHERE mode = 'read' \
                 ORDER BY s_chunk"
            ),
            2 => SCAN_SQL.into(),
            _ => FILTER_SQL.into(),
        }
    }

    /// `None` when `body` is the right reply to statement `k` of `round`,
    /// given that the table may hold any whole number of batches from
    /// `floor_rows` up. Returns the table's row count a scan saw.
    fn wrong_reply(
        &self,
        k: usize,
        round: usize,
        body: &str,
        filter_counts: &[usize],
    ) -> (Option<String>, Option<usize>) {
        let lines: Vec<Vec<&str>> = body
            .lines()
            .skip(1)
            .map(|l| l.split('\t').collect())
            .collect();
        let file = &self.files[round % self.files.len()];
        let run_id = round % self.files.len() + 1;
        let problem = match k {
            0 => {
                let want = [
                    run_id.to_string(),
                    file.run.config.fs.name().to_string(),
                    file.run.config.technique.file_tag().to_string(),
                ];
                (lines.len() != 1 || lines[0] != want).then(|| format!("point: {body:?}"))
            }
            1 => {
                let reads: Vec<_> = file.run.rows.iter().filter(|r| r.mode == "read").collect();
                let same = lines.len() == reads.len()
                    && lines.iter().zip(&reads).all(|(line, row)| {
                        line.len() == 2
                            && line[0] == row.chunk.to_string()
                            && line[1].parse::<f64>().ok()
                                == format!("{:.3}", row.bandwidth[2]).parse().ok()
                    });
                (!same).then(|| format!("rundata of run {run_id}: {body:?}"))
            }
            2 => {
                let counts: Vec<usize> = lines
                    .iter()
                    .filter_map(|l| l.get(1).and_then(|c| c.parse().ok()))
                    .collect();
                let total: usize = counts.iter().sum();
                let batches = total.saturating_sub(self.scale.sample_rows);
                // FS_NAMES is sorted, as the reply is; group g holds the
                // rows i < total with FS_NAMES[i % 3] == g.
                let consistent = counts.len() == 3
                    && lines.iter().zip(FS_NAMES).all(|(l, fs)| l[0] == fs)
                    && (0..3).all(|g| counts[g] == (total + 2 - g) / 3)
                    && total >= self.scale.sample_rows
                    && batches.is_multiple_of(self.scale.batch_rows);
                return (
                    (!consistent).then(|| format!("scan: {body:?}")),
                    Some(total),
                );
            }
            _ => {
                let count: Option<usize> = lines
                    .first()
                    .and_then(|l| l.first())
                    .and_then(|c| c.parse().ok());
                count
                    .is_none_or(|c| filter_counts.binary_search(&c).is_err())
                    .then(|| format!("filter_scan: {body:?}"))
            }
        };
        (problem, None)
    }

    /// Run the reader (and, when `mixed`, the writer) for `budget`.
    fn phase(
        &mut self,
        budget: Duration,
        mixed: bool,
        rec: &mut Recorder,
        checks: &mut Checks,
    ) -> Res<Phase> {
        let addr = self.server.as_ref().expect("server runs until drop").addr();
        let mut reader = Client::connect(addr).map_err(text)?;
        let mut writer = Client::connect(addr).map_err(text)?;
        let scale = self.scale;

        // Everything the writer sends is rendered before the clock starts,
        // and with it the value `filter_scan` may return after each batch.
        let batches = if mixed {
            (budget.as_nanos() / scale.batch_interval.as_nanos()) as usize
        } else {
            0
        };
        let mut bodies = Vec::with_capacity(batches);
        let mut filter_counts = vec![(0..self.rows).filter(|&i| passes_filter(i)).count()];
        for b in 0..batches {
            let first = self.rows + b * scale.batch_rows;
            let mut body = String::from("id\tgrp\tfs\tval\n");
            let mut passing = 0;
            for i in first..first + scale.batch_rows {
                let (grp, fs, val) = sample(i);
                body.push_str(&format!("{i}\t{grp}\t{fs}\t{val}\n"));
                passing += usize::from(passes_filter(i));
            }
            bodies.push(body);
            filter_counts.push(filter_counts[b] + passing);
        }

        let mut phase = Phase::default();
        let counters = Counters::now();
        let origin = rec.origin();
        let clock = phase.reference.origin();
        let traced = rec.is_on();
        let first_writer_op = self.next_op + 1_000_000;
        let started = Instant::now();
        let written = std::thread::scope(|scope| -> Res<_> {
            let writing = scope.spawn(move || {
                let mut rec = if traced {
                    Recorder::on(origin, 1)
                } else {
                    Recorder::off()
                };
                let mut checks = Checks::default();
                let mut latency = Latencies::default();
                let mut late_ms = Vec::new();
                let (mut acked, mut refused) = (0, 0);
                let mut pacer = Pacer::new(started, scale.batch_interval);
                for (b, body) in bodies.iter().enumerate() {
                    let slot = pacer.wait();
                    let reply = rec.leaf("http.ingest", first_writer_op + b as u64, || {
                        writer.post("/ingest?table=samples", body)
                    });
                    latency.push(clock.elapsed().as_secs_f64(), ms(slot.due.elapsed()));
                    late_ms.push(ms(slot.late));
                    match reply {
                        Ok(r) if r.status == 200 => {
                            acked += 1;
                            checks.op(None);
                        }
                        Ok(r) => {
                            refused += usize::from(r.status == 503);
                            checks.op(Some(format!(
                                "ingest answered {}: {}",
                                r.status,
                                r.body.trim()
                            )));
                        }
                        Err(e) => checks.op(Some(format!("ingest: {e}"))),
                    }
                }
                (rec, checks, latency, late_ms, acked, refused)
            });

            // The reader, on this thread.
            let read = (|| -> Res<()> {
                let mut round = 0;
                // Rows the table held when a scan last said so.
                let mut table_rows = self.rows;
                phase.reference.tick();
                while started.elapsed() < budget {
                    let round_started = phase.reference.now();
                    let mut round_ms = 0.0;
                    for k in 0..KINDS.len() {
                        self.next_op += 1;
                        let op = self.next_op;
                        let sql = self.statement(k, round);
                        let t = Instant::now();
                        let reply = rec
                            .leaf(HTTP_SPANS[k], op, || reader.post("/query", &sql))
                            .map_err(text)?;
                        let took = t.elapsed();
                        let ended = phase.reference.now();
                        phase.reads[k].push(ended, ms(took));
                        phase.replies += 1;
                        phase.waited_ms += ms(took);
                        if reply.status != 200 {
                            phase.refused += usize::from(reply.status == 503);
                            checks.op(Some(format!(
                                "{} answered {}: {}",
                                KINDS[k],
                                reply.status,
                                reply.body.trim()
                            )));
                            continue;
                        }
                        let (problem, total) =
                            self.wrong_reply(k, round, &reply.body, &filter_counts);
                        checks.op(problem);
                        if let Some(total) = total {
                            table_rows = total.max(1);
                            phase
                                .scan_ns_per_row
                                .push(took.as_nanos() as f64 / table_rows as f64);
                        }
                        // `filter_scan` follows `scan` and sees a table of
                        // the same size, one batch more at most.
                        let sized = match k {
                            2 | 3 => ms(took) * scale.sample_rows as f64 / table_rows as f64,
                            _ => ms(took),
                        };
                        phase.sized[k].push(ended, sized);
                        round_ms += sized;
                        if traced {
                            let t = Instant::now();
                            let direct = rec
                                .leaf(DIRECT_SPANS[k], op, || self.engine.query(&sql))
                                .map_err(text)?;
                            phase.direct[k].push(phase.reference.now(), ms(t.elapsed()));
                            std::hint::black_box(direct);
                        }
                    }
                    phase.per_read.push_sample(Sample {
                        at: (round_started + phase.reference.now()) / 2.0,
                        ms: round_ms / KINDS.len() as f64,
                    });
                    phase.reference.tick();
                    round += 1;
                }
                Ok(())
            })();
            let written = writing
                .join()
                .map_err(|_| "the writer thread panicked".to_string())?;
            read.map(|()| written)
        })?;
        phase.wall = started.elapsed();

        let (writer_rec, writer_checks, ingest, late_ms, acked, refused) = written;
        rec.absorb(writer_rec);
        checks.absorb(writer_checks);
        for (b, sample) in ingest.samples().iter().enumerate() {
            let rows = self.rows + b * scale.batch_rows;
            phase.ingest_sized.push_sample(Sample {
                ms: sample.ms * scale.sample_rows as f64 / rows as f64,
                ..*sample
            });
        }
        phase.ingest = ingest;
        phase.late_ms = late_ms;
        phase.acked = acked;
        phase.refused += refused;
        phase.cow_clones = counters.delta("mvcc.cow_clones");
        self.rows += acked * scale.batch_rows;
        self.next_op = self.next_op.max(first_writer_op + batches as u64);
        Ok(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{exercise, TestDir};
    use super::*;

    #[test]
    fn serve_mixed_end_to_end_at_small_scale() {
        let (plain, traced, rec) = exercise::<ServeStage>("serve");
        assert!(plain.value("http_point_p50_ms").unwrap() > 0.0);
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(layer("server.rejected_503"), 0.0);
        assert!(layer("server.ingest_rows_per_s") > 0.0);
        assert!(layer("sqldb.mvcc.snapshot_over_live") > 0.0);
        // Both client threads recorded spans: 0 reads, 1 writes.
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.thread == 1 && s.name == "http.ingest"));
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.thread == 0 && s.name == "direct.scan"));
    }

    #[test]
    fn a_torn_scan_is_reported() {
        let dir = TestDir::new("serve-torn");
        let stage = ServeStage::setup(&dir.ctx()).unwrap();
        let reply = |counts: [usize; 3]| {
            format!(
                "fs\tcount\tavg\nnfs\t{}\t1\npvfs\t{}\t1\nufs\t{}\t1\n",
                counts[0], counts[1], counts[2]
            )
        };
        // 2000 rows and 2005 rows (one batch of 5 more) are whole versions.
        assert_eq!(
            stage.wrong_reply(2, 0, &reply([667, 667, 666]), &[]).0,
            None
        );
        assert_eq!(
            stage.wrong_reply(2, 0, &reply([669, 668, 668]), &[]).0,
            None
        );
        // A total between two batches, and group shares of two versions.
        assert!(stage
            .wrong_reply(2, 0, &reply([668, 667, 667]), &[])
            .0
            .is_some());
        assert!(stage
            .wrong_reply(2, 0, &reply([669, 667, 669]), &[])
            .0
            .is_some());
        // filter_scan must return the count after some whole batch.
        assert_eq!(stage.wrong_reply(3, 0, "count\n7\n", &[5, 7, 9]).0, None);
        assert!(stage
            .wrong_reply(3, 0, "count\n8\n", &[5, 7, 9])
            .0
            .is_some());
    }
}
