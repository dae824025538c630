//! Write path: durable import of the campaign into an empty experiment,
//! reopen from the write-ahead log, checkpoint.
//!
//! One *repetition* is the unit of work: a fresh experiment directory,
//! `open_durable` (WAL, group sync), one `import_file` per campaign file,
//! five reopens with the whole log still un-checkpointed, checkpoint. Repetitions
//! run until the time budget is used; each starts from an empty experiment,
//! so the catalog grows 0 → N runs in every one of them.

use super::{
    ms, per, text, Checks, Counters, Ctx, Measured, Res, Roles, Stage, StageOut, IMPORT_TIME,
};
use crate::data::{self, Digest, InputFile, ROWS_PER_FILE};
use crate::reference::{DurableReference, Reference};
use crate::stats::{median, Latencies, Summary};
use crate::trace::{durations_ms, totals_by_name, Recorder};
use perfbase::core::experiment::{ExperimentDb, ExperimentDef};
use perfbase::core::import::{content_hash, Importer};
use perfbase::core::input::{extract_runs, input_description_from_str, InputDescription};
use perfbase::core::xmldef::definition_from_str;
use perfbase::sqldb::{Engine, WalOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Files re-imported after each repetition to see them skipped as duplicates.
const DUPLICATES: usize = 10;

pub struct ImportStage {
    files: Vec<InputFile>,
    input_bytes: u64,
    def: ExperimentDef,
    desc: InputDescription,
    dir: PathBuf,
    digest: String,
    repetitions: u32,
    /// `pb_runs` as the first repetition stored it; every later repetition,
    /// traced or not, must store the same.
    first_runs: Option<String>,
    next_op: u64,
}

/// Reopens of the full log timed per repetition.
const REOPENS: usize = 5;

/// The durable reference ticks once after this many files (about 13 ms).
const FILES_PER_TICK: usize = 8;

/// Parts the fill of the catalog is cut into. A file costs more the more
/// runs the catalog holds, so latencies are only compared within one part.
const PARTS: usize = 10;

/// What the repetitions of one pass add up to.
struct Tally {
    /// Ticks between the imports, with a sync each, as an import has.
    durable: DurableReference,
    /// Ticks around the reopens, which only read.
    reference: Reference,
    /// Per-file latency, by the tenth of the fill the file belongs to.
    parts: Vec<Latencies>,
    latency: Latencies,
    runs_per_s: Vec<f64>,
    reopen: Latencies,
    checkpoint_ms: Vec<f64>,
    replay_us_per_frame: Vec<f64>,
    dump_bytes: u64,
    wal_bytes: u64,
    fsyncs_per_file: f64,
    stmts_per_file: f64,
}

impl Tally {
    /// File number `position` of `files` took `ms`.
    fn imported(&mut self, position: usize, files: usize, ms: f64) -> Res<()> {
        let ended = self.durable.reference().now();
        self.parts[position * PARTS / files].push(ended, ms);
        self.latency.push(ended, ms);
        if (position + 1).is_multiple_of(FILES_PER_TICK) {
            self.durable.tick().map_err(text)?;
        }
        Ok(())
    }

    /// Runs per second over a whole fill, each part of it at its lower
    /// quartile at reference speed; and the last part's latency by itself.
    fn at_reference_speed(&self) -> (Summary, Summary) {
        let parts: Vec<Summary> = self
            .parts
            .iter()
            .map(|l| l.at_reference_speed(self.durable.reference()))
            .collect();
        let mean = |f: fn(&Summary) -> f64| parts.iter().map(f).sum::<f64>() / parts.len() as f64;
        let per_file = Summary {
            value: mean(|s| s.value),
            median: mean(|s| s.median),
            q1: mean(|s| s.q1),
            q3: mean(|s| s.q3),
            samples: self.latency.count(),
        };
        (per_file.per_second(), parts[PARTS - 1])
    }
}

impl Stage for ImportStage {
    const ROLES: Roles = Roles {
        ops_per_s: "runs_per_ref_s",
        primary_ms: "import_full_ref_ms",
        secondary_ms: "reopen_ref_ms",
    };

    fn setup(ctx: &Ctx) -> Res<ImportStage> {
        let files = data::campaign(ctx.seed, 1, ctx.scale.import_reps);
        let digest = Digest::of_inputs(&[&files]);
        let dir = ctx.dir.join("import");
        std::fs::create_dir_all(&dir).map_err(text)?;
        Ok(ImportStage {
            input_bytes: files.iter().map(|f| f.content.len() as u64).sum(),
            files,
            def: definition_from_str(data::EXPERIMENT_XML).map_err(text)?,
            desc: input_description_from_str(data::INPUT_XML).map_err(text)?,
            dir,
            digest: digest.hex(),
            repetitions: 0,
            first_runs: None,
            next_op: 0,
        })
    }

    fn input_digest(&self) -> String {
        self.digest.clone()
    }

    fn run(&mut self, budget: Duration, rec: &mut Recorder, checks: &mut Checks) -> Res<StageOut> {
        let started = Instant::now();
        let probe = self.dir.join("sync_probe");
        let mut tally = Tally {
            durable: DurableReference::create(&probe).map_err(text)?,
            reference: Reference::new(),
            parts: vec![Latencies::default(); PARTS],
            latency: Latencies::default(),
            runs_per_s: Vec::new(),
            reopen: Latencies::default(),
            checkpoint_ms: Vec::new(),
            replay_us_per_frame: Vec::new(),
            dump_bytes: 0,
            wal_bytes: 0,
            fsyncs_per_file: 0.0,
            stmts_per_file: 0.0,
        };
        loop {
            self.repetition(rec, checks, &mut tally)?;
            if started.elapsed() >= budget {
                break;
            }
        }

        let (runs_per_ref_s, full_catalog) = tally.at_reference_speed();
        let mut out = StageOut {
            named: vec![
                Measured::new("runs_per_ref_s", "runs/s", runs_per_ref_s),
                Measured::new("import_full_ref_ms", "ms", full_catalog),
                Measured::new(
                    "reopen_ref_ms",
                    "ms",
                    tally.reopen.at_reference_speed(&tally.reference),
                ),
                Measured::new(
                    "import_runs_per_s",
                    "runs/s",
                    Summary::median_of(&tally.runs_per_s),
                ),
                Measured::new("import_p50_ms", "ms", tally.latency.measured(50.0)),
                Measured::tail("import_p99_ms", &tally.latency, 99.0),
                Measured::new("reopen_ms", "ms", tally.reopen.measured(50.0)),
                Measured::new(
                    "disk_bytes_per_input_byte",
                    "ratio",
                    Summary::single(tally.dump_bytes as f64 / self.input_bytes as f64),
                ),
            ],
            ..StageOut::default()
        };
        if rec.is_on() {
            let totals = totals_by_name(rec.spans());
            let mean_us = |name: &str| totals.get(name).map_or(f64::NAN, |t| t.mean_us());
            // Last over first decile of `add_run` within one repetition: how
            // much dearer a run gets as the catalog fills.
            let add_run = durations_ms(rec.spans(), "import.add_run");
            let growth: Vec<f64> = add_run
                .chunks_exact(self.files.len())
                .map(|rep| {
                    let decile = (rep.len() / 10).max(1);
                    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                    mean(&rep[rep.len() - decile..]) / mean(&rep[..decile])
                })
                .collect();
            out.layers = vec![
                ("core.import.dedup_us_per_file", mean_us("import.dedup")),
                ("core.import.record_us_per_file", mean_us("import.record")),
                (
                    "core.import.self_us_per_file",
                    totals.get("import").map_or(f64::NAN, |t| t.mean_self_us()),
                ),
                ("core.input.extract_us_per_file", mean_us("import.extract")),
                ("core.experiment.add_run_us", mean_us("import.add_run")),
                ("core.experiment.add_run_growth", median(&growth)),
                ("sqldb.sql.stmts_parsed_per_import", tally.stmts_per_file),
                ("sqldb.wal.sync_us_per_file", mean_us("import.sync")),
                ("sqldb.wal.fsyncs_per_file", tally.fsyncs_per_file),
                (
                    "sqldb.wal.bytes_per_input_byte",
                    tally.wal_bytes as f64 / self.input_bytes as f64,
                ),
                (
                    "sqldb.wal.replay_us_per_frame",
                    median(&tally.replay_us_per_frame),
                ),
                ("sqldb.wal.checkpoint_ms", median(&tally.checkpoint_ms)),
            ];
        }
        out.series = vec![("import", tally.latency), ("reopen", tally.reopen)];
        out.reference = tally.durable.into_reference();
        Ok(out)
    }
}

impl ImportStage {
    fn repetition(&mut self, rec: &mut Recorder, checks: &mut Checks, t: &mut Tally) -> Res<()> {
        self.repetitions += 1;
        let dir = self.dir.join(format!("rep{}", self.repetitions));
        std::fs::create_dir_all(&dir).map_err(text)?;
        let path = dir.join("experiment.sql");
        // An empty experiment, as `perfbase setup` leaves it on disk.
        ExperimentDb::create(Arc::new(Engine::new()), self.def.clone())
            .map_err(text)?
            .engine()
            .save_to_file(&path)
            .map_err(text)?;
        let (db, _) = ExperimentDb::open_durable(&path, WalOptions::default()).map_err(text)?;

        let counters = Counters::now();
        let imported_before = t.latency.count();
        t.durable.tick().map_err(text)?;
        if rec.is_on() {
            self.next_op = self.import_staged(&db, rec, checks, t)?;
        } else {
            let importer = Importer::new(&db).at_time(IMPORT_TIME);
            for (position, f) in self.files.iter().enumerate() {
                let started = Instant::now();
                let report = importer.import_file(&self.desc, &f.name, &f.content);
                t.imported(position, self.files.len(), ms(started.elapsed()))?;
                checks.op(match report {
                    Ok(r) if r.runs_created.len() == 1 => None,
                    Ok(r) => Some(format!("import of {}: {r:?}", f.name)),
                    Err(e) => Some(format!("import of {}: {e}", f.name)),
                });
            }
        }
        // The time inside `import_file` alone: the reference kernel ran in
        // between.
        let files = self.files.len() as f64;
        let busy_ms: f64 = t.latency.samples()[imported_before..]
            .iter()
            .map(|s| s.ms)
            .sum();
        t.runs_per_s.push(files * 1e3 / busy_ms);
        t.fsyncs_per_file = per(counters.delta("wal.fsyncs"), files);
        t.stmts_per_file = per(counters.delta("sql.statements_parsed"), files);

        checks.op(self.stored_wrongly(&db)?);
        let importer = Importer::new(&db).at_time(IMPORT_TIME);
        let mut skipped = 0;
        let again = &self.files[..DUPLICATES.min(self.files.len())];
        for f in again {
            let report = importer
                .import_file(&self.desc, &f.name, &f.content)
                .map_err(text)?;
            skipped += report.duplicates_skipped;
        }
        checks.expect(skipped == again.len(), || {
            format!(
                "re-import skipped {skipped} of {} files as duplicates",
                again.len()
            )
        });
        t.wal_bytes = std::fs::metadata(ExperimentDb::wal_path(&path))
            .map_err(text)?
            .len();
        drop(db);

        // Every import above was acknowledged, so all of it must be back
        // after a reopen that has only the empty dump and the log to go by.
        // A reopen leaves both as they were, so it is timed several times.
        let mut reopened = None;
        for _ in 0..REOPENS {
            drop(reopened.take());
            self.next_op += 1;
            t.reference.tick();
            let started = Instant::now();
            let (db, report) = rec
                .leaf("reopen", self.next_op, || {
                    ExperimentDb::open_durable(&path, WalOptions::default())
                })
                .map_err(text)?;
            let reopen = started.elapsed();
            t.reopen.push(t.reference.now(), ms(reopen));
            t.reference.tick();
            t.replay_us_per_frame
                .push(reopen.as_secs_f64() * 1e6 / report.frames_replayed.max(1) as f64);
            reopened = Some((db, report));
        }
        let (db, report) = reopened.expect("reopened at least once");
        checks.op(self.stored_wrongly(&db)?.or_else(|| {
            (report.frames_replayed == 0 || report.replay_errors > 0)
                .then(|| format!("reopen replayed {report:?}"))
        }));

        let started = Instant::now();
        rec.leaf("checkpoint", self.next_op, || db.checkpoint(&path))
            .map_err(text)?;
        t.checkpoint_ms.push(ms(started.elapsed()));
        t.dump_bytes = std::fs::metadata(&path).map_err(text)?.len();
        checks.expect(t.dump_bytes > self.input_bytes / 4, || {
            format!("checkpointed dump has only {} bytes", t.dump_bytes)
        });
        drop(db);
        std::fs::remove_dir_all(&dir).map_err(text)
    }

    /// `Importer::import_file` taken apart into its public steps, one span
    /// each, under one parent span per file. Returns the last operation id.
    fn import_staged(
        &self,
        db: &ExperimentDb,
        rec: &mut Recorder,
        checks: &mut Checks,
        tally: &mut Tally,
    ) -> Res<u64> {
        let mut op = self.next_op;
        for (position, f) in self.files.iter().enumerate() {
            op += 1;
            let started = Instant::now();
            let whole = rec.begin("import", op);
            let def = rec.leaf("import.definition", op, || db.definition());
            rec.leaf("import.validate", op, || self.desc.validate(&def))
                .map_err(text)?;
            let hash = content_hash(&f.content);
            let known = rec
                .leaf("import.dedup", op, || db.is_imported(&hash))
                .map_err(text)?;
            let runs = rec
                .leaf("import.extract", op, || {
                    extract_runs(&self.desc, &def, &f.name, &f.content)
                })
                .map_err(text)?;
            for run in &runs {
                let id = rec
                    .leaf("import.add_run", op, || {
                        db.add_run(&run.once, &run.datasets, IMPORT_TIME)
                    })
                    .map_err(text)?;
                rec.leaf("import.record", op, || db.record_import(&hash, &f.name, id))
                    .map_err(text)?;
            }
            rec.leaf("import.sync", op, || db.durability_sync())
                .map_err(text)?;
            rec.end(whole);
            tally.imported(position, self.files.len(), ms(started.elapsed()))?;
            checks.expect(!known && runs.len() == 1, || {
                format!(
                    "staged import of {}: known={known}, {} runs",
                    f.name,
                    runs.len()
                )
            });
        }
        Ok(op)
    }

    /// Compare what `db` holds with what was imported: one run per file, 24
    /// data rows per run, and the same `pb_runs` as the first repetition.
    fn stored_wrongly(&mut self, db: &ExperimentDb) -> Res<Option<String>> {
        let engine = db.engine();
        let runs = engine
            .query("SELECT * FROM pb_runs ORDER BY run_id")
            .map_err(text)?;
        if runs.len() != self.files.len() {
            return Ok(Some(format!(
                "{} runs stored, {} files imported",
                runs.len(),
                self.files.len()
            )));
        }
        let mut rows = 0;
        for run_id in 1..=runs.len() {
            let count = engine
                .query(&format!("SELECT count(*) FROM pb_rundata_{run_id}"))
                .map_err(text)?;
            rows += count.rows()[0][0].as_i64().unwrap_or(0) as usize;
        }
        if rows != ROWS_PER_FILE * self.files.len() {
            return Ok(Some(format!(
                "{rows} data rows stored, expected {}",
                ROWS_PER_FILE * self.files.len()
            )));
        }
        let stored = content_hash(&runs.render_tsv());
        let first = self.first_runs.get_or_insert_with(|| stored.clone());
        Ok((*first != stored).then(|| "pb_runs differs from the first repetition".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::exercise;
    use super::*;

    #[test]
    fn import_campaign_end_to_end_at_small_scale() {
        let (plain, traced, rec) = exercise::<ImportStage>("import");
        // 42 files of about 3.2 KB each; the dump is SQL text of the same data.
        let ratio = plain.value("disk_bytes_per_input_byte").unwrap();
        assert!((0.3..3.0).contains(&ratio), "{ratio}");
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(layer("sqldb.wal.fsyncs_per_file") > 0.0);
        assert!(layer("sqldb.sql.stmts_parsed_per_import") >= 0.0);
        assert!(layer("core.experiment.add_run_growth") > 0.0);
        let files = 42;
        let imports = rec.spans().iter().filter(|s| s.name == "import").count();
        assert!(imports >= files && imports % files == 0, "{imports}");
    }
}
