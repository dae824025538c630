//! The paper's user interface, file to file: `perfbase setup`, `input` and
//! `query` through `perfbase::cli::run`, against a dump file on disk.
//!
//! Set-up creates the experiment with `setup` and preloads it with one
//! `input` call. A cycle then is `input` of 4 new files followed by `query`
//! of the Fig. 7 spec; every call loads the whole SQL-text dump, and `input`
//! also saves it again. Every five cycles start from a fresh copy of the
//! preloaded dump, so the dump a call loads has the same size whatever the
//! speed of the calls before it. The reference kernel runs before and after
//! every call.

use super::{
    ms, text, Checks, Ctx, Measured, Res, Roles, Stage, StageOut, IMPORT_TIME, IMPORT_TIME_ARG,
};
use crate::data::{self, Digest, Fig7Reference, InputFile, FILES_PER_REP, USER};
use crate::reference::Reference;
use crate::stats::{Latencies, Sample, Summary};
use crate::trace::{totals_by_name, Recorder};
use perfbase::cli;
use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::sqldb::Engine;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Files one `input` call of a cycle imports.
const FILES_PER_CYCLE: usize = 4;

/// Cycles run on one copy of the preloaded dump before the next copy is
/// taken, so that the dump a call loads never holds more than 20 runs beyond
/// the preloaded ones, however fast the calls are.
const CYCLES_PER_COPY: usize = 5;

pub struct CliStage {
    dir: PathBuf,
    /// The preloaded dump every five cycles start from a copy of.
    base: PathBuf,
    /// The dump the CLI calls work on.
    live: PathBuf,
    /// Copy of `live` the traced pass repeats each call on by hand.
    shadow: PathBuf,
    preloaded_runs: usize,
    base_reference: Fig7Reference,
    pool: Vec<InputFile>,
    pool_paths: Vec<String>,
    digest: String,
    next_op: u64,
}

impl Stage for CliStage {
    const ROLES: Roles = Roles {
        ops_per_s: "calls_per_ref_s",
        primary_ms: "cli_query_ref_ms",
        secondary_ms: "cli_input_ref_ms",
    };

    fn setup(ctx: &Ctx) -> Res<CliStage> {
        let dir = ctx.dir.join("cli");
        std::fs::create_dir_all(dir.join("files")).map_err(text)?;
        for (name, xml) in [
            ("experiment.xml", data::EXPERIMENT_XML),
            ("input.xml", data::INPUT_XML),
            ("fig7.xml", data::FIG7_XML),
        ] {
            std::fs::write(dir.join(name), xml).map_err(text)?;
        }
        let preload = data::campaign(ctx.seed, 1, ctx.scale.preload_reps);
        let pool_reps = (CYCLES_PER_COPY * FILES_PER_CYCLE).div_ceil(FILES_PER_REP as usize) as u32;
        let pool = data::campaign(ctx.seed, ctx.scale.preload_reps + 1, pool_reps);
        let digest = Digest::of_inputs(&[&preload, &pool]);
        let write = |files: &[InputFile]| -> Res<Vec<String>> {
            files
                .iter()
                .map(|f| {
                    let path = dir.join("files").join(&f.name);
                    std::fs::write(&path, &f.content).map_err(text)?;
                    Ok(path.display().to_string())
                })
                .collect()
        };
        let preload_paths = write(&preload)?;
        let pool_paths = write(&pool)?;

        let stage = CliStage {
            base: dir.join("base.sql"),
            live: dir.join("experiment.sql"),
            shadow: dir.join("shadow.sql"),
            dir,
            preloaded_runs: preload.len(),
            base_reference: Fig7Reference::of(&preload),
            pool,
            pool_paths,
            digest: digest.hex(),
            next_op: 0,
        };
        cli::run(vec![
            "setup".into(),
            "--def".into(),
            stage.file("experiment.xml"),
            "--db".into(),
            path_arg(&stage.base),
        ])?;
        let report = cli::run(stage.input_args(&stage.base, &preload_paths))?;
        let expected = format!("imported {} run(s), discarded 0, skipped 0", preload.len());
        if !report.contains(&expected) {
            return Err(format!("preload said: {report}"));
        }
        Ok(stage)
    }

    fn input_digest(&self) -> String {
        self.digest.clone()
    }

    fn run(&mut self, budget: Duration, rec: &mut Recorder, checks: &mut Checks) -> Res<StageOut> {
        let mut reference = Reference::new();
        let mut input = Latencies::default();
        let mut query = Latencies::default();
        // Milliseconds per call of each cycle, for the throughput.
        let mut per_call = Latencies::default();
        let mut busy_ms = 0.0;
        let query_args = self.query_args(&self.live);
        let mut expected = self.base_reference.clone();
        let started = Instant::now();
        let mut cycles = 0;
        while started.elapsed() < budget {
            let cycle = cycles % CYCLES_PER_COPY;
            if cycle == 0 {
                std::fs::copy(&self.base, &self.live).map_err(text)?;
                expected = self.base_reference.clone();
            }
            let files = cycle * FILES_PER_CYCLE..(cycle + 1) * FILES_PER_CYCLE;
            let input_args = self.input_args(&self.live, &self.pool_paths[files.clone()]);
            self.next_op += 1;
            let op = self.next_op;
            if rec.is_on() {
                std::fs::copy(&self.live, &self.shadow).map_err(text)?;
            }

            reference.tick();
            let cycle_started = reference.now();
            let t = Instant::now();
            let said = rec.leaf("cli.input", op, || cli::run(input_args))?;
            let input_ms = ms(t.elapsed());
            input.push(reference.now(), input_ms);
            reference.tick();
            checks.expect(
                said.contains("imported 4 run(s), discarded 0, skipped 0 duplicate"),
                || format!("input said: {said}"),
            );
            for f in &self.pool[files.clone()] {
                expected.add(&f.run);
            }
            if rec.is_on() {
                self.input_by_hand(op, &self.pool_paths[files], rec)?;
                reference.tick();
            }

            let t = Instant::now();
            let printed = rec.leaf("cli.query", op, || cli::run(query_args.clone()))?;
            let query_ms = ms(t.elapsed());
            query.push(reference.now(), query_ms);
            per_call.push_sample(Sample {
                at: (cycle_started + reference.now()) / 2.0,
                ms: (input_ms + query_ms) / 2.0,
            });
            busy_ms += input_ms + query_ms;
            reference.tick();
            checks.op(expected.check(table_section(&printed)).err());
            if rec.is_on() {
                let by_hand = self.query_by_hand(op, rec)?;
                checks.expect(by_hand == printed, || {
                    "query by hand prints something else than the CLI".into()
                });
            }
            cycles += 1;

            // The dump is about to be replaced or the run to end: it must
            // hold the preloaded runs and every cycle's four.
            if cycles % CYCLES_PER_COPY == 0 || started.elapsed() >= budget {
                let stored = Engine::load_from_file(&self.live)
                    .and_then(|e| e.query("SELECT count(*) FROM pb_runs"))
                    .map_err(text)?;
                let runs = stored.rows()[0][0].as_i64().unwrap_or(-1);
                let want = (self.preloaded_runs + FILES_PER_CYCLE * (cycle + 1)) as i64;
                checks.expect(runs == want, || {
                    format!("the dump holds {runs} runs, expected {want}")
                });
            }
        }

        let mut out = StageOut {
            named: vec![
                Measured::new(
                    "calls_per_ref_s",
                    "calls/s",
                    per_call.at_reference_speed(&reference).per_second(),
                ),
                Measured::new(
                    "cli_query_ref_ms",
                    "ms",
                    query.at_reference_speed(&reference),
                ),
                Measured::new(
                    "cli_input_ref_ms",
                    "ms",
                    input.at_reference_speed(&reference),
                ),
                Measured::new(
                    "cli_calls_per_s",
                    "calls/s",
                    Summary::single(2e3 * cycles as f64 / busy_ms),
                ),
                Measured::new("cli_query_p50_ms", "ms", query.measured(50.0)),
                Measured::tail("cli_query_p75_ms", &query, 75.0),
                Measured::new("cli_input_p50_ms", "ms", input.measured(50.0)),
            ],
            layers: Vec::new(),
            series: vec![("cli.input", input), ("cli.query", query)],
            reference,
        };
        if rec.is_on() {
            let totals = totals_by_name(rec.spans());
            let mean_ms = |name: &str| totals.get(name).map_or(f64::NAN, |t| t.mean_us() / 1e3);
            out.layers = vec![
                ("sqldb.dump.load_ms", mean_ms("dump.load")),
                ("sqldb.dump.save_ms", mean_ms("dump.save")),
                (
                    "sqldb.dump.bytes",
                    std::fs::metadata(&self.base).map_err(text)?.len() as f64,
                ),
                ("core.experiment.open_us", mean_ms("experiment.open") * 1e3),
                // What the CLI adds to load + open + work + save done by hand.
                (
                    "perfbase.cli.input_self_ms",
                    mean_ms("cli.input") - mean_ms("byhand.input"),
                ),
                (
                    "perfbase.cli.query_self_ms",
                    mean_ms("cli.query") - mean_ms("byhand.query"),
                ),
            ];
        }
        Ok(out)
    }
}

impl CliStage {
    fn file(&self, name: &str) -> String {
        path_arg(&self.dir.join(name))
    }

    fn input_args(&self, db: &Path, files: &[String]) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "input".into(),
            "--db".into(),
            path_arg(db),
            "--desc".into(),
            self.file("input.xml"),
            "--user".into(),
            USER.into(),
            "--at".into(),
            IMPORT_TIME_ARG.into(),
        ];
        args.extend(files.iter().cloned());
        args
    }

    fn query_args(&self, db: &Path) -> Vec<String> {
        vec![
            "query".into(),
            "--db".into(),
            path_arg(db),
            "--spec".into(),
            self.file("fig7.xml"),
            "--user".into(),
            USER.into(),
        ]
    }

    /// Load the shadow dump and open the experiment in it, as every CLI
    /// command does first.
    fn open_shadow(&self, op: u64, rec: &mut Recorder) -> Res<ExperimentDb> {
        let engine = rec
            .leaf("dump.load", op, || Engine::load_from_file(&self.shadow))
            .map_err(text)?;
        rec.leaf("experiment.open", op, || {
            ExperimentDb::open(Arc::new(engine))
        })
        .map_err(text)
    }

    /// What `perfbase input` does, from public calls, on the shadow dump.
    fn input_by_hand(&self, op: u64, files: &[String], rec: &mut Recorder) -> Res<()> {
        let whole = rec.begin("byhand.input", op);
        let db = self.open_shadow(op, rec)?;
        rec.leaf("byhand.input.work", op, || -> Res<()> {
            let xml = std::fs::read_to_string(self.dir.join("input.xml")).map_err(text)?;
            let desc = input_description_from_str(&xml).map_err(text)?;
            let contents: Vec<String> = files
                .iter()
                .map(|f| std::fs::read_to_string(f).map_err(text))
                .collect::<Res<_>>()?;
            let pairs: Vec<(&str, &str)> = files
                .iter()
                .zip(&contents)
                .map(|(f, c)| (f.as_str(), c.as_str()))
                .collect();
            Importer::new(&db)
                .at_time(IMPORT_TIME)
                .import_files(&desc, &pairs)
                .map_err(text)?;
            Ok(())
        })?;
        rec.leaf("dump.save", op, || db.engine().save_to_file(&self.shadow))
            .map_err(text)?;
        rec.end(whole);
        Ok(())
    }

    /// What `perfbase query` does, from public calls, on the shadow dump;
    /// returns what the CLI would print.
    fn query_by_hand(&self, op: u64, rec: &mut Recorder) -> Res<String> {
        let whole = rec.begin("byhand.query", op);
        let db = self.open_shadow(op, rec)?;
        let printed = rec.leaf("byhand.query.work", op, || -> Res<String> {
            let xml = std::fs::read_to_string(self.dir.join("fig7.xml")).map_err(text)?;
            let spec = query_from_str(&xml).map_err(text)?;
            let outcome = QueryRunner::new(&db).run(spec).map_err(text)?;
            let mut ids: Vec<&String> = outcome.artifacts.keys().collect();
            ids.sort();
            let mut out = String::new();
            for id in ids {
                out.push_str(&format!("== output element '{id}' ==\n"));
                out.push_str(&outcome.artifacts[id]);
                out.push('\n');
            }
            Ok(out)
        })?;
        rec.end(whole);
        Ok(printed)
    }
}

fn path_arg(path: &Path) -> String {
    path.display().to_string()
}

/// The ascii table among the outputs `perfbase query` prints.
fn table_section(printed: &str) -> &str {
    let marker = "== output element 'table' ==\n";
    let from = printed
        .find(marker)
        .map_or(printed.len(), |i| i + marker.len());
    let rest = &printed[from..];
    &rest[..rest.find("== output element").unwrap_or(rest.len())]
}

#[cfg(test)]
mod tests {
    use super::super::testing::exercise;
    use super::*;

    #[test]
    fn cli_session_end_to_end_at_small_scale() {
        let (plain, traced, _) = exercise::<CliStage>("cli");
        assert!(plain.value("cli_input_p50_ms").unwrap() > 0.0);
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(layer("sqldb.dump.bytes") > 50_000.0);
        assert!(layer("sqldb.dump.load_ms") > 0.0 && layer("sqldb.dump.save_ms") > 0.0);
    }

    #[test]
    fn table_section_is_cut_out_of_the_printed_outputs() {
        let printed = "== output element 'plot' ==\nP\n== output element 'table' ==\nT | 1\n\n";
        assert_eq!(table_section(printed), "T | 1\n\n");
        assert_eq!(table_section("nothing"), "");
    }
}
