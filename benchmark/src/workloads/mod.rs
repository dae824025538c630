//! The four stages of the workflow a workload can exercise — import, query,
//! command line, HTTP serving — behind one interface, and what they share.
//!
//! A *workload* (see `WORKLOADS` in `main.rs`) is one stage at one data scale.
//! Its untraced run measures that stage alone for the whole run; its traced
//! run passes through every stage at the workload's scale so that every
//! per-layer metric is measured on the workload's data.

pub mod cli;
pub mod import;
pub mod query;
pub mod serve;

use crate::data::{self, InputFile};
use crate::reference::Reference;
use crate::stats::{Latencies, Summary};
use crate::trace::Recorder;
use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::xmldef::definition_from_str;
use perfbase::sqldb::Engine;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Import time stamped on every run (2004-11-23 18:30:30 UTC), so that two
/// runs of the benchmark store byte-identical databases.
pub const IMPORT_TIME: i64 = 1_101_234_630;
pub const IMPORT_TIME_ARG: &str = "2004-11-23 18:30:30";

/// How much data a workload runs on. Only tests use a scale other than the
/// ones in `WORKLOADS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Campaign repetitions (6 files each) one import repetition loads.
    pub import_reps: u32,
    /// Campaign repetitions preloaded before queries, CLI calls and serving.
    pub preload_reps: u32,
    /// Rows in the served `samples` table before the writer starts.
    pub sample_rows: usize,
    /// Rows per ingest batch.
    pub batch_rows: usize,
    /// Period of the ingest writer's schedule.
    pub batch_interval: Duration,
}

/// What a stage needs to set itself up.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    /// An existing directory this run may fill and must leave empty.
    pub dir: PathBuf,
}

/// One named result of a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
    /// The percentile a tail latency is, so that the report can say whether
    /// the run had the samples to support it.
    pub percentile: Option<f64>,
}

impl Measured {
    pub fn new(name: &'static str, unit: &'static str, summary: Summary) -> Measured {
        Measured {
            name,
            unit,
            summary,
            percentile: None,
        }
    }

    /// Percentile `p` of `latencies` as measured, in milliseconds.
    pub fn tail(name: &'static str, latencies: &crate::stats::Latencies, p: f64) -> Measured {
        Measured {
            percentile: Some(p),
            ..Measured::new(name, "ms", latencies.measured(p))
        }
    }
}

/// Which of a stage's named results fill the end-to-end metrics every
/// workload reports.
pub struct Roles {
    pub ops_per_s: &'static str,
    pub primary_ms: &'static str,
    pub secondary_ms: &'static str,
}

impl Roles {
    /// The stage's name for what fills the end-to-end metric `metric`.
    pub fn filled_by(&self, metric: &str) -> Option<&'static str> {
        match metric {
            "ops_per_s" => Some(self.ops_per_s),
            "primary_ms" => Some(self.primary_ms),
            "secondary_ms" => Some(self.secondary_ms),
            _ => None,
        }
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; `problem` says what was wrong with its result.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(p);
            }
        }
    }

    /// Count one operation that is right when `ok` holds.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op((!ok).then(what));
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(20);
    }
}

/// What one pass through a stage produced.
#[derive(Debug, Default)]
pub struct StageOut {
    /// The stage's operation-level results, under the stage's own names.
    pub named: Vec<Measured>,
    /// Per-layer results; filled only when the recorder was on.
    pub layers: Vec<(&'static str, f64)>,
    /// Every latency sample by kind of operation, and the reference kernel's
    /// times between them: what `--samples` writes out.
    pub series: Vec<(&'static str, Latencies)>,
    pub reference: Reference,
}

impl StageOut {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.named
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary.value)
    }
}

pub type Res<T> = Result<T, String>;

/// `?` on any displayable error inside a `Res` function.
pub fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub trait Stage: Sized {
    const ROLES: Roles;

    /// Generate the inputs and bring the program to the state the measured
    /// operations start from. Timed as `setup_s`.
    fn setup(ctx: &Ctx) -> Res<Self>;

    /// FNV-1a digest of everything `setup` generated or read.
    fn input_digest(&self) -> String;

    /// Run the stage's operations for about `budget`, recording spans when
    /// `rec` is on, and check every result.
    fn run(&mut self, budget: Duration, rec: &mut Recorder, checks: &mut Checks) -> Res<StageOut>;
}

/// An in-memory experiment holding `files`, imported through the library.
pub fn preload(files: &[InputFile]) -> Res<ExperimentDb> {
    let def = definition_from_str(data::EXPERIMENT_XML).map_err(text)?;
    let desc = input_description_from_str(data::INPUT_XML).map_err(text)?;
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).map_err(text)?;
    let importer = Importer::new(&db).at_time(IMPORT_TIME);
    for f in files {
        let report = importer
            .import_file(&desc, &f.name, &f.content)
            .map_err(text)?;
        if report.runs_created.len() != 1 {
            return Err(format!("preload of {} created {report:?}", f.name));
        }
    }
    Ok(db)
}

/// Deltas of the program's own counters over a stretch of work.
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    pub fn now() -> Counters {
        Counters(perfbase::obs::counters_snapshot())
    }

    /// Increase of counter `name` since `self` was taken, or −1 when the
    /// program no longer has a counter of that name.
    pub fn delta(&self, name: &str) -> f64 {
        let find =
            |snap: &[(&'static str, u64)]| snap.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        match (find(&self.0), find(&perfbase::obs::counters_snapshot())) {
            (Some(before), Some(after)) => after.saturating_sub(before) as f64,
            _ => -1.0,
        }
    }
}

/// `count / n`, keeping the −1 of a counter the program no longer has.
pub fn per(count: f64, n: f64) -> f64 {
    if count < 0.0 {
        count
    } else {
        count / n
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
pub mod testing {
    use super::*;

    /// 1/50 of the full scale.
    pub const SMALL: Scale = Scale {
        import_reps: 7,
        preload_reps: 4,
        sample_rows: 2_000,
        batch_rows: 5,
        batch_interval: Duration::from_millis(10),
    };

    /// A fresh directory under the crate's ignored `out/`, removed on drop.
    pub struct TestDir(pub PathBuf);

    impl TestDir {
        pub fn new(name: &str) -> TestDir {
            let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        pub fn ctx(&self) -> Ctx {
            Ctx {
                seed: 1,
                scale: SMALL,
                dir: self.0.clone(),
            }
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Run a stage end to end at the small scale, untraced and traced, and
    /// require every check to pass and every role to be filled.
    pub fn exercise<S: Stage>(name: &str) -> (StageOut, StageOut, Recorder) {
        let dir = TestDir::new(name);
        let mut stage = S::setup(&dir.ctx()).unwrap();
        assert_eq!(stage.input_digest().len(), 16);
        let mut checks = Checks::default();
        let budget = Duration::from_millis(400);
        let plain = stage
            .run(budget, &mut Recorder::off(), &mut checks)
            .unwrap();
        let mut rec = Recorder::on(std::time::Instant::now(), 0);
        let traced = stage.run(budget, &mut rec, &mut checks).unwrap();
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert!(checks.attempted > 0);
        for out in [&plain, &traced] {
            for role in [
                S::ROLES.ops_per_s,
                S::ROLES.primary_ms,
                S::ROLES.secondary_ms,
            ] {
                let v = out.value(role).unwrap_or_else(|| panic!("no {role}"));
                assert!(v.is_finite() && v > 0.0, "{role} = {v}");
            }
        }
        assert!(plain.layers.is_empty());
        assert!(!traced.layers.is_empty());
        for (layer, v) in &traced.layers {
            assert!(v.is_finite(), "{layer} = {v}");
        }
        let coverage = crate::trace::self_time_coverage(rec.spans());
        assert!((0.9..=1.1).contains(&coverage), "coverage {coverage}");
        (plain, traced, rec)
    }

    #[test]
    fn counters_report_minus_one_for_a_missing_name() {
        let c = Counters::now();
        assert_eq!(c.delta("no.such_counter"), -1.0);
        assert!(c.delta("sql.statements_parsed") >= 0.0);
    }

    #[test]
    fn failed_checks_are_counted_and_explained() {
        let mut c = Checks::default();
        c.expect(true, || unreachable!());
        c.expect(false, || "wrong row count".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, vec!["wrong row count".to_string()]);
    }
}
