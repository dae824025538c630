//! The import pipeline (paper §3.2): applies input descriptions to input
//! files and stores the resulting runs, implementing the four
//! file-to-run mappings of Fig. 1, the missing-content policies, and
//! duplicate-import protection.

use crate::error::{Error, Result};
use crate::experiment::ExperimentDb;
use crate::input::{extract_runs, ExtractedRun, InputDescription};

/// What to do when an input file does not provide content for every
/// variable (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingPolicy {
    /// Use defaults where defined, store NULL otherwise (the default).
    #[default]
    AllowMissing,
    /// Skip (do not store) runs with missing content — for batch imports of
    /// possibly corrupt files.
    DiscardIncomplete,
    /// Abort the import with an error naming the missing variables.
    FailIncomplete,
}

/// Outcome of importing one input source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ImportReport {
    /// Run ids created.
    pub runs_created: Vec<i64>,
    /// Runs skipped because of missing content (DiscardIncomplete).
    pub runs_discarded: usize,
    /// Files skipped because their content hash was already imported.
    pub duplicates_skipped: usize,
}

impl ImportReport {
    fn merge(&mut self, other: ImportReport) {
        self.runs_created.extend(other.runs_created);
        self.runs_discarded += other.runs_discarded;
        self.duplicates_skipped += other.duplicates_skipped;
    }
}

/// The importer: binds an experiment, a policy, and the duplicate override.
pub struct Importer<'a> {
    db: &'a ExperimentDb,
    policy: MissingPolicy,
    /// Re-import files whose hash is already recorded ("without explicit
    /// confirmation, importing data from the same input file more than once
    /// is not possible").
    force_duplicates: bool,
    /// Import timestamp recorded on each run (Unix seconds).
    now: i64,
}

impl<'a> Importer<'a> {
    /// New importer with the default policy.
    pub fn new(db: &'a ExperimentDb) -> Self {
        Importer {
            db,
            policy: MissingPolicy::default(),
            force_duplicates: false,
            now: 0,
        }
    }

    /// Set the missing-content policy.
    pub fn with_policy(mut self, policy: MissingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Allow duplicate imports (the explicit confirmation of §3.2).
    pub fn force_duplicates(mut self, yes: bool) -> Self {
        self.force_duplicates = yes;
        self
    }

    /// Set the import timestamp stored with each run.
    pub fn at_time(mut self, unix_seconds: i64) -> Self {
        self.now = unix_seconds;
        self
    }

    /// Mapping a/b (Fig. 1): one file, one description → one run, or many
    /// runs when the description has a run separator.
    pub fn import_file(
        &self,
        desc: &InputDescription,
        filename: &str,
        content: &str,
    ) -> Result<ImportReport> {
        let def = self.db.definition();
        desc.validate(&def)?;

        let hash = content_hash(content);
        if self.db.is_imported(&hash)? && !self.force_duplicates {
            return Ok(ImportReport {
                duplicates_skipped: 1,
                ..ImportReport::default()
            });
        }

        let runs = extract_runs(desc, &def, filename, content)?;
        let mut report = ImportReport::default();
        for run in runs {
            match self.store(&run, &[(&hash, filename)])? {
                Some(id) => report.runs_created.push(id),
                None => report.runs_discarded += 1,
            }
        }
        // Completed imports must survive a crash even mid group-commit
        // window; a no-op when the experiment has no WAL attached.
        self.db.durability_sync()?;
        Ok(report)
    }

    /// Mapping c (Fig. 1): many files through one description, processed
    /// independently → one (or more) runs per file.
    pub fn import_files(
        &self,
        desc: &InputDescription,
        files: &[(&str, &str)],
    ) -> Result<ImportReport> {
        let mut report = ImportReport::default();
        for (name, content) in files {
            report.merge(self.import_file(desc, name, content)?);
        }
        Ok(report)
    }

    /// Mapping d (Fig. 1): several files, each with its own description,
    /// merged into a **single** run — "to collect outputs of different
    /// sources for a single run … without needing to merge them into a
    /// single input file".
    pub fn import_merged(
        &self,
        sources: &[(&InputDescription, &str, &str)],
    ) -> Result<ImportReport> {
        let def = self.db.definition();
        let mut merged = ExtractedRun::default();
        let mut hashes = Vec::with_capacity(sources.len());

        for (desc, filename, content) in sources {
            desc.validate(&def)?;
            let hash = content_hash(content);
            if self.db.is_imported(&hash)? && !self.force_duplicates {
                return Ok(ImportReport {
                    duplicates_skipped: 1,
                    ..ImportReport::default()
                });
            }
            hashes.push((hash, *filename));

            let mut runs = extract_runs(desc, &def, filename, content)?;
            if runs.len() != 1 {
                return Err(Error::Import(format!(
                    "merged import expects one run per file, '{filename}' produced {}",
                    runs.len()
                )));
            }
            let run = runs.pop().expect("length checked");
            for (k, v) in run.once {
                if let Some(prev) = merged.once.get(&k) {
                    if prev != &v {
                        return Err(Error::Import(format!(
                            "conflicting content for '{k}' while merging '{filename}'"
                        )));
                    }
                }
                merged.once.insert(k, v);
            }
            merged.datasets.extend(run.datasets);
        }

        let sources: Vec<(&str, &str)> = hashes.iter().map(|(h, f)| (h.as_str(), *f)).collect();
        let mut report = ImportReport::default();
        match self.store(&merged, &sources)? {
            Some(id) => report.runs_created.push(id),
            None => report.runs_discarded = 1,
        }
        self.db.durability_sync()?;
        Ok(report)
    }

    /// Import a binary `PBTR` trace file (paper §6 outlook: "processing of
    /// non-ASCII input files (like traces)"). Trace fields are matched
    /// against experiment variables by name; the usual duplicate detection
    /// and missing-content policy apply.
    pub fn import_trace(&self, filename: &str, bytes: &[u8]) -> Result<ImportReport> {
        let def = self.db.definition();
        let hash = content_hash_bytes(bytes);
        if self.db.is_imported(&hash)? && !self.force_duplicates {
            return Ok(ImportReport {
                duplicates_skipped: 1,
                ..ImportReport::default()
            });
        }
        let trace = crate::input::trace::parse_trace(bytes)?;
        let run = crate::input::trace::trace_to_run(&def, &trace)?;
        let mut report = ImportReport::default();
        match self.store(&run, &[(&hash, filename)])? {
            Some(id) => report.runs_created.push(id),
            None => report.runs_discarded = 1,
        }
        self.db.durability_sync()?;
        Ok(report)
    }

    /// Apply the missing-content policy and store the run, with one
    /// provenance row per `(content hash, file name)` of `sources` in the
    /// same transaction. Returns `None` when the run was discarded by policy.
    fn store(&self, run: &ExtractedRun, sources: &[(&str, &str)]) -> Result<Option<i64>> {
        let def = self.db.definition();
        let missing = run.missing_variables(&def);
        if !missing.is_empty() {
            match self.policy {
                MissingPolicy::AllowMissing => {}
                MissingPolicy::DiscardIncomplete => return Ok(None),
                MissingPolicy::FailIncomplete => {
                    return Err(Error::Import(format!(
                        "input provides no content for: {}",
                        missing.join(", ")
                    )))
                }
            }
        }
        let id = self
            .db
            .add_run_recorded(&run.once, &run.datasets, self.now, sources)?;
        Ok(Some(id))
    }
}

/// FNV-1a 64-bit content hash, rendered as hex. Good enough for duplicate
/// detection of benchmark output files (no adversarial inputs).
pub fn content_hash(content: &str) -> String {
    content_hash_bytes(content.as_bytes())
}

/// Byte-level variant of [`content_hash`] for binary inputs (traces).
pub fn content_hash_bytes(content: &[u8]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in content {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentDef, Meta, VarKind, Variable};
    use crate::input::{Location, Pattern, TabularColumn, TabularSpec};
    use sqldb::{DataType, Engine, Value};
    use std::sync::Arc;

    fn def() -> ExperimentDef {
        let mut d = ExperimentDef::new(
            Meta {
                name: "x".into(),
                ..Meta::default()
            },
            "u",
        );
        d.add_variable(Variable::new("nodes", VarKind::Parameter, DataType::Int).once())
            .unwrap();
        d.add_variable(Variable::new("host", VarKind::Parameter, DataType::Text).once())
            .unwrap();
        d.add_variable(Variable::new("sz", VarKind::Parameter, DataType::Int))
            .unwrap();
        d.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        d
    }

    fn db() -> ExperimentDb {
        ExperimentDb::create(Arc::new(Engine::new()), def()).unwrap()
    }

    fn desc() -> InputDescription {
        InputDescription::new()
            .with_location(Location::Named {
                variable: "nodes".into(),
                pattern: Pattern::Literal("nodes =".into()),
                direction: crate::input::Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Named {
                variable: "host".into(),
                pattern: Pattern::Literal("host =".into()),
                direction: crate::input::Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Tabular(TabularSpec {
                start: Pattern::Literal("-- table --".into()),
                offset: 0,
                end: None,
                skip_mismatch: false,
                columns: vec![
                    TabularColumn {
                        index: 1,
                        variable: "sz".into(),
                    },
                    TabularColumn {
                        index: 2,
                        variable: "bw".into(),
                    },
                ],
            }))
    }

    const FILE: &str = "\
nodes = 4
host = grisu0
-- table --
1024 59.0
2048 61.5
";

    #[test]
    fn mapping_a_one_file_one_run() {
        let db = db();
        let rep = Importer::new(&db)
            .import_file(&desc(), "out1.txt", FILE)
            .unwrap();
        assert_eq!(rep.runs_created, vec![1]);
        assert_eq!(db.run_summary(1).unwrap().datasets, 2);
    }

    #[test]
    fn mapping_b_run_separator() {
        let db = db();
        let two = format!("{FILE}{FILE}");
        let d = desc().with_run_separator(Pattern::Literal("nodes =".into()));
        let rep = Importer::new(&db)
            .import_file(&d, "out2.txt", &two)
            .unwrap();
        assert_eq!(rep.runs_created, vec![1, 2]);
    }

    #[test]
    fn mapping_c_many_files_independent() {
        let db = db();
        let f2 = FILE.replace("grisu0", "grisu1");
        let rep = Importer::new(&db)
            .import_files(&desc(), &[("a.txt", FILE), ("b.txt", &f2)])
            .unwrap();
        assert_eq!(rep.runs_created, vec![1, 2]);
        let s1 = db.run_summary(1).unwrap();
        let s2 = db.run_summary(2).unwrap();
        assert_ne!(s1.once_values, s2.once_values);
    }

    #[test]
    fn mapping_d_merged_single_run() {
        let db = db();
        // File 1: run constants. File 2: the data table.
        let d1 = InputDescription::new()
            .with_location(Location::Named {
                variable: "nodes".into(),
                pattern: Pattern::Literal("nodes =".into()),
                direction: crate::input::Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Named {
                variable: "host".into(),
                pattern: Pattern::Literal("host =".into()),
                direction: crate::input::Direction::After,
                occurrence: 1,
            });
        let d2 = InputDescription::new().with_location(Location::Tabular(TabularSpec {
            start: Pattern::Literal("-- table --".into()),
            offset: 0,
            end: None,
            skip_mismatch: false,
            columns: vec![
                TabularColumn {
                    index: 1,
                    variable: "sz".into(),
                },
                TabularColumn {
                    index: 2,
                    variable: "bw".into(),
                },
            ],
        }));
        let meta_file = "nodes = 8\nhost = grisu2\n";
        let data_file = "-- table --\n512 33.0\n1024 44.0\n2048 55.0\n";
        let rep = Importer::new(&db)
            .import_merged(&[(&d1, "env.txt", meta_file), (&d2, "data.txt", data_file)])
            .unwrap();
        assert_eq!(rep.runs_created, vec![1]);
        let s = db.run_summary(1).unwrap();
        assert_eq!(s.datasets, 3);
        assert_eq!(
            s.once_values.iter().find(|(n, _)| n == "nodes").unwrap().1,
            Value::Int(8)
        );
    }

    #[test]
    fn merged_conflict_rejected() {
        let db = db();
        let d = InputDescription::new().with_location(Location::Named {
            variable: "nodes".into(),
            pattern: Pattern::Literal("nodes =".into()),
            direction: crate::input::Direction::After,
            occurrence: 1,
        });
        let err = Importer::new(&db)
            .import_merged(&[(&d, "a", "nodes = 4"), (&d, "b", "nodes = 8")])
            .unwrap_err();
        assert!(err.to_string().contains("conflicting"));
    }

    #[test]
    fn duplicate_import_blocked_then_forced() {
        let db = db();
        let imp = Importer::new(&db);
        let r1 = imp.import_file(&desc(), "f.txt", FILE).unwrap();
        assert_eq!(r1.runs_created.len(), 1);
        // Same content, even under a different name → duplicate.
        let r2 = imp.import_file(&desc(), "renamed.txt", FILE).unwrap();
        assert!(r2.runs_created.is_empty());
        assert_eq!(r2.duplicates_skipped, 1);
        // Explicit confirmation overrides.
        let r3 = Importer::new(&db)
            .force_duplicates(true)
            .import_file(&desc(), "f.txt", FILE)
            .unwrap();
        assert_eq!(r3.runs_created.len(), 1);
        assert_eq!(db.run_ids().unwrap().len(), 2);
    }

    #[test]
    fn policy_allow_missing_stores_null() {
        let db = db();
        let partial = "nodes = 4\n-- table --\n1 2.0\n"; // no host
        let rep = Importer::new(&db)
            .import_file(&desc(), "p.txt", partial)
            .unwrap();
        assert_eq!(rep.runs_created.len(), 1);
        let s = db.run_summary(rep.runs_created[0]).unwrap();
        assert_eq!(
            s.once_values.iter().find(|(n, _)| n == "host").unwrap().1,
            Value::Null
        );
    }

    #[test]
    fn policy_discard_skips() {
        let db = db();
        let partial = "nodes = 4\n-- table --\n1 2.0\n";
        let rep = Importer::new(&db)
            .with_policy(MissingPolicy::DiscardIncomplete)
            .import_file(&desc(), "p.txt", partial)
            .unwrap();
        assert!(rep.runs_created.is_empty());
        assert_eq!(rep.runs_discarded, 1);
        assert!(db.run_ids().unwrap().is_empty());
    }

    #[test]
    fn policy_fail_names_variables() {
        let db = db();
        let partial = "nodes = 4\n-- table --\n1 2.0\n";
        let err = Importer::new(&db)
            .with_policy(MissingPolicy::FailIncomplete)
            .import_file(&desc(), "p.txt", partial)
            .unwrap_err();
        assert!(err.to_string().contains("host"));
    }

    #[test]
    fn import_timestamp_recorded() {
        let db = db();
        let rep = Importer::new(&db)
            .at_time(1_234_567)
            .import_file(&desc(), "f", FILE)
            .unwrap();
        let s = db.run_summary(rep.runs_created[0]).unwrap();
        assert_eq!(s.created, 1_234_567);
    }

    #[test]
    fn hash_stability_and_sensitivity() {
        let a = content_hash("hello");
        assert_eq!(a, content_hash("hello"));
        assert_ne!(a, content_hash("hello "));
        assert_eq!(a.len(), 16);
    }
}
