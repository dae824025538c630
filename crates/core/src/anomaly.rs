//! Automatic result analysis (paper §6, outlook): "the capability to
//! analyse results automatically and only show suspicious or unusual
//! results or deviations from previous runs".
//!
//! The detector works on one result value grouped by a set of parameters:
//! for every parameter combination it computes the historical mean and
//! sample standard deviation, then flags
//!
//! * **run deviations** — runs whose value lies more than `threshold`
//!   standard deviations from the combination's mean (a transient I/O
//!   glitch, a mis-configured node, …);
//! * **unstable combinations** — combinations whose relative standard
//!   deviation exceeds `max_rel_stddev` (the §5 situation where "some
//!   configurations required additional runs to reduce the standard
//!   deviation").
//!
//! The input is any [`DataVector`], so the detector composes with the query
//! engine: run a query, then screen its source vector.

use crate::error::{Error, Result};
use crate::experiment::ExperimentDb;
use crate::query::spec::SourceSpec;
use crate::query::{exec, DataVector};
use sqldb::Value;
use std::collections::HashMap;

/// One screening bucket: the parameter combination plus its samples.
type Bucket = (Vec<(String, Value)>, Vec<f64>);

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Flag values beyond this many sample standard deviations.
    pub threshold: f64,
    /// Flag combinations whose stddev/|mean| exceeds this.
    pub max_rel_stddev: f64,
    /// Combinations need at least this many samples to be judged.
    pub min_samples: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            threshold: 3.0,
            max_rel_stddev: 0.25,
            min_samples: 3,
        }
    }
}

/// A value that deviates from its combination's history.
///
/// Deviations are judged against **robust** statistics — the median and
/// the scaled median absolute deviation (MAD × 1.4826, which estimates σ
/// for normal data) — because a strong outlier inflates the plain standard
/// deviation enough to mask itself when only a handful of runs exist.
#[derive(Debug, Clone, PartialEq)]
pub struct Deviation {
    /// The parameter combination `(name, content)`.
    pub combination: Vec<(String, Value)>,
    /// The suspicious value.
    pub value: f64,
    /// Median of the combination.
    pub median: f64,
    /// Robust spread (1.4826 × MAD).
    pub spread: f64,
    /// Signed distance from the median in robust-σ units.
    pub sigma: f64,
}

/// A combination whose spread is too large to trust.
#[derive(Debug, Clone, PartialEq)]
pub struct UnstableCombination {
    /// The parameter combination `(name, content)`.
    pub combination: Vec<(String, Value)>,
    /// Number of samples seen.
    pub samples: usize,
    /// Mean of the samples.
    pub mean: f64,
    /// Relative standard deviation (stddev / |mean|).
    pub rel_stddev: f64,
}

/// Full report of a screening pass.
#[derive(Debug, Clone, Default)]
pub struct AnomalyReport {
    /// Values that deviate from their combination's history.
    pub deviations: Vec<Deviation>,
    /// Combinations that need more runs.
    pub unstable: Vec<UnstableCombination>,
    /// Combinations with too few samples to judge.
    pub undersampled: usize,
}

impl AnomalyReport {
    /// Is everything ordinary?
    pub fn is_clean(&self) -> bool {
        self.deviations.is_empty() && self.unstable.is_empty()
    }

    /// Human-readable rendering (the `perfbase suspect` command).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!(
                "no anomalies ({} combination(s) with too few samples to judge)\n",
                self.undersampled
            );
        }
        let mut out = String::new();
        if !self.deviations.is_empty() {
            out.push_str(&format!("{} deviating value(s):\n", self.deviations.len()));
            for d in &self.deviations {
                let combo: Vec<String> = d
                    .combination
                    .iter()
                    .map(|(p, v)| format!("{p}={v}"))
                    .collect();
                out.push_str(&format!(
                    "  [{}] value {:.4} is {:+.1}σ from median {:.4} (robust σ = {:.4})\n",
                    combo.join(", "),
                    d.value,
                    d.sigma,
                    d.median,
                    d.spread
                ));
            }
        }
        if !self.unstable.is_empty() {
            out.push_str(&format!(
                "{} unstable combination(s) — consider additional runs:\n",
                self.unstable.len()
            ));
            for u in &self.unstable {
                let combo: Vec<String> = u
                    .combination
                    .iter()
                    .map(|(p, v)| format!("{p}={v}"))
                    .collect();
                out.push_str(&format!(
                    "  [{}] rel. stddev {:.1}% over {} samples (mean {:.4})\n",
                    combo.join(", "),
                    u.rel_stddev * 100.0,
                    u.samples,
                    u.mean
                ));
            }
        }
        out
    }
}

/// Screen one result value of an experiment, grouped by `group_by`
/// parameters. Runs a source element internally, so all the §3.3.1 filters
/// apply.
pub fn screen_experiment(
    db: &ExperimentDb,
    source: &SourceSpec,
    config: &AnomalyConfig,
) -> Result<AnomalyReport> {
    if source.values.len() != 1 {
        return Err(Error::Query(
            "anomaly screening expects exactly one result value".into(),
        ));
    }
    let (vector, _) = exec::run_source(db, source)?;
    screen_vector(&vector, config)
}

/// Screen a vector.
pub fn screen_vector(vector: &DataVector, config: &AnomalyConfig) -> Result<AnomalyReport> {
    let (cols, rows) = (vector.table.schema.names(), vector.table.to_rows());
    let pidx: Vec<usize> = vector
        .params
        .iter()
        .map(|p| {
            cols.iter()
                .position(|c| c == p)
                .ok_or_else(|| Error::Query(format!("vector lost parameter column '{p}'")))
        })
        .collect::<Result<_>>()?;
    let vcol = vector
        .values
        .first()
        .and_then(|v| cols.iter().position(|c| c == v))
        .ok_or_else(|| Error::Query("vector has no value column".into()))?;

    // Bucket samples per combination.
    let mut buckets: HashMap<String, Bucket> = HashMap::new();
    for row in &rows {
        let Some(x) = row[vcol].as_f64() else {
            continue;
        };
        let key: String = pidx
            .iter()
            .map(|&i| format!("{}", row[i]))
            .collect::<Vec<_>>()
            .join("\u{1}");
        let entry = buckets.entry(key).or_insert_with(|| {
            (
                vector
                    .params
                    .iter()
                    .zip(&pidx)
                    .map(|(p, &i)| (p.clone(), row[i].clone()))
                    .collect(),
                Vec::new(),
            )
        });
        entry.1.push(x);
    }

    let mut report = AnomalyReport::default();
    let mut ordered: Vec<&Bucket> = buckets.values().collect();
    ordered.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));

    for (combination, samples) in ordered {
        if samples.len() < config.min_samples {
            report.undersampled += 1;
            continue;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        let stddev = var.sqrt();

        if mean.abs() > f64::EPSILON && stddev / mean.abs() > config.max_rel_stddev {
            report.unstable.push(UnstableCombination {
                combination: combination.clone(),
                samples: samples.len(),
                mean,
                rel_stddev: stddev / mean.abs(),
            });
        }

        // Robust per-value screening: median / MAD resist the masking
        // effect a strong outlier has on mean/stddev in small samples.
        let med = median(samples);
        let deviations_abs: Vec<f64> = samples.iter().map(|x| (x - med).abs()).collect();
        let spread = 1.4826 * median(&deviations_abs);
        for &x in samples {
            let dist = x - med;
            let sigma = if spread > 0.0 {
                dist / spread
            } else if dist == 0.0 {
                0.0
            } else {
                // All other samples identical: any difference is infinitely
                // suspicious; report a large finite score.
                dist.signum() * f64::MAX.sqrt()
            };
            if sigma.abs() > config.threshold {
                report.deviations.push(Deviation {
                    combination: combination.clone(),
                    value: x,
                    median: med,
                    spread,
                    sigma,
                });
            }
        }
    }
    Ok(report)
}

/// Median of a non-empty slice (copies; inputs are small).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentDef, Meta, VarKind, Variable};
    use crate::query::spec::{Filter, FilterOp, RunFilter};
    use sqldb::{DataType, Engine};
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn db_with(values: &[(&str, i64, f64)]) -> ExperimentDb {
        let mut def = ExperimentDef::new(
            Meta {
                name: "a".into(),
                ..Meta::default()
            },
            "u",
        );
        def.add_variable(Variable::new("fs", VarKind::Parameter, DataType::Text).once())
            .unwrap();
        def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
        for (fs, chunk, bw) in values {
            let once: Map<String, Value> = [("fs".to_string(), Value::Text(fs.to_string()))].into();
            let ds: Map<String, Value> = [
                ("chunk".to_string(), Value::Int(*chunk)),
                ("bw".to_string(), Value::Float(*bw)),
            ]
            .into();
            db.add_run(&once, &[ds], 0).unwrap();
        }
        db
    }

    fn source() -> SourceSpec {
        SourceSpec {
            filters: Vec::new(),
            run_filter: RunFilter::default(),
            carry: vec!["fs".into(), "chunk".into()],
            values: vec!["bw".into()],
        }
    }

    #[test]
    fn clean_data_reports_clean() {
        let db = db_with(&[
            ("ufs", 1024, 100.0),
            ("ufs", 1024, 101.0),
            ("ufs", 1024, 99.5),
            ("ufs", 1024, 100.5),
        ]);
        let written = || crate::query::exec::tests::written(db.engine());
        let before = written();
        let report = screen_experiment(&db, &source(), &AnomalyConfig::default()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.render().contains("no anomalies"));
        // Screening writes nothing.
        assert_eq!(written(), before);
    }

    #[test]
    fn outlier_flagged_with_sigma() {
        // Eleven tight samples, one wild one.
        let mut vals: Vec<(&str, i64, f64)> = (0..11)
            .map(|i| ("ufs", 1024i64, 100.0 + (i % 3) as f64 * 0.5))
            .collect();
        vals.push(("ufs", 1024, 250.0));
        let db = db_with(&vals);
        let report = screen_experiment(&db, &source(), &AnomalyConfig::default()).unwrap();
        assert_eq!(report.deviations.len(), 1);
        let d = &report.deviations[0];
        assert_eq!(d.value, 250.0);
        assert!(d.sigma > 3.0);
        assert!(report.render().contains("deviating value"));
    }

    #[test]
    fn unstable_combination_flagged() {
        let db = db_with(&[
            ("nfs", 1024, 10.0),
            ("nfs", 1024, 30.0),
            ("nfs", 1024, 5.0),
            ("nfs", 1024, 42.0),
        ]);
        let report = screen_experiment(&db, &source(), &AnomalyConfig::default()).unwrap();
        assert_eq!(report.unstable.len(), 1);
        assert!(report.unstable[0].rel_stddev > 0.25);
        assert!(report.render().contains("additional runs"));
    }

    #[test]
    fn undersampled_combinations_counted_not_judged() {
        let db = db_with(&[("ufs", 1024, 100.0), ("ufs", 2048, 900.0)]);
        let report = screen_experiment(&db, &source(), &AnomalyConfig::default()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.undersampled, 2);
    }

    #[test]
    fn combinations_screened_independently() {
        // A value normal for nfs would be an outlier for ufs; per-combination
        // statistics must keep them apart.
        let mut vals = Vec::new();
        for i in 0..5 {
            vals.push(("ufs", 1024i64, 100.0 + i as f64 * 0.4));
            vals.push(("nfs", 1024, 10.0 + i as f64 * 0.4));
        }
        let db = db_with(&vals);
        let report = screen_experiment(&db, &source(), &AnomalyConfig::default()).unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn filters_apply_before_screening() {
        let mut vals: Vec<(&str, i64, f64)> = (0..4)
            .map(|i| ("ufs", 1024i64, 100.0 + i as f64 * 0.2))
            .collect();
        vals.extend((0..4).map(|i| ("nfs", 1024i64, if i == 3 { 400.0 } else { 10.0 })));
        let db = db_with(&vals);
        let mut src = source();
        src.filters.push(Filter {
            parameter: "fs".into(),
            op: FilterOp::Eq,
            value: "ufs".into(),
        });
        src.carry = vec!["chunk".into()];
        let report = screen_experiment(&db, &src, &AnomalyConfig::default()).unwrap();
        assert!(
            report.is_clean(),
            "nfs outlier must be filtered out: {report:?}"
        );
    }

    #[test]
    fn config_thresholds_respected() {
        let db = db_with(&[
            ("ufs", 1024, 100.0),
            ("ufs", 1024, 110.0),
            ("ufs", 1024, 90.0),
            ("ufs", 1024, 105.0),
        ]);
        let strict = AnomalyConfig {
            threshold: 1.0,
            max_rel_stddev: 0.01,
            min_samples: 2,
        };
        let report = screen_experiment(&db, &source(), &strict).unwrap();
        assert!(!report.deviations.is_empty());
        assert!(!report.unstable.is_empty());
    }

    #[test]
    fn multi_value_source_rejected() {
        let db = db_with(&[("ufs", 1024, 1.0)]);
        let mut src = source();
        src.values.push("bw".into());
        assert!(screen_experiment(&db, &src, &AnomalyConfig::default()).is_err());
    }
}
