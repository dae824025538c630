//! Aggregate functions.
//!
//! These are the data-set aggregation operators of paper §3.3.2: statistical
//! functions (`avg`, `stddev`, `variance`, `count`) and general reductions
//! (`min`, `max`, `prod`, `sum`). Keeping them inside the database engine —
//! instead of the frontend — is a deliberate perfbase design point (§4.2):
//! "this allows to use SQL database functionality for many of the operators,
//! which results in better performance than to process the data within a
//! Python script".
//!
//! NULL values are skipped, matching SQL semantics. `stddev`/`variance` use
//! the sample (n−1) definition, matching PostgreSQL's `stddev`.

use crate::value::Value;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Number of non-NULL inputs.
    Count,
    /// Numeric sum.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum (any orderable type).
    Min,
    /// Maximum (any orderable type).
    Max,
    /// Sample standard deviation.
    StdDev,
    /// Sample variance.
    Variance,
    /// Product of inputs.
    Prod,
    /// First non-NULL input (used for grouped pass-through columns).
    First,
    /// Median (buffers its inputs; an "outlook" operator beyond the
    /// paper's list).
    Median,
}

impl AggKind {
    /// Resolve an SQL function name.
    pub fn from_name(name: &str) -> Option<AggKind> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggKind::Count),
            "sum" => Some(AggKind::Sum),
            "avg" | "mean" => Some(AggKind::Avg),
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            "stddev" | "stdev" | "stddev_samp" => Some(AggKind::StdDev),
            "variance" | "var_samp" => Some(AggKind::Variance),
            "prod" | "product" => Some(AggKind::Prod),
            "first" => Some(AggKind::First),
            "median" => Some(AggKind::Median),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::StdDev => "stddev",
            AggKind::Variance => "variance",
            AggKind::Prod => "prod",
            AggKind::First => "first",
            AggKind::Median => "median",
        }
    }
}

/// Streaming accumulator for one aggregate over one group.
///
/// Mean/variance use Welford's online algorithm for numerical stability on
/// long runs of near-equal bandwidth samples.
#[derive(Debug, Clone)]
pub struct Accumulator {
    kind: AggKind,
    count: u64,
    mean: f64,
    m2: f64,
    sum: f64,
    prod: f64,
    best: Option<Value>,
    first: Option<Value>,
    buffered: Vec<f64>,
    non_numeric: bool,
}

impl Accumulator {
    /// Fresh accumulator for `kind`.
    pub fn new(kind: AggKind) -> Self {
        Accumulator {
            kind,
            count: 0,
            mean: 0.0,
            m2: 0.0,
            sum: 0.0,
            prod: 1.0,
            best: None,
            first: None,
            buffered: Vec::new(),
            non_numeric: false,
        }
    }

    /// Feed one value (NULLs are skipped).
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        // Only `first()` ever reads this; skipping the check for the other
        // kinds keeps a branch and a potential clone off the hot loop.
        if self.kind == AggKind::First && self.first.is_none() {
            self.first = Some(v.clone());
        }
        match self.kind {
            AggKind::Min => {
                if self.best.as_ref().is_none_or(|b| v.total_cmp(b).is_lt()) {
                    self.best = Some(v.clone());
                }
            }
            AggKind::Max => {
                if self.best.as_ref().is_none_or(|b| v.total_cmp(b).is_gt()) {
                    self.best = Some(v.clone());
                }
            }
            AggKind::Count | AggKind::First => {}
            AggKind::Median => match v.as_f64() {
                Some(x) => self.buffered.push(x),
                None => self.non_numeric = true,
            },
            _ => match v.as_f64() {
                Some(x) => {
                    self.sum += x;
                    self.prod *= x;
                    let delta = x - self.mean;
                    self.mean += delta / self.count as f64;
                    self.m2 += delta * (x - self.mean);
                }
                None => self.non_numeric = true,
            },
        }
    }

    /// Produce the aggregate result. Empty input yields NULL (except `count`,
    /// which yields 0); non-numeric input to a numeric aggregate yields an
    /// error message.
    pub fn finish(&self) -> Result<Value, String> {
        if self.non_numeric {
            return Err(format!(
                "aggregate {}() applied to non-numeric value",
                self.kind.name()
            ));
        }
        if self.count == 0 {
            return Ok(match self.kind {
                AggKind::Count => Value::Int(0),
                _ => Value::Null,
            });
        }
        Ok(match self.kind {
            AggKind::Count => Value::Int(self.count as i64),
            AggKind::Sum => Value::Float(self.sum),
            AggKind::Avg => Value::Float(self.mean),
            AggKind::Min | AggKind::Max => self.best.clone().unwrap_or(Value::Null),
            AggKind::StdDev => {
                if self.count < 2 {
                    Value::Null
                } else {
                    Value::Float((self.m2 / (self.count as f64 - 1.0)).sqrt())
                }
            }
            AggKind::Variance => {
                if self.count < 2 {
                    Value::Null
                } else {
                    Value::Float(self.m2 / (self.count as f64 - 1.0))
                }
            }
            AggKind::Prod => Value::Float(self.prod),
            AggKind::First => self.first.clone().unwrap_or(Value::Null),
            AggKind::Median => {
                let mut xs = self.buffered.clone();
                xs.sort_by(f64::total_cmp);
                let n = xs.len();
                if n == 0 {
                    Value::Null
                } else if n % 2 == 1 {
                    Value::Float(xs[n / 2])
                } else {
                    Value::Float((xs[n / 2 - 1] + xs[n / 2]) / 2.0)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(kind: AggKind, vals: &[Value]) -> Value {
        let mut a = Accumulator::new(kind);
        for v in vals {
            a.update(v);
        }
        a.finish().unwrap()
    }

    fn floats(xs: &[f64]) -> Vec<Value> {
        xs.iter().map(|x| Value::Float(*x)).collect()
    }

    #[test]
    fn basic_stats() {
        let vals = floats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(agg(AggKind::Count, &vals), Value::Int(8));
        assert_eq!(agg(AggKind::Sum, &vals), Value::Float(40.0));
        assert_eq!(agg(AggKind::Avg, &vals), Value::Float(5.0));
        assert_eq!(agg(AggKind::Min, &vals), Value::Float(2.0));
        assert_eq!(agg(AggKind::Max, &vals), Value::Float(9.0));
        // Sample variance of this classic data set is 32/7.
        match agg(AggKind::Variance, &vals) {
            Value::Float(v) => assert!((v - 32.0 / 7.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        match agg(AggKind::StdDev, &vals) {
            Value::Float(v) => assert!((v - (32.0f64 / 7.0).sqrt()).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prod_and_first() {
        let vals = floats(&[2.0, 3.0, 4.0]);
        assert_eq!(agg(AggKind::Prod, &vals), Value::Float(24.0));
        assert_eq!(agg(AggKind::First, &vals), Value::Float(2.0));
    }

    #[test]
    fn nulls_skipped() {
        let vals = vec![Value::Null, Value::Int(3), Value::Null, Value::Int(5)];
        assert_eq!(agg(AggKind::Count, &vals), Value::Int(2));
        assert_eq!(agg(AggKind::Avg, &vals), Value::Float(4.0));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(agg(AggKind::Count, &[]), Value::Int(0));
        assert_eq!(agg(AggKind::Sum, &[]), Value::Null);
        assert_eq!(agg(AggKind::Max, &[]), Value::Null);
    }

    #[test]
    fn stddev_needs_two_samples() {
        assert_eq!(agg(AggKind::StdDev, &floats(&[5.0])), Value::Null);
        assert_eq!(agg(AggKind::Variance, &floats(&[5.0])), Value::Null);
    }

    #[test]
    fn min_max_work_on_text() {
        let vals = vec![Value::Text("nfs".into()), Value::Text("ufs".into())];
        assert_eq!(agg(AggKind::Min, &vals), Value::Text("nfs".into()));
        assert_eq!(agg(AggKind::Max, &vals), Value::Text("ufs".into()));
    }

    #[test]
    fn numeric_agg_on_text_errors() {
        let mut a = Accumulator::new(AggKind::Sum);
        a.update(&Value::Text("x".into()));
        assert!(a.finish().is_err());
    }

    #[test]
    fn welford_stability() {
        // Large offset + tiny variance: naive sum-of-squares would lose it.
        let base = 1e9;
        let vals = floats(&[base + 1.0, base + 2.0, base + 3.0]);
        match agg(AggKind::Variance, &vals) {
            Value::Float(v) => assert!((v - 1.0).abs() < 1e-6, "{v}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn median_odd_even_and_nulls() {
        let odd = floats(&[5.0, 1.0, 3.0]);
        assert_eq!(agg(AggKind::Median, &odd), Value::Float(3.0));
        let even = floats(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(agg(AggKind::Median, &even), Value::Float(2.5));
        let with_null = vec![
            Value::Float(1.0),
            Value::Null,
            Value::Float(9.0),
            Value::Float(5.0),
        ];
        assert_eq!(agg(AggKind::Median, &with_null), Value::Float(5.0));
        assert_eq!(agg(AggKind::Median, &[]), Value::Null);
        // Robust against the outlier that would drag avg.
        let skew = floats(&[1.0, 1.0, 1.0, 1.0, 1000.0]);
        assert_eq!(agg(AggKind::Median, &skew), Value::Float(1.0));
    }

    #[test]
    fn name_resolution() {
        assert_eq!(AggKind::from_name("AVG"), Some(AggKind::Avg));
        assert_eq!(AggKind::from_name("stddev_samp"), Some(AggKind::StdDev));
        assert_eq!(AggKind::from_name("abs"), None);
    }
}
