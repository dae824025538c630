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
//!
//! An [`Accumulator`] keeps only the state its kind finishes from: `count`
//! its count, `sum` a sum, `prod` a product, `avg` Welford's running mean,
//! `stddev`/`variance` that mean and Welford's sum of squared deviations
//! (stable on long runs of near-equal bandwidth samples), `min`/`max`/`first`
//! one value, `median` every input. An input is folded by one function,
//! `Accumulator::fold`, which takes a borrowed cell (`value::ValueRef`): the
//! executor feeds it straight off a column's chunks — a number as a number,
//! TEXT as its dictionary string — and [`Accumulator::update`] is the door
//! for a [`Value`] somebody already holds (an aggregate over an expression,
//! `core`'s merge of the per-node partials of a pushed-down `sum`, `min` or
//! `max`, the test oracle). Every recurrence runs in
//! input order, so a group fed its rows in row order gets the bits a naive
//! row-at-a-time evaluation gets.

use crate::value::{Value, ValueRef};

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
#[derive(Debug, Clone)]
pub struct Accumulator {
    kind: AggKind,
    /// Non-NULL inputs folded.
    count: u64,
    state: State,
    /// A TEXT input reached a numeric kind: [`Accumulator::finish`] fails.
    non_numeric: bool,
}

/// What an [`Accumulator`] keeps beside its count: what its kind finishes
/// from, and nothing else.
#[derive(Debug, Clone)]
enum State {
    /// `count`: the count is all.
    Count,
    /// `sum`: the running sum.
    Sum(f64),
    /// `prod`: the running product.
    Prod(f64),
    /// `avg`: Welford's running mean.
    Mean(f64),
    /// `stddev`, `variance`: Welford's running mean and sum of squared
    /// deviations from it.
    Moments { mean: f64, m2: f64 },
    /// `min`, `max`, `first`: the input kept so far.
    Kept(Option<Value>),
    /// `median`: every input.
    Inputs(Vec<f64>),
}

impl Accumulator {
    /// Fresh accumulator for `kind`.
    pub fn new(kind: AggKind) -> Self {
        let state = match kind {
            AggKind::Count => State::Count,
            AggKind::Sum => State::Sum(0.0),
            AggKind::Prod => State::Prod(1.0),
            AggKind::Avg => State::Mean(0.0),
            AggKind::StdDev | AggKind::Variance => State::Moments { mean: 0.0, m2: 0.0 },
            AggKind::Min | AggKind::Max | AggKind::First => State::Kept(None),
            AggKind::Median => State::Inputs(Vec::new()),
        };
        Accumulator {
            kind,
            count: 0,
            state,
            non_numeric: false,
        }
    }

    /// Feed one value (NULLs are skipped) through the one fold every input
    /// takes, the executor's typed feed included.
    pub fn update(&mut self, v: &Value) {
        if let Some(x) = ValueRef::of(v) {
            self.fold(x);
        }
    }

    /// Fold one non-NULL input into the state of this kind. A number is
    /// read as an `f64` by the arithmetic kinds and compared exactly
    /// ([`ValueRef::total_cmp`]) by `min`/`max`; a kept input is copied
    /// only when it becomes the one kept.
    #[inline]
    pub(crate) fn fold(&mut self, x: ValueRef<'_>) {
        self.count += 1;
        let n = self.count as f64;
        match (&mut self.state, x.num()) {
            (State::Count, _) => {}
            (State::Kept(kept), _) => {
                let keep = match (self.kind, kept.as_ref().and_then(ValueRef::of)) {
                    (_, None) => true,
                    (AggKind::Min, Some(k)) => x.total_cmp(k).is_lt(),
                    (AggKind::Max, Some(k)) => x.total_cmp(k).is_gt(),
                    _ => false,
                };
                if keep {
                    *kept = Some(x.to_value());
                }
            }
            (_, None) => self.non_numeric = true,
            (State::Sum(sum), Some(x)) => *sum += x.as_f64(),
            (State::Prod(prod), Some(x)) => *prod *= x.as_f64(),
            (State::Mean(mean), Some(x)) => *mean += (x.as_f64() - *mean) / n,
            (State::Moments { mean, m2 }, Some(x)) => {
                let x = x.as_f64();
                let delta = x - *mean;
                *mean += delta / n;
                *m2 += delta * (x - *mean);
            }
            (State::Inputs(xs), Some(x)) => xs.push(x.as_f64()),
        }
    }

    /// Fold `n` non-NULL inputs into a `count`, which keeps nothing of them:
    /// `count(*)` counted per group off the group index.
    pub(crate) fn add_count(&mut self, n: u64) {
        debug_assert!(matches!(self.state, State::Count), "{:?}", self.kind);
        self.count += n;
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
        Ok(match &self.state {
            State::Count => Value::Int(self.count as i64),
            State::Sum(x) | State::Prod(x) | State::Mean(x) => Value::Float(*x),
            State::Moments { .. } if self.count < 2 => Value::Null,
            State::Moments { m2, .. } => {
                let variance = m2 / (self.count as f64 - 1.0);
                Value::Float(match self.kind {
                    AggKind::StdDev => variance.sqrt(),
                    _ => variance,
                })
            }
            State::Kept(kept) => kept.clone().unwrap_or(Value::Null),
            State::Inputs(xs) => {
                let mut xs = xs.clone();
                xs.sort_by(f64::total_cmp);
                let n = xs.len();
                if n % 2 == 1 {
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

    const KINDS: [AggKind; 10] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
        AggKind::StdDev,
        AggKind::Variance,
        AggKind::Prod,
        AggKind::First,
        AggKind::Median,
    ];

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

    /// Each kind updates only the state it finishes from: after three
    /// inputs, its state is its kind's variant, holding what it folded.
    #[test]
    fn each_kind_keeps_only_what_it_finishes_from() {
        for kind in KINDS {
            let mut a = Accumulator::new(kind);
            for v in floats(&[2.0, -1.5, 7.0]) {
                a.update(&v);
            }
            let keeps = match (kind, &a.state) {
                (AggKind::Count, State::Count) => true,
                (AggKind::Sum, State::Sum(sum)) => *sum == 7.5,
                (AggKind::Prod, State::Prod(prod)) => *prod == -21.0,
                (AggKind::Avg, State::Mean(mean)) => *mean == 2.5,
                (AggKind::StdDev | AggKind::Variance, State::Moments { mean, .. }) => *mean == 2.5,
                (AggKind::Min, State::Kept(Some(Value::Float(x)))) => *x == -1.5,
                (AggKind::Max, State::Kept(Some(Value::Float(x)))) => *x == 7.0,
                (AggKind::First, State::Kept(Some(Value::Float(x)))) => *x == 2.0,
                (AggKind::Median, State::Inputs(xs)) => xs == &[2.0, -1.5, 7.0],
                _ => false,
            };
            assert!(keeps, "{kind:?}: {:?}", a.state);
        }
    }

    /// `update(&Value)` and the typed feed are one fold: a `count` fed
    /// `add_count` finishes like one fed each row, and exact comparison
    /// keeps integers beyond 2^53 apart that an `f64` would merge.
    #[test]
    fn the_value_door_and_the_typed_feed_are_one_fold() {
        let big = 1i64 << 53;
        let cells = [
            ValueRef::Int(big + 1),
            ValueRef::Int(big),
            ValueRef::Timestamp(3),
            ValueRef::Bool(true),
            ValueRef::Float(-0.0),
            ValueRef::Float(f64::NAN),
            ValueRef::Text("x"),
        ];
        for kind in KINDS {
            for len in 0..=cells.len() {
                let (mut typed, mut valued) = (Accumulator::new(kind), Accumulator::new(kind));
                for x in &cells[..len] {
                    typed.fold(*x);
                    valued.update(&x.to_value());
                }
                let (a, b) = (typed.finish(), valued.finish());
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind:?} over {len}");
            }
        }
        let mut counted = Accumulator::new(AggKind::Count);
        counted.add_count(3);
        assert_eq!(
            counted.finish(),
            Ok(agg(AggKind::Count, &floats(&[1.0; 3])))
        );
        let ints = [Value::Int(big + 1), Value::Int(big), Value::Int(big + 1)];
        assert_eq!(agg(AggKind::Min, &ints), Value::Int(big));
        assert_eq!(agg(AggKind::Max, &ints[1..]), Value::Int(big + 1));
    }
}
