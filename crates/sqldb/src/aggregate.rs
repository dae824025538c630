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
//! one value, `median` every input. It is fed one [`Value`] at a time by
//! [`Accumulator::update`]: an aggregate over an expression, `core`'s merge
//! of the per-node partials of a pushed-down `sum`, `min` or `max`, the test
//! oracle.
//!
//! An aggregate over a column is folded by `Grouped::fold_column` instead:
//! one loop per kind and column type, chosen once, walks the selected cells
//! a run of one chunk at a time (`Chunked::runs_at`) into flat per-group
//! state arrays — the count and an `f64` (sum, product, mean) or two
//! (Welford's mean and `m2`), the kept cell in the column's own type (a TEXT
//! cell as its dictionary code), or a `Vec<f64>` for `median` — and each
//! group's state becomes an [`Accumulator`] only to finish. Both folds run
//! every recurrence in row order with the same arithmetic, so a group gets
//! the bits a naive row-at-a-time evaluation gets.

use crate::column::{Chunked, ColumnVec, NullBitmap};
use crate::value::{Num, Value, ValueRef};
use std::cmp::Ordering;

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

    /// Feed one value (NULLs are skipped). A number is read as an `f64` by
    /// the arithmetic kinds and compared exactly (`ValueRef::total_cmp`)
    /// by `min`/`max`; a kept input is copied only when it becomes the one
    /// kept.
    pub fn update(&mut self, v: &Value) {
        let Some(x) = ValueRef::of(v) else {
            return;
        };
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
                    *kept = Some(v.clone());
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

/// The selected rows an aggregation folds: their positions, in row order,
/// the number of groups, and each row's group (`None`: one group, every row
/// in it).
#[derive(Clone, Copy)]
pub(crate) struct Grouped<'a> {
    pub(crate) positions: &'a [usize],
    pub(crate) groups: usize,
    pub(crate) gidx: Option<&'a [u32]>,
}

impl Grouped<'_> {
    /// `count(*)`: each group's rows, counted off the group index.
    pub(crate) fn count_rows(self) -> Vec<Accumulator> {
        let mut counts = vec![(0, ()); self.groups];
        match self.gidx {
            Some(gidx) => gidx.iter().for_each(|&g| counts[g as usize].0 += 1),
            None => counts[0].0 = self.positions.len() as u64,
        }
        finished(AggKind::Count, counts, |()| State::Count)
    }

    /// One `kind` per group over the non-NULL cells of `col` at the selected
    /// positions: one loop for the kind and the column's type. A number is
    /// read as an `f64` by the arithmetic kinds and compared exactly within
    /// its type by `min`/`max` (a FLOAT by [`Num::total_cmp`], a TEXT code by
    /// its string); TEXT into an arithmetic kind is counted, and fails at
    /// [`Accumulator::finish`].
    pub(crate) fn fold_column(self, kind: AggKind, col: &ColumnVec) -> Vec<Accumulator> {
        match col {
            ColumnVec::Int { data, nulls } => {
                self.fold_typed(kind, (data, nulls), |x| x as f64, i64::cmp, Value::Int)
            }
            ColumnVec::Timestamp { data, nulls } => self.fold_typed(
                kind,
                (data, nulls),
                |x| x as f64,
                i64::cmp,
                Value::Timestamp,
            ),
            ColumnVec::Float { data, nulls } => {
                let cmp = |a: &f64, b: &f64| Num::Float(*a).total_cmp(Num::Float(*b));
                self.fold_typed(kind, (data, nulls), |x| x, cmp, Value::Float)
            }
            ColumnVec::Bool { data, nulls } => {
                self.fold_typed(kind, (data, nulls), f64::from, bool::cmp, Value::Bool)
            }
            ColumnVec::Text(d) => {
                let cells = (&d.codes, &d.nulls);
                if let AggKind::Count | AggKind::Min | AggKind::Max | AggKind::First = kind {
                    let dict = d.dict();
                    let cmp = |&a: &u32, &b: &u32| match a == b {
                        true => Ordering::Equal,
                        false => dict[a as usize].cmp(&dict[b as usize]),
                    };
                    return self.kept(kind, cells, cmp, |c| Value::Text(dict[c as usize].clone()));
                }
                let counts = self.fold(cells, (), |(), _, _| {});
                let accs = finished(kind, counts, |()| Accumulator::new(kind).state);
                let text = |acc: Accumulator| Accumulator {
                    non_numeric: acc.count > 0,
                    ..acc
                };
                accs.into_iter().map(text).collect()
            }
        }
    }

    /// [`Grouped::fold_column`] over a column of numbers `T`: `num` is what
    /// the arithmetic kinds fold, `cmp` and `value` what `min`, `max` and
    /// `first` keep.
    fn fold_typed<T: Copy + Default>(
        self,
        kind: AggKind,
        cells: (&Chunked<T>, &NullBitmap),
        num: impl Fn(T) -> f64,
        cmp: impl Fn(&T, &T) -> Ordering,
        value: impl Fn(T) -> Value,
    ) -> Vec<Accumulator> {
        match kind {
            AggKind::Count | AggKind::Min | AggKind::Max | AggKind::First => {
                self.kept(kind, cells, cmp, value)
            }
            AggKind::Sum => {
                let sums = self.fold(cells, 0.0, |sum, _, x| *sum += num(x));
                finished(kind, sums, State::Sum)
            }
            AggKind::Prod => {
                let prods = self.fold(cells, 1.0, |prod, _, x| *prod *= num(x));
                finished(kind, prods, State::Prod)
            }
            AggKind::Avg => {
                let means = self.fold(cells, 0.0, |mean, n, x| {
                    *mean += (num(x) - *mean) / n as f64;
                });
                finished(kind, means, State::Mean)
            }
            AggKind::StdDev | AggKind::Variance => {
                let moments = self.fold(cells, (0.0, 0.0), |(mean, m2), n, x| {
                    let x = num(x);
                    let delta = x - *mean;
                    *mean += delta / n as f64;
                    *m2 += delta * (x - *mean);
                });
                finished(kind, moments, |(mean, m2)| State::Moments { mean, m2 })
            }
            AggKind::Median => {
                let inputs = self.fold(cells, Vec::new(), |xs, _, x| xs.push(num(x)));
                finished(kind, inputs, State::Inputs)
            }
        }
    }

    /// `count`, `min`, `max` or `first` over a column of `T`: each group's
    /// count and the cell it keeps, in the column's own type — the first,
    /// or the first of the least (`min`) or greatest (`max`) by `cmp`.
    fn kept<T: Copy + Default>(
        self,
        kind: AggKind,
        cells: (&Chunked<T>, &NullBitmap),
        cmp: impl Fn(&T, &T) -> Ordering,
        value: impl Fn(T) -> Value,
    ) -> Vec<Accumulator> {
        let states = match kind {
            AggKind::Min => self.fold(cells, T::default(), |kept, n, x| {
                if n == 1 || cmp(&x, kept).is_lt() {
                    *kept = x;
                }
            }),
            AggKind::Max => self.fold(cells, T::default(), |kept, n, x| {
                if n == 1 || cmp(&x, kept).is_gt() {
                    *kept = x;
                }
            }),
            _ => self.fold(cells, T::default(), |kept, n, x| {
                if n == 1 {
                    *kept = x;
                }
            }),
        };
        finished(kind, states, |x| match kind {
            AggKind::Count => State::Count,
            _ => State::Kept(Some(value(x))),
        })
    }

    /// Each group's count and state, from `init`, after `step(state, n, x)`
    /// took each non-NULL selected cell `x` of the group in row order, `n`
    /// the group's count with it. The cells come a run at a time
    /// ([`Chunked::runs_at`]); with one group, its state is held in a local
    /// across each run.
    #[inline]
    fn fold<T: Copy, S: Clone + Default>(
        self,
        (data, nulls): (&Chunked<T>, &NullBitmap),
        init: S,
        step: impl Fn(&mut S, u64, T),
    ) -> Vec<(u64, S)> {
        let mut states = vec![(0, init); self.groups];
        let step = |(n, state): &mut (u64, S), x: T| {
            *n += 1;
            step(state, *n, x);
        };
        match self.gidx {
            None => {
                let state = &mut states[0];
                data.runs_at(nulls, self.positions, |_, run| {
                    let mut local = std::mem::take(state);
                    run.iter().for_each(|&x| step(&mut local, x));
                    *state = local;
                });
            }
            Some(gidx) => data.runs_at(nulls, self.positions, |k, run| {
                for (&x, &g) in run.iter().zip(&gidx[k..k + run.len()]) {
                    step(&mut states[g as usize], x);
                }
            }),
        }
        states
    }
}

/// Each group's accumulator: a fresh one for a group that took no input;
/// otherwise its count, and the [`State`] `state` makes of its fold state.
fn finished<S>(
    kind: AggKind,
    states: Vec<(u64, S)>,
    state: impl Fn(S) -> State,
) -> Vec<Accumulator> {
    let acc = |(count, s)| match count {
        0 => Accumulator::new(kind),
        _ => Accumulator {
            count,
            state: state(s),
            ..Accumulator::new(kind)
        },
    };
    states.into_iter().map(acc).collect()
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

    /// The column kernels fold what `update` folds: every kind over every
    /// column type, over every row, two selections with gaps, one that
    /// descends across a chunk edge and none, in one group and in three.
    /// Exact comparison keeps integers beyond 2^53 apart that an `f64`
    /// would merge, and a tie keeps the first of `0.0` and `-0.0`.
    #[test]
    fn the_column_kernels_fold_what_update_folds() {
        use crate::column::ColumnStore;
        use crate::schema::{Column, Schema};
        use crate::value::DataType;
        let big = 1i64 << 53;
        let pick = |r: usize, xs: &[Value]| xs[r % xs.len()].clone();
        let numbers = [big + 1, big, -big - 1, 0, i64::MAX, 7];
        let (ints, stamps) = (numbers.map(Value::Int), numbers.map(Value::Timestamp));
        let floats = [
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            0.1,
            -2.25,
            1e300,
            f64::NEG_INFINITY,
        ];
        let floats = floats.map(Value::Float);
        let texts = ["b", "", "a", "zz", "B"].map(|s| Value::Text(s.into()));
        let null_or = |r: usize, every: usize, v: Value| match r.is_multiple_of(every) {
            true => Value::Null,
            false => v,
        };
        let rows: Vec<Vec<Value>> = (0..4096 + 40)
            .map(|r| {
                vec![
                    null_or(r, 5, pick(r, &ints)),
                    null_or(r, 7, pick(r, &floats)),
                    null_or(r, 3, Value::Bool(r % 4 < 2)),
                    null_or(r, 11, pick(r, &stamps)),
                    null_or(r, 6, pick(r, &texts)),
                ]
            })
            .collect();
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Timestamp,
        ];
        let columns = types.into_iter().chain([DataType::Text]).enumerate();
        let schema = columns
            .map(|(c, t)| Column::new(&format!("c{c}"), t))
            .collect();
        let mut store = ColumnStore::with_capacity(&Schema::new(schema).unwrap(), rows.len());
        for row in &rows {
            for (c, v) in row.iter().enumerate() {
                assert!(store.push(c, ValueRef::of(v)), "{v:?}");
            }
            store.end_row();
        }
        let selections: [Vec<usize>; 5] = [
            (0..rows.len()).collect(),
            // FLOAT cells 0.0, -0.0 and 1.5 only: `min` ties at zero.
            (0..rows.len()).filter(|p| p % 8 < 3).collect(),
            (0..rows.len()).filter(|p| p % 3 != 1).collect(),
            (4000..4120).rev().collect(),
            Vec::new(),
        ];
        for positions in &selections {
            let groups: Vec<u32> = positions.iter().map(|p| (p % 7 % 3) as u32).collect();
            for gidx in [None, Some(groups.as_slice())] {
                let grouped = Grouped {
                    positions,
                    groups: if gidx.is_some() { 3 } else { 1 },
                    gidx,
                };
                for (c, kind) in (0..5).flat_map(|c| KINDS.map(|kind| (c, kind))) {
                    let folded = grouped.fold_column(kind, store.col(c));
                    let mut updated = vec![Accumulator::new(kind); grouped.groups];
                    for (k, &p) in positions.iter().enumerate() {
                        updated[gidx.map_or(0, |g| g[k] as usize)].update(&rows[p][c]);
                    }
                    let finished = |accs: &[Accumulator]| {
                        let all: Vec<_> = accs.iter().map(Accumulator::finish).collect();
                        format!("{all:?}")
                    };
                    assert_eq!(finished(&folded), finished(&updated), "{kind:?} over c{c}");
                }
            }
        }
        let ints = [Value::Int(big + 1), Value::Int(big), Value::Int(big + 1)];
        assert_eq!(agg(AggKind::Min, &ints), Value::Int(big));
        assert_eq!(agg(AggKind::Max, &ints[1..]), Value::Int(big + 1));
    }
}
