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
//! Every aggregate is folded by one set of kernels, `Grouped`: one loop
//! per kind and cell type, chosen once, walks the selected cells into flat
//! per-group state arrays — the count and an `f64` (sum, product, mean) or
//! two (Welford's mean and `m2`, stable on long runs of near-equal bandwidth
//! samples), the kept cell in its own type (a column's TEXT cell as its
//! dictionary code), or a `Vec<f64>` for `median` — and finishes each
//! group's state into its answer. The cells come from one of two sources: a
//! typed column, a run of one chunk at a time (`Grouped::fold_column`), or
//! one value per selected row — an expression argument evaluated row by row,
//! or `Int(1)` per row for `agg(*)` (`Grouped::fold_values`). Every
//! recurrence runs in row order, so a group gets the bits a naive
//! row-at-a-time evaluation gets: the test oracle's own fold, which shares
//! no code with these kernels.

use crate::column::{Chunked, ColumnVec, NullBitmap};
use crate::error::DbError;
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

    /// Whether the kind computes with numbers: all but `count`, `min`, `max`
    /// and `first`, which count or keep inputs of any type.
    fn arithmetic(self) -> bool {
        !matches!(
            self,
            AggKind::Count | AggKind::Min | AggKind::Max | AggKind::First
        )
    }
}

/// Each group's answer to one aggregate, in group order: its value, or the
/// error the group raises.
pub(crate) type Answers = Vec<Result<Value, DbError>>;

/// The selected rows an aggregation folds: their positions, in row order,
/// the number of groups, and each row's group (`None`: one group, every row
/// in it).
#[derive(Clone, Copy)]
pub(crate) struct Grouped<'a> {
    pub(crate) positions: &'a [usize],
    pub(crate) groups: usize,
    pub(crate) gidx: Option<&'a [u32]>,
}

/// Where a fold's cells come from: the non-NULL cells at the selected
/// positions, a run at a time — `f(k, cells)` for cells at
/// `positions[k..k + cells.len()]`, in the order of the positions.
trait Cells<T>: Copy {
    fn runs(self, positions: &[usize], f: impl FnMut(usize, &[T]));
}

/// A typed column: its runs of one chunk ([`Chunked::runs_at`]).
impl<T: Copy> Cells<T> for (&Chunked<T>, &NullBitmap) {
    #[inline]
    fn runs(self, positions: &[usize], f: impl FnMut(usize, &[T])) {
        self.0.runs_at(self.1, positions, f);
    }
}

/// One value per selected row, in order: each non-NULL one a run of its own.
impl<'a> Cells<ValueRef<'a>> for &'a [Value] {
    fn runs(self, _: &[usize], mut f: impl FnMut(usize, &[ValueRef<'a>])) {
        for (k, v) in self.iter().enumerate() {
            if let Some(x) = ValueRef::of(v) {
                f(k, &[x]);
            }
        }
    }
}

impl Grouped<'_> {
    /// The group of the `k`-th selected row.
    fn group(self, k: usize) -> usize {
        self.gidx.map_or(0, |gidx| gidx[k] as usize)
    }

    /// `count(*)`: each group's rows, counted off the group index.
    pub(crate) fn count_rows(self) -> Answers {
        let mut counts = vec![0; self.groups];
        match self.gidx {
            Some(gidx) => gidx.iter().for_each(|&g| counts[g as usize] += 1),
            None => counts[0] = self.positions.len() as i64,
        }
        counts.into_iter().map(|n| Ok(Value::Int(n))).collect()
    }

    /// One `kind` per group over the non-NULL cells of `col` at the selected
    /// positions: one loop for the kind and the column's type. A number is
    /// read as an `f64` by the arithmetic kinds and compared exactly within
    /// its type by `min`/`max` (a FLOAT by [`Num::total_cmp`], a TEXT code by
    /// its string); TEXT into an arithmetic kind is counted, and fails.
    pub(crate) fn fold_column(self, kind: AggKind, col: &ColumnVec) -> Answers {
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
                if !kind.arithmetic() {
                    let dict = d.dict();
                    let cmp = |&a: &u32, &b: &u32| match a == b {
                        true => Ordering::Equal,
                        false => dict[a as usize].cmp(&dict[b as usize]),
                    };
                    return self.kept(kind, cells, cmp, |c| Value::Text(dict[c as usize].clone()));
                }
                let counts = self.fold(cells, (), |(), _, _| {});
                let text = |(n, ())| match n {
                    0 => Ok(Value::Null),
                    _ => Err(non_numeric(kind)),
                };
                counts.into_iter().map(text).collect()
            }
        }
    }

    /// One `kind` per group over `values`, one per selected row — an
    /// argument evaluated row by row — folded like a column's cells: NULLs
    /// skipped, a number read as an `f64` by the arithmetic kinds and
    /// ordered by `min`/`max` with every other value ([`ValueRef::total_cmp`]),
    /// a kept value as it came; a group that feeds TEXT to an arithmetic
    /// kind fails.
    pub(crate) fn fold_values(self, kind: AggKind, values: &[Value]) -> Answers {
        let num = |x: ValueRef| x.num().map_or(0.0, Num::as_f64);
        let cmp = |a: &ValueRef, b: &ValueRef| a.total_cmp(*b);
        let mut answers = self.fold_typed(kind, values, num, cmp, ValueRef::to_value);
        if kind.arithmetic() {
            for (k, v) in values.iter().enumerate() {
                if let Value::Text(_) = v {
                    answers[self.group(k)] = Err(non_numeric(kind));
                }
            }
        }
        answers
    }

    /// [`Grouped::fold_column`] over cells `T`: `num` is what the arithmetic
    /// kinds fold, `cmp` and `value` what `min`, `max` and `first` keep.
    /// `avg` keeps Welford's running mean, `stddev`/`variance` that mean and
    /// Welford's sum of squared deviations from it (stable on long runs of
    /// near-equal samples), `median` every input.
    fn fold_typed<T: Copy + Default>(
        self,
        kind: AggKind,
        cells: impl Cells<T>,
        num: impl Fn(T) -> f64,
        cmp: impl Fn(&T, &T) -> Ordering,
        value: impl Fn(T) -> Value,
    ) -> Answers {
        match kind {
            AggKind::Count | AggKind::Min | AggKind::Max | AggKind::First => {
                self.kept(kind, cells, cmp, value)
            }
            AggKind::Sum => {
                let sums = self.fold(cells, 0.0, |sum, _, x| *sum += num(x));
                finished(kind, sums, |_, sum| Value::Float(sum))
            }
            AggKind::Prod => {
                let prods = self.fold(cells, 1.0, |prod, _, x| *prod *= num(x));
                finished(kind, prods, |_, prod| Value::Float(prod))
            }
            AggKind::Avg => {
                let means = self.fold(cells, 0.0, |mean, n, x| {
                    *mean += (num(x) - *mean) / n as f64;
                });
                finished(kind, means, |_, mean| Value::Float(mean))
            }
            AggKind::StdDev | AggKind::Variance => {
                let moments = self.fold(cells, (0.0, 0.0), |(mean, m2), n, x| {
                    let x = num(x);
                    let delta = x - *mean;
                    *mean += delta / n as f64;
                    *m2 += delta * (x - *mean);
                });
                finished(kind, moments, |n, (_, m2)| {
                    let variance = m2 / (n as f64 - 1.0);
                    match (n, kind) {
                        (1, _) => Value::Null,
                        (_, AggKind::StdDev) => Value::Float(variance.sqrt()),
                        _ => Value::Float(variance),
                    }
                })
            }
            AggKind::Median => {
                let inputs = self.fold(cells, Vec::new(), |xs, _, x| xs.push(num(x)));
                finished(kind, inputs, |n, mut xs| {
                    xs.sort_by(f64::total_cmp);
                    let n = n as usize;
                    Value::Float(match n % 2 {
                        1 => xs[n / 2],
                        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
                    })
                })
            }
        }
    }

    /// `count`, `min`, `max` or `first` over cells `T`: each group's count
    /// and the cell it keeps, in the cells' own type — the first, or the
    /// first of the least (`min`) or greatest (`max`) by `cmp`.
    fn kept<T: Copy + Default>(
        self,
        kind: AggKind,
        cells: impl Cells<T>,
        cmp: impl Fn(&T, &T) -> Ordering,
        value: impl Fn(T) -> Value,
    ) -> Answers {
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
        finished(kind, states, |n, x| match kind {
            AggKind::Count => Value::Int(n as i64),
            _ => value(x),
        })
    }

    /// Each group's count and state, from `init`, after `step(state, n, x)`
    /// took each non-NULL selected cell `x` of the group in row order, `n`
    /// the group's count with it. The cells come a run at a time
    /// ([`Cells::runs`]); with one group, its state is held in a local
    /// across each run.
    #[inline]
    fn fold<T: Copy, S: Clone + Default>(
        self,
        cells: impl Cells<T>,
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
                cells.runs(self.positions, |_, run| {
                    let mut local = std::mem::take(state);
                    run.iter().for_each(|&x| step(&mut local, x));
                    *state = local;
                });
            }
            Some(gidx) => cells.runs(self.positions, |k, run| {
                for (&x, &g) in run.iter().zip(&gidx[k..k + run.len()]) {
                    step(&mut states[g as usize], x);
                }
            }),
        }
        states
    }
}

/// Each group's answer from its count and fold state: NULL for a group that
/// took no input (`count`: 0), otherwise what `finish` makes of them.
fn finished<S>(kind: AggKind, states: Vec<(u64, S)>, finish: impl Fn(u64, S) -> Value) -> Answers {
    let answer = |(n, s)| match n {
        0 if kind != AggKind::Count => Ok(Value::Null),
        n => Ok(finish(n, s)),
    };
    states.into_iter().map(answer).collect()
}

/// The error of an arithmetic aggregate fed TEXT.
fn non_numeric(kind: AggKind) -> DbError {
    DbError::Type(format!(
        "aggregate {}() applied to non-numeric value",
        kind.name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `kind` over `vals`, one group, through the value source.
    fn fold(kind: AggKind, vals: &[Value]) -> Result<Value, DbError> {
        let positions: Vec<usize> = (0..vals.len()).collect();
        let grouped = Grouped {
            positions: &positions,
            groups: 1,
            gidx: None,
        };
        grouped.fold_values(kind, vals).remove(0)
    }

    fn agg(kind: AggKind, vals: &[Value]) -> Value {
        fold(kind, vals).unwrap()
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
        let vals = [Value::Int(1), Value::Text("x".into()), Value::Null];
        assert!(fold(AggKind::Sum, &vals).is_err());
        assert_eq!(agg(AggKind::Max, &vals), Value::Text("x".into()));
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

    /// The typed-column source and the value source fold the same cells to
    /// the same bits: every kind over every column type, over every row,
    /// two selections with gaps, one that descends across a chunk edge and
    /// none, in one group and in three. Exact comparison keeps integers
    /// beyond 2^53 apart that an `f64` would merge, and a tie keeps the
    /// first of `0.0` and `-0.0`.
    #[test]
    fn the_column_and_value_sources_fold_the_same_cells_to_the_same_bits() {
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
                    let column = grouped.fold_column(kind, store.col(c));
                    let values: Vec<Value> =
                        positions.iter().map(|&p| rows[p][c].clone()).collect();
                    let values = grouped.fold_values(kind, &values);
                    assert_eq!(
                        format!("{column:?}"),
                        format!("{values:?}"),
                        "{kind:?} over c{c}"
                    );
                }
            }
        }
        let ints = [Value::Int(big + 1), Value::Int(big), Value::Int(big + 1)];
        assert_eq!(agg(AggKind::Min, &ints), Value::Int(big));
        assert_eq!(agg(AggKind::Max, &ints[1..]), Value::Int(big + 1));
    }
}
