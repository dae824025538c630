//! SELECT execution: resolve → (join) → plan → scan/index → filter →
//! group/aggregate → project → distinct → order → limit.
//!
//! There is one way in, [`read`], and three things it works with:
//!
//! * **One view** — a [`View`] resolves the names after FROM and JOIN to
//!   pinned table versions, once, before anything runs ([`Source`]). The
//!   live engine, a snapshot, a transaction and a single table are views.
//! * **One relation** — what the statement reads is a table: the pinned
//!   table, the table a join gathers from its pinned inputs by position
//!   ([`join`]: hash equi-joins keyed by [`ValueKey`], built on the smaller
//!   side, output in the order of the naive nested loop), or the unit
//!   relation of a statement without FROM.
//! * **One plan** — [`Plan::of`] decides the access path (a `col = <const>`
//!   or `col IN (...)` conjunct probes a secondary index, range conjuncts
//!   scan one declared *ordered*, `min`/`max` alone read an ordered index's
//!   ends), the filter form (column-at-a-time [`VecAtom`]s, or the compiled
//!   scalar filter of [`crate::compile`]) — both from one reading of the
//!   WHERE conjuncts ([`Conjunct`]) — and the output form (the one
//!   [`Aggregation`], column or expression projection). [`run`] consumes
//!   that value — selection vector of row positions ([`positions`], the
//!   step UPDATE and DELETE share), then aggregation or projection straight
//!   off the column store, materialising only matching, projected rows —
//!   and `EXPLAIN` prints it.
//!
//! The oracle the equivalence suites compare this module against — tables
//! turned into rows, an interpreter, nested-loop joins — lives with those
//! suites (`tests/common/oracle.rs`) and shares no code with it.

use crate::aggregate::{AggKind, Answers, Grouped};
use crate::column::{Chunked, ColumnStore, ColumnVec, DictColumn, NullBitmap};
use crate::compile::{compile, compile_reading, CompiledExpr};
use crate::engine::ResultSet;
use crate::error::DbError;
use crate::expr::LikePattern;
use crate::schema::{Column, Schema};
use crate::sql::{JoinClause, SelectItem, SelectStmt, SqlExpr};
use crate::table::{Row, Table};
use crate::value::{DataType, Num, Value, ValueKey, ValueRef};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::ops::{Bound, Range};
use std::sync::Arc;
use std::time::Instant;

/// Where a SELECT resolves table names: the live engine (each table pinned
/// at first touch — read-committed, statement-level per-table atomicity), a
/// pinned [`Snapshot`](crate::Snapshot) (every table as of one epoch), a
/// transaction's overlay (as of BEGIN, own writes folded in), or one table
/// somebody holds. Whatever it is, [`read`] asks it for pinned versions once,
/// before anything runs: the scan itself holds no engine lock, so long
/// analytical queries never block writers.
pub(crate) trait View {
    /// Pin the version of `name` this view resolves to.
    fn pin(&mut self, name: &str) -> Result<Arc<Table>, DbError>;

    /// The table a statement reads `from`; none when it names none.
    fn base(&mut self, from: Option<&str>) -> Result<Option<Arc<Table>>, DbError> {
        from.map(|name| self.pin(name)).transpose()
    }
}

/// One table is a view of itself: whatever the statement names after FROM —
/// nothing, for a query's data vector — it reads this table, and there is
/// nothing to join it with.
impl View for Arc<Table> {
    fn pin(&mut self, _name: &str) -> Result<Arc<Table>, DbError> {
        Err(DbError::Execution(
            "Table::select() only accepts single-table statements".into(),
        ))
    }

    fn base(&mut self, _from: Option<&str>) -> Result<Option<Arc<Table>>, DbError> {
        Ok(Some(Arc::clone(self)))
    }
}

impl Table {
    /// Run the single-table SELECT `sel` over this table — a version somebody
    /// pinned, or a table no catalog ever held (a query's data vector) —
    /// like a statement naming it (same executor, same `scan.*` / `plan.*`
    /// counters, one statement of the `select` class): nothing is parsed,
    /// `sel.from` is not looked at, and a statement with joins is refused.
    pub fn select(self: &Arc<Self>, sel: &SelectStmt) -> Result<ResultSet, DbError> {
        read(&mut Arc::clone(self), sel, None)
    }

    /// The number of groups the rows at `positions` form under the columns
    /// `by` (`group_rows`, the grouping of `GROUP BY`): the rows a
    /// grouped aggregate over them returns — one when `by` is empty, even
    /// over no rows. A column the table lacks is an error naming it.
    pub fn groups(&self, positions: &[usize], by: &[String]) -> Result<usize, DbError> {
        let at = |c: &String| {
            let at = self.schema.index_of(c);
            at.ok_or_else(|| DbError::NoSuchColumn(c.clone()))
        };
        let keys = by.iter().map(at).collect::<Result<Vec<_>, _>>()?;
        Ok(group_rows(self.store(), positions, &keys).0.len())
    }
}

/// Execute a SELECT — `explain`: `None` runs it, `Some(false)` prints its
/// plan (`EXPLAIN`), `Some(true)` runs it and prints the plan annotated with
/// what the run found (`EXPLAIN ANALYZE`). The only executor of SELECT:
/// every door (SQL text on the live engine, at a snapshot, in a transaction;
/// a statement value over a table or on a cluster node) parses if it must
/// and calls this, so this is where a read becomes one `query` span, one
/// tick of `sql.queries_run` and one statement of its class.
///
/// `EXPLAIN` output is a one-column result set (column `plan`), one plan
/// step per row, listed top-down from the last operation applied to the
/// access path at the bottom.
pub(crate) fn read(
    view: &mut dyn View,
    sel: &SelectStmt,
    explain: Option<bool>,
) -> Result<ResultSet, DbError> {
    let class = match explain {
        None => obs::StmtClass::Select,
        Some(_) => obs::StmtClass::Explain,
    };
    let _class_scope = obs::class_scope(class);
    let mut span = obs::span("query");
    obs::incr(obs::Counter::QueriesRun);
    let started = Instant::now();
    span.annotate(|| match &sel.from {
        Some(name) => format!("class={} from={name}", class.name()),
        None => format!("class={}", class.name()),
    });
    let result = Source::resolve(view, sel).and_then(|source| {
        if let Some(base) = source.base() {
            span.annotate(|| format!("rows={}", base.len()));
        }
        match explain {
            None => {
                let relation = source.relation()?;
                let plan = Plan::of(sel, &relation);
                run(sel, &relation, plan)
            }
            Some(analyze) => explained(sel, &source, analyze),
        }
    });
    let elapsed = started.elapsed();
    obs::record_statement(class, elapsed.as_nanos() as u64);
    obs::record_duration(obs::Hist::ExecNs, elapsed);
    result
}

/// What a SELECT reads, every name resolved to the version its [`View`]
/// pins: nothing touches the view, or any engine lock, after this.
enum Source<'s> {
    /// No FROM: the unit relation, one row of no columns.
    Unit,
    /// One table.
    Table(Arc<Table>),
    /// `from JOIN … ON …`, applied left to right.
    Join {
        from: &'s str,
        base: Arc<Table>,
        joined: Vec<(&'s JoinClause, Arc<Table>)>,
    },
}

impl<'s> Source<'s> {
    fn resolve(view: &mut dyn View, sel: &'s SelectStmt) -> Result<Source<'s>, DbError> {
        let Some(base) = view.base(sel.from.as_deref())? else {
            return Ok(Source::Unit);
        };
        let (Some(from), false) = (sel.from.as_deref(), sel.joins.is_empty()) else {
            return Ok(Source::Table(base));
        };
        let pinned = |j: &'s JoinClause| Ok((j, view.pin(&j.table)?));
        let joined = sel
            .joins
            .iter()
            .map(pinned)
            .collect::<Result<_, DbError>>()?;
        Ok(Source::Join { from, base, joined })
    }

    /// The table named after FROM.
    fn base(&self) -> Option<&Arc<Table>> {
        match self {
            Source::Unit => None,
            Source::Table(base) | Source::Join { base, .. } => Some(base),
        }
    }

    /// The one relation the pipeline runs over: the table as pinned, the
    /// join gathered into a table, or the unit relation as a table.
    fn relation(&self) -> Result<Arc<Table>, DbError> {
        match self {
            Source::Table(table) => Ok(Arc::clone(table)),
            Source::Join { from, base, joined } => join(from, base, joined),
            Source::Unit => {
                let mut unit = Table::new(Schema::default());
                unit.insert(Vec::new())?;
                Ok(Arc::new(unit))
            }
        }
    }
}

/// How a relation's rows become the statement's: decided once, by
/// [`Plan::of`]; consumed by [`run`]; printed by [`explained`] — `EXPLAIN`
/// has no second opinion.
struct Plan {
    /// Which rows are looked at.
    access: AccessPlan,
    /// How the WHERE clause is evaluated over them.
    filter: Filter,
    /// How the surviving rows become output rows.
    output: Output,
}

/// How a WHERE clause is evaluated.
enum Filter {
    /// Column-at-a-time: the atoms cover the whole clause (none: no clause).
    Vectorized(Vec<VecAtom>),
    /// The compiled scalar filter, per candidate row.
    Scalar(CompiledExpr),
}

impl Filter {
    /// `where_clause`, read as `conjuncts`, over `table`: vectorized when
    /// every conjunct is ([`VecAtom::of`]), the compiled scalar filter
    /// otherwise.
    fn of(where_clause: Option<&SqlExpr>, conjuncts: &[Conjunct<'_>], table: &Table) -> Filter {
        match conjuncts.iter().map(|c| VecAtom::of(c, table)).collect() {
            Some(atoms) => Filter::Vectorized(atoms),
            None => {
                let w = where_clause.expect("an absent WHERE clause always vectorizes");
                Filter::Scalar(compile(w, &table.schema))
            }
        }
    }
}

/// How selected rows become output rows.
enum Output {
    /// An aggregate call or GROUP BY.
    Aggregate(Aggregation),
    /// Nothing but `*` and plain columns: cells copied off the vectors.
    Columns(Vec<ProjCol>),
    /// Compiled expressions over each selected, materialised row.
    Expressions(Vec<CompiledItem>),
}

impl Plan {
    fn of(sel: &SelectStmt, table: &Table) -> Plan {
        let schema = &table.schema;
        let where_clause = sel.where_clause.as_ref();
        let conjuncts = Conjunct::read_all(where_clause);
        Plan {
            access: plan_index_ends(sel, table)
                .unwrap_or_else(|| plan_access(where_clause, &conjuncts, table)),
            filter: Filter::of(where_clause, &conjuncts, table),
            output: if is_aggregation(sel) {
                Output::Aggregate(Aggregation::of(sel, schema))
            } else {
                match pure_column_projection(sel, schema) {
                    Some(columns) => Output::Columns(columns),
                    None => Output::Expressions(compile_items(sel, schema)),
                }
            },
        }
    }

    /// How much of the statement runs column-at-a-time: all of it, the
    /// selection only, or nothing.
    fn vectorized(&self) -> &'static str {
        match (&self.filter, &self.output) {
            (Filter::Scalar(_), _) => "none",
            (_, Output::Columns(_)) => "full",
            (_, Output::Aggregate(aggregation)) if aggregation.columnar => "full",
            _ => "partial",
        }
    }
}

/// Run `plan` over `table` (a pinned version or a relation built for the
/// statement; no lock is held): select positions, aggregate or project
/// straight off the column store, then DISTINCT / ORDER BY / LIMIT. Only
/// matching, projected rows are materialised.
fn run(sel: &SelectStmt, table: &Table, plan: Plan) -> Result<ResultSet, DbError> {
    let (schema, store) = (&table.schema, table.store());
    let mut sv = Vec::new();
    positions(
        table,
        plan.access,
        &plan.filter,
        &mut ScanCounts::default(),
        &mut sv,
    )?;
    let row_at = |&p: &usize| store.materialize_row(p);
    let (columns, out_rows) = match plan.output {
        Output::Aggregate(aggregation) => (output_names(sel, schema), aggregation.run(table, &sv)?),
        Output::Columns(columns) => {
            let project = |&p: &usize| {
                let mut row = Vec::with_capacity(schema.arity());
                for c in &columns {
                    match c {
                        ProjCol::All => row.extend((0..schema.arity()).map(|c| store.value(p, c))),
                        ProjCol::One(c) => row.push(store.value(p, *c)),
                    }
                }
                row
            };
            (output_names(sel, schema), sv.iter().map(project).collect())
        }
        // Errors surface for selected rows only.
        Output::Expressions(items) => {
            let project = |p| project_row(&row_at(p), &items);
            let rows = sv.iter().map(project).collect::<Result<_, _>>()?;
            (output_names(sel, schema), rows)
        }
    };
    finalize(sel, columns, out_rows)
}

/// Does the statement have an aggregation shape (aggregate call or
/// GROUP BY)?
fn is_aggregation(sel: &SelectStmt) -> bool {
    !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
}

/// One compiled projection item.
#[derive(Debug, Clone)]
enum CompiledItem {
    /// `*` — pass the whole row through.
    Star,
    /// A compiled expression.
    Expr(CompiledExpr),
}

fn compile_items(sel: &SelectStmt, schema: &Schema) -> Vec<CompiledItem> {
    sel.items
        .iter()
        .map(|item| match item {
            SelectItem::Star => CompiledItem::Star,
            SelectItem::Expr { expr, .. } => CompiledItem::Expr(compile(expr, schema)),
        })
        .collect()
}

fn project_row(r: &Row, items: &[CompiledItem]) -> Result<Row, DbError> {
    let mut projected = Vec::with_capacity(items.len());
    for item in items {
        match item {
            CompiledItem::Star => projected.extend(r.iter().cloned()),
            CompiledItem::Expr(e) => projected.push(e.eval(r)?),
        }
    }
    Ok(projected)
}

// ---------------------------------------------------------------------------
// Vectorized execution over the column store
// ---------------------------------------------------------------------------
//
// Each top-level conjunct of the WHERE clause is read once ([`Conjunct`]),
// and each literal typed against its column by one rule ([`Operand`]); the
// access planner takes the same reading. A clause whose conjuncts are all
// simple is lowered into [`VecAtom`]s that evaluate one column vector at a
// time into a selection vector of row positions; dictionary predicates
// compare u32 codes against a precomputed per-entry truth table instead of
// strings. Aggregation then runs batched over the selected
// positions ([`Aggregation::run`]), grouping on dense column codes and
// folding each column slot a run of one chunk's cells at a time
// ([`Chunked::runs_at`]). Whole-column loops walk the chunks of a column
// ([`Chunked::chunks`], [`Chunked::gather`]); a single cell is read by
// position.
//
// The path is deliberately sequential: it folds every group in row order,
// so results are byte-identical to a naive row-at-a-time evaluation
// (same Welford update order, same first-seen group order, same
// tie-breaking) — the property the equivalence corpus asserts against the
// oracle.

/// Comparison operator of a simple conjunct.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn of(op: &str) -> Option<CmpOp> {
        Some(match op {
            "=" => CmpOp::Eq,
            "<>" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The operator with its operands swapped: `lit op col` holds exactly
    /// when `col op.flipped() lit` does.
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            same => same,
        }
    }

    #[inline]
    fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// One vectorized WHERE conjunct. Every variant replicates the scalar
/// evaluator's semantics exactly; in particular, comparisons with a NULL
/// cell are false for every operator.
#[derive(Debug)]
enum VecAtom {
    /// `col <op> lit` where both sides are numbers (`Value::total_cmp`).
    NumCmp { col: usize, op: CmpOp, rhs: Num },
    /// Payload-independent comparison (NULL literal, or a cross-type
    /// compare decided by type rank): NULL cells are false, every non-NULL
    /// cell yields `result`.
    ConstCmp { col: usize, result: bool },
    /// Per-dictionary-code truth table over a TEXT column — comparisons,
    /// IN lists and LIKE all precompute one bool per distinct string and
    /// evaluate on u32 codes. `null_pass` is the NULL-cell result
    /// (true for NOT LIKE).
    DictPass {
        col: usize,
        pass: Vec<bool>,
        null_pass: bool,
    },
    /// `col [NOT] IN (lits)` over a non-TEXT column: membership in a set of
    /// numeric keys ([`Num::key`]; elements that can never equal a numeric
    /// cell are dropped at compile time).
    NumIn {
        col: usize,
        set: HashSet<ValueKey>,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: usize, negated: bool },
}

impl VecAtom {
    /// Does row `pos` pass this conjunct?
    #[inline]
    fn test(&self, store: &ColumnStore, pos: usize) -> bool {
        match self {
            VecAtom::NumCmp { col, op, rhs } => {
                let c = store.col(*col);
                !c.nulls().is_null(pos) && op.holds(c.num_at(pos).total_cmp(*rhs))
            }
            VecAtom::ConstCmp { col, result } => *result && !store.col(*col).nulls().is_null(pos),
            VecAtom::DictPass {
                col,
                pass,
                null_pass,
            } => {
                let ColumnVec::Text(d) = store.col(*col) else {
                    unreachable!("DictPass compiled for a non-TEXT column");
                };
                if d.nulls.is_null(pos) {
                    *null_pass
                } else {
                    pass[d.codes[pos] as usize]
                }
            }
            VecAtom::NumIn { col, set, negated } => {
                let c = store.col(*col);
                !c.nulls().is_null(pos) && (set.contains(&c.num_at(pos).key()) != *negated)
            }
            VecAtom::IsNull { col, negated } => store.col(*col).nulls().is_null(pos) != *negated,
        }
    }

    /// Column-at-a-time pass over the full table: append every passing
    /// position to `out`. The hot shapes (numeric compare, dictionary
    /// truth table) run with the column-type match hoisted out of the row
    /// loop; the rest fall back to per-row [`VecAtom::test`].
    fn fill(&self, store: &ColumnStore, out: &mut Vec<usize>) {
        // `IS NULL` over a column with no NULLs selects nothing.
        if let VecAtom::IsNull {
            col,
            negated: false,
        } = self
        {
            if store.col(*col).nulls().null_count() == 0 {
                return;
            }
        }
        out.reserve(store.len());
        match self {
            // The literal's kind is matched once here, not once per cell.
            &VecAtom::NumCmp { col, op, rhs } => match (store.col(col), rhs) {
                (ColumnVec::Int { data, nulls }, Num::Int(y)) => {
                    fill_where(data, out, |p, &x| op.holds(x.cmp(&y)) && !nulls.is_null(p))
                }
                (ColumnVec::Int { data, nulls }, Num::Float(y)) => {
                    fill_where(data, out, |p, &x| {
                        op.holds(Num::Int(x).total_cmp(Num::Float(y))) && !nulls.is_null(p)
                    })
                }
                (ColumnVec::Float { data, nulls }, Num::Int(y)) => {
                    fill_where(data, out, |p, &x| {
                        op.holds(Num::Float(x).total_cmp(Num::Int(y))) && !nulls.is_null(p)
                    })
                }
                (ColumnVec::Float { data, nulls }, Num::Float(y)) => {
                    fill_where(data, out, |p, &x| {
                        op.holds(Num::Float(x).total_cmp(Num::Float(y))) && !nulls.is_null(p)
                    })
                }
                _ => self.fill_generic(store, out),
            },
            VecAtom::DictPass {
                col,
                pass,
                null_pass,
            } => {
                let ColumnVec::Text(d) = store.col(*col) else {
                    unreachable!("DictPass compiled for a non-TEXT column");
                };
                fill_where(&d.codes, out, |pos, &c| {
                    if d.nulls.is_null(pos) {
                        *null_pass
                    } else {
                        pass[c as usize]
                    }
                });
            }
            _ => self.fill_generic(store, out),
        }
    }

    fn fill_generic(&self, store: &ColumnStore, out: &mut Vec<usize>) {
        for pos in 0..store.len() {
            if self.test(store, pos) {
                out.push(pos);
            }
        }
    }
}

/// One truth value per entry of `d`'s dictionary: is it one of `texts`
/// (looked up, not compared), flipped when `negated`.
fn members<'s>(
    d: &DictColumn,
    texts: impl IntoIterator<Item = &'s str>,
    negated: bool,
) -> Vec<bool> {
    let mut pass = vec![negated; d.dict().len()];
    for c in texts.into_iter().filter_map(|s| d.code_of(s)) {
        pass[c as usize] = !negated;
    }
    pass
}

/// Append to `out` the position of every cell of `data` that `passes`,
/// walking the column chunk by chunk.
#[inline]
fn fill_where<T: Clone>(
    data: &Chunked<T>,
    out: &mut Vec<usize>,
    passes: impl Fn(usize, &T) -> bool,
) {
    for (base, chunk) in data.chunks() {
        for (i, x) in chunk.iter().enumerate() {
            if passes(base + i, x) {
                out.push(base + i);
            }
        }
    }
}

/// One top-level WHERE conjunct, read once by [`Conjunct::read`] for the
/// access planner ([`plan_indexed`]), the vectorised filter ([`VecAtom::of`])
/// and the batch binding ([`Binding`]). Columns are kept by the name they are
/// written with: one reading serves every table of a batch.
enum Conjunct<'e> {
    /// `col op lit`, the operator flipped when the literal is written first.
    Cmp {
        col: &'e str,
        op: CmpOp,
        lit: &'e Value,
    },
    /// `col [NOT] IN (lits)`, every element a literal.
    In {
        col: &'e str,
        lits: Vec<&'e Value>,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: &'e str, negated: bool },
    /// `col [NOT] LIKE pattern`.
    Like {
        col: &'e str,
        pattern: &'e str,
        negated: bool,
    },
    /// Any other shape: only the scalar filter evaluates it.
    Other,
}

impl<'e> Conjunct<'e> {
    /// The top-level AND conjuncts of `where_clause`, each read once; none
    /// without a clause.
    fn read_all(where_clause: Option<&'e SqlExpr>) -> Vec<Conjunct<'e>> {
        let mut exprs = Vec::new();
        if let Some(w) = where_clause {
            split_conjuncts(w, &mut exprs);
        }
        exprs.into_iter().map(Conjunct::read).collect()
    }

    fn read(e: &'e SqlExpr) -> Conjunct<'e> {
        match e {
            SqlExpr::Binary(op, l, r) => match (CmpOp::of(op), &**l, &**r) {
                (Some(op), SqlExpr::Col(col), SqlExpr::Lit(lit)) => Conjunct::Cmp { col, op, lit },
                (Some(op), SqlExpr::Lit(lit), SqlExpr::Col(col)) => Conjunct::Cmp {
                    col,
                    op: op.flipped(),
                    lit,
                },
                _ => Conjunct::Other,
            },
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => {
                let lit = |e: &'e SqlExpr| match e {
                    SqlExpr::Lit(v) => Some(v),
                    _ => None,
                };
                match (&**expr, list.iter().map(lit).collect()) {
                    (SqlExpr::Col(col), Some(lits)) => Conjunct::In {
                        col,
                        lits,
                        negated: *negated,
                    },
                    _ => Conjunct::Other,
                }
            }
            SqlExpr::IsNull { expr, negated } => match &**expr {
                SqlExpr::Col(col) => Conjunct::IsNull {
                    col,
                    negated: *negated,
                },
                _ => Conjunct::Other,
            },
            SqlExpr::Like {
                expr,
                pattern,
                negated,
            } => match &**expr {
                SqlExpr::Col(col) => Conjunct::Like {
                    col,
                    pattern,
                    negated: *negated,
                },
                _ => Conjunct::Other,
            },
            _ => Conjunct::Other,
        }
    }

    /// The column a simple conjunct tests, as written.
    fn column(&self) -> Option<&'e str> {
        match *self {
            Conjunct::Cmp { col, .. }
            | Conjunct::In { col, .. }
            | Conjunct::IsNull { col, .. }
            | Conjunct::Like { col, .. } => Some(col),
            Conjunct::Other => None,
        }
    }
}

/// What a WHERE literal is to the cells of a column, as the scalar evaluator
/// compares the two ([`Operand::of`]).
enum Operand<'v> {
    /// NULL: no comparison with it holds.
    Null,
    /// A number against a column of numbers, BOOLEAN (cell or literal) as
    /// 0/1: compared by value.
    Num(Num),
    /// Text against a TEXT column: compared as strings.
    Text(&'v str),
    /// Text against numbers or a number against TEXT: every non-NULL cell
    /// compares to it as this, text ranking above every number.
    Ranked(Ordering),
}

impl<'v> Operand<'v> {
    /// What `lit` is to the cells of a column of `dtype`.
    fn of(dtype: DataType, lit: &'v Value) -> Operand<'v> {
        match (ValueRef::of(lit), dtype) {
            (None, _) => Operand::Null,
            (Some(ValueRef::Text(s)), DataType::Text) => Operand::Text(s),
            (Some(ValueRef::Text(_)), _) => Operand::Ranked(Ordering::Less),
            (Some(_), DataType::Text) => Operand::Ranked(Ordering::Greater),
            (Some(v), _) => Operand::Num(v.num().expect("a value that is not TEXT is a number")),
        }
    }

    /// The index key of the cells of a column of `dtype` that equal this
    /// literal, `None` when no cell can: BOOLEAN cells are keyed as booleans,
    /// so only the numbers 0 and 1 equal one.
    fn key(&self, dtype: DataType) -> Option<ValueKey> {
        match *self {
            Operand::Null | Operand::Ranked(_) => None,
            Operand::Text(s) => Some(ValueKey::Text(s.to_string())),
            Operand::Num(n) => match (dtype, n.key()) {
                (DataType::Bool, ValueKey::Int(i @ (0 | 1))) => Some(ValueKey::Bool(i == 1)),
                (DataType::Bool, _) => None,
                (_, key) => Some(key),
            },
        }
    }
}

impl VecAtom {
    /// The conjunct `c`, column-at-a-time over `table`; `None` when it does
    /// not vectorize (another shape, a column that does not resolve, LIKE
    /// over a column that is not TEXT), which leaves the clause to the
    /// compiled scalar filter.
    fn of(c: &Conjunct<'_>, table: &Table) -> Option<VecAtom> {
        let col = table.schema.index_of(c.column()?)?;
        let dtype = table.schema.columns[col].dtype;
        let dict = match table.store().col(col) {
            ColumnVec::Text(d) => Some(d),
            _ => None,
        };
        Some(match c {
            Conjunct::Cmp { op, lit, .. } => match Operand::of(dtype, lit) {
                Operand::Null => VecAtom::ConstCmp { col, result: false },
                Operand::Ranked(ord) => VecAtom::ConstCmp {
                    col,
                    result: op.holds(ord),
                },
                Operand::Num(rhs) => VecAtom::NumCmp { col, op: *op, rhs },
                Operand::Text(s) => {
                    let d = dict.expect("a text operand is of a TEXT column");
                    let pass = match op {
                        CmpOp::Eq => members(d, [s], false),
                        _ => d
                            .dict()
                            .iter()
                            .map(|e| op.holds(e.as_str().cmp(s)))
                            .collect(),
                    };
                    VecAtom::DictPass {
                        col,
                        pass,
                        null_pass: false,
                    }
                }
            },
            Conjunct::In { lits, negated, .. } => {
                let operands = lits.iter().map(|l| Operand::of(dtype, l));
                match dict {
                    Some(d) => {
                        let texts = operands.filter_map(|o| match o {
                            Operand::Text(s) => Some(s),
                            _ => None,
                        });
                        VecAtom::DictPass {
                            col,
                            pass: members(d, texts, *negated),
                            null_pass: false,
                        }
                    }
                    // Elements that can never equal a number are dropped.
                    None => VecAtom::NumIn {
                        col,
                        set: operands
                            .filter_map(|o| match o {
                                Operand::Num(n) => Some(n.key()),
                                _ => None,
                            })
                            .collect(),
                        negated: *negated,
                    },
                }
            }
            Conjunct::IsNull { negated, .. } => VecAtom::IsNull {
                col,
                negated: *negated,
            },
            Conjunct::Like {
                pattern, negated, ..
            } => {
                let pat = LikePattern::parse(pattern);
                let pass = dict?.dict().iter().map(|s| pat.matches(s) != *negated);
                // LIKE on NULL evaluates the match as false, so NOT LIKE passes.
                VecAtom::DictPass {
                    col,
                    pass: pass.collect(),
                    null_pass: *negated,
                }
            }
            Conjunct::Other => return None,
        })
    }
}

/// The selection step as UPDATE, DELETE and [`Engine::scan`] take it, over a
/// batch of tables: `each(k, positions)`, in order, with the positions
/// (ascending) of the rows of `tables[k]` that satisfy `where_clause`,
/// through the access path and the filter form a SELECT of them would plan.
///
/// The clause is read once for the batch ([`Conjunct::read_all`]) and
/// compiled against the first table, and again only for a table that binds
/// it differently ([`Binding::fits`]); a table with indexes is planned on its
/// own, as a SELECT of it is. One positions buffer serves the batch, and the
/// `plan.full_scan` and `scan.*` counts of its walks are added once, with the
/// totals a walk per statement adds. An error — of the selection or of
/// `each` — ends the batch and carries the position of its table.
///
/// [`Engine::scan`]: crate::Engine::scan
pub(crate) fn select_positions<T: Borrow<Table>>(
    tables: &[T],
    where_clause: Option<&SqlExpr>,
    mut each: impl FnMut(usize, &[usize]) -> Result<(), DbError>,
) -> Result<(), (usize, DbError)> {
    let mut counts = ScanCounts::default();
    let conjuncts = Conjunct::read_all(where_clause);
    let mut binding: Option<Binding<'_>> = None;
    let mut sv = Vec::new();
    for (k, table) in tables.iter().enumerate() {
        let table = table.borrow();
        if !binding.as_ref().is_some_and(|b| b.fits(table)) {
            binding = Some(Binding::of(where_clause, &conjuncts, table));
        }
        let filter = &binding.as_ref().expect("bound above").filter;
        let access = plan_access(where_clause, &conjuncts, table);
        positions(table, access, filter, &mut counts, &mut sv)
            .and_then(|()| each(k, &sv))
            .map_err(|e| (k, e))?;
    }
    Ok(())
}

/// A WHERE clause compiled against one table of a batch, and what of that
/// table the compiled form depends on.
struct Binding<'t> {
    table: &'t Table,
    filter: Filter,
    /// Of a vectorized filter: each column the clause names, by the name it
    /// is written with, and its position in `table`.
    reads: Vec<(&'t str, usize)>,
}

impl<'t> Binding<'t> {
    /// `where_clause`, read as `conjuncts`, compiled against `table`
    /// (counted in `scan.filter_binds`).
    fn of(
        where_clause: Option<&SqlExpr>,
        conjuncts: &[Conjunct<'t>],
        table: &'t Table,
    ) -> Binding<'t> {
        obs::incr(obs::Counter::ScanFilterBinds);
        let filter = Filter::of(where_clause, conjuncts, table);
        let mut reads = Vec::new();
        if let Filter::Vectorized(_) = filter {
            for name in conjuncts.iter().filter_map(Conjunct::column) {
                let at = table.schema.index_of(name);
                reads.push((name, at.expect("a vectorized clause resolves")));
            }
        }
        Binding {
            table,
            filter,
            reads,
        }
    }

    /// Would `where_clause` compile against `table` to this very filter? A
    /// scalar filter reads columns by position wherever the clause names
    /// them: it fits a table of an equal schema. A vectorized one depends
    /// only on the columns its atoms read: it fits a table where each name
    /// resolves to the same position, with the same type and, for TEXT, the
    /// same dictionary strings in the same order — the truth tables are per
    /// dictionary code. Only those columns are compared, not the schemas.
    fn fits(&self, table: &Table) -> bool {
        match self.filter {
            Filter::Scalar(_) => table.schema == self.table.schema,
            Filter::Vectorized(_) => self.reads.iter().all(|&(name, c)| {
                table.schema.columns.get(c).is_some_and(|col| {
                    col.name == name && col.dtype == self.table.schema.columns[c].dtype
                }) && match (table.store().col(c), self.table.store().col(c)) {
                    (ColumnVec::Text(a), ColumnVec::Text(b)) => a.dict() == b.dict(),
                    _ => true,
                }
            }),
        }
    }
}

/// The `plan.full_scan` and `scan.*` counts of a batch of walks
/// ([`positions`]), added to the counters once, when the batch drops them.
#[derive(Default)]
struct ScanCounts {
    full_scans: u64,
    rows_visited: u64,
    vectorized: u64,
    fallbacks: u64,
}

impl Drop for ScanCounts {
    fn drop(&mut self) {
        obs::add(obs::Counter::PlanFullScan, self.full_scans);
        obs::add(obs::Counter::ScanRowsVisited, self.rows_visited);
        obs::add(obs::Counter::VectorizedScans, self.vectorized);
        obs::add(obs::Counter::VectorizedFallbacks, self.fallbacks);
    }
}

/// Fill `sv` with the positions (ascending) of the rows of `table` among
/// `access`'s candidates that pass `filter` — the one walk over a table, and
/// where the plan is counted (`plan.*`, `scan.*`, the batch's into
/// `counts`): a plan nobody walks counts nothing.
///
/// A vectorized filter runs column-at-a-time — the first atom fills the
/// selection vector, each later atom narrows the survivors (index candidates
/// are narrowed directly). The scalar filter is evaluated per candidate
/// position, so an evaluation error surfaces only for rows the access path
/// leaves.
fn positions(
    table: &Table,
    access: AccessPlan,
    filter: &Filter,
    counts: &mut ScanCounts,
    sv: &mut Vec<usize>,
) -> Result<(), DbError> {
    access.count(counts);
    let candidates = access.candidates;
    let store = table.store();
    let checked = candidates.as_ref().map(Vec::len);
    if checked.is_none() {
        counts.rows_visited += store.len() as u64;
    }
    match filter {
        Filter::Vectorized(_) => counts.vectorized += 1,
        Filter::Scalar(_) => counts.fallbacks += 1,
    }

    sv.clear();
    match (filter, candidates) {
        (Filter::Vectorized(atoms), Some(ids)) => {
            let pass = |p: &usize| atoms.iter().all(|a| a.test(store, *p));
            sv.extend(ids.into_iter().filter(pass));
        }
        (Filter::Vectorized(atoms), None) => match atoms.split_first() {
            None => sv.extend(0..store.len()),
            Some((first, rest)) => {
                first.fill(store, sv);
                for a in rest {
                    sv.retain(|&p| a.test(store, p));
                }
            }
        },
        (Filter::Scalar(filter), candidates) => {
            for p in candidates.unwrap_or_else(|| (0..store.len()).collect()) {
                if filter.matches(&store.materialize_row(p))? {
                    sv.push(p);
                }
            }
        }
    }
    if let Some(n) = checked {
        obs::add(obs::Counter::ResidualChecks, n as u64);
        obs::add(obs::Counter::ResidualDrops, (n - sv.len()) as u64);
    }
    Ok(())
}

/// The one aggregation, planned once per statement: the selected rows are
/// grouped by the GROUP BY columns ([`group_rows`]); every outermost
/// aggregate call of the select list is a [`Slot`], folded per group in row
/// order by the one set of kernels ([`Grouped`]); and every item is compiled
/// once against the relation's columns followed by one column per slot, and
/// evaluated once per group — over the group's first row (NULLs for the
/// global group of no rows) followed by its slot values.
struct Aggregation {
    /// The GROUP BY columns, or the first name that does not resolve.
    keys: Result<Vec<usize>, String>,
    /// The aggregate calls of the select list, in order.
    slots: Vec<Slot>,
    /// Each select item, and the slots that are its aggregate calls.
    items: Vec<(CompiledItem, Range<usize>)>,
    /// `SELECT g…, agg(col)… GROUP BY g…`: every item a group key, or an
    /// aggregate fed straight off a column or once per row — the statement
    /// runs column-at-a-time (`EXPLAIN`'s `vectorized=full`).
    columnar: bool,
}

/// One aggregate call of the select list.
struct Slot {
    kind: AggKind,
    input: SlotInput,
}

/// What a slot folds, selected row by selected row.
enum SlotInput {
    /// The non-NULL cells of a column, folded in one typed loop per kind
    /// and column type ([`Grouped::fold_column`]).
    Column(usize),
    /// `Int(1)`: `agg(*)`, and `count(<non-NULL literal>)`, folded as values
    /// ([`Grouped::fold_values`]). A `count` of it counts each group's rows
    /// off the group index instead.
    Row,
    /// The argument, compiled, evaluated once per selected row over the
    /// materialised row, its values folded ([`Grouped::fold_values`]).
    Expr(CompiledExpr),
    /// Not one argument: the error the slot raises where it is reached.
    Invalid(DbError),
}

impl Slot {
    fn of(kind: AggKind, call: &SqlExpr, schema: &Schema) -> Slot {
        let SqlExpr::Func { name, args, star } = call else {
            unreachable!("an aggregate is a call, not {call:?}")
        };
        let input = match args.as_slice() {
            _ if *star => SlotInput::Row,
            [SqlExpr::Lit(l)] if kind == AggKind::Count && !l.is_null() => SlotInput::Row,
            [arg] => match arg {
                SqlExpr::Col(name) => schema.index_of(name).map(SlotInput::Column),
                _ => None,
            }
            .unwrap_or_else(|| SlotInput::Expr(compile(arg, schema))),
            _ => SlotInput::Invalid(DbError::Type(format!(
                "aggregate {name}() expects exactly one argument"
            ))),
        };
        Slot { kind, input }
    }
}

impl Aggregation {
    fn of(sel: &SelectStmt, schema: &Schema) -> Aggregation {
        let keys: Result<Vec<usize>, String> = sel
            .group_by
            .iter()
            .map(|g| schema.index_of(g).ok_or_else(|| g.clone()))
            .collect();
        let arity = schema.arity();
        let mut slots: Vec<Slot> = Vec::new();
        let mut items = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            let first = slots.len();
            let item = match item {
                SelectItem::Star => CompiledItem::Star,
                SelectItem::Expr { expr, .. } => {
                    CompiledItem::Expr(compile_reading(expr, schema, &mut |kind, call| {
                        slots.push(Slot::of(kind, call, schema));
                        Some(arity + slots.len() - 1)
                    }))
                }
            };
            items.push((item, first..slots.len()));
        }
        let columnar = keys.as_ref().is_ok_and(|keys| {
            items.iter().all(|(item, _)| match item {
                CompiledItem::Expr(CompiledExpr::Col(i)) if *i < arity => keys.contains(i),
                CompiledItem::Expr(CompiledExpr::Col(i)) => {
                    matches!(
                        slots[i - arity].input,
                        SlotInput::Column(_) | SlotInput::Row
                    )
                }
                _ => false,
            })
        });
        Aggregation {
            keys,
            slots,
            items,
            columnar,
        }
    }

    /// The output rows of the groups of the rows of `table` at `sv`. Pass 1
    /// resolves every selected row to its group once ([`group_rows`]), pass
    /// 2 folds each slot — a column in one typed loop for its kind and the
    /// column's type ([`Grouped::fold_column`]), a count of rows off the
    /// group index, anything else as one value per row through the same
    /// loops ([`Grouped::fold_values`]) — and pass 3 evaluates the items
    /// group by group.
    /// An error surfaces where evaluating group after group, item after
    /// item, each aggregate over its group's rows, would first meet it.
    fn run(&self, table: &Table, sv: &[usize]) -> Result<Vec<Row>, DbError> {
        let store = table.store();
        let keys = self
            .keys
            .as_ref()
            .map_err(|name| DbError::NoSuchColumn(name.clone()))?;
        let (firsts, gidx) = group_rows(store, sv, keys);
        let grouped = Grouped {
            positions: sv,
            groups: firsts.len(),
            gidx: gidx.as_deref(),
        };
        let group = |k: usize| gidx.as_ref().map_or(0, |gidx| gidx[k] as usize);
        let expr_input = |slot: &Slot| matches!(slot.input, SlotInput::Expr(_));
        let rows: Vec<Row> = match self.slots.iter().any(expr_input) {
            true => sv.iter().map(|&p| store.materialize_row(p)).collect(),
            false => Vec::new(),
        };
        // Per slot, each group's answer; an argument's first error in the
        // earliest group that has one is that group's answer (rows of later
        // groups are not evaluated).
        let fed: Vec<Answers> = self
            .slots
            .iter()
            .map(|slot| match &slot.input {
                SlotInput::Column(c) => grouped.fold_column(slot.kind, store.col(*c)),
                SlotInput::Row if slot.kind == AggKind::Count => grouped.count_rows(),
                SlotInput::Row => grouped.fold_values(slot.kind, &vec![Value::Int(1); sv.len()]),
                SlotInput::Expr(arg) => {
                    let mut failed: Option<(usize, DbError)> = None;
                    let mut eval = |k: usize, row: &Row| {
                        let g = group(k);
                        if failed.as_ref().is_some_and(|(at, _)| g >= *at) {
                            return Value::Null;
                        }
                        arg.eval(row).unwrap_or_else(|e| {
                            failed = Some((g, e));
                            Value::Null
                        })
                    };
                    let values: Vec<Value> = rows
                        .iter()
                        .enumerate()
                        .map(|(k, row)| eval(k, row))
                        .collect();
                    let mut answers = grouped.fold_values(slot.kind, &values);
                    if let Some((g, e)) = failed {
                        answers[g] = Err(e);
                    }
                    answers
                }
                SlotInput::Invalid(e) => vec![Err(e.clone()); firsts.len()],
            })
            .collect();
        let arity = table.schema.arity();
        let mut out = Vec::with_capacity(firsts.len());
        for (g, first) in firsts.iter().enumerate() {
            // The group's first row, then its slot values, item by item.
            let mut row = match first {
                Some(p) => store.materialize_row(*p),
                None => vec![Value::Null; arity],
            };
            row.resize(arity + fed.len(), Value::Null);
            let mut projected = Vec::with_capacity(self.items.len());
            for (item, slots) in &self.items {
                for s in slots.clone() {
                    row[arity + s] = fed[s][g].clone()?;
                }
                match item {
                    CompiledItem::Star => projected.extend(row[..arity].iter().cloned()),
                    CompiledItem::Expr(e) => projected.push(e.eval(&row)?),
                }
            }
            out.push(projected);
        }
        Ok(out)
    }
}

/// The group of every selected row, and the position of each group's first
/// row: one grouping for every key shape. Each key column becomes a dense
/// code per row ([`key_codes`]), a cell grouped by its [`ValueKey`] class
/// without being materialised; the codes fold column by column into group
/// ids — the groups so far times the next column's code count, plus its
/// code, renumbered ([`first_seen`]). Groups are numbered in the order their
/// first row is selected, whatever the key. Without a key there is one
/// group, present even for no rows (and then without a first row), and
/// every row is in it (`None`).
fn group_rows(
    store: &ColumnStore,
    sv: &[usize],
    key_idx: &[usize],
) -> (Vec<Option<usize>>, Option<Vec<u32>>) {
    let Some((&first, rest)) = key_idx.split_first() else {
        return (vec![sv.first().copied()], None);
    };
    let (mut firsts, mut gidx) = key_codes(store.col(first), sv);
    for &i in rest {
        let (code_firsts, codes) = key_codes(store.col(i), sv);
        let count = code_firsts.len() as u64;
        let keys = sv.iter().zip(gidx.iter().zip(&codes));
        let keys = keys.map(|(&p, (&g, &c))| (p, Some(u64::from(g) * count + u64::from(c))));
        (firsts, gidx) = first_seen(keys, firsts.len() as u64 * count);
    }
    (firsts, Some(gidx))
}

/// The code of each selected row in the key column `col`, dense and in
/// first-seen order, and the first row of each code ([`first_seen`]). The
/// key a cell is numbered by: a TEXT cell's dictionary code (within one
/// column, equal codes are equal strings); an INTEGER or TIMESTAMP cell's
/// offset from the smallest selected cell, so a narrow range takes a direct
/// table; a BOOLEAN cell's 0 or 1; a FLOAT cell's bits with `-0.0` as `0.0`
/// and every NaN as one — within a FLOAT column exactly the classes of
/// [`Num::key`]. NULL is a code of its own.
fn key_codes(col: &ColumnVec, sv: &[usize]) -> (Vec<Option<usize>>, Vec<u32>) {
    fn keyed<T: Copy>(
        (data, nulls): (&Chunked<T>, &NullBitmap),
        sv: &[usize],
        key: impl Fn(T) -> u64,
        bound: u64,
    ) -> (Vec<Option<usize>>, Vec<u32>) {
        let cells = sv.iter().zip(data.gather(sv));
        let keys = cells.map(|(&p, &x)| (p, (!nulls.is_null(p)).then(|| key(x))));
        first_seen(keys, bound)
    }
    match col {
        ColumnVec::Text(d) => keyed((&d.codes, &d.nulls), sv, u64::from, d.dict().len() as u64),
        ColumnVec::Bool { data, nulls } => keyed((data, nulls), sv, u64::from, 2),
        ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
            let cells = sv.iter().zip(data.gather(sv));
            let cells = cells.filter(|(&p, _)| !nulls.is_null(p)).map(|(_, &x)| x);
            let (lo, hi) = cells.fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
            let bound = if lo <= hi { hi.abs_diff(lo) } else { 0 }.saturating_add(1);
            keyed((data, nulls), sv, |x| x.wrapping_sub(lo) as u64, bound)
        }
        ColumnVec::Float { data, nulls } => {
            let class = |f: f64| match f {
                _ if f == 0.0 => 0,
                _ if f.is_nan() => f64::NAN.to_bits(),
                _ => f.to_bits(),
            };
            keyed((data, nulls), sv, class, u64::MAX)
        }
    }
}

/// Group ids for `keys` — each a selected row's position and its key, `None`
/// for NULL — numbered in the order they first appear, and the first row of
/// each, in one pass: through a direct table (NULL in the slot after the
/// last key) when every key is below `bound` and that is at most four slots
/// a row (1 024 at least), through a map otherwise.
fn first_seen(
    keys: impl ExactSizeIterator<Item = (usize, Option<u64>)>,
    bound: u64,
) -> (Vec<Option<usize>>, Vec<u32>) {
    const NEW: u32 = u32::MAX;
    /// `slot(ids, key)` is where `ids` keeps the key's id.
    fn number<S>(
        keys: impl Iterator<Item = (usize, Option<u64>)>,
        mut ids: S,
        slot: impl Fn(&mut S, Option<u64>) -> &mut u32,
    ) -> (Vec<Option<usize>>, Vec<u32>) {
        let mut firsts = Vec::new();
        // Collected, not pushed: the number of keys is known, so the ids are
        // written without a capacity check per row.
        let gidx = keys
            .map(|(p, key)| {
                let id = slot(&mut ids, key);
                if *id == NEW {
                    *id = firsts.len() as u32;
                    firsts.push(Some(p));
                }
                *id
            })
            .collect();
        (firsts, gidx)
    }
    if bound <= 4 * (keys.len() as u64).max(256) {
        let null = bound as usize;
        let table = vec![NEW; null + 1];
        number(keys, table, |table, key| {
            &mut table[key.map_or(null, |k| k as usize)]
        })
    } else {
        let map = HashMap::with_hasher(KeyHasher::seeded());
        number(keys, (map, NEW), |(map, null), key| match key {
            Some(k) => map.entry(k).or_insert(NEW),
            None => null,
        })
    }
}

/// The hasher of [`first_seen`]'s map: one folded multiply — the key xored
/// with one word, times another, the 128-bit product's halves xored — which
/// reaches both the low bits a table indexes by and the high bits it tags
/// with. Both words are drawn per map from `RandomState`, so a set of cell
/// values chosen in advance does not collide in every map, as it would under
/// fixed constants. A key costs a few ns, where SipHash costs ~15.
#[derive(Clone, Copy)]
struct KeyHasher {
    words: [u64; 2],
    hash: u64,
}

impl KeyHasher {
    fn seeded() -> KeyHasher {
        let random = RandomState::new();
        let words = [random.hash_one(0), random.hash_one(1) | 1];
        KeyHasher { words, hash: 0 }
    }
}

impl BuildHasher for KeyHasher {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        *self
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a group key is a u64")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.words[0]) * u128::from(self.words[1]);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One projection slot of a pure-column projection.
enum ProjCol {
    /// `*` — every schema column.
    All,
    /// A single column by index.
    One(usize),
}

/// When every projection item is `*` or a plain resolvable column, the
/// output can be built straight from the typed vectors.
fn pure_column_projection(sel: &SelectStmt, schema: &Schema) -> Option<Vec<ProjCol>> {
    sel.items
        .iter()
        .map(|item| match item {
            SelectItem::Star => Some(ProjCol::All),
            SelectItem::Expr {
                expr: SqlExpr::Col(name),
                ..
            } => schema.index_of(name).map(ProjCol::One),
            SelectItem::Expr { .. } => None,
        })
        .collect()
}

/// One index-servable access condition extracted from the WHERE clause.
enum IndexCond {
    /// `col = lit` — single key probe (hash or ordered index).
    Eq(ValueKey),
    /// `col IN (lits)` — one probe per distinct key, positions unioned
    /// (hash or ordered index).
    In(Vec<ValueKey>),
    /// Merged range conjuncts (`<`, `<=`, `>`, `>=`, BETWEEN-shaped pairs)
    /// over one column — ordered index only.
    Range(Bound<ValueKey>, Bound<ValueKey>),
}

/// Split a WHERE clause into its top-level AND conjuncts.
fn split_conjuncts<'e>(e: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
    if let SqlExpr::Binary("AND", l, r) = e {
        split_conjuncts(l, out);
        split_conjuncts(r, out);
    } else {
        out.push(e);
    }
}

/// Can every name in the expression resolve (columns and functions)? The
/// index path is only taken when this holds, so that name errors surface
/// from a scan exactly as they would without an index.
fn names_resolve(e: &SqlExpr, schema: &Schema) -> bool {
    match e {
        SqlExpr::Lit(_) => true,
        SqlExpr::Col(name) => schema.index_of(name).is_some(),
        SqlExpr::Unary(_, x) => names_resolve(x, schema),
        SqlExpr::Binary(_, l, r) => names_resolve(l, schema) && names_resolve(r, schema),
        SqlExpr::Func { name, args, .. } => {
            AggKind::from_name(name).is_none()
                && crate::expr::is_known_scalar(name)
                && args.iter().all(|a| names_resolve(a, schema))
        }
        SqlExpr::InList { expr, list, .. } => {
            names_resolve(expr, schema) && list.iter().all(|e| names_resolve(e, schema))
        }
        SqlExpr::IsNull { expr, .. } | SqlExpr::Like { expr, .. } => names_resolve(expr, schema),
    }
}

/// The tighter of two bounds on one side of a window — the greater key of
/// two `lower` bounds, the smaller of two upper ones; on a tie, Excluded.
fn tighter(a: Bound<ValueKey>, b: Bound<ValueKey>, lower: bool) -> Bound<ValueKey> {
    let (Bound::Included(ka) | Bound::Excluded(ka)) = &a else {
        return b;
    };
    let (Bound::Included(kb) | Bound::Excluded(kb)) = &b else {
        return a;
    };
    let inward = if lower { ka.cmp(kb) } else { kb.cmp(ka) };
    match inward {
        Ordering::Greater => a,
        Ordering::Less => b,
        Ordering::Equal if matches!(a, Bound::Excluded(_)) => a,
        Ordering::Equal => b,
    }
}

/// Candidate row positions for an index-assisted lookup. Competing
/// AND-conjuncts are ranked by estimated candidate count and the cheapest
/// access path wins:
///
/// * `col = lit` (any index) — estimate `rows / distinct_keys`, the
///   original distinct-key selectivity proxy.
/// * `col IN (lits)` (any index; probe per element, union the positions,
///   dedup) — estimate `k · rows / distinct_keys`.
/// * range conjuncts `<`, `<=`, `>`, `>=` — including BETWEEN-shaped pairs,
///   which merge into one `(lower, upper)` window per column — served by an
///   *ordered* index only; flat estimate `rows / 3`.
///
/// Literal translation mirrors the evaluator: an equality or IN element
/// whose literal can never match the column type is dropped (an empty
/// remaining probe set falsifies the whole AND chain); a range bound
/// against NULL falsifies the chain (every comparison with NULL is false),
/// while a cross-type range bound merely skips that conjunct, which the
/// residual filter then evaluates.
///
/// Candidates come back in row order and are always a superset of the
/// matching rows; [`select_positions`] still applies the full WHERE over
/// them.
fn plan_access(
    where_clause: Option<&SqlExpr>,
    conjuncts: &[Conjunct<'_>],
    table: &Table,
) -> AccessPlan {
    // Without a WHERE clause or an index there is nothing to choose from,
    // and no planning time worth two clock reads.
    let Some(w) = where_clause.filter(|_| table.has_indexes()) else {
        return AccessPlan::full_scan(table.len() as f64);
    };
    let started = Instant::now();
    let plan = plan_indexed(w, conjuncts, table);
    obs::record_duration(obs::Hist::PlanNs, started.elapsed());
    plan
}

/// `SELECT min(c) | max(c), … FROM t` — nothing but `min`/`max` calls over
/// columns with an ordered index, no WHERE, no GROUP BY — needs only the
/// rows under the first or last key of each index: the extreme value of a
/// column is among them (NULLs, which `min`/`max` skip, are not indexed),
/// and aggregating over a subset of the table that contains it gives the
/// same answer as aggregating over all of it. The candidates go through the
/// ordinary aggregation, so the result is the one a full scan computes.
fn plan_index_ends(sel: &SelectStmt, table: &Table) -> Option<AccessPlan> {
    if sel.where_clause.is_some() || !sel.group_by.is_empty() || !table.has_indexes() {
        return None;
    }
    let mut candidates: Vec<usize> = Vec::new();
    let mut column = None;
    for item in &sel.items {
        let SelectItem::Expr {
            expr:
                SqlExpr::Func {
                    name,
                    args,
                    star: false,
                },
            ..
        } = item
        else {
            return None;
        };
        let largest = match AggKind::from_name(name)? {
            AggKind::Max => true,
            AggKind::Min => false,
            _ => return None,
        };
        let [SqlExpr::Col(col)] = args.as_slice() else {
            return None;
        };
        let ci = table.schema.index_of(col)?;
        candidates.extend(table.index_end_positions(ci, largest)?);
        column.get_or_insert_with(|| table.schema.columns[ci].name.clone());
    }
    candidates.sort_unstable();
    candidates.dedup();
    Some(AccessPlan {
        kind: AccessPathKind::IndexEnd,
        column,
        est_rows: candidates.len() as f64,
        candidates: Some(candidates),
        probes: 0,
    })
}

/// [`plan_access`] for a WHERE clause `w`, read as `conjuncts`, over a
/// table that has an index.
fn plan_indexed(w: &SqlExpr, conjuncts: &[Conjunct<'_>], table: &Table) -> AccessPlan {
    let nrows = table.len() as f64;
    if !names_resolve(w, &table.schema) {
        return AccessPlan::full_scan(nrows);
    }
    let mut best: Option<(f64, usize, IndexCond)> = None; // (est, col, cond)
    let consider =
        |est: f64, ci: usize, cond: IndexCond, best: &mut Option<(f64, usize, IndexCond)>| {
            if best.as_ref().is_none_or(|(e, _, _)| est < *e) {
                *best = Some((est, ci, cond));
            }
        };
    // Range windows accumulate per column across conjuncts, then compete
    // as one merged condition each.
    let mut ranges: Vec<(usize, Bound<ValueKey>, Bound<ValueKey>)> = Vec::new();

    for c in conjuncts {
        let (Conjunct::Cmp { col, .. } | Conjunct::In { col, .. }) = c else {
            continue;
        };
        let Some(ci) = table.schema.index_of(col) else {
            continue;
        };
        let Some(distinct) = table.index_distinct_keys(ci) else {
            continue;
        };
        let dtype = table.schema.columns[ci].dtype;
        match c {
            Conjunct::In {
                lits,
                negated: false,
                ..
            } => {
                // Elements that can never match are dropped (NULL elements
                // make `IN` yield NULL, never true).
                let mut keys: Vec<ValueKey> = Vec::with_capacity(lits.len());
                for key in lits.iter().filter_map(|l| Operand::of(dtype, l).key(dtype)) {
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                if keys.is_empty() {
                    // No element can ever match: the IN is constant-false.
                    return AccessPlan::never();
                }
                let est = keys.len() as f64 * nrows / distinct.max(1) as f64;
                consider(est, ci, IndexCond::In(keys), &mut best);
            }
            Conjunct::Cmp {
                op: CmpOp::Eq, lit, ..
            } => match Operand::of(dtype, lit).key(dtype) {
                // A type-impossible equality falsifies the AND chain.
                None => return AccessPlan::never(),
                Some(key) => consider(
                    nrows / distinct.max(1) as f64,
                    ci,
                    IndexCond::Eq(key),
                    &mut best,
                ),
            },
            // Range conjuncts: ordered indexes only.
            Conjunct::Cmp { op, lit, .. } if *op != CmpOp::Ne && table.has_ordered_index_on(ci) => {
                let operand = Operand::of(dtype, lit);
                let key = match (operand.key(dtype), operand) {
                    (Some(key), _) => key,
                    // Any comparison against NULL is false.
                    (None, Operand::Null) => return AccessPlan::never(),
                    // Cross-type bound: leave it to the residual filter.
                    (None, _) => continue,
                };
                let at = match ranges.iter().position(|r| r.0 == ci) {
                    Some(at) => at,
                    None => {
                        ranges.push((ci, Bound::Unbounded, Bound::Unbounded));
                        ranges.len() - 1
                    }
                };
                let lower = matches!(op, CmpOp::Gt | CmpOp::Ge);
                let bound = match op {
                    CmpOp::Le | CmpOp::Ge => Bound::Included(key),
                    _ => Bound::Excluded(key),
                };
                let (_, lo, hi) = &mut ranges[at];
                let side = if lower { lo } else { hi };
                *side = tighter(std::mem::replace(side, Bound::Unbounded), bound, lower);
            }
            _ => {}
        }
    }

    for (ci, lo, hi) in ranges {
        consider(nrows / 3.0, ci, IndexCond::Range(lo, hi), &mut best);
    }

    let Some((est, ci, cond)) = best else {
        return AccessPlan::full_scan(nrows);
    };
    let kind = match &cond {
        IndexCond::Eq(_) => AccessPathKind::PointLookup,
        IndexCond::In(_) => AccessPathKind::InList,
        IndexCond::Range(..) => AccessPathKind::RangeWindow,
    };
    let probes = match &cond {
        IndexCond::In(keys) => keys.len() as u64,
        IndexCond::Eq(_) | IndexCond::Range(..) => 1,
    };
    let candidates = match cond {
        IndexCond::Eq(key) => table.index_lookup(ci, &key).map(<[usize]>::to_vec),
        IndexCond::In(keys) => {
            let mut out = Some(Vec::new());
            for key in &keys {
                out = match (out, table.index_lookup(ci, key)) {
                    (Some(mut acc), Some(ids)) => {
                        acc.extend_from_slice(ids);
                        Some(acc)
                    }
                    _ => None,
                };
            }
            out.map(|mut acc| {
                acc.sort_unstable();
                acc.dedup();
                acc
            })
        }
        IndexCond::Range(lo, hi) => table.range_lookup(ci, lo.as_ref(), hi.as_ref()),
    };
    match candidates {
        Some(c) => AccessPlan {
            kind,
            column: Some(table.schema.columns[ci].name.clone()),
            est_rows: est,
            candidates: Some(c),
            probes,
        },
        // The index disappeared between estimation and probing (should not
        // happen under the read guard) — degrade to a scan.
        None => AccessPlan::full_scan(nrows),
    }
}

/// Which access path the planner chose for a single-table statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessPathKind {
    /// `col = lit` index probe.
    PointLookup,
    /// `col IN (...)` multi-probe, positions unioned.
    InList,
    /// Merged range window over an ordered index.
    RangeWindow,
    /// `min`/`max` alone: the rows under the first or last key of an
    /// ordered index.
    IndexEnd,
    /// No usable index condition — visit every row.
    FullScan,
    /// The WHERE clause is provably constant-false; no row can match.
    Never,
}

impl AccessPathKind {
    /// Stable name used in EXPLAIN output.
    fn name(self) -> &'static str {
        match self {
            AccessPathKind::PointLookup => "point-lookup",
            AccessPathKind::InList => "in-list",
            AccessPathKind::RangeWindow => "range-window",
            AccessPathKind::IndexEnd => "index-end",
            AccessPathKind::FullScan => "full-scan",
            AccessPathKind::Never => "never",
        }
    }
}

/// The planner's access decision for one relation: the chosen path, the index
/// column driving it (when any), the optimizer's candidate row estimate, and
/// the candidate positions themselves (`None` = visit every row). Planning
/// counts nothing; [`AccessPlan::count`] does, for whoever walks the plan.
struct AccessPlan {
    /// Chosen access path.
    kind: AccessPathKind,
    /// Index column serving the probe, for index-backed paths.
    column: Option<String>,
    /// Estimated candidate rows (the ranking key among competing paths).
    est_rows: f64,
    /// Candidate row positions; `None` means scan all rows.
    candidates: Option<Vec<usize>>,
    /// Index probes that produced the candidates.
    probes: u64,
}

impl AccessPlan {
    fn full_scan(nrows: f64) -> Self {
        AccessPlan {
            kind: AccessPathKind::FullScan,
            column: None,
            est_rows: nrows,
            candidates: None,
            probes: 0,
        }
    }

    fn never() -> Self {
        AccessPlan {
            kind: AccessPathKind::Never,
            column: None,
            est_rows: 0.0,
            candidates: Some(Vec::new()),
            probes: 0,
        }
    }

    /// Record the decision in the `plan.*` counters (a full scan in the
    /// batch's `counts`).
    fn count(&self, counts: &mut ScanCounts) {
        obs::incr(match self.kind {
            AccessPathKind::PointLookup => obs::Counter::PlanPointLookup,
            AccessPathKind::InList => obs::Counter::PlanInList,
            AccessPathKind::RangeWindow => obs::Counter::PlanRangeWindow,
            AccessPathKind::IndexEnd => obs::Counter::PlanIndexEnd,
            AccessPathKind::FullScan => {
                counts.full_scans += 1;
                return;
            }
            AccessPathKind::Never => obs::Counter::PlanFalsified,
        });
        obs::add(obs::Counter::IndexProbes, self.probes);
        if let Some(c) = &self.candidates {
            obs::add(obs::Counter::IndexCandidateRows, c.len() as u64);
        }
    }
}

/// `EXPLAIN [ANALYZE]` of `sel` over `source`: plan the statement as [`read`]
/// would, print that [`Plan`], and for ANALYZE hand the same value to [`run`]
/// — the scan line then ends in the candidate rows the run walked, and a
/// trailing `Rows returned` line follows. A join is planned over the relation
/// it builds, so plain `EXPLAIN` — which builds nothing — prints a join's
/// inputs and the steps above them, and no more.
fn explained(sel: &SelectStmt, source: &Source<'_>, analyze: bool) -> Result<ResultSet, DbError> {
    let planned = match source {
        Source::Join { .. } if !analyze => None,
        _ => {
            let relation = source.relation()?;
            let plan = Plan::of(sel, &relation);
            Some((relation, plan))
        }
    };
    let mut lines: Vec<String> = Vec::new();
    if let Some(n) = sel.limit {
        lines.push(format!("Limit: {n}"));
    }
    if !sel.order_by.is_empty() {
        let keys: Vec<String> = sel
            .order_by
            .iter()
            .map(|k| {
                let name = match k.position {
                    Some(p) => p.to_string(),
                    None => k.column.clone(),
                };
                if k.desc {
                    format!("{name} DESC")
                } else {
                    name
                }
            })
            .collect();
        lines.push(format!("Sort: {}", keys.join(", ")));
    }
    if sel.distinct {
        lines.push("Distinct".to_string());
    }
    let items: Vec<String> = sel
        .items
        .iter()
        .map(|it| match it {
            SelectItem::Star => "*".to_string(),
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => format!("{expr} AS {a}"),
            SelectItem::Expr { expr, alias: None } => expr.to_string(),
        })
        .collect();
    if is_aggregation(sel) {
        let mut line = format!("Aggregate: {}", items.join(", "));
        if !sel.group_by.is_empty() {
            line.push_str(&format!(" group by {}", sel.group_by.join(", ")));
        }
        lines.push(line);
    } else {
        lines.push(format!("Project: {}", items.join(", ")));
    }
    if let Some(w) = &sel.where_clause {
        lines.push(format!("Filter: {w}"));
    }
    // Joins apply left-to-right, so in top-down order the last one comes
    // first.
    for j in sel.joins.iter().rev() {
        lines.push(format!(
            "Join {} ON {} = {}",
            j.table, j.left_col, j.right_col
        ));
    }
    // The scan: path, index column, vectorization, estimated and walked rows.
    let scan = match source {
        Source::Unit => None,
        // A join reads every row of its inputs; what runs over the joined
        // relation is the steps above.
        Source::Join { base, .. } => {
            let full = AccessPlan::full_scan(base.len() as f64);
            Some((full.kind, None, None, full.est_rows, base.len()))
        }
        Source::Table(table) => {
            let (_, plan) = planned.as_ref().expect("only a join is left unplanned");
            let access = &plan.access;
            let walked = access.candidates.as_ref().map_or(table.len(), Vec::len);
            let column = access.column.as_deref();
            Some((
                access.kind,
                column,
                Some(plan.vectorized()),
                access.est_rows,
                walked,
            ))
        }
    };
    match scan {
        None => lines.push("Values: 1 row".to_string()),
        Some((kind, column, vectorized, est_rows, walked)) => {
            let mut scan = format!(
                "Scan {} access={}",
                sel.from.as_deref().unwrap_or("-"),
                kind.name()
            );
            if let Some(col) = column {
                scan.push_str(&format!(" column={col}"));
            }
            if let Some(how) = vectorized {
                scan.push_str(&format!(" vectorized={how}"));
            }
            scan.push_str(&format!(" est_rows={est_rows:.1}"));
            if analyze {
                scan.push_str(&format!(" actual_rows={walked}"));
            }
            lines.push(scan);
        }
    }
    if let (true, Some((relation, plan))) = (analyze, planned) {
        let rs = run(sel, &relation, plan)?;
        lines.push(format!("Rows returned: {}", rs.len()));
    }
    let rows: Vec<Row> = lines.into_iter().map(|l| vec![Value::Text(l)]).collect();
    Ok(ResultSet::new(vec!["plan".to_string()], rows))
}

/// DISTINCT → ORDER BY → LIMIT, shared by every execution path.
fn finalize(
    sel: &SelectStmt,
    columns: Vec<String>,
    mut out_rows: Vec<Row>,
) -> Result<ResultSet, DbError> {
    if sel.distinct {
        let mut seen: HashSet<Vec<ValueKey>> = HashSet::with_capacity(out_rows.len());
        out_rows.retain(|r| seen.insert(r.iter().map(ValueKey::of).collect()));
    }

    if !sel.order_by.is_empty() {
        let mut keys = Vec::with_capacity(sel.order_by.len());
        for k in &sel.order_by {
            let idx = match k.position {
                Some(p) => {
                    if p == 0 || p > columns.len() {
                        return Err(DbError::Execution(format!(
                            "ORDER BY position {p} out of range"
                        )));
                    }
                    p - 1
                }
                None => resolve_output_column(&columns, &k.column)
                    .ok_or_else(|| DbError::NoSuchColumn(k.column.clone()))?,
            };
            keys.push((idx, k.desc));
        }
        out_rows.sort_by(|a, b| {
            for (idx, desc) in &keys {
                let ord = a[*idx].total_cmp(&b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    if let Some(n) = sel.limit {
        out_rows.truncate(n);
    }

    Ok(ResultSet::new(columns, out_rows))
}

/// Resolve an ORDER BY name against output column names: exact match first,
/// then match on the unqualified suffix (`mbps` ↔ `bw.mbps`).
fn resolve_output_column(columns: &[String], name: &str) -> Option<usize> {
    if let Some(i) = columns.iter().position(|c| c == name) {
        return Some(i);
    }
    columns.iter().position(|c| {
        c.rsplit('.').next() == Some(name) || name.rsplit('.').next() == Some(c.as_str())
    })
}

/// Which accumulated/joined columns implement a join clause.
fn resolve_join_keys(
    schema: &Schema,
    jschema: &Schema,
    j: &JoinClause,
) -> Result<(usize, usize), DbError> {
    let (acc_key, new_key) = if schema.index_of(&j.left_col).is_some()
        && jschema.index_of(&j.right_col).is_some()
    {
        (&j.left_col, &j.right_col)
    } else if schema.index_of(&j.right_col).is_some() && jschema.index_of(&j.left_col).is_some() {
        (&j.right_col, &j.left_col)
    } else {
        return Err(DbError::NoSuchColumn(format!(
            "join keys {} / {} not found",
            j.left_col, j.right_col
        )));
    };
    let ai = schema.index_of(acc_key).expect("checked above");
    let ni = jschema.index_of(new_key).expect("checked above");
    Ok((ai, ni))
}

/// Build the joined relation with hash equi-joins, left to right: each join
/// pairs the positions of the accumulated side with those of the joined
/// table ([`matching_positions`]) and gathers both sides' columns at them
/// into a new table — no input is turned into rows. Column names are
/// qualified (`table.column`) so both sides stay addressable. Every input is
/// read whole and counted as such.
fn join(
    base_name: &str,
    base: &Arc<Table>,
    joined: &[(&JoinClause, Arc<Table>)],
) -> Result<Arc<Table>, DbError> {
    obs::add(obs::Counter::ScanRowsVisited, base.len() as u64);
    let mut schema = qualify(&base.schema, base_name)?;
    let mut acc = Arc::clone(base);
    for (j, table) in joined {
        obs::add(obs::Counter::ScanRowsVisited, table.len() as u64);
        let jschema = qualify(&table.schema, &j.table)?;
        let (ai, ni) = resolve_join_keys(&schema, &jschema, j)?;
        let (left, right) = matching_positions((&acc, ai), (table, ni));
        let columns: Vec<(usize, usize)> = (0..acc.schema.columns.len())
            .map(|c| (0, c))
            .chain((0..table.schema.columns.len()).map(|c| (1, c)))
            .collect();
        schema.columns.extend(jschema.columns);
        schema = Schema::new(schema.columns)?;
        let sides = [(&*acc, &left[..]), (&**table, &right[..])];
        acc = Arc::new(Table::gathered(schema.clone(), &sides, &columns));
    }
    Ok(acc)
}

/// The position pairs `(l, r)` at which column `lc` of `left` equals column
/// `rc` of `right` under [`ValueKey`] equality (NULL keys never match), as
/// two parallel vectors. The hash table is built on the smaller side; the
/// order is left-major, right-minor regardless — that of the naive nested
/// loop.
fn matching_positions(
    (left, lc): (&Table, usize),
    (right, rc): (&Table, usize),
) -> (Vec<usize>, Vec<usize>) {
    let key = |(table, col): (&Table, usize), p: usize| {
        Some(ValueKey::of(&table.store().value(p, col))).filter(|k| !k.is_null())
    };
    let build = |side: (&Table, usize)| {
        let mut built: HashMap<ValueKey, Vec<usize>> = HashMap::new();
        for p in 0..side.0.len() {
            if let Some(k) = key(side, p) {
                built.entry(k).or_default().push(p);
            }
        }
        built
    };
    let (mut ls, mut rs) = (Vec::new(), Vec::new());
    if right.len() <= left.len() {
        // Build on the right, probe with the left rows in order.
        let built = build((right, rc));
        for l in 0..left.len() {
            if let Some(matches) = key((left, lc), l).and_then(|k| built.get(&k)) {
                ls.extend(std::iter::repeat_n(l, matches.len()));
                rs.extend_from_slice(matches);
            }
        }
    } else {
        // Build on the (smaller) left; bucket the matches per left row, then
        // emit in left order.
        let built = build((left, lc));
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); left.len()];
        for r in 0..right.len() {
            if let Some(matches) = key((right, rc), r).and_then(|k| built.get(&k)) {
                for &l in matches {
                    buckets[l].push(r);
                }
            }
        }
        for (l, bucket) in buckets.iter().enumerate() {
            ls.extend(std::iter::repeat_n(l, bucket.len()));
            rs.extend_from_slice(bucket);
        }
    }
    (ls, rs)
}

fn qualify(schema: &Schema, table: &str) -> Result<Schema, DbError> {
    Schema::new(
        schema
            .columns
            .iter()
            .map(|c| Column {
                name: format!("{table}.{}", c.name),
                dtype: c.dtype,
                nullable: c.nullable,
            })
            .collect(),
    )
}

fn output_names(sel: &SelectStmt, schema: &Schema) -> Vec<String> {
    let mut names = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => names.extend(schema.names()),
            SelectItem::Expr { expr, alias } => names.push(match alias {
                Some(a) => a.clone(),
                None => expr.to_string_for_order(),
            }),
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::test_common::oracle;

    /// Candidate row positions for an index-assisted lookup, or `None` when
    /// no index applies.
    fn plan_point_lookup(where_clause: Option<&SqlExpr>, table: &Table) -> Option<Vec<usize>> {
        plan_access(where_clause, &Conjunct::read_all(where_clause), table).candidates
    }

    fn db() -> Engine {
        let e = Engine::new();
        e.execute("CREATE TABLE t (id INTEGER, grp TEXT, v FLOAT)")
            .unwrap();
        e.execute(
            "INSERT INTO t VALUES (1,'a',10.0),(2,'a',20.0),(3,'b',30.0),(4,'b',50.0),(5,'c',NULL)",
        )
        .unwrap();
        e
    }

    #[test]
    fn star_projection() {
        let rs = db().query("SELECT * FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.column_names(), &["id", "grp", "v"]);
        assert_eq!(
            rs.rows()[0],
            vec![Value::Int(3), Value::Text("b".into()), Value::Float(30.0)]
        );
    }

    #[test]
    fn expression_projection_with_alias() {
        let rs = db()
            .query("SELECT v * 2 AS dbl, id FROM t WHERE id = 1")
            .unwrap();
        assert_eq!(rs.column_names(), &["dbl", "id"]);
        assert_eq!(rs.rows()[0][0], Value::Float(20.0));
    }

    #[test]
    fn group_by_with_expression_on_aggregate() {
        let rs = db()
            .query("SELECT grp, avg(v) + 1 AS a1 FROM t GROUP BY grp ORDER BY grp")
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(
            rs.rows()[0],
            vec![Value::Text("a".into()), Value::Float(16.0)]
        );
        assert_eq!(
            rs.rows()[1],
            vec![Value::Text("b".into()), Value::Float(41.0)]
        );
        // group 'c' has only a NULL value -> avg NULL -> NULL + 1 = NULL
        assert_eq!(rs.rows()[2], vec![Value::Text("c".into()), Value::Null]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let e = Engine::new();
        e.execute("CREATE TABLE empty (x INTEGER)").unwrap();
        let rs = e.query("SELECT count(*), max(x) FROM empty").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn count_star_vs_count_column() {
        let rs = db().query("SELECT count(*), count(v) FROM t").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(5), Value::Int(4)]);
    }

    #[test]
    fn distinct_dedupes() {
        let rs = db()
            .query("SELECT DISTINCT grp FROM t ORDER BY grp")
            .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn distinct_treats_int_float_equal() {
        let e = Engine::new();
        e.execute("CREATE TABLE m (k FLOAT)").unwrap();
        e.execute("INSERT INTO m VALUES (1.0), (1), (2)").unwrap();
        let rs = e.query("SELECT DISTINCT k FROM m").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let rs = db()
            .query("SELECT id FROM t ORDER BY id DESC LIMIT 2")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(5));
        assert_eq!(rs.rows()[1][0], Value::Int(4));
    }

    #[test]
    fn order_by_position() {
        let rs = db()
            .query("SELECT grp, v FROM t WHERE v IS NOT NULL ORDER BY 2 DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows()[0][1], Value::Float(50.0));
    }

    #[test]
    fn order_by_aggregate_name() {
        let rs = db()
            .query("SELECT grp, sum(v) FROM t GROUP BY grp ORDER BY sum(v) DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("b".into()));
    }

    #[test]
    fn nulls_sort_first() {
        let rs = db().query("SELECT v FROM t ORDER BY v").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Null);
    }

    /// `min`/`max` answered from the ends of an ordered index are what the
    /// oracle computes from every row — where index keys are
    /// coarser than values (`-0.0`/`0.0`, integers past 2^53), with NaN,
    /// NULLs, duplicates, an empty table, and after updates and deletes.
    #[test]
    fn index_end_min_max_match_the_reference_executor() {
        let e = Engine::new();
        e.execute("CREATE TABLE t (i INTEGER, f FLOAT, s TEXT, b BOOLEAN)")
            .unwrap();
        for col in ["i", "f", "s", "b"] {
            e.execute(&format!("CREATE ORDERED INDEX ox_{col} ON t ({col})"))
                .unwrap();
        }
        let queries = [
            "SELECT max(i) FROM t",
            "SELECT min(i), max(i) FROM t",
            "SELECT max(f), min(f) AS least FROM t",
            "SELECT min(s), max(s), max(b), min(b) FROM t",
            "SELECT max(i), min(f), max(s) FROM t ORDER BY 1 LIMIT 1",
        ];
        let check = |e: &Engine| {
            for q in queries {
                let plan = e.query(&format!("EXPLAIN {q}")).unwrap();
                let plan = format!("{:?}", plan.rows());
                assert!(plan.contains("access=index-end"), "{q}: {plan}");
                let (fast, reference) = (e.query(q).unwrap(), oracle::query(e, q).unwrap());
                // Debug tells -0.0 from 0.0 and equates NaN with itself.
                assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{q}");
            }
        };
        check(&e); // empty: every answer is NULL
        e.execute("INSERT INTO t VALUES (NULL, NULL, NULL, NULL)")
            .unwrap();
        check(&e);
        let big = 1i64 << 53;
        e.execute(&format!(
            "INSERT INTO t VALUES ({big}, -0.0, 'b', true), ({}, 0.0, 'a', false), \
             ({}, 0.0, 'b', NULL), (-{}, -0.0, '', true), (-{big}, 1.5, 'a', false)",
            big + 1,
            big - 1,
            big + 1,
        ))
        .unwrap();
        check(&e);
        e.insert_rows(
            "t",
            vec![
                vec![
                    Value::Int(i64::MAX),
                    Value::Float(f64::NAN),
                    Value::Text("zz".into()),
                    Value::Null,
                ],
                vec![
                    Value::Int(i64::MIN),
                    Value::Float(f64::NEG_INFINITY),
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap();
        check(&e);
        e.execute("DELETE FROM t WHERE s = 'zz'").unwrap();
        e.execute("UPDATE t SET i = 7, f = 2.5 WHERE s = 'a'")
            .unwrap();
        check(&e);
        // Not the whole statement, or no ordered index: the ordinary paths.
        e.execute("CREATE TABLE h (i INTEGER)").unwrap();
        e.execute("CREATE INDEX hx ON h (i)").unwrap();
        for q in [
            "SELECT max(i) FROM t WHERE f > 0",
            "SELECT max(i), count(*) FROM t",
            "SELECT max(i) + 1 FROM t",
            "SELECT max(i) FROM h",
        ] {
            let plan = format!("{:?}", e.query(&format!("EXPLAIN {q}")).unwrap().rows());
            assert!(!plan.contains("access=index-end"), "{q}: {plan}");
            let (fast, reference) = (e.query(q).unwrap(), oracle::query(&e, q).unwrap());
            assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{q}");
        }
    }

    #[test]
    fn select_without_from() {
        let e = Engine::new();
        let rs = e.query("SELECT 1 + 2 AS three, 'x' AS tag").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(3), Value::Text("x".into())]);
    }

    #[test]
    fn join_null_keys_never_match() {
        let e = Engine::new();
        e.execute("CREATE TABLE a (k INTEGER)").unwrap();
        e.execute("CREATE TABLE b (k INTEGER)").unwrap();
        e.execute("INSERT INTO a VALUES (1), (NULL)").unwrap();
        e.execute("INSERT INTO b VALUES (1), (NULL)").unwrap();
        let rs = e.query("SELECT a.k FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn join_one_to_many() {
        let e = Engine::new();
        e.execute("CREATE TABLE runs (id INTEGER, host TEXT)")
            .unwrap();
        e.execute("CREATE TABLE vals (run INTEGER, v FLOAT)")
            .unwrap();
        e.execute("INSERT INTO runs VALUES (1,'h1'),(2,'h2')")
            .unwrap();
        e.execute("INSERT INTO vals VALUES (1,1.0),(1,2.0),(2,3.0)")
            .unwrap();
        let rs = e
            .query(
                "SELECT runs.host, sum(vals.v) FROM vals JOIN runs ON vals.run = runs.id \
                 GROUP BY runs.host ORDER BY runs.host",
            )
            .unwrap();
        assert_eq!(
            rs.rows()[0],
            vec![Value::Text("h1".into()), Value::Float(3.0)]
        );
        assert_eq!(
            rs.rows()[1],
            vec![Value::Text("h2".into()), Value::Float(3.0)]
        );
    }

    #[test]
    fn join_build_side_does_not_change_output() {
        // Joined side larger than accumulated side → build flips to the
        // accumulated side; output must stay accumulated-major.
        let e = Engine::new();
        e.execute("CREATE TABLE small (k INTEGER)").unwrap();
        e.execute("CREATE TABLE big (k INTEGER, tag TEXT)").unwrap();
        e.execute("INSERT INTO small VALUES (2), (1)").unwrap();
        e.execute("INSERT INTO big VALUES (1,'x1'),(2,'y1'),(1,'x2'),(3,'z'),(2,'y2'),(9,'w')")
            .unwrap();
        let rs = e
            .query("SELECT small.k, big.tag FROM small JOIN big ON small.k = big.k")
            .unwrap();
        let got: Vec<(i64, String)> = rs
            .rows()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_str().unwrap().to_string()))
            .collect();
        assert_eq!(
            got,
            vec![
                (2, "y1".into()),
                (2, "y2".into()),
                (1, "x1".into()),
                (1, "x2".into())
            ]
        );
        let reference = oracle::query(
            &e,
            "SELECT small.k, big.tag FROM small JOIN big ON small.k = big.k",
        )
        .unwrap();
        assert_eq!(rs, reference);
    }

    #[test]
    fn grouping_treats_int_float_equal() {
        let e = Engine::new();
        e.execute("CREATE TABLE m (k FLOAT, v INTEGER)").unwrap();
        e.execute("INSERT INTO m VALUES (1.0, 10), (1, 20), (2, 5)")
            .unwrap();
        let rs = e
            .query("SELECT k, count(*) FROM m GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][1], Value::Int(2));
    }

    /// The general aggregation groups by key values, not by a rendering of
    /// them a TEXT cell can imitate: two groups whose keys once rendered to
    /// the same `U+0001`-joined string stay two — as the fast path and
    /// DISTINCT always had it.
    #[test]
    fn general_aggregation_keeps_groups_apart() {
        let e = Engine::new();
        e.execute("CREATE TABLE g (a TEXT, b TEXT, v INTEGER)")
            .unwrap();
        let text = |s: &str| Value::Text(s.into());
        e.insert_rows(
            "g",
            vec![
                vec![text("x\u{1}t:y"), text("z"), Value::Int(1)],
                vec![text("x"), text("y\u{1}t:z"), Value::Int(10)],
            ],
        )
        .unwrap();
        let sums = |q: &str| -> Vec<Value> {
            let rs = e.query(q).unwrap();
            assert_eq!(
                format!("{rs:?}"),
                format!("{:?}", oracle::query(&e, q).unwrap())
            );
            rs.rows().iter().map(|r| r[2].clone()).collect()
        };
        let two = vec![Value::Float(1.0), Value::Float(10.0)];
        assert_eq!(sums("SELECT a, b, sum(v) + 0 FROM g GROUP BY a, b"), two);
        assert_eq!(sums("SELECT a, b, sum(v) FROM g GROUP BY a, b"), two);
        assert_eq!(e.query("SELECT DISTINCT a, b FROM g").unwrap().len(), 2);
        // One group where the keys are equal: `1` is `1.0`, `-0.0` is `0.0`.
        e.execute("CREATE TABLE n (k FLOAT, v INTEGER)").unwrap();
        e.execute("INSERT INTO n VALUES (1, 1), (1.0, 2), (-0.0, 4), (0.0, 8)")
            .unwrap();
        let rs = e.query("SELECT k, sum(v) + 0 FROM n GROUP BY k").unwrap();
        assert_eq!(rs.render_tsv(), "k\t(sum(v) + 0)\n1.0\t3.0\n-0.0\t12.0\n");
    }

    #[test]
    fn explain_reports_access_path() {
        let e = db();
        e.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        let rs = e.query("EXPLAIN SELECT * FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.column_names(), &["plan"]);
        let text: Vec<String> = rs
            .rows()
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            text,
            vec![
                "Project: *".to_string(),
                "Filter: (id = 3)".to_string(),
                "Scan t access=point-lookup column=id vectorized=full est_rows=1.0".to_string(),
            ]
        );

        let rs = e
            .query("EXPLAIN ANALYZE SELECT * FROM t WHERE id = 3")
            .unwrap();
        let last = rs.rows().last().unwrap()[0].as_str().unwrap().to_string();
        assert_eq!(last, "Rows returned: 1");
        let scan = rs.rows()[rs.len() - 2][0].as_str().unwrap().to_string();
        assert!(scan.ends_with("actual_rows=1"), "{scan}");
    }

    #[test]
    fn unknown_group_column_errors() {
        assert!(matches!(
            db().query("SELECT count(*) FROM t GROUP BY zzz"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn unknown_order_column_errors() {
        assert!(matches!(
            db().query("SELECT id FROM t ORDER BY zzz"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    fn indexed_db() -> Engine {
        let e = db();
        e.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        e
    }

    #[test]
    fn index_point_lookup_matches_scan() {
        let idx = indexed_db();
        let plain = db();
        for q in [
            "SELECT * FROM t WHERE id = 3",
            "SELECT * FROM t WHERE 3 = id",
            "SELECT grp FROM t WHERE id = 4 AND v > 10",
            "SELECT count(*) FROM t WHERE id = 1",
            "SELECT * FROM t WHERE id = 99",
            "SELECT * FROM t WHERE id = NULL",
            "SELECT * FROM t WHERE id = 'x'",
            "SELECT * FROM t WHERE id = 3.0",
            "SELECT * FROM t WHERE id = 3.5",
        ] {
            assert_eq!(idx.query(q).unwrap(), plain.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn index_lookup_on_aggregation() {
        let idx = indexed_db();
        let rs = idx
            .query("SELECT count(*), max(v) FROM t WHERE id = 3")
            .unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(1), Value::Float(30.0)]);
        // No match still yields the global group.
        let rs = idx
            .query("SELECT count(*), max(v) FROM t WHERE id = 42")
            .unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn index_stays_correct_after_mutations() {
        let e = indexed_db();
        e.execute("INSERT INTO t VALUES (3, 'z', 99.0)").unwrap();
        let rs = e.query("SELECT count(*) FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(2));
        e.execute("DELETE FROM t WHERE grp = 'b'").unwrap();
        let rs = e.query("SELECT count(*) FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(1));
        e.execute("UPDATE t SET id = 7 WHERE id = 3").unwrap();
        let rs = e.query("SELECT grp FROM t WHERE id = 7").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("z".into()));
    }

    #[test]
    fn most_selective_index_wins() {
        use crate::sql::{self, Stmt};
        // 1000 rows: `flag` has 2 distinct values (500 rows each), `id` has
        // 1000 distinct values (1 row each). Both are indexed; the planner
        // must probe `id`, not the first conjunct's `flag`.
        let e = Engine::new();
        e.execute("CREATE TABLE big (id INTEGER, flag INTEGER, v FLOAT)")
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..1000 {
            rows.push(vec![
                Value::Int(i),
                Value::Int(i % 2),
                Value::Float(i as f64),
            ]);
        }
        e.insert_rows("big", rows).unwrap();
        e.execute("CREATE INDEX ix_flag ON big (flag)").unwrap();
        e.execute("CREATE INDEX ix_id ON big (id)").unwrap();

        let plan = |q: &str| -> Option<Vec<usize>> {
            let Stmt::Select(sel) = sql::parse_statement(q).unwrap() else {
                unreachable!()
            };
            let t = e.table("big").unwrap();
            let guard = t.read();
            plan_point_lookup(sel.where_clause.as_ref(), &guard)
        };

        // flag listed first, id second: still 1 candidate, not 500.
        let c = plan("SELECT v FROM big WHERE flag = 1 AND id = 7").unwrap();
        assert_eq!(
            c,
            vec![7],
            "planner must pick the id index (1000 distinct keys)"
        );
        // Either order.
        let c = plan("SELECT v FROM big WHERE id = 8 AND flag = 0").unwrap();
        assert_eq!(c, vec![8]);
        // Single applicable index still works.
        let c = plan("SELECT v FROM big WHERE flag = 1").unwrap();
        assert_eq!(c.len(), 500);
        // A type-impossible conjunct anywhere falsifies the AND chain.
        let c = plan("SELECT v FROM big WHERE flag = 1 AND id = 'nope'").unwrap();
        assert!(c.is_empty());
        // And the query results agree with a full scan either way.
        let rs = e
            .query("SELECT v FROM big WHERE flag = 1 AND id = 7")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Float(7.0)]]);
    }

    fn plan_on(e: &Engine, table: &str, q: &str) -> Option<Vec<usize>> {
        use crate::sql::{self, Stmt};
        let Stmt::Select(sel) = sql::parse_statement(q).unwrap() else {
            unreachable!()
        };
        let t = e.table(table).unwrap();
        let guard = t.read();
        plan_point_lookup(sel.where_clause.as_ref(), &guard)
    }

    fn range_db() -> Engine {
        let e = Engine::new();
        e.execute("CREATE TABLE r (id INTEGER, v FLOAT, tag TEXT)")
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(vec![
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
                Value::Text(format!("t{}", i % 10)),
            ]);
        }
        e.insert_rows("r", rows).unwrap();
        e.execute("CREATE ORDERED INDEX ix_id ON r (id)").unwrap();
        e
    }

    #[test]
    fn in_list_probes_index() {
        let e = range_db();
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN (3, 1, 99, 1, 200)").unwrap();
        assert_eq!(
            c,
            vec![1, 3, 99],
            "positions unioned, deduped, in row order"
        );
        // Unmatchable and NULL elements are dropped from the probe set.
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN (5, 'x', NULL)").unwrap();
        assert_eq!(c, vec![5]);
        // An all-impossible IN falsifies the AND chain.
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN ('x', NULL)").unwrap();
        assert!(c.is_empty());
        // NOT IN and non-literal elements take the scan path.
        assert!(plan_on(&e, "r", "SELECT * FROM r WHERE id NOT IN (1, 2)").is_none());
        assert!(plan_on(&e, "r", "SELECT * FROM r WHERE id IN (1, v)").is_none());
        // Results agree with the scan either way.
        let rs = e
            .query("SELECT id FROM r WHERE id IN (3, 1, 99, 200) ORDER BY id")
            .unwrap();
        let reference = oracle::query(
            &e,
            "SELECT id FROM r WHERE id IN (3, 1, 99, 200) ORDER BY id",
        )
        .unwrap();
        assert_eq!(rs, reference);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn range_conjuncts_use_ordered_index() {
        let e = range_db();
        // Single-sided ranges.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id < 3").unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id <= 2").unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id > 97").unwrap(),
            vec![98, 99]
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id >= 98").unwrap(),
            vec![98, 99]
        );
        // Literal-on-the-left flips the operator.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE 97 < id").unwrap(),
            vec![98, 99]
        );
        // BETWEEN-shaped pair merges into one window.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id >= 10 AND id < 13").unwrap(),
            vec![10, 11, 12]
        );
        // Conflicting bounds collapse to empty without panicking.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id > 50 AND id < 10").unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id > 10 AND id < 10").unwrap(),
            Vec::<usize>::new()
        );
        // A NULL bound falsifies the chain; a cross-type bound is left to
        // the residual filter (constant over the column).
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id < NULL").unwrap(),
            Vec::<usize>::new()
        );
        assert!(plan_on(&e, "r", "SELECT * FROM r WHERE id < 'x'").is_none());
        // Fractional bounds work on integer columns (key space is f64).
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id < 2.5").unwrap(),
            vec![0, 1, 2]
        );
        // A hash index never serves ranges.
        let h = Engine::new();
        h.execute("CREATE TABLE r (id INTEGER)").unwrap();
        h.execute("INSERT INTO r VALUES (1), (2)").unwrap();
        h.execute("CREATE INDEX ix ON r (id)").unwrap();
        assert!(plan_on(&h, "r", "SELECT * FROM r WHERE id < 2").is_none());
    }

    #[test]
    fn planner_prefers_cheapest_access_path() {
        let e = range_db();
        // Eq (1 row) beats the range (est rows/3) and the IN (3 rows).
        let c = plan_on(
            &e,
            "r",
            "SELECT * FROM r WHERE id IN (1,2,3) AND id = 2 AND id < 50",
        )
        .unwrap();
        assert_eq!(c, vec![2]);
        // IN with fewer estimated rows beats the range.
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN (1, 2) AND id < 50").unwrap();
        assert_eq!(c, vec![1, 2]);
        // Range query agrees with the oracle end to end.
        let q = "SELECT id, v FROM r WHERE id >= 10 AND id < 20 AND v > 5.4 ORDER BY id";
        assert_eq!(e.query(q).unwrap(), oracle::query(&e, q).unwrap());
    }

    #[test]
    fn unknown_column_errors_despite_index() {
        // names_resolve() must keep the scan's error behavior even when an
        // indexed conjunct would yield zero candidates: a scan evaluates
        // `zzz` on every row before short-circuiting on `id = 99`.
        let e = indexed_db();
        assert!(matches!(
            e.query("SELECT * FROM t WHERE zzz = 1 AND id = 99"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    /// 200 rows over every column type, with NULLs in `fs` and `bw`; the
    /// vectorized path is checked against the oracle on it.
    fn runs_db() -> Engine {
        let e = Engine::new();
        e.execute("CREATE TABLE runs (id INTEGER, fs TEXT, bw FLOAT, ok BOOLEAN, at TIMESTAMP)")
            .unwrap();
        let mut vals = Vec::new();
        for i in 0..200i64 {
            let fs = match i % 4 {
                0 => "'ufs'".to_string(),
                1 => "'nfs'".to_string(),
                2 => "'pvfs'".to_string(),
                _ => "NULL".to_string(),
            };
            let bw = if i % 7 == 0 {
                "NULL".to_string()
            } else {
                format!("{}.25", i * 3)
            };
            let ok = if i % 2 == 0 { "TRUE" } else { "FALSE" };
            vals.push(format!(
                "({i}, {fs}, {bw}, {ok}, '2026-01-01 00:00:{:02}')",
                i % 60
            ));
        }
        e.execute(&format!("INSERT INTO runs VALUES {}", vals.join(", ")))
            .unwrap();
        e
    }

    const VEC_CORPUS: &[&str] = &[
        "SELECT * FROM runs WHERE fs = 'ufs'",
        "SELECT id, bw FROM runs WHERE bw > 100.0 AND bw <= 400.0",
        "SELECT id FROM runs WHERE fs <> 'nfs' AND ok = TRUE",
        "SELECT id FROM runs WHERE fs < 'pvfs'",
        "SELECT id FROM runs WHERE fs LIKE 'u%'",
        "SELECT id FROM runs WHERE fs NOT LIKE '%fs'",
        "SELECT id FROM runs WHERE fs IN ('ufs', 'pvfs', 'zfs')",
        "SELECT id FROM runs WHERE id IN (3, 5, 8, 999)",
        "SELECT id FROM runs WHERE id NOT IN (3, 5, 8)",
        "SELECT id FROM runs WHERE bw IS NULL",
        "SELECT id FROM runs WHERE fs IS NOT NULL AND bw IS NOT NULL",
        "SELECT id FROM runs WHERE bw = NULL",
        "SELECT id FROM runs WHERE id = 'nope'",
        "SELECT id FROM runs WHERE fs > 5",
        "SELECT count(*) FROM runs WHERE fs = 'ufs'",
        "SELECT fs, count(*), sum(bw), avg(bw), min(bw), max(bw) FROM runs GROUP BY fs",
        "SELECT fs, avg(bw) FROM runs WHERE bw > 50.0 GROUP BY fs",
        "SELECT ok, count(*) FROM runs GROUP BY ok",
        "SELECT fs, ok, count(*) FROM runs GROUP BY fs, ok",
        "SELECT min(at), max(at) FROM runs WHERE fs = 'nfs'",
        "SELECT avg(bw) * 2 FROM runs WHERE fs = 'ufs'",
        "SELECT id * 2, bw FROM runs WHERE fs = 'pvfs'",
        "SELECT id FROM runs WHERE fs = 'ufs' OR fs = 'nfs'",
        "SELECT id FROM runs WHERE NOT (fs = 'ufs')",
        "SELECT DISTINCT fs FROM runs WHERE bw IS NOT NULL ORDER BY fs",
        "SELECT fs, avg(bw) FROM runs GROUP BY fs ORDER BY 2 DESC LIMIT 2",
    ];

    #[test]
    fn vectorized_path_matches_row_results() {
        let e = runs_db();
        for q in VEC_CORPUS {
            let a = e.query(q).unwrap();
            let b = oracle::query(&e, q).unwrap();
            assert_eq!(a.column_names(), b.column_names(), "columns differ: {q}");
            assert_eq!(a.rows(), b.rows(), "rows differ: {q}");
        }
    }

    #[test]
    fn vectorized_path_respects_indexes() {
        let e = runs_db();
        e.execute("CREATE INDEX ix_fs ON runs (fs)").unwrap();
        e.execute("CREATE ORDERED INDEX ox_id ON runs (id)")
            .unwrap();
        for q in [
            "SELECT id, bw FROM runs WHERE fs = 'ufs' AND bw > 60.0",
            "SELECT fs, count(*) FROM runs WHERE id >= 20 AND id < 40 GROUP BY fs",
            "SELECT id FROM runs WHERE id IN (1, 2, 3) AND ok = FALSE",
            // Index candidates narrowed by the scalar filter (fallback).
            "SELECT id FROM runs WHERE id < 30 AND (fs = 'ufs' OR bw > 50.0)",
        ] {
            let a = e.query(q).unwrap();
            let b = oracle::query(&e, q).unwrap();
            assert_eq!(a.rows(), b.rows(), "rows differ: {q}");
        }
    }

    #[test]
    fn explain_reports_columnar_layout_and_strategy() {
        let e = runs_db();
        let text = |q: &str| {
            e.query(q)
                .unwrap()
                .rows()
                .iter()
                .map(|r| r[0].to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        // Fast aggregation over a dictionary group key: fully vectorized.
        let t = text("EXPLAIN SELECT fs, avg(bw) FROM runs WHERE bw > 10.0 GROUP BY fs");
        assert!(t.contains(" vectorized=full "), "{t}");
        // OR doesn't vectorize: the scalar filter serves the query.
        let t = text("EXPLAIN SELECT id FROM runs WHERE fs = 'ufs' OR fs = 'nfs'");
        assert!(t.contains(" vectorized=none "), "{t}");
        // Expression projection: selection vectorizes, projection doesn't.
        let t = text("EXPLAIN SELECT id + 1 FROM runs WHERE fs = 'ufs'");
        assert!(t.contains(" vectorized=partial "), "{t}");
        // There is one layout, so no scan line names it.
        assert!(!t.contains("layout="), "{t}");
        // ANALYZE still ends the scan line with the actual row count.
        let t = text("EXPLAIN ANALYZE SELECT id FROM runs WHERE fs = 'ufs'");
        let scan = t
            .lines()
            .find(|l| l.starts_with("Scan"))
            .expect("scan line");
        assert!(scan.contains(" vectorized=full "), "{scan}");
        assert!(scan.ends_with(" actual_rows=200"), "{scan}");
        // A joined query materialises rows: no vectorization note.
        let t = text("EXPLAIN SELECT runs.id FROM runs JOIN runs ON runs.id = runs.id");
        assert!(!t.contains("vectorized="), "{t}");
    }

    #[test]
    fn dictionary_group_order_is_first_seen() {
        let e = runs_db();
        // No ORDER BY: group order must be first-seen row order, through
        // dictionary-code grouping too.
        let q = "SELECT fs, count(*) FROM runs GROUP BY fs";
        assert_eq!(
            e.query(q).unwrap().rows(),
            oracle::query(&e, q).unwrap().rows()
        );
    }

    /// `Table::select` is the statement without the catalog: over a pinned
    /// table it answers what `Engine::query` answers for the same statement
    /// text, whatever the statement names after FROM.
    #[test]
    fn table_select_answers_what_the_statement_answers() {
        use crate::test_common::select;
        let e = runs_db();
        let pinned = e.pin_table("runs").unwrap();
        let aggs = [
            "count", "sum", "avg", "min", "max", "stddev", "variance", "prod", "first", "median",
        ];
        let filters = [
            "",
            " WHERE bw > 100.0",
            " WHERE fs = 'ufs' AND id < 150",
            " WHERE fs IN ('nfs', 'pvfs') OR ok = TRUE",
            " WHERE id >= 500",
        ];
        let mut rng = crate::test_common::Rng::new(0x5e1ec7);
        let mut pick = |of: &[&'static str]| of[rng.below(of.len() as u64) as usize];
        for case in 0..200 {
            let calls: Vec<String> = (0..1 + case % 3)
                .map(|i| format!("{}({}) AS a{i}", pick(&aggs), pick(&["bw", "id", "at"])))
                .collect();
            let keys = pick(&["", "fs", "ok", "fs, ok"]);
            let mut text = match keys {
                "" => format!("SELECT {} FROM runs", calls.join(", ")),
                keys => format!("SELECT {keys}, {} FROM runs", calls.join(", ")),
            };
            text.push_str(pick(&filters));
            if !keys.is_empty() {
                text.push_str(&format!(" GROUP BY {keys}"));
                text.push_str(pick(&["", " ORDER BY 1", " ORDER BY a0 DESC LIMIT 2"]));
            }
            let mut sel = select(&text);
            assert_eq!(pinned.select(&sel), e.query(&text), "{text}");
            sel.from = None;
            assert_eq!(pinned.select(&sel), e.query(&text), "no FROM: {text}");
        }
        let joined = select("SELECT count(*) FROM runs JOIN runs ON runs.id = runs.id");
        assert!(matches!(pinned.select(&joined), Err(DbError::Execution(_))));
    }
}
