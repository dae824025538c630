//! The engine: catalog of tables plus the SQL entry points.
#![warn(missing_docs)]

use crate::compile::compile;
use crate::dump;
use crate::error::DbError;
use crate::exec;
use crate::expr::{self, RowCtx};
use crate::schema::{Column, Schema};
use crate::snapshot::Snapshot;
use crate::sql::{self, SelectStmt, SqlExpr, Stmt};
use crate::sync::{Mutex, RwLock};
use crate::table::{Row, Table};
use crate::txn::Transaction;
use crate::value::Value;
use crate::wal::{RecoveryReport, UnitReader, Wal, WalOptions};
use crate::TableMemory;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Telemetry class of a parsed statement.
pub(crate) fn stmt_class(stmt: &Stmt) -> obs::StmtClass {
    match stmt {
        Stmt::Select(_) => obs::StmtClass::Select,
        Stmt::Explain { .. } => obs::StmtClass::Explain,
        Stmt::Insert { .. } => obs::StmtClass::Insert,
        Stmt::Update { .. } => obs::StmtClass::Update,
        Stmt::Delete { .. } => obs::StmtClass::Delete,
        Stmt::CreateTable { .. } | Stmt::DropTable { .. } | Stmt::CreateIndex { .. } => {
            obs::StmtClass::Ddl
        }
        Stmt::Begin | Stmt::Commit | Stmt::Rollback => obs::StmtClass::Ddl,
    }
}

/// RAII guard classifying one programmatic (non-SQL-text) mutation: scopes
/// WAL attribution to `class` for its lifetime and records one statement
/// with its wall time on drop. The SQL-text entry points (`execute`,
/// `query`) do this inline instead, after parsing tells them the class.
pub(crate) struct ClassifiedStmt {
    class: obs::StmtClass,
    started: Instant,
    _scope: obs::ClassScope,
}

impl Drop for ClassifiedStmt {
    fn drop(&mut self) {
        obs::record_statement(self.class, self.started.elapsed().as_nanos() as u64);
    }
}

pub(crate) fn classified(class: obs::StmtClass) -> ClassifiedStmt {
    ClassifiedStmt {
        class,
        started: Instant::now(),
        _scope: obs::class_scope(class),
    }
}

/// Result of a SELECT: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl ResultSet {
    /// Construct from parts (used by the executor).
    pub(crate) fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet { columns, rows }
    }

    /// Output column names.
    pub fn column_names(&self) -> &[String] {
        &self.columns
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at (row, named column).
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let i = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(i)
    }

    /// One whole column as a vector.
    pub fn column(&self, name: &str) -> Option<Vec<Value>> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[i].clone()).collect())
    }

    /// Render as tab-separated text: one header line of column names, one
    /// line per row, values in SQL display form. This is the wire format
    /// of the HTTP `/query` endpoint and of `perfbase sql`, shared here so
    /// the two surfaces stay byte-identical.
    pub fn render_tsv(&self) -> String {
        let mut out = self.columns.join("\t");
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push('\t');
                }
                first = false;
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }
}

/// An in-process database: a catalog of multi-versioned tables.
///
/// The engine is `Sync`, and reads are snapshot-isolated: each catalog
/// slot holds an `Arc<Table>` *version*. Readers pin a version (one `Arc`
/// clone under the slot's read lock, dropped immediately) and scan
/// lock-free; writers mutate in place while nobody pins the current
/// version and copy-on-write otherwise. A long analytical scan therefore
/// never blocks an import and vice versa — which is what lets many
/// analysts query shared experiment data while imports keep landing
/// (paper's "parallel working", §4.3).
///
/// Cross-table consistency comes from the *commit gate*: writers hold it
/// exclusively while applying a statement and bumping the [`epoch`]
/// counter; [`Engine::snapshot`] holds it shared while pinning every
/// table, so a snapshot reflects every statement up to its epoch and
/// nothing after.
///
/// [`epoch`]: Engine::epoch
#[derive(Debug, Default)]
pub struct Engine {
    tables: RwLock<HashMap<String, Arc<RwLock<Arc<Table>>>>>,
    temps: Mutex<HashSet<String>>,
    /// The writer lock, and inside it the optional write-ahead log. Every
    /// mutation holds it from planning to the epoch tick, whether or not a
    /// log is attached: a change is planned against the very version it is
    /// applied to, and log order is apply order (lock order is always
    /// wal → commit → tables/temps → slot, so this cannot deadlock).
    wal: Mutex<Option<Wal>>,
    /// MVCC commit gate: exclusive while a publish applies its changes and
    /// ticks the epoch, shared while a snapshot pins the catalog.
    commit: RwLock<()>,
    /// Monotonic commit epoch; ticked once per publish.
    epoch: AtomicU64,
    /// The commit epoch that last removed a persistent table from the
    /// catalog. With the stamp on every published [`Table`] version this is
    /// what lets a transaction pin lazily: a name that is absent, with no
    /// removal since the transaction's BEGIN, was absent at BEGIN too. TEMP
    /// tables do not count — a transaction refuses them, so the removal of
    /// one is never what an absent name conflicts with.
    last_removal: AtomicU64,
}

/// Natural string ordering: digit runs compare numerically (after
/// stripping leading zeros), everything else byte-wise, with the raw
/// digit-run length as the deterministic tiebreak (`a7` sorts before
/// `a07`). Used to keep per-table reports in a stable, humanly ordered
/// sequence — plain lexicographic order interleaves `pb_rundata_10`
/// before `pb_rundata_2`.
pub(crate) fn natural_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (mut x, mut y) = (a.as_bytes(), b.as_bytes());
    loop {
        match (x.first(), y.first()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(&cx), Some(&cy)) if cx.is_ascii_digit() && cy.is_ascii_digit() => {
                let xe = x
                    .iter()
                    .position(|c| !c.is_ascii_digit())
                    .unwrap_or(x.len());
                let ye = y
                    .iter()
                    .position(|c| !c.is_ascii_digit())
                    .unwrap_or(y.len());
                let (xd, yd) = (&x[..xe], &y[..ye]);
                let xt = &xd[xd.iter().take_while(|&&c| c == b'0').count()..];
                let yt = &yd[yd.iter().take_while(|&&c| c == b'0').count()..];
                let ord = xt
                    .len()
                    .cmp(&yt.len())
                    .then_with(|| xt.cmp(yt))
                    .then_with(|| xd.len().cmp(&yd.len()));
                if ord != Ordering::Equal {
                    return ord;
                }
                x = &x[xe..];
                y = &y[ye..];
            }
            (Some(&cx), Some(&cy)) => {
                if cx != cy {
                    return cx.cmp(&cy);
                }
                x = &x[1..];
                y = &y[1..];
            }
        }
    }
}

/// Copy-on-write access to a table version. Mutates in place while no
/// snapshot pins the current `Arc<Table>`; otherwise clones the table once
/// — column store, dictionaries and indexes all travel with the clone —
/// and mutates the new version, leaving every pinned reader's view frozen.
/// Either way the version the slot holds afterwards is stamped with
/// `epoch`, the epoch of the commit mutating it.
fn cow(slot: &mut Arc<Table>, epoch: u64) -> &mut Table {
    if Arc::strong_count(slot) > 1 {
        obs::incr(obs::Counter::MvccCowClones);
    }
    let table = Arc::make_mut(slot);
    table.published = epoch;
    table
}

impl Engine {
    /// Empty database.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Create a table programmatically.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), DbError> {
        self.create_table_opts(name, schema, false, false)
    }

    /// Create a table with TEMP / IF NOT EXISTS options.
    pub fn create_table_opts(
        &self,
        name: &str,
        schema: Schema,
        temp: bool,
        if_not_exists: bool,
    ) -> Result<(), DbError> {
        let _stmt = classified(obs::StmtClass::Ddl);
        let ask = Ask::CreateTable {
            schema,
            temp,
            if_not_exists,
        };
        self.write(name, ask, Text::Render).map(drop)
    }

    /// Drop a table. Dropping a TEMP or nonexistent table is never logged:
    /// neither has any durable effect.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<(), DbError> {
        let _stmt = classified(obs::StmtClass::Ddl);
        self.write(name, Ask::DropTable { if_exists }, Text::Render)
            .map(drop)
    }

    /// An autocommit write: one change, planned against the live version of
    /// the table it names and published, under one hold of the writer lock.
    fn write(&self, name: &str, ask: Ask, text: Text<'_>) -> Result<usize, DbError> {
        let mut wal = self.wal.lock();
        let text = if wal.is_some() { text } else { Text::Unwanted };
        // Whether the table is TEMP decides what is logged, nothing else.
        let view_is_temp = !matches!(text, Text::Unwanted) && self.is_temp(name);
        let slot = self.tables.read().get(name).cloned();
        let (change, text) = {
            let view = slot.as_ref().map(|slot| slot.read());
            let view = view.as_deref().map(|version| &**version);
            plan(name, ask, view, view_is_temp, text)?
        };
        let rows = change.rows();
        let log = text.into_iter().collect();
        self.publish(&mut wal, None, &mut [(name, change)], log)?;
        Ok(rows)
    }

    /// The one way anything in the catalog changes. `wal` is the writer
    /// lock, held by the caller since before `work` was planned (a
    /// transaction plans earlier, against versions it pinned: `pins`, and
    /// first-writer-wins decides here whether they are still current). In
    /// this order: the conflict check; `log` — the text of the changes the
    /// log carries, empty on replay — appended as one unit
    /// ([`Wal::append_batch`]); the commit gate; every change taken out of
    /// `work` and applied — a version swapped in or removed, rows changed in
    /// place through [`cow`]; one epoch tick. An error leaves the log, the
    /// catalog and the epoch untouched, and nothing after the log append can
    /// fail: every change was validated by [`plan`] against the version it
    /// lands on.
    fn publish(
        &self,
        wal: &mut Option<Wal>,
        mut pins: Option<HashMap<String, Arc<Table>>>,
        work: &mut [(&str, Change)],
        log: Vec<String>,
    ) -> Result<(), DbError> {
        if let Some(pins) = &pins {
            let tables = self.tables.read();
            for (name, _) in work.iter() {
                // First-writer-wins: the live slot must still hold the exact
                // version this transaction built on; a table it created,
                // nobody else may have created.
                let clean = match (tables.get(*name), pins.get(*name)) {
                    (Some(slot), Some(pinned)) => Arc::ptr_eq(&slot.read(), pinned),
                    (None, None) => true,
                    _ => false,
                };
                if !clean {
                    obs::incr(obs::Counter::TxnConflicts);
                    return Err(DbError::TxnConflict(format!(
                        "table {name} was modified concurrently"
                    )));
                }
            }
        }
        if let Some(w) = wal.as_mut() {
            w.append_batch(&log)?;
        }
        let _gate = self.commit.write();
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        for (name, change) in work {
            match std::mem::replace(change, Change::Nothing { logged: false }) {
                Change::Nothing { .. } => {}
                Change::Version { mut table, temp } => {
                    // The version is the publisher's alone: the stamp copies
                    // nothing.
                    Arc::make_mut(&mut table).published = epoch;
                    let mut tables = self.tables.write();
                    if temp {
                        self.temps.lock().insert(name.to_string());
                    }
                    match tables.get(*name) {
                        Some(slot) => *slot.write() = table,
                        None => {
                            tables.insert(name.to_string(), Arc::new(RwLock::new(table)));
                        }
                    }
                }
                Change::Drop => {
                    let removed = self.tables.write().remove(*name).is_some();
                    if removed && !self.temps.lock().remove(*name) {
                        self.last_removal.store(epoch, Ordering::Release);
                    }
                }
                rows_or_index => {
                    // A transaction's own pin goes first, so that the change
                    // is in place unless a reader pins the table.
                    pins.as_mut().and_then(|pins| pins.remove(*name));
                    let slot = self.table(name).expect("planned against this table");
                    rows_or_index.apply_to(cow(&mut slot.write(), epoch));
                }
            }
        }
        self.epoch.store(epoch, Ordering::Release);
        obs::set(obs::Counter::MvccEpoch, epoch);
        Ok(())
    }

    /// Does `name` exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Shared handle to a table's catalog slot. The slot holds the table's
    /// current *version*; prefer [`Engine::pin_table`] for reads (it
    /// releases the slot lock immediately) and go through the engine's
    /// statement entry points for writes.
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Arc<Table>>>, DbError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Pin the current version of one table: a single `Arc` clone under
    /// the slot's read lock, which is dropped before returning. The caller
    /// scans the pinned version lock-free; concurrent writers proceed via
    /// copy-on-write and are never blocked by the pin.
    pub fn pin_table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        Ok(self.table(name)?.read().clone())
    }

    /// The current commit epoch. Bumped once per applied mutation; two
    /// reads returning the same epoch observed the same data.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pin a transaction-consistent [`Snapshot`] of the whole catalog:
    /// every table's current version plus the commit epoch, taken while
    /// holding the commit gate shared — so the snapshot can never observe
    /// statement N+1's effect without statement N's. Acquisition waits at
    /// most for the one in-flight statement; scans against the snapshot
    /// hold no engine lock at all.
    pub fn snapshot(&self) -> Snapshot {
        let _gate = self.commit.read();
        let tables = self.tables.read();
        let pinned: HashMap<String, Arc<Table>> = tables
            .iter()
            .map(|(name, slot)| (name.clone(), slot.read().clone()))
            .collect();
        obs::incr(obs::Counter::MvccSnapshotsPinned);
        Snapshot::new(self.epoch.load(Ordering::Acquire), pinned)
    }

    /// Open an explicit multi-statement write transaction. Statements
    /// executed through the returned [`Transaction`] buffer their effects
    /// against the catalog as of this call (read-your-own-writes via
    /// [`Transaction::query`]); nothing is visible to other readers, the
    /// WAL, or replicas until [`Transaction::commit`] — which publishes
    /// every touched table under one commit-gate hold with a single epoch
    /// tick. BEGIN pins nothing: its cost does not depend on how many tables
    /// the catalog holds. Dropping the transaction without committing rolls
    /// it back.
    pub fn begin_txn(self: &Arc<Self>) -> Transaction {
        Transaction::begin(Arc::clone(self))
    }

    /// The epoch a transaction beginning now reads at, taken under the
    /// shared commit gate: every commit up to it is complete, none after it
    /// has started.
    pub(crate) fn begin_epoch(&self) -> u64 {
        let _gate = self.commit.read();
        self.epoch.load(Ordering::Acquire)
    }

    /// Pin `name` for a transaction that began at `epoch`: the live version,
    /// *iff it is the version that was current then* (`None`: no such table,
    /// then or now). A version published since — the table was changed,
    /// created, or dropped and recreated — and an absent name after any
    /// removal since (the catalog keeps one removal epoch, not one per name)
    /// answer [`DbError::TxnConflict`]: the verdict first-writer-wins would
    /// give a writer at COMMIT, only earlier, and the reason a transaction
    /// that pins lazily still never reads two commit epochs.
    pub(crate) fn pin_as_of(&self, name: &str, epoch: u64) -> Result<Option<Arc<Table>>, DbError> {
        let tables = self.tables.read();
        let current = match tables.get(name) {
            Some(slot) => {
                let version = slot.read();
                (version.published <= epoch).then(|| Some(Arc::clone(&version)))
            }
            None => (self.last_removal.load(Ordering::Acquire) <= epoch).then_some(None),
        };
        current.ok_or_else(|| {
            obs::incr(obs::Counter::TxnConflicts);
            DbError::TxnConflict(format!(
                "table {name} was modified after this transaction began"
            ))
        })
    }

    /// The commit half of the transaction protocol (the public surface is
    /// [`Transaction::commit`]): the publish of the transaction's workspace
    /// `work`, planned against the versions in `pins`, with the buffered
    /// statement texts `log`. A conflict abort leaves the epoch — and the
    /// catalog — untouched.
    pub(crate) fn commit_txn(
        &self,
        pins: HashMap<String, Arc<Table>>,
        work: HashMap<String, Change>,
        log: Vec<String>,
    ) -> Result<(), DbError> {
        if !work.is_empty() || !log.is_empty() {
            let (names, changes): (Vec<String>, Vec<Change>) = work.into_iter().unzip();
            let mut work: Vec<_> = names.iter().map(String::as_str).zip(changes).collect();
            let mut wal = self.wal.lock();
            self.publish(&mut wal, Some(pins), &mut work, log)?;
        }
        obs::incr(obs::Counter::TxnCommits);
        Ok(())
    }

    /// Insert rows programmatically. The whole batch is validated against
    /// the table's schema before anything is logged or applied: a bad row
    /// anywhere means zero effects and no frame.
    pub fn insert_rows(&self, name: &str, rows: Vec<Row>) -> Result<usize, DbError> {
        let _stmt = classified(obs::StmtClass::Insert);
        self.write(name, Ask::InsertRows(rows), Text::Render)
    }

    /// Is `name` a TEMP table?
    pub(crate) fn is_temp(&self, name: &str) -> bool {
        self.temps.lock().contains(name)
    }

    /// Snapshot a table's schema and rows (materialised from the pinned
    /// current version; no lock is held during the copy).
    pub fn read_snapshot(&self, name: &str) -> Result<(Schema, Vec<Row>), DbError> {
        let t = self.pin_table(name)?;
        Ok((t.schema.clone(), t.to_rows()))
    }

    /// Row count of a table.
    pub fn row_count(&self, name: &str) -> Result<usize, DbError> {
        Ok(self.table(name)?.read().len())
    }

    /// All table names (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of TEMP tables (sorted).
    pub fn temp_table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.temps.lock().iter().cloned().collect();
        v.sort();
        v
    }

    /// Per-table memory accounting in *natural* table-name order: embedded
    /// digit runs compare numerically, so `pb_rundata_2` lists before
    /// `pb_rundata_10` no matter how many runs exist. The ordering is
    /// fully deterministic — `perfbase stats --db` output is stable for
    /// goldens and docs capture.
    pub fn memory_report(&self) -> Vec<(String, TableMemory)> {
        let handles: Vec<(String, Arc<RwLock<Arc<Table>>>)> = {
            let tables = self.tables.read();
            let mut v: Vec<_> = tables
                .iter()
                .map(|(n, t)| (n.clone(), Arc::clone(t)))
                .collect();
            v.sort_by(|a, b| natural_cmp(&a.0, &b.0));
            v
        };
        handles
            .into_iter()
            .map(|(name, h)| {
                let m = h.read().memory_footprint();
                (name, m)
            })
            .collect()
    }

    /// Recompute the `mem.*` gauges from the current catalog: total table
    /// bytes and dictionary size. Returns the report used.
    pub fn refresh_memory_gauges(&self) -> Vec<(String, TableMemory)> {
        let report = self.memory_report();
        let sum = |f: fn(&TableMemory) -> usize| report.iter().map(|(_, m)| f(m) as u64).sum();
        obs::set(obs::Counter::MemColumnarBytes, sum(|m| m.bytes));
        obs::set(obs::Counter::MemDictBytes, sum(|m| m.dict_bytes));
        obs::set(obs::Counter::MemDictEntries, sum(|m| m.dict_entries));
        report
    }

    /// Execute a non-SELECT statement; returns the number of affected rows
    /// (0 for DDL). With a WAL attached, an accepted statement on a non-TEMP
    /// table is logged (raw SQL text) before it is applied; a rejected one
    /// leaves no frame, no effect and no epoch tick.
    pub fn execute(&self, sql_text: &str) -> Result<usize, DbError> {
        let parse_started = Instant::now();
        let stmt = sql::parse_statement(sql_text)?;
        obs::incr(obs::Counter::StmtParsed);
        obs::record_duration(obs::Hist::ParseNs, parse_started.elapsed());
        let class = stmt_class(&stmt);
        let _class_scope = obs::class_scope(class);
        let mut span = obs::span("statement");
        span.annotate(|| format!("class={}", class.name()));
        let exec_started = Instant::now();
        let result = self.run_parsed(stmt, Text::Source(sql_text));
        obs::record_statement(class, exec_started.elapsed().as_nanos() as u64);
        obs::record_duration(obs::Hist::ExecNs, exec_started.elapsed());
        obs::incr(obs::Counter::StmtExecuted);
        result
    }

    /// Execute an already-parsed non-SELECT statement whose source is `text`
    /// — [`Text::Unwanted`] for a dump script or a recovered frame, which
    /// must not be logged again.
    pub(crate) fn run_parsed(&self, stmt: Stmt, text: Text<'_>) -> Result<usize, DbError> {
        let (name, ask) = Ask::of(stmt)?;
        self.write(&name, ask, text)
    }

    /// Create a secondary hash index over `table.column`. A second index on
    /// an already-indexed column is a no-op.
    pub fn create_index(&self, name: &str, table: &str, column: &str) -> Result<(), DbError> {
        self.create_index_opts(name, table, column, false)
    }

    /// Create a secondary index over `table.column`; `ordered` selects the
    /// sorted variant that additionally serves `IN` and range probes. An
    /// ordered request over an existing hash index upgrades it in place. A
    /// request the column's index already covers is skipped by the log, so
    /// re-ensuring indexes on every open (as the experiment layer does)
    /// never dirties a compacted log.
    pub fn create_index_opts(
        &self,
        name: &str,
        table: &str,
        column: &str,
        ordered: bool,
    ) -> Result<(), DbError> {
        let _stmt = classified(obs::StmtClass::Ddl);
        let ask = Ask::CreateIndex {
            name: name.to_string(),
            column: column.to_string(),
            ordered,
            if_not_exists: false,
        };
        self.write(table, ask, Text::Render).map(drop)
    }

    /// Run a SELECT (or `EXPLAIN [ANALYZE] SELECT`) and return its rows:
    /// every table it names is pinned at its current version, then the
    /// statement runs with no engine lock held.
    pub fn query(&self, sql_text: &str) -> Result<ResultSet, DbError> {
        let (sel, explain) = parse_query(sql_text)?;
        exec::read(&mut &*self, &sel, explain)
    }

    /// The selection step of `SELECT … FROM name [WHERE filter]` without the
    /// statement around it: pin the current version of `name` and return it
    /// with the positions (ascending) of its rows that satisfy `filter`. It is
    /// the same step — access planner, vectorised filter, errors and `scan.*` /
    /// `plan.*` counters; nothing is parsed and no row is built, so the caller
    /// reads the cells it wants straight off the pinned table
    /// ([`Table::append_selected`]). Like the other programmatic reads it is no
    /// statement of its own: a caller that scans in place of statements
    /// accounts for them ([`obs::record_statements`]).
    pub fn scan(
        &self,
        name: &str,
        filter: Option<&SqlExpr>,
    ) -> Result<(Arc<Table>, Vec<usize>), DbError> {
        let table = self.pin_table(name)?;
        let positions = exec::select_positions(&table, filter)?;
        Ok((table, positions))
    }

    /// Run a SELECT (or `EXPLAIN [ANALYZE] SELECT`) against a pinned
    /// [`Snapshot`] instead of the live catalog: every table resolves to
    /// the version the snapshot pinned, so repeated queries against the
    /// same snapshot return identical results no matter how many writers
    /// commit in between — and hold no engine lock while they run.
    pub fn query_at(&self, snapshot: &Snapshot, sql_text: &str) -> Result<ResultSet, DbError> {
        let (sel, explain) = parse_query(sql_text)?;
        exec::read(&mut &*snapshot, &sel, explain)
    }

    /// [`Engine::query_reference`] at a pinned [`Snapshot`]: the oracle for
    /// the snapshot-isolation equivalence tests (optimized and reference
    /// execution of the same statement at the same epoch must agree).
    pub fn query_reference_at(
        &self,
        snapshot: &Snapshot,
        sql_text: &str,
    ) -> Result<ResultSet, DbError> {
        query_reference(&mut &*snapshot, sql_text)
    }

    /// Run a SELECT through the unoptimized reference executor: full table
    /// snapshots, interpreted expression evaluation and nested-loop joins.
    /// Exists as the oracle for the equivalence tests and as the baseline
    /// for the `microbench` binary — not for production use.
    pub fn query_reference(&self, sql_text: &str) -> Result<ResultSet, DbError> {
        query_reference(&mut &*self, sql_text)
    }

    // ---- durability (write-ahead log) ------------------------------------

    /// Attach a write-ahead log; returns any previously attached log.
    /// Every subsequent mutating statement on a non-TEMP table is appended
    /// to the log before it is applied.
    pub fn attach_wal(&self, wal: Wal) -> Option<Wal> {
        self.wal.lock().replace(wal)
    }

    /// Detach and return the write-ahead log, if any (pending frames are
    /// synced first on a best-effort basis).
    pub fn detach_wal(&self) -> Option<Wal> {
        let mut wal = self.wal.lock().take();
        if let Some(w) = wal.as_mut() {
            let _ = w.sync();
        }
        wal
    }

    /// Is a write-ahead log attached?
    pub fn has_wal(&self) -> bool {
        self.wal.lock().is_some()
    }

    /// Force every logged frame to stable storage (closes the group-commit
    /// window). No-op without a WAL.
    pub fn wal_sync(&self) -> Result<(), DbError> {
        match self.wal.lock().as_mut() {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Frames currently in the attached log segment (0 without a WAL).
    pub fn wal_frames(&self) -> u64 {
        self.wal.lock().as_ref().map_or(0, |w| w.frames())
    }

    /// Install (or clear) a [`crate::wal::FrameTap`] on the attached log — the hook
    /// replication uses to ship committed frames. Returns `false` (and
    /// does nothing) when no WAL is attached.
    pub fn wal_set_tap(&self, tap: Option<Arc<dyn crate::wal::FrameTap>>) -> bool {
        match self.wal.lock().as_mut() {
            Some(w) => {
                w.set_tap(tap);
                true
            }
            None => false,
        }
    }

    /// The attached log's fault-injection hook, if a WAL is attached.
    pub fn wal_failpoint(&self) -> Option<Arc<crate::wal::IoFailpoint>> {
        self.wal.lock().as_ref().map(|w| w.failpoint().clone())
    }

    /// Checkpoint: atomically write the SQL dump to `dump_path`, then
    /// compact the log (every logged frame is now reflected in the dump).
    /// The log mutex is held throughout, so no statement can slip between
    /// the dump and the compaction. Returns the number of frames dropped.
    ///
    /// The dump is stamped with the log's next sequence number, which is
    /// what makes the rename→compact window crash-safe: if the process
    /// dies after the new dump is in place but before the log is
    /// compacted, both files hold every frame — recovery reads the stamp
    /// and skips the frames the dump already reflects instead of
    /// double-applying them.
    pub fn checkpoint(&self, dump_path: &Path) -> Result<u64, DbError> {
        let mut wal = self.wal.lock();
        match wal.as_mut() {
            Some(w) => {
                // Every frame the stamp covers must be durable before the
                // dump claiming to supersede them is published.
                w.sync()?;
                let ckpt_seq = w.next_seq();
                self.save_to_file_with_seq(dump_path, Some(ckpt_seq))
                    .map_err(|e| DbError::Io(format!("checkpoint {}: {e}", dump_path.display())))?;
                w.compact()
            }
            None => {
                self.save_to_file(dump_path)
                    .map_err(|e| DbError::Io(format!("checkpoint {}: {e}", dump_path.display())))?;
                Ok(0)
            }
        }
    }

    /// Replay recovered WAL statements without re-logging them; returns
    /// how many failed (a log written before rejected statements stopped
    /// being logged holds frames that fail on every replay, as they failed
    /// in the original run).
    pub(crate) fn replay_unlogged(&self, statements: &[String]) -> u64 {
        let replay = |text: &String| self.run_parsed(sql::parse_statement(text)?, Text::Unwanted);
        statements.iter().filter(|s| replay(s).is_err()).count() as u64
    }

    /// Replay the frames [`Wal::open_recover_from`] kept, unit by unit
    /// and unlogged, behind the `report.frames_skipped` of them that the
    /// checkpoint dump already reflects (a checkpoint holds the WAL mutex
    /// across dump + compact, and a unit's frames are appended under one
    /// hold, so the boundary never lands inside a group). Updates `report`
    /// with the replay/error/discard split.
    pub(crate) fn recover_replay(&self, frames: Vec<String>, report: &mut RecoveryReport) {
        let mut reader = UnitReader::default();
        let frames = frames.into_iter().skip(report.frames_skipped as usize);
        report.frames_replayed = 0;
        for unit in frames.filter_map(|frame| reader.push(frame)) {
            report.frames_replayed += unit.len() as u64;
            report.replay_errors += self.replay_unlogged(&unit);
        }
        report.txn_frames_discarded += reader.abandon();
    }

    /// Open a database durably: load the last checkpoint dump from
    /// `dump_path` (if present), replay every valid WAL frame from
    /// `wal_path` (creating the log when missing — at the dump's checkpoint
    /// sequence, so that the first write after a dump restored without its
    /// log is recovered like any other — truncating any torn tail, refusing
    /// a log that ends below that sequence), and attach the log for further
    /// writes. Frames the dump's
    /// recorded checkpoint sequence already covers are skipped, not
    /// replayed — see [`Engine::checkpoint`]. Statements that fail on
    /// replay (an older build logged a statement before it knew whether it
    /// would apply) are counted, not fatal — they failed identically in the
    /// original run, so the recovered state still matches.
    pub fn open_durable(
        dump_path: &Path,
        wal_path: &Path,
        opts: WalOptions,
    ) -> Result<(Engine, RecoveryReport), DbError> {
        let (engine, ckpt_seq) = if dump_path.exists() {
            let script = std::fs::read_to_string(dump_path).map_err(|e| {
                DbError::Execution(format!("cannot read {}: {e}", dump_path.display()))
            })?;
            let seq = dump::read_checkpoint_seq(&script).unwrap_or(0);
            (Engine::from_sql_dump(&script)?, seq)
        } else {
            (Engine::new(), 0)
        };
        let (wal, statements, mut report) =
            Wal::open_recover_from(wal_path, opts, ckpt_seq.max(1))?;
        engine.recover_replay(statements, &mut report);
        engine.attach_wal(wal);
        Ok((engine, report))
    }
}

/// The door every SQL-text read comes through: parse the text of one query
/// (with the parse telemetry of the statement entry points) into the SELECT
/// and how [`exec::read`] is to treat it — run it (`None`), `EXPLAIN` it
/// (`Some(false)`) or `EXPLAIN ANALYZE` it (`Some(true)`).
pub(crate) fn parse_query(sql_text: &str) -> Result<(SelectStmt, Option<bool>), DbError> {
    let parse_started = Instant::now();
    let stmt = sql::parse_statement(sql_text)?;
    obs::incr(obs::Counter::StmtParsed);
    obs::record_duration(obs::Hist::ParseNs, parse_started.elapsed());
    match stmt {
        Stmt::Select(sel) => Ok((sel, None)),
        Stmt::Explain { analyze, select } => Ok((select, Some(analyze))),
        _ => Err(DbError::Execution(
            "query() only accepts SELECT statements".into(),
        )),
    }
}

/// The live catalog as a view: each table pinned at its current version.
impl exec::View for &Engine {
    fn pin(&mut self, name: &str) -> Result<Arc<Table>, DbError> {
        self.pin_table(name)
    }
}

/// `sql_text`, a plain SELECT, through the reference executor.
fn query_reference(view: &mut dyn exec::View, sql_text: &str) -> Result<ResultSet, DbError> {
    match sql::parse_statement(sql_text)? {
        Stmt::Select(sel) => exec::run_select_reference(view, &sel),
        _ => Err(DbError::Execution(
            "query() only accepts SELECT statements".into(),
        )),
    }
}

/// What a write asks of the table it names: the body of a parsed statement,
/// or the arguments of a programmatic call.
pub(crate) enum Ask {
    /// `CREATE [TEMP] TABLE [IF NOT EXISTS]`.
    CreateTable {
        schema: Schema,
        temp: bool,
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS]`.
    DropTable { if_exists: bool },
    /// `INSERT … [(columns)] VALUES rows`.
    Insert {
        columns: Option<Vec<String>>,
        rows: Vec<Vec<SqlExpr>>,
    },
    /// [`Engine::insert_rows`]: full rows, not yet coerced.
    InsertRows(Vec<Row>),
    /// `UPDATE … SET sets [WHERE …]`.
    Update {
        sets: Vec<(String, SqlExpr)>,
        where_clause: Option<SqlExpr>,
    },
    /// `DELETE … [WHERE …]`.
    Delete { where_clause: Option<SqlExpr> },
    /// `CREATE [ORDERED] INDEX [IF NOT EXISTS] name ON … (column)`.
    CreateIndex {
        name: String,
        column: String,
        ordered: bool,
        if_not_exists: bool,
    },
}

impl Ask {
    /// The table a parsed statement writes, and what it asks of it.
    pub(crate) fn of(stmt: Stmt) -> Result<(String, Ask), DbError> {
        Ok(match stmt {
            Stmt::CreateTable {
                name,
                temp,
                if_not_exists,
                columns,
            } => {
                let columns = columns.into_iter().map(|c| Column {
                    name: c.name,
                    dtype: c.dtype,
                    nullable: c.nullable,
                });
                let schema = Schema::new(columns.collect())?;
                let ask = Ask::CreateTable {
                    schema,
                    temp,
                    if_not_exists,
                };
                (name, ask)
            }
            Stmt::DropTable { name, if_exists } => (name, Ask::DropTable { if_exists }),
            Stmt::Insert {
                table,
                columns,
                rows,
            } => (table, Ask::Insert { columns, rows }),
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => (table, Ask::Update { sets, where_clause }),
            Stmt::Delete {
                table,
                where_clause,
            } => (table, Ask::Delete { where_clause }),
            Stmt::CreateIndex {
                name,
                table,
                column,
                if_not_exists,
                ordered,
            } => {
                let ask = Ask::CreateIndex {
                    name,
                    column,
                    ordered,
                    if_not_exists,
                };
                (table, ask)
            }
            Stmt::Select(_) | Stmt::Explain { .. } => {
                return Err(DbError::Execution(
                    "use query() for SELECT statements".into(),
                ))
            }
            Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
                return Err(DbError::Execution(
                    "BEGIN, COMMIT and ROLLBACK are not statements to execute: use \
                     Engine::begin_txn and Transaction::commit (or a BEGIN/COMMIT-aware front end)"
                        .into(),
                ))
            }
        })
    }
}

/// Where the log text of a write comes from.
#[derive(Clone, Copy)]
pub(crate) enum Text<'a> {
    /// The statement as its author wrote it.
    Source(&'a str),
    /// Rendered from the arguments of a programmatic call.
    Render,
    /// Nobody will read it: no log is attached, or the write is a replayed
    /// frame or a line of a dump.
    Unwanted,
}

/// What an accepted write changes, validated against the version in view:
/// applying it cannot fail.
pub(crate) enum Change {
    /// Make this version current: a created or installed table, a
    /// transaction's private copy.
    Version { table: Arc<Table>, temp: bool },
    /// Remove the table.
    Drop,
    /// Append these rows ([`Table::validate_rows`] returned them).
    Append(Vec<Row>),
    /// Overwrite cells.
    Update(UpdatePlan),
    /// Remove the rows at these positions.
    Delete(Vec<usize>),
    /// Build an index over the column at this position, or upgrade the one
    /// it has.
    Index {
        name: String,
        column: usize,
        ordered: bool,
    },
    /// Nothing. The log has always carried some of these statements and
    /// never others, and its text is a file format. `logged`: `CREATE TABLE
    /// IF NOT EXISTS` over a table, an UPDATE or DELETE that selects no row,
    /// `CREATE INDEX IF NOT EXISTS` under a taken name — each still ran
    /// against one version of its table, which a transaction must find
    /// unchanged at COMMIT. Not `logged`: `DROP TABLE IF EXISTS` of no
    /// table, an INSERT of no rows, an index over a column that has one.
    Nothing { logged: bool },
}

impl Change {
    /// The statement's count of affected rows.
    pub(crate) fn rows(&self) -> usize {
        match self {
            Change::Append(rows) => rows.len(),
            Change::Update(plan) => plan.positions.len(),
            Change::Delete(positions) => positions.len(),
            _ => 0,
        }
    }

    /// Apply a change to rows or indexes to `table` — the version it was
    /// planned against, or a copy of it.
    pub(crate) fn apply_to(self, table: &mut Table) {
        match self {
            Change::Append(rows) => {
                table.append_validated(rows);
            }
            Change::Update(plan) => {
                table.write_positions(&plan.positions, &plan.cols, plan.values);
            }
            Change::Delete(positions) => {
                table.delete_positions(&positions);
            }
            Change::Index {
                name,
                column,
                ordered,
            } => table.apply_index(&name, column, ordered),
            Change::Version { .. } | Change::Drop | Change::Nothing { .. } => {
                unreachable!("a change to the catalog, not to a table")
            }
        }
    }
}

/// Plan one write — the only place statement semantics live. `view` is the
/// version of table `name` the write sees (`None`: no such table) and
/// `view_is_temp` whether that is a TEMP table. Answers the [`Change`] and the text the log
/// carries for it, or the error: everything that can reject the write does
/// so here, before anything is logged or changed. The text is `None` for a
/// TEMP table, for the no-ops the log skips and when none is wanted.
pub(crate) fn plan(
    name: &str,
    ask: Ask,
    view: Option<&Table>,
    view_is_temp: bool,
    text: Text<'_>,
) -> Result<(Change, Option<String>), DbError> {
    let creates_temp = matches!(ask, Ask::CreateTable { temp: true, .. });
    let temp = view_is_temp || creates_temp;
    let render = matches!(text, Text::Render) && !temp;
    let mut rendered = None;
    let table = || view.ok_or_else(|| DbError::NoSuchTable(name.to_string()));
    let change = match ask {
        Ask::CreateTable {
            schema,
            temp,
            if_not_exists,
        } => {
            if render {
                let out = rendered.insert(String::new());
                dump::write_create_table(out, name, &schema, if_not_exists);
            }
            match view {
                None => Change::Version {
                    table: Arc::new(Table::new(schema)),
                    temp,
                },
                Some(_) if if_not_exists => Change::Nothing { logged: true },
                Some(_) => return Err(DbError::TableExists(name.to_string())),
            }
        }
        Ask::DropTable { if_exists } => match view {
            Some(_) => {
                if render {
                    let if_exists = if if_exists { "IF EXISTS " } else { "" };
                    rendered = Some(format!("DROP TABLE {if_exists}{name}"));
                }
                Change::Drop
            }
            None if if_exists => Change::Nothing { logged: false },
            None => return Err(DbError::NoSuchTable(name.to_string())),
        },
        Ask::Insert { columns, rows } => {
            let rows = insert_rows_of(&table()?.schema, columns, rows)?;
            return plan(name, Ask::InsertRows(rows), view, view_is_temp, text);
        }
        Ask::InsertRows(rows) => {
            let rows = table()?.validate_rows(rows)?;
            if rows.is_empty() {
                Change::Nothing { logged: false }
            } else {
                if render {
                    dump::write_insert(rendered.insert(String::new()), name, &rows);
                }
                Change::Append(rows)
            }
        }
        Ask::Update { sets, where_clause } => {
            let plan = plan_update(table()?, sets, where_clause)?;
            if plan.positions.is_empty() {
                Change::Nothing { logged: true }
            } else {
                Change::Update(plan)
            }
        }
        Ask::Delete { where_clause } => {
            let positions = exec::select_positions(table()?, where_clause.as_ref())?;
            if positions.is_empty() {
                Change::Nothing { logged: true }
            } else {
                Change::Delete(positions)
            }
        }
        Ask::CreateIndex {
            name: index,
            column,
            ordered,
            if_not_exists,
        } => match table()?.plan_index(&index, &column, ordered) {
            Ok(None) => Change::Nothing { logged: false },
            Ok(Some(at)) => {
                if render {
                    // With IF NOT EXISTS, so that a replay over a checkpoint
                    // that already holds the index stays a no-op.
                    let kind = if ordered { "ORDERED " } else { "" };
                    rendered = Some(format!(
                        "CREATE {kind}INDEX IF NOT EXISTS {index} ON {name} ({column})"
                    ));
                }
                Change::Index {
                    name: index,
                    column: at,
                    ordered,
                }
            }
            Err(DbError::Execution(_)) if if_not_exists => Change::Nothing { logged: true },
            Err(e) => return Err(e),
        },
    };
    // The one decision of what the log carries.
    let logged = !temp && !matches!(change, Change::Nothing { logged: false });
    let text = match text {
        Text::Source(sql) if logged => Some(sql.to_string()),
        Text::Render if logged => rendered,
        _ => None,
    };
    Ok((change, text))
}

/// The full rows (one value per column of `schema`, not yet coerced) an
/// `INSERT … [(columns)] VALUES rows` statement stores. Every row is
/// materialized before any is applied: a multi-row INSERT is atomic.
pub(crate) fn insert_rows_of(
    schema: &Schema,
    columns: Option<Vec<String>>,
    rows: Vec<Vec<sql::SqlExpr>>,
) -> Result<Vec<Row>, DbError> {
    let empty_schema = Schema::default();
    let empty_row: Vec<Value> = Vec::new();
    let const_ctx = RowCtx {
        schema: &empty_schema,
        row: &empty_row,
    };

    let mut full_rows = Vec::with_capacity(rows.len());
    for row_exprs in rows {
        let values: Result<Vec<Value>, DbError> = row_exprs
            .into_iter()
            .map(|e| match e {
                sql::SqlExpr::Lit(v) => Ok(v),
                e => expr::eval(&e, &const_ctx),
            })
            .collect();
        let values = values?;
        let full_row = match &columns {
            None => values,
            Some(cols) => {
                if cols.len() != values.len() {
                    return Err(DbError::Type(format!(
                        "INSERT column list has {} names but {} values",
                        cols.len(),
                        values.len()
                    )));
                }
                let mut full = vec![Value::Null; schema.arity()];
                for (c, v) in cols.iter().zip(values) {
                    let i = schema
                        .index_of(c)
                        .ok_or_else(|| DbError::NoSuchColumn(c.clone()))?;
                    full[i] = v;
                }
                full
            }
        };
        full_rows.push(full_row);
    }
    Ok(full_rows)
}

/// What an `UPDATE … SET … [WHERE …]` changes in the table version it was
/// planned against: the arguments of [`Table::write_positions`].
pub(crate) struct UpdatePlan {
    /// Positions of the selected rows.
    positions: Vec<usize>,
    /// The target columns.
    cols: Vec<usize>,
    /// Per selected row, one new value per target column, coerced and
    /// checked against NOT NULL.
    values: Vec<Row>,
}

/// Plan an UPDATE: the rows come from the same selection step as a SELECT's,
/// every SET value is evaluated against the pre-update row and validated
/// against its column.
fn plan_update(
    table: &Table,
    sets: Vec<(String, sql::SqlExpr)>,
    where_clause: Option<sql::SqlExpr>,
) -> Result<UpdatePlan, DbError> {
    let mut cols = Vec::with_capacity(sets.len());
    let mut exprs = Vec::with_capacity(sets.len());
    for (name, e) in &sets {
        let i = table
            .schema
            .index_of(name)
            .ok_or_else(|| DbError::NoSuchColumn(name.clone()))?;
        cols.push(i);
        exprs.push(compile(e, &table.schema));
    }
    let positions = exec::select_positions(table, where_clause.as_ref())?;
    let mut values = Vec::with_capacity(positions.len());
    for &p in &positions {
        let row = table.row(p);
        let new: Result<Row, DbError> = exprs.iter().map(|e| e.eval(&row)).collect();
        values.push(new?);
    }
    Ok(UpdatePlan {
        positions,
        values: table.validate_update(&cols, values)?,
        cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn programmatic_api_roundtrip() {
        let db = Engine::new();
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Float),
        ])
        .unwrap();
        db.create_table("t", schema).unwrap();
        db.insert_rows("t", vec![vec![Value::Int(1), Value::Float(2.0)]])
            .unwrap();
        let (schema, rows) = db.read_snapshot("t").unwrap();
        assert_eq!(schema.arity(), 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(db.row_count("t").unwrap(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(matches!(
            db.execute("CREATE TABLE t (a INTEGER)"),
            Err(DbError::TableExists(_))
        ));
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
            .unwrap();
    }

    #[test]
    fn drop_semantics() {
        let db = Engine::new();
        assert!(db.execute("DROP TABLE nope").is_err());
        db.execute("DROP TABLE IF EXISTS nope").unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        assert!(!db.has_table("t"));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let rs = db.query("SELECT a, b, c FROM t").unwrap();
        assert_eq!(
            rs.rows()[0],
            vec![Value::Int(7), Value::Null, Value::Float(1.5)]
        );
    }

    #[test]
    fn insert_rejects_unknown_column() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(matches!(
            db.execute("INSERT INTO t (zzz) VALUES (1)"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn update_uses_pre_update_values() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.execute("UPDATE t SET a = b, b = a").unwrap();
        let rs = db.query("SELECT a, b FROM t").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn query_rejects_non_select_and_vice_versa() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(db.query("INSERT INTO t VALUES (1)").is_err());
        assert!(db.execute("SELECT a FROM t").is_err());
    }

    #[test]
    fn resultset_accessors() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let rs = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(rs.get(1, "b"), Some(&Value::Text("y".into())));
        assert_eq!(rs.column("a").unwrap(), vec![Value::Int(1), Value::Int(2)]);
        assert!(rs.get(5, "b").is_none());
        assert!(rs.column("zzz").is_none());
    }

    fn vector_schema() -> Schema {
        Schema::new(vec![
            Column::new("fs", DataType::Text),
            Column::new("bw", DataType::Float),
        ])
        .unwrap()
    }

    fn vector_rows() -> Vec<Row> {
        vec![
            vec![Value::Text("ufs".into()), Value::Float(1.5)],
            vec![Value::Null, Value::Float(2.5)],
            vec![Value::Text("nfs".into()), Value::Null],
        ]
    }

    /// A TEMP table made through the SQL door is the table
    /// `create_table_opts` + `insert_rows` build: same rows to SQL, TEMP,
    /// absent from the log and the dump, gone with its DROP.
    #[test]
    fn installed_temp_table_is_an_ordinary_temp_table() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let (dump, wal) = (dir.join("install.sql"), dir.join("install.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();
        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE kept (a INTEGER)").unwrap();
        let frames = db.wal_frames();

        db.create_table_opts("by_rows", vector_schema(), true, false)
            .unwrap();
        db.insert_rows("by_rows", vector_rows()).unwrap();
        let epoch = db.epoch();
        db.execute("CREATE TEMP TABLE installed (fs TEXT, bw FLOAT)")
            .unwrap();
        assert_eq!(db.epoch(), epoch + 1, "one commit");
        db.execute("INSERT INTO installed VALUES ('ufs', 1.5), (NULL, 2.5), ('nfs', NULL)")
            .unwrap();

        let q = |t: &str| {
            db.query(&format!(
                "SELECT fs, count(*), max(bw) FROM {t} GROUP BY fs ORDER BY fs"
            ))
            .unwrap()
        };
        assert_eq!(q("installed"), q("by_rows"));
        assert_eq!(
            db.read_snapshot("installed").unwrap(),
            db.read_snapshot("by_rows").unwrap()
        );
        assert_eq!(db.temp_table_names(), ["by_rows", "installed"]);
        // It takes writes like any table, and none of it reaches the log.
        db.execute("INSERT INTO installed VALUES ('pvfs', 9.0)")
            .unwrap();
        assert_eq!(db.row_count("installed").unwrap(), 4);
        assert_eq!(db.wal_frames(), frames);
        assert!(!db.dump_sql().contains("installed"));

        // A TEMP table never shadows or replaces a table of its name.
        for taken in ["installed", "kept"] {
            assert!(matches!(
                db.execute(&format!("CREATE TEMP TABLE {taken} (fs TEXT, bw FLOAT)")),
                Err(DbError::TableExists(_))
            ));
        }
        assert_eq!(db.read_snapshot("kept").unwrap().0.names(), ["a"]);

        for temp in db.temp_table_names() {
            db.drop_table(&temp, false).unwrap();
        }
        assert!(db.temp_table_names().is_empty());
        assert_eq!(db.table_names(), ["kept"]);
        assert_eq!(db.wal_frames(), frames);
        drop(db);
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(db2.table_names(), ["kept"]);
    }

    /// `scan` is the selection step of the SELECT with the same WHERE
    /// clause: same rows whatever the access path, same error.
    #[test]
    fn scan_selects_what_the_select_selects() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (id INTEGER, fs TEXT, bw FLOAT)")
            .unwrap();
        db.execute(
            "INSERT INTO t VALUES (1, 'ufs', 1.0), (2, 'nfs', NULL), (3, 'ufs', 3.0), \
             (4, NULL, 4.0), (5, 'it''s', 5.0)",
        )
        .unwrap();
        db.execute("CREATE ORDERED INDEX ix ON t (id)").unwrap();
        for cond in [
            "fs = 'ufs'",
            "fs <> 'ufs' AND bw >= 4.0",
            "fs IN ('it''s', 'nfs')",
            "id >= 2 AND id < 5",
            "bw IS NULL",
            "id + 1 = 4",
            "fs = 3",
        ] {
            let filter = sql::parse_expr(cond).unwrap();
            let (pinned, positions) = db.scan("t", Some(&filter)).unwrap();
            let ids: Vec<Value> = positions
                .iter()
                .map(|&p| pinned.row(p)[0].clone())
                .collect();
            let rs = db.query(&format!("SELECT id FROM t WHERE {cond}")).unwrap();
            assert_eq!(Some(ids), rs.column("id"), "{cond}");
        }
        let (pinned, all) = db.scan("t", None).unwrap();
        assert_eq!(all, [0, 1, 2, 3, 4]);
        // The pin is a version: later writes do not reach it.
        db.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(pinned.len(), 5);

        let unknown = sql::parse_expr("lat > 1").unwrap();
        assert_eq!(
            db.scan("t", Some(&unknown)).unwrap_err(),
            db.query("SELECT id FROM t WHERE lat > 1").unwrap_err()
        );
        assert!(matches!(
            db.scan("nope", None),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn wal_logs_and_recovers_all_mutation_paths() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("all_paths.sql");
        let wal = dir.join("all_paths.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.frames_replayed, 0);
        // SQL-text path.
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
            .unwrap();
        db.execute("UPDATE t SET b = 'q' WHERE a = 2").unwrap();
        db.execute("DELETE FROM t WHERE a = 3").unwrap();
        db.execute("CREATE INDEX ix_t_a ON t (a)").unwrap();
        // Programmatic path.
        let schema = Schema::new(vec![Column::not_null("id", crate::DataType::Int)]).unwrap();
        db.create_table("p", schema).unwrap();
        db.insert_rows("p", vec![vec![Value::Int(9)], vec![Value::Int(10)]])
            .unwrap();
        db.create_index("ix_p_id", "p", "id").unwrap();
        db.drop_table("p", false).unwrap();
        // TEMP tables are never logged.
        db.execute("CREATE TEMP TABLE scratch (x INTEGER)").unwrap();
        db.execute("INSERT INTO scratch VALUES (1)").unwrap();
        let frames = db.wal_frames();
        db.wal_sync().unwrap();
        let expected = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
        drop(db);

        // No checkpoint ever happened: the whole state comes from the log.
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.frames_replayed, frames);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(
            db2.query("SELECT a, b FROM t ORDER BY a").unwrap(),
            expected
        );
        assert!(!db2.has_table("p"), "dropped table must stay dropped");
        assert!(!db2.has_table("scratch"), "temp tables are not durable");
        assert!(db2
            .table("t")
            .unwrap()
            .read()
            .index_columns()
            .iter()
            .any(|(n, _, _)| n == "ix_t_a"));
    }

    #[test]
    fn checkpoint_compacts_and_recovery_uses_dump_plus_tail() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("ckpt.sql");
        let wal = dir.join("ckpt.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let dropped = db.checkpoint(&dump).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(db.wal_frames(), 0);
        // Post-checkpoint writes land in the compacted log.
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        db.wal_sync().unwrap();
        drop(db);

        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(
            report.frames_replayed, 1,
            "only the post-checkpoint tail replays"
        );
        let rs = db2.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn failed_statements_replay_identically() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("failrep.sql");
        let wal = dir.join("failrep.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        // Rejected ⇒ absent: each is refused before the log sees it.
        let (frames, epoch) = (db.wal_frames(), db.epoch());
        for doomed in [
            "INSERT INTO t VALUES (NULL)",
            "INSERT INTO missing VALUES (1)",
            "UPDATE t SET nope = 1",
            "CREATE TABLE t (a INTEGER)",
            "DROP TABLE missing",
            "CREATE INDEX ix ON t (nope)",
        ] {
            assert!(db.execute(doomed).is_err(), "{doomed}");
            assert_eq!(db.wal_frames(), frames, "{doomed}");
            assert_eq!(db.epoch(), epoch, "{doomed}");
        }
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.wal_sync().unwrap();
        let expected = db.query("SELECT a FROM t ORDER BY a").unwrap();
        drop(db);

        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!((report.frames_replayed, report.replay_errors), (3, 0));
        assert_eq!(db2.query("SELECT a FROM t ORDER BY a").unwrap(), expected);
    }

    /// Statements that select (or would change) several rows of
    /// [`rejected_fixture`] and fail on one of them.
    const REJECTED: [&str; 3] = [
        // Row 2: 'abc' does not coerce to INTEGER.
        "UPDATE t SET a = b",
        // Row 1 matches `id = 1`; row 2 fails in `a + b`.
        "DELETE FROM t WHERE id = 1 OR a + b > 0",
        "UPDATE t SET id = NULL WHERE id = 3",
    ];

    fn rejected_fixture(db: &Engine) {
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b TEXT)")
            .unwrap();
        db.execute("CREATE INDEX ix_t_a ON t (a)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10, '1'), (2, 20, 'abc'), (3, 30, '3')")
            .unwrap();
    }

    #[test]
    fn rejected_update_and_delete_leave_no_trace() {
        let db = Engine::new();
        rejected_fixture(&db);
        let before = db.dump_sql();
        for stmt in REJECTED {
            assert!(db.execute(stmt).is_err(), "{stmt}");
            assert_eq!(db.dump_sql(), before, "{stmt}");
            // The index still finds every row under its old key.
            let rs = db.query("SELECT id FROM t WHERE a = 10").unwrap();
            assert_eq!(rs.rows(), [[Value::Int(1)]], "{stmt}");
        }
    }

    #[test]
    fn rejected_statements_in_a_transaction_commit_nothing() {
        let db = Arc::new(Engine::new());
        rejected_fixture(&db);
        let before = db.dump_sql();
        let mut txn = db.begin_txn();
        for stmt in REJECTED {
            assert!(txn.execute(stmt).is_err(), "{stmt}");
        }
        txn.commit().unwrap();
        assert_eq!(db.dump_sql(), before);
    }

    #[test]
    fn rejected_statements_in_the_log_replay_to_nothing() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("rejected.sql");
        let wal = dir.join("rejected.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (db, _) = Engine::open_durable(&dump, &wal, opts.clone()).unwrap();
        rejected_fixture(&db);
        let (before, frames) = (db.dump_sql(), db.wal_frames());
        for stmt in REJECTED {
            // A row the statement selects rejects it: no frame either.
            assert!(db.execute(stmt).is_err(), "{stmt}");
            assert_eq!(db.wal_frames(), frames, "{stmt}");
        }
        db.wal_sync().unwrap();
        drop(db);
        let (db2, report) = Engine::open_durable(&dump, &wal, opts).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(db2.dump_sql(), before);
    }

    #[test]
    fn rejected_insert_batch_leaves_no_wal_frame() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("batchval.sql");
        let wal = dir.join("batchval.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)").unwrap();
        let before = db.wal_frames();
        // Bad row mid-batch: the whole batch is validated before the log
        // sees it, so nothing lands in the table *or* the log.
        let err = db.insert_rows(
            "t",
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        assert!(err.is_err());
        assert_eq!(db.row_count("t").unwrap(), 0);
        assert_eq!(db.wal_frames(), before, "rejected batch logged a frame");
        // A good batch logs exactly one frame for the whole batch.
        db.insert_rows("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        assert_eq!(db.wal_frames(), before + 1);
        db.wal_sync().unwrap();
        drop(db);
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(db2.row_count("t").unwrap(), 2);
    }

    #[test]
    fn natural_cmp_orders_digit_runs_numerically() {
        use std::cmp::Ordering;
        assert_eq!(natural_cmp("pb_rundata_2", "pb_rundata_10"), Ordering::Less);
        assert_eq!(
            natural_cmp("pb_rundata_10", "pb_rundata_2"),
            Ordering::Greater
        );
        assert_eq!(natural_cmp("a2b", "a2b"), Ordering::Equal);
        // Equal numeric value: fewer leading zeros sorts first.
        assert_eq!(natural_cmp("t007", "t7"), Ordering::Greater);
        assert_eq!(natural_cmp("t7", "t007"), Ordering::Less);
        // Digits before the run differs.
        assert_eq!(natural_cmp("run9x", "run10a"), Ordering::Less);
        // Pure text falls back to byte order.
        assert_eq!(natural_cmp("alpha", "beta"), Ordering::Less);
        // Prefix relationships.
        assert_eq!(natural_cmp("t1", "t1x"), Ordering::Less);

        let mut names = vec!["t10", "t2", "t1", "plain", "t02"];
        names.sort_by(|a, b| natural_cmp(a, b));
        assert_eq!(names, vec!["plain", "t1", "t2", "t02", "t10"]);
    }

    #[test]
    fn memory_report_is_naturally_ordered_and_deterministic() {
        let db = Engine::new();
        for name in ["pb_rundata_10", "pb_rundata_2", "pb_rundata_1", "alpha"] {
            db.execute(&format!("CREATE TABLE {name} (a INTEGER)"))
                .unwrap();
        }
        let order: Vec<String> = db.memory_report().into_iter().map(|e| e.0).collect();
        assert_eq!(
            order,
            vec!["alpha", "pb_rundata_1", "pb_rundata_2", "pb_rundata_10"]
        );
        // Stable across calls.
        let again: Vec<String> = db.memory_report().into_iter().map(|e| e.0).collect();
        assert_eq!(order, again);
    }

    #[test]
    fn writer_copies_on_write_only_while_pinned() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();

        // Unpinned: the writer mutates the sole version in place.
        let before = db.pin_table("t").unwrap();
        drop(before);
        db.execute("INSERT INTO t VALUES (2)").unwrap();

        // Pinned: the writer must clone; the pin keeps the old version.
        let pinned = db.pin_table("t").unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(pinned.len(), 2, "pinned version is frozen");
        assert_eq!(db.row_count("t").unwrap(), 3, "live table moved on");
        // The live slot now holds a different allocation.
        let live = db.pin_table("t").unwrap();
        assert!(!std::sync::Arc::ptr_eq(&pinned, &live));
    }

    #[test]
    fn epoch_advances_once_per_mutation() {
        let db = Engine::new();
        let e0 = db.epoch();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("UPDATE t SET a = 2").unwrap();
        db.execute("DELETE FROM t WHERE a = 2").unwrap();
        assert_eq!(db.epoch(), e0 + 4);
        // Reads do not advance the epoch.
        db.query("SELECT * FROM t").unwrap();
        let _snap = db.snapshot();
        assert_eq!(db.epoch(), e0 + 4);
    }

    #[test]
    fn render_tsv_matches_wire_format() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, NULL, 2.0)")
            .unwrap();
        let rs = db.query("SELECT a, b, c FROM t ORDER BY a").unwrap();
        assert_eq!(rs.render_tsv(), "a\tb\tc\n1\tx\t1.5\n2\tNULL\t2.0\n");
    }

    #[test]
    fn concurrent_readers_do_not_block() {
        use std::thread;
        let db = std::sync::Arc::new(Engine::new());
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = db.clone();
            handles.push(thread::spawn(move || {
                let rs = db.query("SELECT count(*) FROM t").unwrap();
                assert_eq!(rs.rows()[0][0], Value::Int(100));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
