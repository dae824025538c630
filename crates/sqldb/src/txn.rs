//! Explicit multi-statement write transactions over the MVCC catalog.
//!
//! [`Engine::begin_txn`] records the commit epoch and returns a
//! [`Transaction`]; it pins nothing, so BEGIN costs the same whatever the
//! catalog holds. The first time a statement names a table, the live version
//! is pinned *if it is the version that was current at BEGIN* — every
//! published version carries the epoch that published it — and the statement
//! answers [`DbError::TxnConflict`] otherwise: a transaction sees every
//! table as of its BEGIN or not at all, never two commit epochs. Statements
//! apply to a private *workspace* — invisible to every other reader, the
//! WAL, and replicas — while [`Transaction::query`] sees the pinned versions
//! overlaid with the workspace (read-your-own-writes).
//!
//! The workspace copies a table only for a statement that changes rows in
//! place. Rows a transaction merely *appends* (`INSERT`,
//! [`Transaction::insert_rows`]) are validated against the pinned version
//! and buffered; a later `UPDATE`, `DELETE`, `CREATE INDEX` or `SELECT` on
//! that table folds them into a private copy first, and an `UPDATE` or
//! `DELETE` that selects no row copies nothing.
//!
//! Each statement is planned by the engine's one planning function against
//! the transaction's view, and the change folded into the workspace; a
//! rejected statement leaves nothing behind, in the workspace or the log.
//! [`Transaction::commit`] is the only point where anything becomes shared:
//! it is the engine's one publish, of the workspace — under the writer lock
//! it re-checks that every touched table's live slot still holds the version
//! the transaction pinned (first-writer-wins; a concurrent swap aborts
//! with [`DbError::TxnConflict`] and zero effects), appends the buffered
//! statements to the log framed by begin/commit markers so recovery
//! replays them all-or-nothing, and under the commit gate swaps in every
//! private version, appends the buffered rows to the live versions (in place
//! unless a reader pins one), and ticks the commit epoch once — readers at
//! any epoch see all of the transaction or none of it. Dropping a
//! [`Transaction`] without committing discards the workspace (rollback).
//!
//! Restrictions: TEMP tables cannot be created or touched inside a
//! transaction (their lifecycle is per-connection, not transactional), and
//! SELECT goes through [`Transaction::query`], not
//! [`Transaction::execute`].
#![warn(missing_docs)]

use crate::engine::{parse_query, plan, stmt_class, Ask, Change, Engine, ResultSet, Text};
use crate::error::DbError;
use crate::exec;
use crate::schema::Schema;
use crate::sql;
use crate::table::{Row, Table};
use std::collections::HashMap;
use std::sync::Arc;

/// An open multi-statement write transaction; see the module docs.
///
/// Not `Sync` by design-intent: a transaction belongs to one writer. It
/// is `Send`, so a server can park it in a session between requests.
pub struct Transaction {
    engine: Arc<Engine>,
    /// The commit epoch at BEGIN: every table is seen as of it.
    epoch: u64,
    /// Versions pinned at first touch — the read base and the conflict
    /// reference. A name the transaction touched that is not here did not
    /// exist at BEGIN.
    pins: HashMap<String, Arc<Table>>,
    /// The workspace: per touched table the net change COMMIT publishes — a
    /// private [`Change::Version`] (created here, or copied from the pinned
    /// one for a statement that changes rows in place), [`Change::Drop`],
    /// the rows of [`Change::Append`], or [`Change::Nothing`] for a table
    /// only statements without effect ran against. Every entry joins the
    /// first-writer-wins check.
    work: HashMap<String, Change>,
    /// The texts of the accepted statements the log carries, in execution
    /// order — the transaction's WAL frame group.
    log: Vec<String>,
    /// Telemetry class of the last statement in `log`. The commit's log
    /// traffic is accounted to it, as an autocommit writer's is to the
    /// statement whose append pays the fsync.
    class: obs::StmtClass,
    /// Committed or rolled back; guards double-use and the Drop counter.
    done: bool,
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("base_epoch", &self.epoch)
            .field("tables_pinned", &self.pins.len())
            .field("tables_touched", &self.work.len())
            .field("statements_buffered", &self.log.len())
            .field("done", &self.done)
            .finish()
    }
}

fn no_such_table(name: &str) -> DbError {
    DbError::NoSuchTable(name.to_string())
}

impl Transaction {
    pub(crate) fn begin(engine: Arc<Engine>) -> Transaction {
        let epoch = engine.begin_epoch();
        Transaction {
            engine,
            epoch,
            pins: HashMap::new(),
            work: HashMap::new(),
            log: Vec::new(),
            class: obs::StmtClass::Other,
            done: false,
        }
    }

    /// The commit epoch this transaction reads at.
    pub fn base_epoch(&self) -> u64 {
        self.epoch
    }

    /// Durable statements buffered so far.
    pub fn statements_buffered(&self) -> usize {
        self.log.len()
    }

    /// Schema of `name` as this transaction sees it — the workspace
    /// overlay over the version current at BEGIN, so tables created (or
    /// dropped) earlier in the transaction resolve correctly.
    pub fn table_schema(&mut self, name: &str) -> Result<crate::Schema, DbError> {
        self.shape(name)?
            .map(|t| t.schema.clone())
            .ok_or_else(|| no_such_table(name))
    }

    /// The version holding the schema and indexes this transaction sees for
    /// `name` (`None`: no such table) — its rows without the ones the
    /// transaction has buffered. Pins the table at first touch.
    fn shape(&mut self, name: &str) -> Result<Option<&Arc<Table>>, DbError> {
        // A workspace entry means the base is resolved already.
        if !self.work.contains_key(name) && !self.pins.contains_key(name) {
            if let Some(version) = self.engine.pin_as_of(name, self.epoch)? {
                self.pins.insert(name.to_string(), version);
            }
        }
        Ok(match self.work.get(name) {
            Some(Change::Version { table, .. }) => Some(table),
            Some(Change::Drop) => None,
            _ => self.pins.get(name),
        })
    }

    /// The version of `name` a SELECT, UPDATE or DELETE in this transaction
    /// reads, own writes included: buffered rows are folded into a private
    /// copy first.
    fn view(&mut self, name: &str) -> Result<Option<Arc<Table>>, DbError> {
        if matches!(self.work.get(name), Some(Change::Append(_))) {
            self.private(name)?;
        }
        Ok(self.shape(name)?.cloned())
    }

    /// The private, mutable version of `name`, copied from the pinned one
    /// (with the buffered rows) unless the workspace has it already.
    fn private(&mut self, name: &str) -> Result<&mut Table, DbError> {
        if !matches!(self.work.get(name), Some(Change::Version { .. })) {
            let base = self.shape(name)?.cloned();
            let mut table = base.ok_or_else(|| no_such_table(name))?;
            obs::incr(obs::Counter::MvccCowClones);
            if let Some(buffered @ Change::Append(_)) = self.work.remove(name) {
                buffered.apply_to(Arc::make_mut(&mut table));
            }
            let copy = Change::Version { table, temp: false };
            self.work.insert(name.to_string(), copy);
        }
        match self.work.get_mut(name) {
            Some(Change::Version { table, .. }) => Ok(Arc::make_mut(table)),
            _ => unreachable!("a private version was just made"),
        }
    }

    /// One write against the workspace: planned by the engine's [`plan`]
    /// against this transaction's view of `name`, then folded into the net
    /// change COMMIT publishes, its text (if the log carries it) buffered.
    /// A rejected write leaves no trace.
    fn write(
        &mut self,
        name: &str,
        ask: Ask,
        text: Text<'_>,
        class: obs::StmtClass,
    ) -> Result<usize, DbError> {
        self.check_open()?;
        if self.engine.is_temp(name) || matches!(ask, Ask::CreateTable { temp: true, .. }) {
            return Err(DbError::Execution(format!(
                "TEMP table {name} cannot be created or touched inside a transaction"
            )));
        }
        let view = match ask {
            Ask::Update { .. } | Ask::Delete { .. } => self.view(name)?,
            _ => self.shape(name)?.cloned(),
        };
        let (change, text) = plan(name, ask, view.as_deref(), false, text)?;
        // The private copy is made from a sole owner.
        drop(view);
        let rows = change.rows();
        if let Some(text) = text {
            self.class = class;
            self.log.push(text);
        }
        match (change, self.work.get_mut(name)) {
            // What the log carries ran against one version of the table:
            // the table joins the conflict check.
            (nothing @ Change::Nothing { logged }, entry) => {
                if logged && entry.is_none() {
                    self.work.insert(name.to_string(), nothing);
                }
            }
            (Change::Append(rows), Some(Change::Append(buffered))) => buffered.extend(rows),
            (rows @ Change::Append(_), Some(Change::Version { table, .. })) => {
                rows.apply_to(Arc::make_mut(table))
            }
            (change @ (Change::Version { .. } | Change::Drop | Change::Append(_)), _) => {
                self.work.insert(name.to_string(), change);
            }
            (rows_or_index, _) => rows_or_index.apply_to(self.private(name)?),
        }
        Ok(rows)
    }

    /// Execute one mutating statement against the workspace. Effects stay
    /// private until [`Transaction::commit`]. A rejected statement does not
    /// poison the transaction: it has no workspace effect and no log entry
    /// (INSERT, UPDATE and DELETE are statement-atomic). That includes
    /// [`DbError::TxnConflict`]: the table the statement names was
    /// published after BEGIN — a caller that needs that table rolls back
    /// and retries the transaction.
    pub fn execute(&mut self, sql_text: &str) -> Result<usize, DbError> {
        let stmt = sql::parse_statement(sql_text)?;
        let class = stmt_class(&stmt);
        let (name, ask) = Ask::of(stmt)?;
        self.write(&name, ask, Text::Source(sql_text), class)
    }

    /// Run a SELECT (or EXPLAIN) against the transaction's view: the tables
    /// the statement names, as of BEGIN, overlaid with this transaction's
    /// own writes (read-your-own-writes), isolated from concurrent
    /// committers. [`DbError::TxnConflict`] when one of them was published
    /// after BEGIN.
    pub fn query(&mut self, sql_text: &str) -> Result<ResultSet, DbError> {
        let (sel, explain) = parse_query(sql_text)?;
        exec::read(self, &sel, explain)
    }

    /// Insert pre-built rows (the programmatic mirror of an INSERT
    /// statement; logged as rendered SQL, like [`Engine::insert_rows`]).
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Row>) -> Result<usize, DbError> {
        let ask = Ask::InsertRows(rows);
        self.write(name, ask, Text::Render, obs::StmtClass::Insert)
    }

    /// Create a table (programmatic mirror of `CREATE TABLE`; logged as
    /// rendered SQL, like [`Engine::create_table`]).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        let ask = Ask::CreateTable {
            schema,
            temp: false,
            if_not_exists: false,
        };
        self.write(name, ask, Text::Render, obs::StmtClass::Ddl)
            .map(drop)
    }

    /// Drop a table (programmatic mirror of `DROP TABLE [IF EXISTS]`).
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), DbError> {
        let ask = Ask::DropTable { if_exists };
        self.write(name, ask, Text::Render, obs::StmtClass::Ddl)
            .map(drop)
    }

    /// Commit: publish every buffered effect atomically (one WAL frame
    /// group, one catalog swap, one epoch tick) or fail with zero effects.
    /// [`DbError::TxnConflict`] means a concurrent committer won the race
    /// on a touched table — retry by re-running the transaction against a
    /// fresh [`Engine::begin_txn`].
    pub fn commit(mut self) -> Result<(), DbError> {
        self.check_open()?;
        self.done = true;
        let pins = std::mem::take(&mut self.pins);
        let work = std::mem::take(&mut self.work);
        let log = std::mem::take(&mut self.log);
        let _class = obs::class_scope(self.class);
        self.engine.commit_txn(pins, work, log)
    }

    /// Discard every buffered effect. Equivalent to dropping the
    /// transaction, but explicit.
    pub fn rollback(mut self) {
        self.done = true;
        obs::incr(obs::Counter::TxnRollbacks);
    }

    fn check_open(&self) -> Result<(), DbError> {
        if self.done {
            return Err(DbError::Execution(
                "transaction already committed or rolled back".into(),
            ));
        }
        Ok(())
    }
}

/// A transaction as a view: every table as of BEGIN, overlaid with the
/// transaction's own writes — pinned at first touch, like every statement
/// of the transaction pins.
impl exec::View for Transaction {
    fn pin(&mut self, name: &str) -> Result<Arc<Table>, DbError> {
        self.view(name)?.ok_or_else(|| no_such_table(name))
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.done {
            obs::incr(obs::Counter::TxnRollbacks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn engine_with_t() -> Arc<Engine> {
        let db = Arc::new(Engine::new());
        db.execute("CREATE TABLE t (a INTEGER, s TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        db
    }

    fn count(db: &Engine, sql: &str) -> i64 {
        match db.query(sql).unwrap().rows()[0][0] {
            Value::Int(n) => n,
            ref v => panic!("{v:?}"),
        }
    }

    #[test]
    fn read_your_own_writes_and_isolation() {
        let db = engine_with_t();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (3, 'z')").unwrap();
        txn.execute("CREATE TABLE u (b INTEGER)").unwrap();
        txn.execute("INSERT INTO u VALUES (9)").unwrap();
        // The transaction sees its own writes...
        let rs = txn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(3));
        assert_eq!(txn.query("SELECT b FROM u").unwrap().len(), 1);
        // ...while the live engine sees nothing.
        assert_eq!(count(&db, "SELECT count(*) FROM t"), 2);
        assert!(!db.has_table("u"));
        let epoch_before = db.epoch();
        txn.commit().unwrap();
        // One epoch tick for the whole transaction.
        assert_eq!(db.epoch(), epoch_before + 1);
        assert_eq!(count(&db, "SELECT count(*) FROM t"), 3);
        assert_eq!(count(&db, "SELECT count(*) FROM u"), 1);
    }

    #[test]
    fn readers_at_any_epoch_see_all_or_nothing() {
        let db = engine_with_t();
        let before = db.snapshot();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (3, 'z')").unwrap();
        txn.execute("UPDATE t SET s = 'w' WHERE a = 1").unwrap();
        txn.commit().unwrap();
        let after = db.snapshot();
        // Pre-commit snapshot: none of it.
        assert_eq!(
            db.query_at(&before, "SELECT count(*) FROM t WHERE s = 'w'")
                .unwrap()
                .rows()[0][0],
            Value::Int(0)
        );
        assert_eq!(before.row_count("t").unwrap(), 2);
        // Post-commit snapshot: all of it.
        assert_eq!(after.row_count("t").unwrap(), 3);
        assert_eq!(
            db.query_at(&after, "SELECT count(*) FROM t WHERE s = 'w'")
                .unwrap()
                .rows()[0][0],
            Value::Int(1)
        );
    }

    #[test]
    fn rollback_and_drop_leave_catalog_untouched() {
        let db = engine_with_t();
        let epoch = db.epoch();
        let before = db.dump_sql();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (3, 'z')").unwrap();
        txn.execute("DROP TABLE t").unwrap();
        txn.rollback();
        let mut txn2 = db.begin_txn();
        txn2.execute("CREATE TABLE u (b INTEGER)").unwrap();
        drop(txn2);
        assert_eq!(db.dump_sql(), before, "catalog must be byte-identical");
        assert_eq!(db.epoch(), epoch, "no epoch tick without a commit");
    }

    #[test]
    fn first_writer_wins_conflict() {
        let db = engine_with_t();
        let mut txn = db.begin_txn();
        txn.execute("UPDATE t SET s = 'txn' WHERE a = 1").unwrap();
        // A concurrent autocommit writer swaps t's version first.
        db.execute("INSERT INTO t VALUES (99, 'race')").unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, DbError::TxnConflict(_)), "{err}");
        // The loser's effects never landed.
        assert_eq!(count(&db, "SELECT count(*) FROM t WHERE s = 'txn'"), 0);
        assert_eq!(count(&db, "SELECT count(*) FROM t"), 3);
    }

    #[test]
    fn conflict_on_concurrently_created_table() {
        let db = engine_with_t();
        let mut txn = db.begin_txn();
        txn.execute("CREATE TABLE u (b INTEGER)").unwrap();
        db.execute("CREATE TABLE u (b INTEGER)").unwrap();
        assert!(matches!(txn.commit(), Err(DbError::TxnConflict(_))));
    }

    #[test]
    fn non_conflicting_tables_commit_concurrently() {
        let db = engine_with_t();
        db.execute("CREATE TABLE other (x INTEGER)").unwrap();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (3, 'z')").unwrap();
        // A concurrent writer touches a table this txn never wrote.
        db.execute("INSERT INTO other VALUES (1)").unwrap();
        txn.commit().unwrap();
        assert_eq!(count(&db, "SELECT count(*) FROM t"), 3);
    }

    #[test]
    fn a_rejected_statement_is_not_buffered() {
        let db = engine_with_t();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (3, 'z')").unwrap();
        assert!(txn.execute("INSERT INTO nope VALUES (1)").is_err());
        assert!(txn.execute("INSERT INTO t VALUES ('x', 'z')").is_err());
        assert_eq!(txn.statements_buffered(), 1);
        txn.commit().unwrap();
        assert_eq!(count(&db, "SELECT count(*) FROM t"), 3);
    }

    #[test]
    fn temp_tables_are_rejected() {
        let db = engine_with_t();
        db.execute("CREATE TEMP TABLE scratch (x INTEGER)").unwrap();
        let mut txn = db.begin_txn();
        assert!(txn.execute("CREATE TEMP TABLE tt (x INTEGER)").is_err());
        assert!(txn.execute("INSERT INTO scratch VALUES (1)").is_err());
        assert!(txn.execute("DROP TABLE scratch").is_err());
        drop(txn);
    }

    #[test]
    fn select_and_nested_control_rejected() {
        let db = engine_with_t();
        let mut txn = db.begin_txn();
        assert!(txn.execute("SELECT * FROM t").is_err());
        assert!(txn.execute("BEGIN").is_err());
        assert!(txn.execute("COMMIT").is_err());
        drop(txn);
    }

    #[test]
    fn committed_txn_is_framed_and_recovers_atomically() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_txn_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("framed.sql");
        let wal = dir.join("framed.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        let db = Arc::new(db);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.execute("CREATE TABLE u (b TEXT)").unwrap();
        txn.commit().unwrap();
        // 1 setup frame + begin marker + 3 statements + commit marker.
        assert_eq!(db.wal_frames(), 6);
        db.wal_sync().unwrap();
        let expected = db.dump_sql();
        drop(db);

        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        // Markers frame the group but are not statements: 4 replayed.
        assert_eq!(report.frames_replayed, 4);
        assert_eq!(report.txn_frames_discarded, 0);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(db2.dump_sql(), expected);
    }

    /// Open a fresh durable engine on `name`.{sql,wal} with table `t`.
    fn durable_with_t(
        name: &str,
        opts: crate::wal::WalOptions,
    ) -> (Arc<Engine>, std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("perfbase_txn_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join(format!("{name}.sql"));
        let wal = dir.join(format!("{name}.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();
        let (db, _) = Engine::open_durable(&dump, &wal, opts).unwrap();
        db.execute("CREATE TABLE t (a INTEGER, s TEXT)").unwrap();
        (Arc::new(db), dump, wal)
    }

    #[test]
    fn rejected_commit_leaves_no_trace_and_later_acked_writes_recover() {
        use crate::wal::{SyncPolicy, WalOptions};
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (db, dump, wal) = durable_with_t("oversized", opts.clone());
        // The second statement exceeds the WAL frame limit (1 MiB under
        // cfg(test)): the commit is refused before its begin marker is
        // written.
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (1, 'small')").unwrap();
        let big = "y".repeat(1024 * 1024);
        txn.execute(&format!("INSERT INTO t VALUES (2, '{big}')"))
            .unwrap();
        assert!(
            txn.commit().is_err(),
            "oversized frame must fail the commit"
        );
        assert_eq!(db.wal_frames(), 1, "rejected ⇒ absent from the log");
        // The engine keeps running; an autocommit write is acked ...
        db.execute("INSERT INTO t VALUES (3, 'acked')").unwrap();
        db.wal_sync().unwrap();
        drop(db);
        // ... and acked ⇒ recovered.
        let (db2, report) = Engine::open_durable(&dump, &wal, opts).unwrap();
        assert_eq!(report.txn_frames_discarded, 0);
        assert_eq!(
            db2.query("SELECT a FROM t").unwrap().rows(),
            [[Value::Int(3)]]
        );
    }

    #[test]
    fn commit_failing_mid_group_acks_nothing_afterwards() {
        use crate::wal::{IoFailpoint, SyncPolicy, WalOptions};
        // CREATE, begin marker and the first INSERT reach the log; the
        // second INSERT's frame fails half-written, the process lives.
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: Arc::new(IoFailpoint::append_error_after(3)),
        };
        let (db, dump, wal) = durable_with_t("midgroup", opts);
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        txn.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
        assert!(txn.commit().is_err());
        assert_eq!(
            db.row_count("t").unwrap(),
            0,
            "failed commit applies nothing"
        );
        // The log is poisoned: a write that recovery would discard with the
        // unterminated group is refused, not acked.
        assert!(db.execute("INSERT INTO t VALUES (3, 'c')").is_err());
        assert_eq!(db.row_count("t").unwrap(), 0);
        drop(db);
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(
            report.txn_frames_discarded, 2,
            "begin marker + first INSERT"
        );
        assert_eq!(db2.row_count("t").unwrap(), 0);
        // A reopened log takes writes again.
        db2.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
    }

    #[test]
    fn single_statement_txn_skips_markers() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_txn_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("single.sql");
        let wal = dir.join("single.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        let db = Arc::new(db);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        txn.commit().unwrap();
        assert_eq!(db.wal_frames(), 2, "no markers for a 1-statement txn");
    }

    /// A log whose tail is an unterminated txn group — the on-disk state a
    /// crash between the begin marker and the commit marker leaves behind:
    /// `t` with row 1, then a three-INSERT commit killed after its begin
    /// marker and `kept` of its statements reached the file.
    fn crash_mid_commit(name: &str, kept: u64) -> (std::path::PathBuf, std::path::PathBuf) {
        use crate::wal::{SyncPolicy, WalOptions};
        let (db, dump, wal_path) = durable_with_t(name, WalOptions::with_sync(SyncPolicy::Always));
        db.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        db.wal_failpoint().unwrap().arm_frame_kill(1 + kept);
        let mut txn = db.begin_txn();
        for a in 2..5 {
            txn.execute(&format!("INSERT INTO t VALUES ({a}, 'b')"))
                .unwrap();
        }
        assert!(txn.commit().is_err());
        (dump, wal_path)
    }

    #[test]
    fn uncommitted_tail_is_discarded_on_recovery() {
        use crate::wal::{SyncPolicy, WalOptions};
        let (dump, wal_path) = crash_mid_commit("tail", 2);
        let (db, report) =
            Engine::open_durable(&dump, &wal_path, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.txn_frames_discarded, 3, "begin marker + 2 stmts");
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(db.row_count("t").unwrap(), 1, "zero partial-txn effects");
    }

    /// Recovery cuts the dead group off the file, so what is acknowledged
    /// after the reopen is not behind it at the next one.
    #[test]
    fn acked_writes_behind_a_dead_group_survive_the_second_recovery() {
        use crate::wal::{SyncPolicy, WalOptions};
        let opts = WalOptions::with_sync(SyncPolicy::Always);
        let (dump, wal_path) = crash_mid_commit("dead_group", 1);
        let (db, report) = Engine::open_durable(&dump, &wal_path, opts.clone()).unwrap();
        assert_eq!(report.txn_frames_discarded, 2, "begin marker + 1 stmt");
        db.execute("INSERT INTO t VALUES (5, 'acked')").unwrap();
        db.execute("INSERT INTO t VALUES (6, 'acked')").unwrap();
        drop(db);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let (db, report) = Engine::open_durable(&dump, &wal_path, opts).unwrap();
        assert_eq!((report.txn_frames_discarded, report.torn_bytes), (0, 0));
        assert_eq!(db.row_count("t").unwrap(), 3);
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), len);
    }

    #[test]
    fn checkpoint_never_splits_a_txn() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_txn_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("ckpt.sql");
        let wal = dir.join("ckpt.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        let db = Arc::new(db);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.commit().unwrap();
        // The checkpoint folds the whole group into the dump and compacts.
        db.checkpoint(&dump).unwrap();
        assert_eq!(db.wal_frames(), 0);
        drop(db);
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.txn_frames_discarded, 0);
        assert_eq!(db2.row_count("t").unwrap(), 2);
    }

    #[test]
    fn programmatic_ops_roundtrip() {
        use crate::schema::Column;
        use crate::value::DataType;
        let db = engine_with_t();
        let mut txn = db.begin_txn();
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Float),
        ])
        .unwrap();
        txn.create_table("cd", schema).unwrap();
        txn.insert_rows("cd", vec![vec![Value::Int(1), Value::Float(0.5)]])
            .unwrap();
        txn.drop_table("t", false).unwrap();
        assert!(txn.table_schema("cd").is_ok());
        assert!(matches!(
            txn.table_schema("t"),
            Err(DbError::NoSuchTable(_))
        ));
        txn.commit().unwrap();
        assert!(db.has_table("cd"));
        assert!(!db.has_table("t"));
        assert_eq!(count(&db, "SELECT count(*) FROM cd"), 1);
    }
}
