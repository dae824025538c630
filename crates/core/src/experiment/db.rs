//! Storage binding of an experiment to the SQL database (paper §4.2).
//!
//! Table layout per experiment:
//!
//! * `pb_meta(key, value)` — meta information plus the serialized
//!   experiment definition, so the experiment can be reopened.
//! * `pb_users(name, level)` — the access-control list.
//! * `pb_imports(hash, filename, run_id)` — import provenance; the `hash`
//!   column implements "without explicit confirmation, importing data from
//!   the same input file more than once is not possible" (§3.2).
//! * `pb_runs(run_id, created, <once-occurrence variables>)` — one row per
//!   run.
//! * `pb_rundata_<id>(<multiple-occurrence variables>)` — "for each new run,
//!   one table is created which contains the tabular data".
//! * `pb_shards(run_id, node)` — present once a cluster has been attached:
//!   the persisted shard map recording which node owns each run's data
//!   table (see [`ExperimentDb::attach_cluster`]).

use super::shard::Sharding;
use super::{AccessLevel, ExperimentDef, Occurrence, Variable};
use crate::error::{Error, Result};
use crate::xmldef;
use sqldb::cluster::{Cluster, ShardMap};
use sqldb::sql::SqlExpr;
use sqldb::sync::{Mutex, RwLock};
use sqldb::{
    Column, DataType, DbError, Engine, Promotion, RecoveryReport, ReplOptions, Replicator,
    ResultSet, Schema, Table, Value, WalOptions,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An experiment bound to a database engine.
///
/// All metadata (`pb_meta`, `pb_users`, `pb_imports`, `pb_runs`,
/// `pb_shards`) always lives on `engine` — the *frontend*. Per-run data
/// tables live on the frontend too until a cluster is attached via
/// [`ExperimentDb::attach_cluster`], after which each `pb_rundata_<id>`
/// table lives on the node its [`ShardMap`] assignment names.
pub struct ExperimentDb {
    engine: Arc<Engine>,
    def: RwLock<ExperimentDef>,
    shards: RwLock<Option<Arc<Sharding>>>,
    /// Held by [`ExperimentDb::add_run`] and [`ExperimentDb::delete_run`]
    /// from the allocation of the run id to the commit: writers of one
    /// `ExperimentDb` take turns (they would on the engine's log mutex and
    /// commit gate anyway), so none of them works from a run id another is
    /// about to publish.
    writer: Mutex<()>,
}

/// How often a write transaction of [`ExperimentDb::add_run`] or
/// [`ExperimentDb::delete_run`] is run before its
/// [`DbError::TxnConflict`] is the caller's: a conflict there means a second
/// handle on the same engine committed in between, and the next attempt
/// starts from what it left. Losses are not independent: a handle whose
/// writers commit back to back begins its next transaction the moment the
/// last one commits, before a loser that retries at once can begin, so the
/// loser loses again — one in 75 runs of two handles writing flat out lost 64
/// rounds in a row. A loser therefore backs off ([`back_off`]): the 64
/// attempts span some 50 ms, longer than any such run of commits lasts.
const WRITE_ATTEMPTS: usize = 64;

/// Run `attempt` until it ends in something other than a transaction
/// conflict, [`WRITE_ATTEMPTS`] times at most, backing off after each
/// conflict.
fn retrying<T>(mut attempt: impl FnMut() -> Result<T>) -> Result<T> {
    for lost in 0..WRITE_ATTEMPTS - 1 {
        match attempt() {
            Err(Error::Db(DbError::TxnConflict(_))) => back_off(lost),
            done => return done,
        }
    }
    attempt()
}

/// The pause after the conflict that followed `lost` others in a row: the
/// processor handed on at once, then a sleep doubling from 2 µs up to 1 ms,
/// so that the winner's writers run out of work or pause, and the loser
/// gets a turn.
fn back_off(lost: usize) {
    match lost {
        0 => std::thread::yield_now(),
        n => std::thread::sleep(std::time::Duration::from_micros(1 << n.min(10))),
    }
}

/// One row of `pb_runs`, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Run id.
    pub run_id: i64,
    /// Import time (Unix seconds).
    pub created: i64,
    /// Once-occurrence variable contents, in definition order.
    pub once_values: Vec<(String, Value)>,
    /// Number of data sets in the run's data table.
    pub datasets: usize,
}

impl ExperimentDb {
    /// Create a new experiment in `engine` (the `perfbase setup` command).
    pub fn create(engine: Arc<Engine>, def: ExperimentDef) -> Result<ExperimentDb> {
        for v in &def.variables {
            validate_variable_name(v)?;
        }
        engine.execute("CREATE TABLE pb_meta (key TEXT NOT NULL, value TEXT)")?;
        engine.execute("CREATE TABLE pb_users (name TEXT NOT NULL, level TEXT NOT NULL)")?;
        engine.execute(
            "CREATE TABLE pb_imports (hash TEXT NOT NULL, filename TEXT, run_id INTEGER)",
        )?;
        engine.create_table("pb_runs", runs_schema(&def))?;
        create_hot_path_indexes(&engine)?;
        let db = ExperimentDb {
            engine,
            def: RwLock::new(def),
            shards: RwLock::new(None),
            writer: Mutex::new(()),
        };
        db.persist_definition()?;
        Ok(db)
    }

    /// Reopen an experiment previously created in `engine`.
    pub fn open(engine: Arc<Engine>) -> Result<ExperimentDb> {
        let rs = engine.query("SELECT value FROM pb_meta WHERE key = 'definition'")?;
        let xml = rs
            .rows()
            .first()
            .and_then(|r| r[0].as_str().map(str::to_string))
            .ok_or_else(|| Error::Definition("no experiment stored in this database".into()))?;
        let def = xmldef::definition_from_str(&xml)?;
        // Databases restored from dumps made before indexes existed get
        // them here; IF NOT EXISTS makes this idempotent.
        create_hot_path_indexes(&engine)?;
        Ok(ExperimentDb {
            engine,
            def: RwLock::new(def),
            shards: RwLock::new(None),
            writer: Mutex::new(()),
        })
    }

    /// Open an experiment durably from its dump file at `path`: the last
    /// checkpoint dump is loaded, every valid frame of the sibling
    /// write-ahead log (`<path>.wal`) is replayed (recovering work done
    /// since the checkpoint, truncating any torn tail), and the log stays
    /// attached so every further mutation — `perfbase input` imports above
    /// all — is crash-safe.
    pub fn open_durable(path: &Path, opts: WalOptions) -> Result<(ExperimentDb, RecoveryReport)> {
        let (engine, report) = Engine::open_durable(path, &Self::wal_path(path), opts)?;
        let db = ExperimentDb::open(Arc::new(engine))?;
        Ok((db, report))
    }

    /// The sibling write-ahead log for an experiment dump at `path`
    /// (`experiment.sql` → `experiment.sql.wal`).
    pub fn wal_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_owned();
        name.push(".wal");
        PathBuf::from(name)
    }

    /// Checkpoint the experiment: atomically rewrite the dump at `path`
    /// and compact the write-ahead log. Returns frames dropped from the
    /// log (0 when no WAL is attached — then this is just an atomic save).
    pub fn checkpoint(&self, path: &Path) -> Result<u64> {
        Ok(self.engine.checkpoint(path)?)
    }

    /// Force pending WAL frames to stable storage — on every cluster node
    /// when one is attached, and on the frontend. Called by the importer
    /// when an import completes, so a finished import survives a crash
    /// even inside an open group-commit window.
    ///
    /// Order matters: the backend nodes holding the runs' data tables are
    /// synced *before* the frontend log that holds the publishing
    /// `pb_runs` inserts ([`sqldb::cluster::Cluster::sync_wals`] walks
    /// nodes in reverse, frontend last). Syncing the frontend first would
    /// let a crash between the two syncs durably publish a run whose data
    /// frames never reached stable storage, breaking the "data first,
    /// `pb_runs` last" contract [`ExperimentDb::add_run`] establishes.
    pub fn durability_sync(&self) -> Result<()> {
        match self.sharding() {
            Some(sh) => sh.cluster().sync_wals()?,
            None => self.engine.wal_sync()?,
        }
        Ok(())
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// A clone of the current definition.
    pub fn definition(&self) -> ExperimentDef {
        self.def.read().clone()
    }

    /// The current sharding context, if a cluster is attached.
    pub fn sharding(&self) -> Option<Arc<Sharding>> {
        self.shards.read().clone()
    }

    /// Attach a simulated cluster and shard the run data across it.
    ///
    /// The cluster's frontend node must be this experiment's own engine
    /// (build it with [`Cluster::with_frontend`]). Placements recorded in
    /// `pb_shards` from an earlier attachment are honoured — so existing
    /// runs stay on their nodes when the cluster grows, and only runs whose
    /// node no longer exists are re-hashed. Each `pb_rundata_<id>` table
    /// currently on the frontend migrates to its owning node; this initial
    /// placement is *not* charged to [`sqldb::cluster::TransferStats`]
    /// (it models data already living there), and the stats are reset
    /// afterwards so they reflect query traffic only.
    pub fn attach_cluster(&self, cluster: Arc<Cluster>) -> Result<()> {
        self.attach_cluster_replicated(
            cluster,
            ReplOptions {
                replicas: 0,
                ..ReplOptions::default()
            },
        )
    }

    /// Like [`ExperimentDb::attach_cluster`], but with `opts.replicas`
    /// replica copies per shard: every `pb_rundata_<id>` table is
    /// base-copied to its owner's replica nodes (uncharged, like the
    /// initial placement), and a [`Replicator`] is installed so that on
    /// WAL-attached owners every further committed frame ships to the
    /// replicas automatically. Reads round-robin across owner and fresh
    /// replicas; [`ExperimentDb::fail_over`] promotes on node death.
    pub fn attach_cluster_replicated(
        &self,
        cluster: Arc<Cluster>,
        opts: ReplOptions,
    ) -> Result<()> {
        if !Arc::ptr_eq(&cluster.frontend().engine, &self.engine) {
            return Err(Error::Query(
                "cluster frontend (node 0) must be the experiment's own engine \
                 (use Cluster::with_frontend)"
                    .into(),
            ));
        }
        let mut existing: Vec<(i64, usize)> = Vec::new();
        if self.engine.has_table("pb_shards") {
            let rs = self
                .engine
                .query("SELECT run_id, node FROM pb_shards ORDER BY run_id")?;
            for r in rs.rows() {
                if let (Some(id), Some(n)) = (r[0].as_i64(), r[1].as_i64()) {
                    existing.push((id, n as usize));
                }
            }
        }
        let map = ShardMap::with_assignments(cluster.len(), existing).with_replicas(opts.replicas);
        for run_id in self.run_ids()? {
            let owner = map.place(run_id);
            let table = rundata_table(run_id);
            if owner != 0 && self.engine.has_table(&table) {
                let (schema, rows) = self.engine.read_snapshot(&table)?;
                let dst = &cluster.node(owner).engine;
                replace_table(dst, &table, schema.clone(), rows.clone())?;
                self.engine.drop_table(&table, false)?;
                // Base-copy to the replica nodes (uncharged: models data
                // already living there, like the primary placement). Must
                // complete before the Replicator's taps attach below, so
                // the migration frames just logged are never also shipped.
                for rep in map.replica_nodes(owner) {
                    let engine = &cluster.node(rep).engine;
                    replace_table(engine, &table, schema.clone(), rows.clone())?;
                }
            }
        }
        self.persist_shard_map(&map)?;
        cluster.reset_stats();
        let sharding = if opts.replicas > 0 && cluster.len() > 2 {
            let repl = Replicator::attach(&cluster, opts);
            Sharding::with_replication(cluster, map, repl)
        } else {
            Sharding::new(cluster, map)
        };
        *self.shards.write() = Some(Arc::new(sharding));
        Ok(())
    }

    /// Fail node `dead` over to its most-caught-up live replica: the
    /// replica's shipped-but-unapplied WAL tail is replayed, every shard
    /// assignment on `dead` is rewritten to the promoted node (with a
    /// redirect for future hash placements), and the rewritten map is
    /// persisted to `pb_shards`. Subsequent reads and imports route to
    /// the promoted node.
    pub fn fail_over(&self, dead: usize) -> Result<Promotion> {
        let sh = self
            .sharding()
            .ok_or_else(|| Error::Query("no cluster attached".into()))?;
        let repl = sh
            .replicator()
            .ok_or_else(|| Error::Query("replication is not enabled on this cluster".into()))?;
        let promotion = repl.promote(sh.cluster(), dead)?;
        sh.map().reassign_node(dead, promotion.promoted);
        self.persist_shard_map(sh.map())?;
        Ok(promotion)
    }

    /// Detach the cluster, moving every remote `pb_rundata_<id>` table back
    /// to the frontend so the database is self-contained again (e.g. before
    /// saving it to a dump file). The persisted `pb_shards` map is kept, so
    /// a later [`ExperimentDb::attach_cluster`] restores the same placement.
    pub fn detach_cluster(&self) -> Result<()> {
        let Some(sh) = self.shards.write().take() else {
            return Ok(());
        };
        // Stop replication first: the engine-held taps must not ship the
        // move-back traffic below (or outlive the cluster they point at).
        if let Some(repl) = sh.replicator() {
            repl.detach(sh.cluster());
        }
        for (run_id, node) in sh.map().assignments() {
            let table = rundata_table(run_id);
            let src = &sh.cluster().node(node).engine;
            if node != 0 && src.has_table(&table) {
                let (schema, rows) = src.read_snapshot(&table)?;
                replace_table(&self.engine, &table, schema, rows)?;
                src.drop_table(&table, false)?;
            }
            // Clear replica copies (and any stale copy on a failed-over
            // node) so no backend keeps a shadow of the table.
            if sh.map().replicas() > 0 {
                for other in 1..sh.cluster().len() {
                    if other != node {
                        let _ = sh.cluster().node(other).engine.drop_table(&table, true);
                    }
                }
            }
        }
        Ok(())
    }

    /// The engine holding `run_id`'s data table: the owning node's engine
    /// when sharded, the experiment engine otherwise.
    pub fn rundata_engine(&self, run_id: i64) -> Arc<Engine> {
        match self.sharding() {
            Some(sh) => sh.engine_of(run_id).clone(),
            None => self.engine.clone(),
        }
    }

    /// Select the data sets of each of `run_ids` that satisfy `filter`
    /// *where the run's table lives*, and call `each(k, table, positions)`
    /// for `run_ids[k]`, in order, for the caller to copy cells from.
    /// Consecutive runs the frontend serves are one batch of
    /// [`Engine::scan`] (one catalog hold, the filter compiled once); each
    /// run on a remote node is one [`Cluster::scan`] ask — to the owner, or
    /// with replication round-robin to it and its fresh replicas (the
    /// freshness gate falls back to the owner for replicas behind the last
    /// appended frame) — whose answer is charged to the link as the rows
    /// `carried` counts over the run's table and selection. An error ends the
    /// scan and comes with the position `k` of its run.
    ///
    /// [`Cluster::scan`]: sqldb::cluster::Cluster::scan
    pub fn scan_runs(
        &self,
        run_ids: &[i64],
        filter: Option<&SqlExpr>,
        carried: impl Fn(&Table, &[usize]) -> std::result::Result<usize, DbError>,
        mut each: impl FnMut(usize, &Table, &[usize]) -> std::result::Result<(), DbError>,
    ) -> std::result::Result<(), (usize, DbError)> {
        let names: Vec<String> = run_ids.iter().map(|&id| rundata_table(id)).collect();
        let sharding = self.sharding();
        let mut from = 0;
        while from < names.len() {
            // The runs up to the next remote one, `to`, are the frontend's.
            let (mut to, mut remote) = (from, None);
            while to < names.len() {
                remote = sharding
                    .as_ref()
                    .map(|sh| (sh, sh.read_node_of(run_ids[to])))
                    .filter(|&(_, node)| node != 0);
                if remote.is_some() {
                    break;
                }
                to += 1;
            }
            self.engine
                .scan(&names[from..to], filter, |k, table, positions| {
                    each(from + k, table, positions)
                })
                .map_err(|(k, e)| (from + k, e))?;
            if let Some((sh, node)) = remote {
                let (table, positions) = sh
                    .cluster()
                    .scan(node, 0, &names[to], filter, &carried)
                    .map_err(|e| (to, e))?;
                each(to, &table, &positions).map_err(|e| (to, e))?;
            }
            from = to + 1;
        }
        Ok(())
    }

    fn persist_shard_map(&self, map: &ShardMap) -> Result<()> {
        self.engine.drop_table("pb_shards", true)?;
        self.engine
            .execute("CREATE TABLE pb_shards (run_id INTEGER NOT NULL, node INTEGER NOT NULL)")?;
        let rows: Vec<Vec<Value>> = map
            .assignments()
            .into_iter()
            .map(|(r, n)| vec![Value::Int(r), Value::Int(n as i64)])
            .collect();
        self.engine.insert_rows("pb_shards", rows)?;
        // `add_run` clears the id it is about to place; with the index that
        // is a probe, not a scan of every placement.
        self.engine
            .execute("CREATE INDEX IF NOT EXISTS pb_ix_shards_run_id ON pb_shards (run_id)")?;
        Ok(())
    }

    /// Check user access (paper §4.2 user classes).
    pub fn check_access(&self, user: &str, level: AccessLevel) -> Result<()> {
        self.def.read().check_access(user, level)
    }

    /// Apply an evolution step to the definition (add/modify/remove
    /// variables, meta changes, grants) and persist it. Every table whose
    /// schema follows the definition is rebuilt to match — `pb_runs` and each
    /// run's `pb_rundata_<id>`, where it lives — so "every run table has
    /// exactly the definition's multiple-occurrence columns, with its types"
    /// holds after every evolution step and source elements can rely on it.
    /// In existing runs a new variable appears as its default (NULL without
    /// one), a removed one loses its content, a retyped one is coerced. All
    /// new rows are computed before the first table changes: content that
    /// does not fit a new type fails the update with nothing changed.
    pub fn update_definition(
        &self,
        mutate: impl FnOnce(&mut ExperimentDef) -> Result<()>,
    ) -> Result<()> {
        let mut def = self.def.write();
        let mut candidate = def.clone();
        mutate(&mut candidate)?;
        for v in &candidate.variables {
            validate_variable_name(v)?;
        }
        let runs_schema = runs_schema(&candidate);
        let runs = evolved_rows(&self.engine, "pb_runs", &runs_schema, &candidate)?;
        let data_schema = rundata_schema(&candidate);
        let mut data = Vec::new();
        for run_id in self.run_ids()? {
            let engine = self.rundata_engine(run_id);
            let rows = evolved_rows(&engine, &rundata_table(run_id), &data_schema, &candidate)?;
            data.extend(rows.map(|rows| (run_id, rows)));
        }

        let sharding = self.sharding();
        for (run_id, rows) in data {
            match &sharding {
                Some(sh) => {
                    place_rundata(sh, run_id, &data_schema, rows)?;
                }
                None => replace_table(
                    &self.engine,
                    &rundata_table(run_id),
                    data_schema.clone(),
                    rows,
                )?,
            }
        }
        if let Some(rows) = runs {
            replace_table(&self.engine, "pb_runs", runs_schema, rows)?;
            create_hot_path_indexes(&self.engine)?;
        }

        *def = candidate;
        drop(def);
        self.persist_definition()
    }

    fn persist_definition(&self) -> Result<()> {
        let def = self.def.read();
        let xml = xmldef::definition_to_string(&def);
        self.engine.execute("DELETE FROM pb_meta")?;
        self.engine.insert_rows(
            "pb_meta",
            vec![
                vec![
                    Value::Text("name".into()),
                    Value::Text(def.meta.name.clone()),
                ],
                vec![
                    Value::Text("project".into()),
                    Value::Text(def.meta.project.clone()),
                ],
                vec![
                    Value::Text("synopsis".into()),
                    Value::Text(def.meta.synopsis.clone()),
                ],
                vec![Value::Text("definition".into()), Value::Text(xml)],
            ],
        )?;
        self.engine.execute("DELETE FROM pb_users")?;
        let user_rows: Vec<Vec<Value>> = def
            .users
            .iter()
            .map(|(u, l)| vec![Value::Text(u.clone()), Value::Text(l.name().to_string())])
            .collect();
        self.engine.insert_rows("pb_users", user_rows)?;
        Ok(())
    }

    /// Next free run id (answered from the ends of the ordered `run_id`
    /// index, whatever the number of runs). Advisory: [`ExperimentDb::add_run`]
    /// takes its id inside its own transaction.
    pub fn next_run_id(&self) -> Result<i64> {
        Ok(next_after(
            &self.engine.query("SELECT max(run_id) FROM pb_runs")?,
        ))
    }

    /// Store one run: its once-occurrence values plus its data sets
    /// (multiple-occurrence tuples). `created` is the import timestamp.
    /// Returns the new run id.
    pub fn add_run(
        &self,
        once: &HashMap<String, Value>,
        datasets: &[HashMap<String, Value>],
        created: i64,
    ) -> Result<i64> {
        self.add_run_recorded(once, datasets, created, &[])
    }

    /// [`ExperimentDb::add_run`] for a run that came from input files: one
    /// `pb_imports` row per `(content hash, file name)` of `sources` commits
    /// with the run, so that after a crash a stored run is a recorded one
    /// and the file is refused as a duplicate (§3.2).
    pub fn add_run_recorded(
        &self,
        once: &HashMap<String, Value>,
        datasets: &[HashMap<String, Value>],
        created: i64,
        sources: &[(&str, &str)],
    ) -> Result<i64> {
        let def = self.def.read();
        // Reject unknown names and occurrence mismatches up front.
        for name in once.keys() {
            match def.variable(name) {
                None => {
                    return Err(Error::Import(format!("unknown variable '{name}'")));
                }
                Some(v) if v.occurrence != Occurrence::Once => {
                    return Err(Error::Import(format!(
                        "variable '{name}' has multiple occurrence but was provided as run-constant"
                    )));
                }
                _ => {}
            }
        }
        for ds in datasets {
            for name in ds.keys() {
                match def.variable(name) {
                    None => {
                        return Err(Error::Import(format!("unknown variable '{name}'")));
                    }
                    Some(v) if v.occurrence != Occurrence::Multiple => {
                        return Err(Error::Import(format!(
                            "variable '{name}' has unique occurrence but appears in a data set"
                        )));
                    }
                    _ => {}
                }
            }
        }
        let _writer = self.writer.lock();
        retrying(|| self.store_run(&def, once, datasets, created, sources))
    }

    /// One attempt of [`ExperimentDb::add_run_recorded`], the caller holding
    /// the writer lock: one transaction on the frontend, begun *before* the
    /// run id is chosen.
    ///
    /// The id is one more than the largest the transaction sees in `pb_runs`,
    /// so it is free in the transaction's view, and a table `pb_rundata_<id>`
    /// in that view is an orphan (a crash, or a delete, between a remote
    /// owner's write and the frontend commit) that may go. Had another handle
    /// on this engine published the id since BEGIN, the table's first touch
    /// or the commit answers [`DbError::TxnConflict`] with nothing changed,
    /// and the next attempt takes the next id — a run is never written over.
    ///
    /// The data table (unsharded, or owned by the frontend), the shard
    /// routing, the `pb_runs` row — the statement that makes the run visible
    /// — and the provenance rows publish under a single epoch tick, so no
    /// snapshot ever observes a run whose data or routing is missing, and a
    /// crash replays the whole group or none of it. A remote owner's write
    /// happens *before* that commit for the same reason: a crash between the
    /// two leaves at most an invisible orphan under this id. Imported data
    /// arrives at the frontend, so shipping it to a remote owner is charged
    /// as a real transfer (header + payload).
    fn store_run(
        &self,
        def: &ExperimentDef,
        once: &HashMap<String, Value>,
        datasets: &[HashMap<String, Value>],
        created: i64,
        sources: &[(&str, &str)],
    ) -> Result<i64> {
        let mut txn = self.engine.begin_txn();
        let run_id = next_after(&txn.query("SELECT max(run_id) FROM pb_runs")?);
        let value_of = |given: &HashMap<String, Value>, v: &Variable| {
            let given = given.get(&v.name).cloned();
            given.or_else(|| v.default.clone()).unwrap_or(Value::Null)
        };
        let mut row = vec![Value::Int(run_id), Value::Timestamp(created)];
        row.extend(
            def.variables_with(Occurrence::Once)
                .map(|v| value_of(once, v)),
        );
        let multi: Vec<&Variable> = def.variables_with(Occurrence::Multiple).collect();
        let rows: Vec<Vec<Value>> = datasets
            .iter()
            .map(|ds| multi.iter().map(|v| value_of(ds, v)).collect())
            .collect();

        let sharding = self.sharding();
        let owner = sharding.as_ref().map_or(0, |sh| sh.owner_of(run_id));
        if owner == 0 {
            let data_table = rundata_table(run_id);
            txn.drop_table(&data_table, true)?;
            txn.create_table(&data_table, rundata_schema(def))?;
            txn.insert_rows(&data_table, rows)?;
        } else if let Some(sh) = &sharding {
            place_rundata(sh, run_id, &rundata_schema(def), rows)?;
        }
        if sharding.is_some() {
            txn.execute(&format!("DELETE FROM pb_shards WHERE run_id = {run_id}"))?;
            txn.insert_rows(
                "pb_shards",
                vec![vec![Value::Int(run_id), Value::Int(owner as i64)]],
            )?;
        }
        txn.insert_rows("pb_runs", vec![row])?;
        if !sources.is_empty() {
            let recorded = sources.iter().map(|(h, f)| import_row(h, f, run_id));
            txn.insert_rows("pb_imports", recorded.collect())?;
        }
        txn.commit()?;
        Ok(run_id)
    }

    /// All run ids, ascending.
    pub fn run_ids(&self) -> Result<Vec<i64>> {
        let rs = self
            .engine
            .query("SELECT run_id FROM pb_runs ORDER BY run_id")?;
        Ok(rs.rows().iter().filter_map(|r| r[0].as_i64()).collect())
    }

    /// Summary of one run.
    pub fn run_summary(&self, run_id: i64) -> Result<RunSummary> {
        let rs = self
            .engine
            .query(&format!("SELECT * FROM pb_runs WHERE run_id = {run_id}"))?;
        let row = rs
            .rows()
            .first()
            .ok_or_else(|| Error::Query(format!("no run with id {run_id}")))?;
        self.summary_of(row)
    }

    /// Summary of the run whose `pb_runs` row, all columns, is `row`.
    pub(crate) fn summary_of(&self, row: &[Value]) -> Result<RunSummary> {
        let run_id = row[0].as_i64().expect("run_id is INTEGER");
        let def = self.def.read();
        let mut once_values = Vec::new();
        for (i, v) in def.variables_with(Occurrence::Once).enumerate() {
            once_values.push((v.name.clone(), row[2 + i].clone()));
        }
        let datasets = self
            .rundata_engine(run_id)
            .row_count(&rundata_table(run_id))?;
        Ok(RunSummary {
            run_id,
            created: row[1].as_i64().unwrap_or(0),
            once_values,
            datasets,
        })
    }

    /// Column names and rows of a run's data-set table.
    pub fn run_datasets(&self, run_id: i64) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let (schema, rows) = self
            .rundata_engine(run_id)
            .read_snapshot(&rundata_table(run_id))?;
        Ok((schema.names(), rows))
    }

    /// Delete a run, its data table and its import provenance: one
    /// transaction on the frontend (`pb_runs`, `pb_shards`, `pb_imports` and
    /// the data table when the frontend holds it), so a crash leaves all of
    /// the run or none of it. A remote owner's table goes after that commit;
    /// killed in between it stays as an invisible orphan, which the next
    /// [`ExperimentDb::add_run`] under that id replaces.
    pub fn delete_run(&self, run_id: i64) -> Result<()> {
        let _writer = self.writer.lock();
        let sharding = self.sharding();
        let owner = sharding.as_ref().map_or(0, |sh| sh.owner_of(run_id));
        let table = rundata_table(run_id);
        retrying(|| {
            let mut txn = self.engine.begin_txn();
            let n = txn.execute(&format!("DELETE FROM pb_runs WHERE run_id = {run_id}"))?;
            if n == 0 {
                return Err(Error::Query(format!("no run with id {run_id}")));
            }
            if sharding.is_some() {
                txn.execute(&format!("DELETE FROM pb_shards WHERE run_id = {run_id}"))?;
            }
            txn.execute(&format!("DELETE FROM pb_imports WHERE run_id = {run_id}"))?;
            if owner == 0 {
                txn.drop_table(&table, true)?;
            }
            Ok(txn.commit()?)
        })?;
        let Some(sh) = sharding else {
            return Ok(());
        };
        if owner != 0 {
            let owner_engine = &sh.cluster().node(owner).engine;
            owner_engine.drop_table(&table, true)?;
            if sh.map().replicas() > 0 {
                if owner_engine.has_wal() {
                    // The logged drop ships to the replicas at the
                    // commit barrier.
                    owner_engine.wal_sync()?;
                } else {
                    for rep in sh.map().replica_nodes(owner) {
                        sh.cluster().node(rep).engine.drop_table(&table, true)?;
                    }
                }
            }
        }
        sh.map().remove(run_id);
        Ok(())
    }

    /// Has a file with this content hash been imported before?
    pub fn is_imported(&self, hash: &str) -> Result<bool> {
        let rs = self.engine.query(&format!(
            "SELECT count(*) FROM pb_imports WHERE hash = '{hash}'"
        ))?;
        Ok(rs.rows()[0][0].as_i64().unwrap_or(0) > 0)
    }

    /// Record import provenance for duplicate detection.
    pub fn record_import(&self, hash: &str, filename: &str, run_id: i64) -> Result<()> {
        self.engine
            .insert_rows("pb_imports", vec![import_row(hash, filename, run_id)])?;
        Ok(())
    }
}

/// One more than the single value of a `SELECT max(run_id)` result; 1 when
/// there is no run.
fn next_after(max_run_id: &ResultSet) -> i64 {
    match max_run_id.rows().first().map(|r| &r[0]) {
        Some(Value::Int(m)) => m + 1,
        _ => 1,
    }
}

/// A `pb_imports` row.
fn import_row(hash: &str, filename: &str, run_id: i64) -> Vec<Value> {
    vec![
        Value::Text(hash.to_string()),
        Value::Text(filename.to_string()),
        Value::Int(run_id),
    ]
}

/// Name of the per-run data table.
pub(crate) fn rundata_table(run_id: i64) -> String {
    format!("pb_rundata_{run_id}")
}

/// Replace table `name` on `engine` by `rows` under `schema`.
fn replace_table(engine: &Engine, name: &str, schema: Schema, rows: Vec<Vec<Value>>) -> Result<()> {
    engine.drop_table(name, true)?;
    engine.create_table(name, schema)?;
    engine.insert_rows(name, rows)?;
    Ok(())
}

/// (Re)write `run_id`'s data table on the node that owns it and, when
/// shards are replicated, on that node's replicas; returns the owner. The
/// rows start out on the frontend, so shipping them to a remote node is
/// charged as a real transfer (header + payload).
fn place_rundata(
    sh: &Sharding,
    run_id: i64,
    schema: &Schema,
    rows: Vec<Vec<Value>>,
) -> Result<usize> {
    let data_table = rundata_table(run_id);
    let owner = sh.owner_of(run_id);
    let target = &sh.cluster().node(owner).engine;
    let n = rows.len();
    replace_table(target, &data_table, schema.clone(), rows.clone())?;
    if owner != 0 {
        sh.cluster().charge_shipment(n);
    }
    if sh.map().replicas() > 0 && owner != 0 {
        if target.has_wal() {
            // WAL-attached owner: the drop/create/insert above were logged,
            // so the commit barrier ships and applies them on every replica
            // — flushed here, *before* the caller publishes the run, so a
            // run is never visible while its replicas lack the data (zero
            // committed rows lost on owner death).
            target.wal_sync()?;
        } else {
            // No log to ship from: mirror the write by hand.
            for rep in sh.map().replica_nodes(owner) {
                let engine = &sh.cluster().node(rep).engine;
                replace_table(engine, &data_table, schema.clone(), rows.clone())?;
                sh.cluster().charge_shipment(n);
            }
        }
    }
    Ok(owner)
}

/// The rows of `engine`'s table `name` under the evolved `schema`, or `None`
/// when the table has that schema already: a column the table has keeps its
/// cells, coerced to the column's new type; a column it lacks holds the
/// variable's default (NULL without one).
fn evolved_rows(
    engine: &Engine,
    name: &str,
    schema: &Schema,
    def: &ExperimentDef,
) -> Result<Option<Vec<Vec<Value>>>> {
    let table = engine.pin_table(name)?;
    if *table.schema == *schema {
        return Ok(None);
    }
    let from: Vec<Option<usize>> = schema
        .columns
        .iter()
        .map(|c| table.schema.index_of(&c.name))
        .collect();
    let rows = table.to_rows();
    let evolved = rows.iter().map(|row| {
        let cell = |(col, from): (&Column, &Option<usize>)| {
            let v = match from {
                Some(i) => row[*i].clone(),
                None => def
                    .variable(&col.name)
                    .and_then(|v| v.default.clone())
                    .unwrap_or(Value::Null),
            };
            v.coerce(col.dtype)
                .map_err(|e| Error::Definition(format!("{name}.{}: {e}", col.name)))
        };
        schema.columns.iter().zip(&from).map(cell).collect()
    });
    evolved.collect::<Result<_>>().map(Some)
}

/// Secondary indexes for the query patterns every import and run lookup
/// hits: `pb_imports.hash` (duplicate-import detection, §3.2) and
/// `pb_runs.run_id` (run summaries, deletes, per-run joins) — ordered, so
/// that `max(run_id)`, the next run id, is read off the end of the index
/// instead of every row. A database written before that has a hash index of
/// this name; the statement upgrades it in place, logged once.
fn create_hot_path_indexes(engine: &Engine) -> Result<()> {
    engine.execute("CREATE INDEX IF NOT EXISTS pb_ix_imports_hash ON pb_imports (hash)")?;
    engine.execute("CREATE ORDERED INDEX IF NOT EXISTS pb_ix_runs_run_id ON pb_runs (run_id)")?;
    Ok(())
}

fn runs_schema(def: &ExperimentDef) -> Schema {
    let mut cols = vec![
        Column::not_null("run_id", DataType::Int),
        Column::not_null("created", DataType::Timestamp),
    ];
    for v in def.variables_with(Occurrence::Once) {
        cols.push(Column::new(&v.name, v.datatype));
    }
    Schema::new(cols).expect("variable names validated on definition")
}

fn rundata_schema(def: &ExperimentDef) -> Schema {
    let cols: Vec<Column> = def
        .variables_with(Occurrence::Multiple)
        .map(|v| Column::new(&v.name, v.datatype))
        .collect();
    Schema::new(cols).expect("variable names validated on definition")
}

fn validate_variable_name(v: &Variable) -> Result<()> {
    if !super::is_identifier(&v.name) {
        return Err(Error::Definition(format!(
            "variable name '{}' is not a valid identifier",
            v.name
        )));
    }
    if sqldb::sql::is_reserved(&v.name) {
        return Err(Error::Definition(format!(
            "variable name '{}' collides with an SQL keyword",
            v.name
        )));
    }
    if v.name.starts_with("pb_") || v.name == "run_id" || v.name == "created" {
        return Err(Error::Definition(format!(
            "variable name '{}' is reserved by perfbase",
            v.name
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Meta, VarKind};

    fn test_def() -> ExperimentDef {
        let mut def = ExperimentDef::new(
            Meta {
                name: "b_eff_io".into(),
                ..Meta::default()
            },
            "joachim",
        );
        def.add_variable(
            Variable::new("fs", VarKind::Parameter, DataType::Text)
                .once()
                .with_valid(&["ufs", "nfs", "unknown"])
                .with_default(Value::Text("unknown".into())),
        )
        .unwrap();
        def.add_variable(Variable::new("t_spec", VarKind::Parameter, DataType::Int).once())
            .unwrap();
        def.add_variable(Variable::new("s_chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        def
    }

    fn make_db() -> ExperimentDb {
        ExperimentDb::create(Arc::new(Engine::new()), test_def()).unwrap()
    }

    fn one_run(db: &ExperimentDb) -> i64 {
        let mut once = HashMap::new();
        once.insert("fs".to_string(), Value::Text("ufs".into()));
        once.insert("t_spec".to_string(), Value::Int(10));
        let ds1: HashMap<String, Value> = [
            ("s_chunk".to_string(), Value::Int(1024)),
            ("bw".to_string(), Value::Float(59.0)),
        ]
        .into();
        let ds2: HashMap<String, Value> = [
            ("s_chunk".to_string(), Value::Int(2048)),
            ("bw".to_string(), Value::Float(61.5)),
        ]
        .into();
        db.add_run(&once, &[ds1, ds2], 1_100_000_000).unwrap()
    }

    #[test]
    fn create_and_store_run() {
        let db = make_db();
        let id = one_run(&db);
        assert_eq!(id, 1);
        assert_eq!(db.run_ids().unwrap(), vec![1]);
        let s = db.run_summary(1).unwrap();
        assert_eq!(s.datasets, 2);
        assert_eq!(
            s.once_values.iter().find(|(n, _)| n == "fs").unwrap().1,
            Value::Text("ufs".into())
        );
        let (cols, rows) = db.run_datasets(1).unwrap();
        assert_eq!(cols, vec!["s_chunk", "bw"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn run_ids_increment() {
        let db = make_db();
        assert_eq!(one_run(&db), 1);
        assert_eq!(one_run(&db), 2);
        assert_eq!(db.next_run_id().unwrap(), 3);
    }

    #[test]
    fn defaults_fill_missing_once_values() {
        let db = make_db();
        let once = HashMap::new(); // no fs provided -> default "unknown"
        let id = db.add_run(&once, &[], 0).unwrap();
        let s = db.run_summary(id).unwrap();
        assert_eq!(
            s.once_values.iter().find(|(n, _)| n == "fs").unwrap().1,
            Value::Text("unknown".into())
        );
        // t_spec has no default -> NULL
        assert_eq!(
            s.once_values.iter().find(|(n, _)| n == "t_spec").unwrap().1,
            Value::Null
        );
    }

    #[test]
    fn occurrence_mismatch_rejected() {
        let db = make_db();
        let mut once = HashMap::new();
        once.insert("bw".to_string(), Value::Float(1.0)); // bw is multiple
        assert!(db.add_run(&once, &[], 0).is_err());
        let ds: HashMap<String, Value> = [("fs".to_string(), Value::Text("ufs".into()))].into();
        assert!(db.add_run(&HashMap::new(), &[ds], 0).is_err());
        let unk: HashMap<String, Value> = [("zzz".to_string(), Value::Int(1))].into();
        assert!(db.add_run(&unk, &[], 0).is_err());
    }

    #[test]
    fn delete_run_cleans_up() {
        let db = make_db();
        let id = one_run(&db);
        db.delete_run(id).unwrap();
        assert!(db.run_ids().unwrap().is_empty());
        assert!(db.run_summary(id).is_err());
        assert!(db.delete_run(id).is_err());
        assert!(!db.engine().has_table(&rundata_table(id)));
    }

    #[test]
    fn import_provenance() {
        let db = make_db();
        assert!(!db.is_imported("abc123").unwrap());
        db.record_import("abc123", "out1.txt", 1).unwrap();
        assert!(db.is_imported("abc123").unwrap());
    }

    #[test]
    fn reopen_from_engine() {
        let engine = Arc::new(Engine::new());
        {
            let db = ExperimentDb::create(engine.clone(), test_def()).unwrap();
            one_run(&db);
        }
        let db2 = ExperimentDb::open(engine).unwrap();
        assert_eq!(db2.definition().meta.name, "b_eff_io");
        assert_eq!(db2.run_ids().unwrap(), vec![1]);
        assert_eq!(db2.definition().variables.len(), 4);
    }

    #[test]
    fn evolution_adds_column_as_null() {
        let db = make_db();
        one_run(&db);
        db.update_definition(|def| {
            def.add_variable(Variable::new("nodes", VarKind::Parameter, DataType::Int).once())
        })
        .unwrap();
        let s = db.run_summary(1).unwrap();
        assert_eq!(
            s.once_values.iter().find(|(n, _)| n == "nodes").unwrap().1,
            Value::Null
        );
        // And the definition was persisted for reopen.
        let db2 = ExperimentDb::open(db.engine().clone()).unwrap();
        assert!(db2.definition().variable("nodes").is_some());
    }

    /// Every table that follows the definition, with its schema.
    fn definition_tables(db: &ExperimentDb) -> Vec<(Schema, Vec<Vec<Value>>)> {
        let mut tables = vec![db.engine().read_snapshot("pb_runs").unwrap()];
        for id in db.run_ids().unwrap() {
            let engine = db.rundata_engine(id);
            tables.push(engine.read_snapshot(&rundata_table(id)).unwrap());
        }
        tables
    }

    /// After every evolution step each run table has exactly
    /// `rundata_schema(def)` — wherever it lives, replicas included.
    #[test]
    fn evolution_rebuilds_every_run_table() {
        for nodes in [0, 4] {
            let db = make_db();
            one_run(&db);
            one_run(&db);
            one_run(&db);
            if nodes > 0 {
                let cluster = Cluster::with_frontend(
                    db.engine().clone(),
                    nodes,
                    sqldb::cluster::LatencyModel::none(),
                );
                let opts = ReplOptions {
                    replicas: 1,
                    ..ReplOptions::default()
                };
                db.attach_cluster_replicated(Arc::new(cluster), opts)
                    .unwrap();
            }
            // New variables: the default where there is one, NULL otherwise.
            db.update_definition(|def| {
                def.add_variable(Variable::new("lat", VarKind::ResultValue, DataType::Float))?;
                def.add_variable(
                    Variable::new("tries", VarKind::Parameter, DataType::Int)
                        .with_default(Value::Int(1)),
                )
            })
            .unwrap();
            let (cols, rows) = db.run_datasets(2).unwrap();
            assert_eq!(cols, ["s_chunk", "bw", "lat", "tries"]);
            assert_eq!(
                rows[1],
                [
                    Value::Int(2048),
                    Value::Float(61.5),
                    Value::Null,
                    Value::Int(1)
                ]
            );
            // A retyped variable is coerced, a removed one goes.
            db.update_definition(|def| {
                def.modify_variable(Variable::new(
                    "s_chunk",
                    VarKind::Parameter,
                    DataType::Float,
                ))?;
                def.remove_variable("tries").map(|_| ())
            })
            .unwrap();
            let want = rundata_schema(&db.definition());
            assert_eq!(want.names(), ["s_chunk", "bw", "lat"]);
            let copies = db.sharding().map_or(0, |sh| sh.map().replicas());
            for id in db.run_ids().unwrap() {
                let table = rundata_table(id);
                let (schema, rows) = db.rundata_engine(id).read_snapshot(&table).unwrap();
                assert_eq!(schema, want, "run {id}");
                assert_eq!(rows[0][0], Value::Float(1024.0));
                if let Some(sh) = db.sharding() {
                    let owner = sh.owner_of(id);
                    let replicas = if owner == 0 {
                        Vec::new()
                    } else {
                        sh.map().replica_nodes(owner)
                    };
                    assert_eq!(replicas.len(), if owner == 0 { 0 } else { copies });
                    for node in replicas {
                        let copy = sh.cluster().node(node).engine.read_snapshot(&table);
                        assert_eq!(copy.unwrap(), (schema.clone(), rows.clone()));
                    }
                }
            }
            // The next import fits beside the rebuilt tables.
            let ds: HashMap<String, Value> = [("s_chunk".to_string(), Value::Float(2.5))].into();
            let id = db.add_run(&HashMap::new(), &[ds], 0).unwrap();
            assert_eq!(db.run_datasets(id).unwrap().1[0][0], Value::Float(2.5));
        }
    }

    /// Content that does not fit a new type fails the update before the
    /// first table changes — also when other tables would have evolved.
    #[test]
    fn failed_evolution_changes_nothing() {
        let db = make_db();
        one_run(&db);
        one_run(&db);
        let before = (db.definition(), definition_tables(&db));
        let epoch = db.engine().epoch();
        // bw holds 61.5: no INTEGER. (Adding "extra" alone would work.)
        let err = db
            .update_definition(|def| {
                def.add_variable(Variable::new("extra", VarKind::Parameter, DataType::Int))?;
                def.modify_variable(Variable::new("bw", VarKind::ResultValue, DataType::Int))
            })
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("pb_rundata_1.bw: cannot coerce 61.5"),
            "{err}"
        );
        // fs holds 'ufs' in pb_runs: no INTEGER either.
        let err = db
            .update_definition(|def| {
                def.modify_variable(Variable::new("fs", VarKind::Parameter, DataType::Int).once())
            })
            .unwrap_err();
        assert!(err.to_string().contains("pb_runs.fs"), "{err}");
        assert_eq!(db.engine().epoch(), epoch, "nothing was written");
        assert!(before == (db.definition(), definition_tables(&db)));
    }

    /// An evolution step that leaves a table's schema alone leaves the table
    /// alone: a grant rewrites no run data.
    #[test]
    fn evolution_rewrites_only_tables_whose_schema_changes() {
        let db = make_db();
        one_run(&db);
        let pinned = db.engine().pin_table("pb_rundata_1").unwrap();
        let runs = db.engine().pin_table("pb_runs").unwrap();
        db.update_definition(|def| {
            def.grant("reader", AccessLevel::Query);
            Ok(())
        })
        .unwrap();
        db.update_definition(|def| {
            def.add_variable(Variable::new("nodes", VarKind::Parameter, DataType::Int).once())
        })
        .unwrap();
        assert!(Arc::ptr_eq(
            &pinned,
            &db.engine().pin_table("pb_rundata_1").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &runs,
            &db.engine().pin_table("pb_runs").unwrap()
        ));
    }

    #[test]
    fn evolution_removes_column() {
        let db = make_db();
        one_run(&db);
        db.update_definition(|def| def.remove_variable("t_spec").map(|_| ()))
            .unwrap();
        let s = db.run_summary(1).unwrap();
        assert!(!s.once_values.iter().any(|(n, _)| n == "t_spec"));
    }

    #[test]
    fn reserved_variable_names_rejected() {
        let mut def = test_def();
        def.variables
            .push(Variable::new("select", VarKind::Parameter, DataType::Int));
        assert!(ExperimentDb::create(Arc::new(Engine::new()), def).is_err());
        let mut def = test_def();
        def.variables
            .push(Variable::new("run_id", VarKind::Parameter, DataType::Int));
        assert!(ExperimentDb::create(Arc::new(Engine::new()), def).is_err());
    }
}
