//! Sequential query execution (paper §3.3, §4.2).
//!
//! Each element builds its output vector as a table of typed columns and
//! hands it on as a value (a [`DataVector`]: the `Arc<Table>` with column
//! metadata); no element touches an engine's catalog, so a query writes
//! nothing. Operators lean on the database's aggregation (GROUP BY)
//! wherever possible — the paper's §4.2 performance argument: the statement
//! is built as a value and runs in the engine's single-table pipeline over
//! the vector ([`Table::select`]). Source elements read the run tables as
//! one typed column scan, not one statement per run (`run_source`).
//!
//! Every other element reads its inputs' tables at the positions it needs,
//! and one rule types what it builds (DESIGN.md §4l): a vector's column
//! types come from its inputs and its operator, never from its cells, so an
//! empty vector is typed too. Rows are paired in `core` — element-wise
//! alignment, the combiner — under one key identity (`KeyIds`), the engine's
//! GROUP BY identity with NULL matching NULL; a combiner gathers its result
//! from both inputs' typed columns.
//!
//! Operator mode selection is automatic (paper §3.3.2):
//!
//! * input vector stems from a **source** element → *data-set aggregation*:
//!   reduce result values that share an identical set of input parameters;
//! * single input from a non-source element → reduce the whole vector into
//!   a single element;
//! * two or more input vectors → element-wise operation after aligning the
//!   vectors on their common parameters.
//!
//! # Sharded execution (Fig. 3 at data scale)
//!
//! When the experiment database is attached to a cluster
//! ([`ExperimentDb::attach_cluster`]), each run's data table lives on its
//! owning node, and a source element scans each run there. Every element
//! runs as it does unsharded, so the vectors are the unsharded ones, bit
//! for bit; what changes is the cluster's [`TransferStats`], reported per
//! query in [`QueryOutcome::transfer`]. **Aggregation pushdown** is a
//! charge model: a source whose one consumer is a decomposable aggregate
//! (`count`/`sum`/`min`/`max`/`avg`) is *fused* with it, and each of its
//! remote runs is charged the partial aggregates an owning node would send —
//! one row per group — instead of its selected rows, which every other
//! source (the **fallback**: `median`, several consumers, run-level values)
//! is charged.

use super::spec::{CombinerSpec, ElementKind, OpKind, QuerySpec, SourceSpec};
use super::{DataVector, KeyIds, QueryDag};
use crate::error::{Error, Result};
use crate::experiment::{ExperimentDb, ExperimentDef, Occurrence};
use crate::output;
use sqldb::aggregate::AggKind;
use sqldb::cluster::{Cluster, TransferStats};
use sqldb::sql::{parse_expr, SelectItem, SelectStmt, SqlExpr};
use sqldb::{Cell, Column, DataType, DbError, Schema, Table, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock cost of one executed element — the measurement the paper's
/// §4.3 rests on when it finds source elements at only ~10 % of query time.
/// That is the paper's figure (Python operators on a PostgreSQL server);
/// here, with one table per run and operators on typed columns, source
/// elements are 0.74 of the element time of the benchmark's query set over
/// 1200 runs (`core.query.source_share`; 0.77 while each run table was
/// scanned on its own, 0.89 while they sent a statement per run) and 0.22
/// over 12 runs (EXPERIMENTS.md C23).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementTiming {
    /// Element id.
    pub id: String,
    /// Element kind name (`source`, `operator`, …).
    pub kind: &'static str,
    /// Time spent executing the element.
    pub wall: Duration,
    /// Rows in the element's output vector (0 for output elements) — the
    /// volume that would cross the interconnect under a Fig. 3 placement.
    pub rows: usize,
}

/// Everything a query run produces.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Output vectors by element id.
    pub vectors: HashMap<String, DataVector>,
    /// Rendered artifacts by output-element id.
    pub artifacts: HashMap<String, String>,
    /// Per-element timings in execution order.
    pub timings: Vec<ElementTiming>,
    /// Simulated interconnect traffic this query caused (messages, rows
    /// moved, simulated latency) — `Some` only when executed against a
    /// cluster, as the delta of the cluster's [`TransferStats`] across the
    /// run.
    pub transfer: Option<TransferStats>,
}

impl QueryOutcome {
    /// Fraction of total element time spent in source elements (§4.3).
    pub fn source_time_fraction(&self) -> f64 {
        let total: Duration = self.timings.iter().map(|t| t.wall).sum();
        if total.is_zero() {
            return 0.0;
        }
        let sources: Duration = self
            .timings
            .iter()
            .filter(|t| t.kind == "source")
            .map(|t| t.wall)
            .sum();
        sources.as_secs_f64() / total.as_secs_f64()
    }
}

/// The DAG executor (paper §4.3, Fig. 3): one runner, three orthogonal
/// settings.
///
/// * **threads** ([`QueryRunner::parallel`]) — the elements of a wave run
///   on scoped threads instead of one after the other on the caller's;
/// * **element placement** ([`QueryRunner::on_cluster`]) — elements are
///   spread round-robin over the nodes of a simulated cluster, each output
///   vector landing on the node that consumes it;
/// * **data sharding + pushdown** — when the experiment is sharded across a
///   cluster ([`ExperimentDb::attach_cluster`]) sources scan their runs on
///   the data-owning nodes, and a source fused with its aggregation is
///   charged its partial aggregates (see the module docs);
///   [`QueryRunner::pushdown`] can charge every source its rows instead,
///   which is useful for measuring what the pushdown saves.
///
/// Every combination produces the same vectors, bit for bit, the same
/// artifacts and the same `timings` order; only wall-clock and
/// [`QueryOutcome::transfer`] differ.
pub struct QueryRunner<'a> {
    db: &'a ExperimentDb,
    pushdown: bool,
    parallel: bool,
    cluster: Option<&'a Cluster>,
}

/// Error text for a worker thread that died instead of returning.
const PANICKED: &str = "query worker thread panicked";

/// What one executed element hands back to the wave loop.
struct ElementResult {
    vector: Option<DataVector>,
    artifact: Option<String>,
    timing: ElementTiming,
}

impl<'a> QueryRunner<'a> {
    /// New runner: elements execute one after the other on the calling
    /// thread against the experiment's own engine, aggregation pushdown
    /// enabled.
    pub fn new(db: &'a ExperimentDb) -> Self {
        QueryRunner {
            db,
            pushdown: true,
            parallel: false,
            cluster: None,
        }
    }

    /// Enable or disable aggregation pushdown on sharded databases. With
    /// pushdown off, every remote run is charged the rows it selects (the
    /// fallback) — results are identical, only the interconnect traffic
    /// differs.
    pub fn pushdown(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// Run the elements of each wave (see [`QueryDag::waves`]) concurrently
    /// on scoped threads.
    pub fn parallel(mut self, enabled: bool) -> Self {
        self.parallel = enabled;
        self
    }

    /// Distribute the elements round-robin over the nodes of a simulated
    /// cluster under the Fig. 3 placement rule:
    ///
    /// * the **frontend node** holds the persistent experiment data, so
    ///   source elements always execute their database reads there;
    /// * every element's output vector belongs **on the node of the element
    ///   that consumes it** ("the output vector of each query element is
    ///   stored on the node on which the query element(s) run which use this
    ///   data for their input"); cross-node placement charges the simulated
    ///   socket cost;
    /// * when several consumers sit on different nodes, the vector is
    ///   replicated to each of them (also charged).
    ///
    /// The nodes' engines share this process, so a vector is handed over as
    /// a value and only the charge is real.
    pub fn on_cluster(mut self, cluster: &'a Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Node element `i` executes on: round-robin over the placement cluster.
    fn exec_node(&self, i: usize) -> usize {
        self.cluster.map_or(0, |c| i % c.len())
    }

    /// Node element `i`'s output vector must live on: the node of its first
    /// consumer (its own node when it has none).
    fn out_node(&self, dag: &QueryDag, i: usize) -> usize {
        self.exec_node(dag.consumers[i].first().copied().unwrap_or(i))
    }

    /// Interconnect counters of every cluster this run can charge: the
    /// placement cluster and the one the experiment is sharded across.
    fn transfer_stats(&self) -> Option<TransferStats> {
        let sharding = self.db.sharding();
        self.cluster
            .into_iter()
            .chain(sharding.iter().map(|sh| &**sh.cluster()))
            .map(Cluster::stats)
            .reduce(|a, b| TransferStats {
                messages: a.messages + b.messages,
                rows: a.rows + b.rows,
                simulated: a.simulated + b.simulated,
            })
    }

    /// Which source elements fuse with their aggregation on a sharded
    /// experiment (aggregation pushdown): `fused[i]` for source `i`.
    ///
    /// A pair fuses when the operator is a decomposable aggregate
    /// (`count`/`sum`/`min`/`max`/`avg`), its only input is the source, the
    /// source feeds nothing else, and the source's values are all
    /// multiple-occurrence (run-level values never touch the data tables,
    /// so there is nothing to push). A fused pair runs as every source and
    /// aggregate do; the fusion decides only what the link is charged for
    /// each remote run ([`run_source`]).
    fn plan_pushdown(&self, dag: &QueryDag, def: &ExperimentDef) -> Vec<bool> {
        let mut fused = vec![false; dag.spec.elements.len()];
        let sharded_over_multiple_nodes =
            self.db.sharding().is_some_and(|sh| sh.cluster().len() > 1);
        if !self.pushdown || !sharded_over_multiple_nodes {
            return fused;
        }
        for (j, element) in dag.spec.elements.iter().enumerate() {
            let ElementKind::Operator(o) = &element.kind else {
                continue;
            };
            let Some(agg) = o.op.aggregate() else {
                continue;
            };
            if !matches!(
                agg,
                AggKind::Count | AggKind::Sum | AggKind::Min | AggKind::Max | AggKind::Avg
            ) {
                continue;
            }
            let &[i] = &dag.input_idx[j][..] else {
                continue;
            };
            let ElementKind::Source(s) = &dag.spec.elements[i].kind else {
                continue;
            };
            if dag.consumers[i] != [j] {
                continue;
            }
            let Ok(plan) = plan_source(def, s) else {
                continue;
            };
            if !plan.once_values.is_empty() || plan.multi_values.is_empty() {
                continue;
            }
            fused[i] = true;
        }
        fused
    }

    /// Execute `spec`. Nothing is written to any engine: the vectors live in
    /// the outcome.
    pub fn run(&self, spec: QuerySpec) -> Result<QueryOutcome> {
        let dag = QueryDag::build(spec)?;
        let mut dag_span = obs::span("dag");
        dag_span.annotate(|| {
            format!(
                "query={} elements={}",
                dag.spec.name,
                dag.spec.elements.len()
            )
        });
        let stats_before = self.transfer_stats();
        let fused = self.plan_pushdown(&dag, &self.db.definition());

        let mut outcome = self.run_waves(&dag, &fused)?;
        if let (Some(now), Some(before)) = (self.transfer_stats(), &stats_before) {
            outcome.transfer = Some(now.delta_since(before));
        }
        Ok(outcome)
    }

    /// The one loop over DAG elements: wave by wave, each wave inline on the
    /// calling thread or on scoped threads, results stored in wave order
    /// after the join so the outcome is the same in every mode.
    fn run_waves(&self, dag: &QueryDag, fused: &[bool]) -> Result<QueryOutcome> {
        let mut outcome = QueryOutcome::default();
        for wave in dag.waves() {
            let results: Result<Vec<ElementResult>> = if self.parallel && wave.len() > 1 {
                let vectors = &outcome.vectors;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = wave
                        .iter()
                        .map(|&i| scope.spawn(move || self.run_element(dag, fused, i, vectors)))
                        .collect();
                    // Join every worker before looking at any result.
                    let joined: Vec<Result<ElementResult>> = handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|_| Err(Error::Query(PANICKED.into())))
                        })
                        .collect();
                    joined.into_iter().collect()
                })
            } else {
                wave.iter()
                    .map(|&i| self.run_element(dag, fused, i, &outcome.vectors))
                    .collect()
            };
            for (&i, done) in wave.iter().zip(results?) {
                // Replicate multi-consumer outputs to every consuming node.
                if let (Some(cluster), Some(v)) = (self.cluster, &done.vector) {
                    let home = self.out_node(dag, i);
                    let elsewhere: BTreeSet<usize> = dag.consumers[i]
                        .iter()
                        .map(|&c| self.exec_node(c))
                        .filter(|&node| node != home)
                        .collect();
                    for _node in elsewhere {
                        cluster.charge_shipment(v.table.len());
                    }
                }
                if let Some(artifact) = done.artifact {
                    outcome.artifacts.insert(done.timing.id.clone(), artifact);
                }
                if let Some(v) = done.vector {
                    outcome.vectors.insert(done.timing.id.clone(), v);
                }
                outcome.timings.push(done.timing);
            }
        }
        Ok(outcome)
    }

    /// Execute element `i`. Inputs are the `vectors` earlier waves produced;
    /// the element's own vector or artifact is returned, not stored, so
    /// concurrent elements of a wave share nothing mutable.
    fn run_element(
        &self,
        dag: &QueryDag,
        fused: &[bool],
        i: usize,
        vectors: &HashMap<String, DataVector>,
    ) -> Result<ElementResult> {
        let element = &dag.spec.elements[i];
        obs::incr(obs::Counter::DagElements);
        let mut el_span = obs::span("element");
        let started = Instant::now();
        // Inputs come from earlier waves, so their vectors are present.
        let input = |j: usize| &vectors[&dag.spec.elements[j].id];

        let mut artifact = None;
        let mut decision = "";
        let mut runs = None;
        let vector = match &element.kind {
            ElementKind::Source(s) => {
                if fused[i] {
                    obs::incr(obs::Counter::DagPushdownFused);
                    decision = " pushdown=fused";
                }
                let (vector, matched) = run_source(self.db, s, fused[i])?;
                runs = Some(matched);
                Some(vector)
            }
            ElementKind::Operator(o) => {
                let inputs: Vec<OperatorInput<'_>> = dag.input_idx[i]
                    .iter()
                    .map(|&j| {
                        let producer = &dag.spec.elements[j];
                        let from_source = matches!(producer.kind, ElementKind::Source(_));
                        (producer.id.as_str(), input(j), from_source)
                    })
                    .collect();
                Some(run_operator(&o.op, &inputs)?)
            }
            ElementKind::Combiner(c) => {
                let (l, r) = (input(dag.input_idx[i][0]), input(dag.input_idx[i][1]));
                Some(run_combiner(c, l, r)?)
            }
            ElementKind::Output(o) => {
                let parts: Vec<String> = dag.input_idx[i]
                    .iter()
                    .map(|&j| output::render(o, input(j)))
                    .collect();
                let rendered = parts.join("\n");
                if let Some(path) = &o.filename {
                    std::fs::write(path, &rendered)?;
                }
                artifact = Some(rendered);
                None
            }
        };
        let rows = vector.as_ref().map_or(0, |v| v.table.len());
        // Charge the simulated socket cost for shipping the output vector
        // off-node, mirroring Fig. 3's placement rule. A fused source is
        // reduced where its rows live: only its aggregate's vector travels.
        if let (Some(cluster), Some(_)) = (self.cluster, &vector) {
            if self.exec_node(i) != self.out_node(dag, i) && !fused[i] {
                cluster.charge_transfer(rows);
            }
        }
        el_span.annotate(|| {
            let runs = runs.map(|n| format!(" runs={n}")).unwrap_or_default();
            format!(
                "id={} kind={}{decision}{runs} rows={rows}",
                element.id,
                element.kind.name()
            )
        });
        let wall = started.elapsed();
        obs::record_duration(obs::Hist::ElementNs, wall);
        Ok(ElementResult {
            vector,
            artifact,
            timing: ElementTiming {
                id: element.id.clone(),
                kind: element.kind.name(),
                wall,
                rows,
            },
        })
    }
}

/// One input of an operator element: the producing element's id, its vector,
/// and whether that element is a source.
type OperatorInput<'a> = (&'a str, &'a DataVector, bool);

/// Render a [`Value`] as an SQL literal.
pub(crate) fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Timestamp(t) => t.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if f.is_finite() {
                format!("{f:?}")
            } else {
                "NULL".to_string()
            }
        }
    }
}

/// The once/multiple classification of everything a source element
/// references: WHERE clauses split by occurrence, plus the carry and value
/// columns split the same way, for [`run_source`] and the pushdown's
/// fusion rule.
struct SourcePlan {
    /// Restrictions on run-level (once-occurrence) columns, incl. run filters.
    pub once_where: Vec<String>,
    /// Restrictions on data-set (multiple-occurrence) columns.
    pub multi_where: Vec<String>,
    /// Carried parameters that are run-constant.
    pub once_carry: Vec<String>,
    /// Carried parameters that vary within a run.
    pub multi_carry: Vec<String>,
    /// Requested values that are run-constant.
    pub once_values: Vec<String>,
    /// Requested values living in the per-run data tables.
    pub multi_values: Vec<String>,
}

impl SourcePlan {
    /// The data-set restriction as the one expression every run's selection
    /// takes: parsed here, once per source element.
    fn multi_filter(&self) -> Result<Option<SqlExpr>> {
        if self.multi_where.is_empty() {
            return Ok(None);
        }
        Ok(Some(parse_expr(&self.multi_where.join(" AND "))?))
    }

    /// `SELECT run_id, <once cols> FROM pb_runs [WHERE …] ORDER BY run_id`,
    /// returning the selected column list alongside the SQL.
    fn runs_query(&self) -> (Vec<String>, String) {
        let mut run_cols = vec!["run_id".to_string()];
        run_cols.extend(self.once_carry.iter().cloned());
        run_cols.extend(self.once_values.iter().cloned());
        let mut sql = format!("SELECT {} FROM pb_runs", run_cols.join(", "));
        if !self.once_where.is_empty() {
            sql.push_str(&format!(" WHERE {}", self.once_where.join(" AND ")));
        }
        sql.push_str(" ORDER BY run_id");
        (run_cols, sql)
    }
}

/// Classify a source spec against the experiment definition (see
/// [`SourcePlan`]).
fn plan_source(def: &ExperimentDef, spec: &SourceSpec) -> Result<SourcePlan> {
    // Sort every referenced variable into once/multiple occurrence.
    let occurrence_of = |name: &str| -> Result<Occurrence> {
        def.variable(name)
            .map(|v| v.occurrence)
            .ok_or_else(|| Error::Query(format!("source references unknown variable '{name}'")))
    };
    let mut once_where = Vec::new();
    let mut multi_where = Vec::new();
    for f in &spec.filters {
        let var = def
            .variable(&f.parameter)
            .ok_or_else(|| Error::Query(format!("unknown filter parameter '{}'", f.parameter)))?;
        let clause = if f.op == super::spec::FilterOp::In {
            let lits: Result<Vec<String>> = f
                .value
                .split(',')
                .map(|raw| Ok(sql_literal(&var.parse_content(raw.trim())?)))
                .collect();
            format!("{} IN ({})", f.parameter, lits?.join(", "))
        } else {
            let lit = sql_literal(&var.parse_content(&f.value)?);
            format!("{} {} {}", f.parameter, f.op.sql(), lit)
        };
        match var.occurrence {
            Occurrence::Once => once_where.push(clause),
            Occurrence::Multiple => multi_where.push(clause),
        }
    }
    if let Some(from) = spec.run_filter.from {
        once_where.push(format!("created >= {from}"));
    }
    if let Some(to) = spec.run_filter.to {
        once_where.push(format!("created <= {to}"));
    }
    if !spec.run_filter.ids.is_empty() {
        let ids: Vec<String> = spec.run_filter.ids.iter().map(i64::to_string).collect();
        once_where.push(format!("run_id IN ({})", ids.join(", ")));
    }

    let mut once_carry = Vec::new();
    let mut multi_carry = Vec::new();
    for c in &spec.carry {
        match occurrence_of(c)? {
            Occurrence::Once => once_carry.push(c.clone()),
            Occurrence::Multiple => multi_carry.push(c.clone()),
        }
    }
    let mut once_values = Vec::new();
    let mut multi_values = Vec::new();
    for v in &spec.values {
        match occurrence_of(v)? {
            Occurrence::Once => once_values.push(v.clone()),
            Occurrence::Multiple => multi_values.push(v.clone()),
        }
    }
    Ok(SourcePlan {
        once_where,
        multi_where,
        once_carry,
        multi_carry,
        once_values,
        multi_values,
    })
}

/// Column labels from the experiment definition (`synopsis [unit]`).
fn source_labels(def: &ExperimentDef, cols: &[String]) -> HashMap<String, String> {
    let mut labels = HashMap::new();
    for c in cols {
        if let Some(var) = def.variable(c) {
            let unit = var.unit.to_string();
            let base = if var.synopsis.is_empty() {
                var.name.clone()
            } else {
                var.synopsis.clone()
            };
            labels.insert(
                c.clone(),
                if unit.is_empty() {
                    base
                } else {
                    format!("{base} [{unit}]")
                },
            );
        }
    }
    labels
}

/// The run-table scans of one source element in the statement accounting:
/// one statement of the `select` class per scanned table, as when each was a
/// SELECT, with the wall time of the scan loop as a whole — a pair of clock
/// reads around every run would be a sixth of what scanning the run costs.
struct ScanAccount {
    started: Instant,
    tables: u64,
}

impl Drop for ScanAccount {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos() as u64;
        obs::record_statements(obs::StmtClass::Select, self.tables, ns);
    }
}

/// Execute a source element (paper §3.3.1): retrieve the data tuples
/// matching the parameter and run restrictions from the experiment database
/// `db`. Returns the vector and the number of runs that matched.
///
/// One typed scan of all matching runs, in `run_id` order, and no statement
/// per run: the run tables are pinned where they live and the data-set
/// restriction selects positions in each ([`ExperimentDb::scan_runs`]) —
/// the runs the frontend serves as one batch, under one catalog hold and
/// with the restriction compiled once for all run tables that bind it alike.
/// The selected cells are appended column-wise to the vector's table — data
/// columns vector to vector, run-level (`pb_runs`) values as repeated
/// constants — with each output column resolved once and looked up by name
/// again only where a run table holds another column at that position. The
/// table's column types come from the experiment definition, which every run
/// table follows ([`ExperimentDb::update_definition`] rebuilds them), so an
/// empty vector is typed too. An error names its run.
///
/// On a sharded experiment each run on another node is one scan there (on
/// its owning node or a fresh replica), charged to the link as one message
/// of what the answer carries: the selected rows, or, for a source `fused`
/// with its aggregation (the pushdown), the partial aggregates the node
/// reduces them to — one row per group of the source's in-run carries among
/// the selected rows, one row when it carries none. The nodes share this
/// process, so the vector and its aggregate are computed as unsharded; only
/// the charge differs.
pub(crate) fn run_source(
    db: &ExperimentDb,
    spec: &SourceSpec,
    fused: bool,
) -> Result<(DataVector, usize)> {
    let def = db.definition();
    let plan = plan_source(&def, spec)?;

    // 1. Select matching runs (shared read access on pb_runs).
    let (run_cols, sql) = plan.runs_query();
    let runs = db.engine().query(&sql)?;

    let params: Vec<String> = plan
        .once_carry
        .iter()
        .chain(&plan.multi_carry)
        .cloned()
        .collect();
    let values: Vec<String> = plan
        .once_values
        .iter()
        .chain(&plan.multi_values)
        .cloned()
        .collect();
    let out_cols: Vec<String> = params.iter().chain(&values).cloned().collect();
    let typed = |name: &String| {
        let var = def.variable(name).expect("plan_source resolved the name");
        Column::new(name, var.datatype)
    };
    let mut out = Table::new(Schema::new(out_cols.iter().map(typed).collect())?);

    // 2. Per run, select the matching data sets and append them with the
    //    run-level columns attached.
    let filter = plan.multi_filter()?;
    // Per output column, the pb_runs column it repeats (if it is run-level).
    let once_idx: Vec<Option<usize>> = out_cols
        .iter()
        .map(|c| run_cols.iter().position(|r| r == c))
        .collect();
    // Only run-level columns: a tuple is the pb_runs row behind its run_id.
    let run_level_only = once_idx.iter().all(Option::is_some);
    // Those tuples, appended as one batch.
    let mut tuples = Vec::new();
    if run_level_only && filter.is_none() {
        // Nothing to ask of the data sets: one tuple per run.
        tuples.extend(runs.rows().iter().map(|run_row| run_row[1..].to_vec()));
    } else {
        let run_ids: Vec<i64> = runs
            .rows()
            .iter()
            .map(|run_row| run_row[0].as_i64().expect("run_id is INTEGER"))
            .collect();
        // One shard fragment materialised on the frontend per run — the
        // fallback path the aggregation pushdown avoids.
        if db.sharding().is_some() && !fused {
            obs::add(obs::Counter::DagShardsMaterialized, run_ids.len() as u64);
        }
        let carried = |data: &Table, positions: &[usize]| {
            if fused {
                data.groups(positions, &plan.multi_carry)
            } else {
                Ok(positions.len())
            }
        };
        let _scans = ScanAccount {
            started: Instant::now(),
            tables: run_ids.len() as u64,
        };
        // Per output column, where the last run table held it: a run table
        // follows the definition, so a name is looked up again only when
        // the column at that position is another.
        let mut at: Vec<usize> = vec![0; out_cols.len()];
        let mut cells: Vec<Cell<'_>> = Vec::with_capacity(out_cols.len());
        db.scan_runs(&run_ids, filter.as_ref(), carried, |k, data, positions| {
            let run_row = &runs.rows()[k];
            if run_level_only {
                // The run's tuple, once, iff a data set passes the restriction.
                if !positions.is_empty() {
                    tuples.push(run_row[1..].to_vec());
                }
                return Ok(());
            }
            cells.clear();
            for ((name, once), at) in out_cols.iter().zip(&once_idx).zip(&mut at) {
                cells.push(match once {
                    Some(i) => Cell::Constant(&run_row[*i]),
                    None => {
                        let cols = &data.schema.columns;
                        if cols.get(*at).is_none_or(|c| c.name != *name) {
                            *at = data
                                .schema
                                .index_of(name)
                                .ok_or_else(|| DbError::NoSuchColumn(name.clone()))?;
                        }
                        Cell::Column(*at)
                    }
                });
            }
            out.append_selected(data, positions, &cells)
        })
        .map_err(|(k, e)| Error::Query(format!("run {}: {e}", run_ids[k])))?;
    }
    out.insert_all(tuples)?;

    // 3. The vector, with labels from the definition.
    let labels = source_labels(&def, &out_cols);
    Ok((
        DataVector {
            table: Arc::new(out),
            params,
            values,
            labels,
        },
        runs.len(),
    ))
}

/// The type of `agg` over an input of type `input` — the typing rule of
/// derived vectors (DESIGN.md §4l) for aggregates: `count` counts,
/// `min`/`max`/`first` keep one of the inputs, every other aggregate
/// computes a FLOAT.
fn aggregate_type(agg: AggKind, input: DataType) -> DataType {
    match agg {
        AggKind::Count => DataType::Int,
        AggKind::Min | AggKind::Max | AggKind::First => input,
        _ => DataType::Float,
    }
}

/// The vector of `rows`, the columns `values` aggregated by `agg` and
/// grouped by `keys`, whose input types `dtype` and input `labels` give: a
/// key keeps its type and label, a value takes [`aggregate_type`] and the
/// label `agg(label)`.
fn reduced_vector(
    agg: AggKind,
    keys: Vec<String>,
    values: Vec<String>,
    labels: &HashMap<String, String>,
    dtype: impl Fn(&str) -> DataType,
    rows: Vec<Vec<Value>>,
) -> Result<DataVector> {
    let columns = keys.iter().map(|c| Column::new(c, dtype(c))).chain(
        values
            .iter()
            .map(|c| Column::new(c, aggregate_type(agg, dtype(c)))),
    );
    let reduced = |c: &String| format!("{}({})", agg.name(), labels.get(c).unwrap_or(c));
    let labels = keys
        .iter()
        .filter_map(|c| Some((c.clone(), labels.get(c)?.clone())))
        .chain(values.iter().map(|c| (c.clone(), reduced(c))))
        .collect();
    Ok(DataVector {
        table: typed_table(columns.collect(), rows)?,
        params: keys,
        values,
        labels,
    })
}

/// A vector's table: `columns`, typed by the rule of DESIGN.md §4l, holding
/// `rows`.
fn typed_table(columns: Vec<Column>, rows: Vec<Vec<Value>>) -> Result<Arc<Table>> {
    let mut table = Table::new(Schema::new(columns)?);
    table.insert_all(rows)?;
    Ok(Arc::new(table))
}

/// Positions of the columns `names` in `table`, which has them all.
fn columns_of(table: &Table, names: &[String]) -> Vec<usize> {
    let at = |name: &String| table.schema.index_of(name).expect("vector columns");
    names.iter().map(at).collect()
}

/// The type of the column `name` of `table`, which has it.
fn type_of(table: &Table, name: &str) -> DataType {
    table.schema.column(name).expect("vector columns").dtype
}

/// Execute an operator element.
fn run_operator(op: &OpKind, inputs: &[OperatorInput<'_>]) -> Result<DataVector> {
    match inputs {
        [] => Err(Error::Query("operator without inputs".into())),
        [(_, v, from_source)] => run_operator_single(op, v, *from_source),
        multiple => run_operator_elementwise(op, multiple),
    }
}

/// Single-input operator: data-set aggregation (source input), full
/// reduction (non-source input), or row-wise transform (eval/scale/offset).
/// A transform keeps the vector's columns and their types, except that a
/// numeric value column `scale` or `offset` maps becomes FLOAT (a TEXT one
/// passes unchanged) and `eval` adds a FLOAT column.
fn run_operator_single(op: &OpKind, v: &DataVector, from_source: bool) -> Result<DataVector> {
    if let Some(agg) = op.aggregate() {
        return aggregate(agg, v, from_source && !v.params.is_empty());
    }
    let mut rows = v.table.to_rows();
    let mut columns = v.table.schema.columns.clone();
    let mut values = v.values.clone();
    let mut labels = v.labels.clone();
    let map = |f: &dyn Fn(f64) -> f64, rows: &mut Vec<Vec<Value>>, columns: &mut [Column]| {
        for i in columns_of(&v.table, &v.values) {
            if columns[i].dtype == DataType::Text {
                continue;
            }
            columns[i].dtype = DataType::Float;
            for row in rows.iter_mut() {
                if let Some(x) = row[i].as_f64() {
                    row[i] = Value::Float(f(x));
                }
            }
        }
    };
    match op {
        OpKind::Scale(f) => map(&|x| x * f, &mut rows, &mut columns),
        OpKind::Offset(b) => map(&|x| x + b, &mut rows, &mut columns),
        OpKind::Eval(expr) => {
            // New value column computed from any numeric columns.
            for row in &mut rows {
                let mut ctx = exprcalc::Context::new();
                for (c, val) in columns.iter().zip(row.iter()) {
                    if let Some(x) = val.as_f64() {
                        ctx.set(&c.name, x);
                    }
                }
                let y = expr.eval(&ctx).map_err(crate::error::Error::from)?;
                row.push(Value::Float(y));
            }
            columns.push(Column::new("eval", DataType::Float));
            values.push("eval".to_string());
            labels.insert("eval".into(), expr.source().to_string());
        }
        other => {
            return Err(Error::Query(format!(
                "operator '{}' cannot take a single input",
                other.name()
            )))
        }
    }
    Ok(DataVector {
        table: typed_table(columns, rows)?,
        params: v.params.clone(),
        values,
        labels,
    })
}

/// Aggregate every value of `v` in the database's executor — the
/// in-database operator path the paper's §4.2 advocates: `grouped`, over the
/// tuples that share all parameters (data-set aggregation, `GROUP BY` every
/// parameter); otherwise over the whole vector, down to one element (mode 2
/// of §3.3.2). The statement is built as a value, not as text: column names
/// are never parsed. Its rows become a [`reduced_vector`].
fn aggregate(agg: AggKind, v: &DataVector, grouped: bool) -> Result<DataVector> {
    let keys: &[String] = if grouped { &v.params } else { &[] };
    let key = |c: &String| SelectItem::Expr {
        expr: SqlExpr::Col(c.clone()),
        alias: None,
    };
    let call = |c: &String| SelectItem::Expr {
        expr: SqlExpr::Func {
            name: agg.name().to_string(),
            args: vec![SqlExpr::Col(c.clone())],
            star: false,
        },
        alias: Some(c.clone()),
    };
    let rs = v.table.select(&SelectStmt {
        distinct: false,
        items: keys
            .iter()
            .map(key)
            .chain(v.values.iter().map(call))
            .collect(),
        from: None,
        joins: Vec::new(),
        where_clause: None,
        group_by: keys.to_vec(),
        order_by: Vec::new(),
        limit: None,
    })?;
    let dtype = |c: &str| type_of(&v.table, c);
    let (keys, values) = (keys.to_vec(), v.values.clone());
    reduced_vector(agg, keys, values, &v.labels, dtype, rs.into_rows())
}

/// Element-wise operation across ≥2 vectors aligned on common parameters
/// (mode 3 of §3.3.2). The result has the driver's rows in the driver's
/// order — a key the driver holds twice once, where it first appears, with
/// the values of its last row — under the common parameters (the driver's
/// types) and one FLOAT column.
fn run_operator_elementwise(op: &OpKind, inputs: &[OperatorInput<'_>]) -> Result<DataVector> {
    let vectors: Vec<&DataVector> = inputs.iter().map(|(_, v, _)| *v).collect();

    // Broadcast rule: a vector with no parameters and a single tuple is
    // applied against every key (e.g. comparing a sweep to one global
    // reference number).
    let broadcast: Vec<bool> = vectors
        .iter()
        .map(|v| v.params.is_empty() && v.table.len() == 1)
        .collect();

    // Alignment key: parameters common to every NON-broadcast input (the
    // broadcast inputs join every key by definition).
    let aligned: Vec<usize> = (0..inputs.len()).filter(|&k| !broadcast[k]).collect();
    let common: Vec<String> = match aligned.first() {
        None => Vec::new(), // all inputs broadcast: one global tuple
        Some(&k0) => vectors[k0]
            .params
            .iter()
            .filter(|p| aligned.iter().all(|&k| vectors[k].params.contains(p)))
            .cloned()
            .collect(),
    };

    // Without an alignment key, multi-row vectors cannot be paired
    // element-wise; silently matching arbitrary rows would fabricate data.
    if common.is_empty() {
        for &k in &aligned {
            if vectors[k].table.len() > 1 {
                return Err(Error::Query(format!(
                    "cannot align vectors element-wise: input {} ('{}') has {} rows but \
                     the inputs share no parameters (aggregate it first)",
                    k + 1,
                    inputs[k].0,
                    vectors[k].table.len()
                )));
            }
        }
    }

    // Per non-broadcast input, the position of each key's last row (keys
    // are normally unique: operators follow an aggregation step). The
    // driver — the first non-broadcast input, or input 0 when everything
    // broadcasts — is keyed first, so its keys are ids 0.. in the order of
    // their first rows.
    let mut ids = KeyIds::default();
    let mut last: Vec<Vec<Option<usize>>> = vec![Vec::new(); inputs.len()];
    for &k in &aligned {
        let table = &vectors[k].table;
        let rows = ids.rows(table, &columns_of(table, &common));
        last[k] = vec![None; ids.len()];
        for (pos, id) in rows.into_iter().enumerate() {
            last[k][id] = Some(pos);
        }
    }
    let driver = aligned.first().copied().unwrap_or(0);
    let keys = aligned.first().map_or(1, |&d| last[d].len());
    let at = |k: usize, id: usize| {
        if broadcast[k] {
            Some(0)
        } else {
            last[k].get(id).copied().flatten()
        }
    };
    let value_cols: Vec<Vec<usize>> = vectors
        .iter()
        .map(|v| columns_of(&v.table, &v.values))
        .collect();
    let param_cols = columns_of(&vectors[driver].table, &common);

    let mut out_rows = Vec::with_capacity(keys);
    'keys: for id in 0..keys {
        // The first value of every input at this key.
        let mut operands: Vec<f64> = Vec::with_capacity(inputs.len());
        let mut named = exprcalc::Context::new();
        for (slot, v) in vectors.iter().enumerate() {
            let Some(pos) = at(slot, id) else {
                continue 'keys; // inner-join semantics
            };
            let x = value_cols[slot]
                .first()
                .and_then(|&c| v.table.value(pos, c).as_f64())
                .ok_or_else(|| Error::Query("element-wise operator needs numeric values".into()))?;
            operands.push(x);
            if !matches!(op, OpKind::Eval(_)) {
                continue;
            }
            // For eval: expose every value column, suffixed by position when
            // names collide across inputs.
            for (name, &c) in v.values.iter().zip(&value_cols[slot]) {
                if let Some(f) = v.table.value(pos, c).as_f64() {
                    let unique = vectors
                        .iter()
                        .enumerate()
                        .all(|(k, w)| k == slot || !w.values.contains(name));
                    if unique {
                        named.set(name, f);
                    }
                    named.set(&format!("{name}_{}", slot + 1), f);
                }
            }
        }
        let pos = at(driver, id).expect("the driver holds every key");
        let mut row: Vec<Value> = param_cols
            .iter()
            .map(|&c| vectors[driver].table.value(pos, c))
            .collect();
        // Parameters are numeric context too (chunk sizes etc.).
        for (p, val) in common.iter().zip(&row) {
            if let Some(f) = val.as_f64() {
                named.set(p, f);
            }
        }
        row.push(Value::Float(apply_elementwise(op, &operands, &named)?));
        out_rows.push(row);
    }

    let out_value_name = match op {
        OpKind::Eval(_) => "eval".to_string(),
        other => other.name().to_string(),
    };
    let mut columns: Vec<Column> = common
        .iter()
        .map(|p| Column::new(p, type_of(&vectors[driver].table, p)))
        .collect();
    columns.push(Column::new(&out_value_name, DataType::Float));
    let table = typed_table(columns, out_rows)?;

    let first = vectors[0];
    let mut labels: HashMap<String, String> = HashMap::new();
    for p in &common {
        labels.insert(p.clone(), first.label(p));
    }
    let lname = first
        .values
        .first()
        .map(|c| first.label(c))
        .unwrap_or_default();
    let rname = vectors
        .get(1)
        .and_then(|v| v.values.first().map(|c| v.label(c)))
        .unwrap_or_default();
    let label = match op {
        OpKind::Diff => format!("{lname} - {rname}"),
        OpKind::Div => format!("{lname} / {rname}"),
        OpKind::PercentOf => format!("{lname} as % of {rname}"),
        OpKind::Above => format!("{lname} relative to {rname} [%]"),
        OpKind::Below => format!("{lname} below {rname} [%]"),
        OpKind::Eval(e) => e.source().to_string(),
        other => format!("{}({lname}, …)", other.name()),
    };
    labels.insert(out_value_name.clone(), label);

    Ok(DataVector {
        table,
        params: common,
        values: vec![out_value_name],
        labels,
    })
}

fn apply_elementwise(op: &OpKind, xs: &[f64], named: &exprcalc::Context) -> Result<f64> {
    let binary = |f: fn(f64, f64) -> f64| -> Result<f64> {
        if xs.len() != 2 {
            return Err(Error::Query(format!(
                "operator '{}' needs exactly two inputs",
                op.name()
            )));
        }
        Ok(f(xs[0], xs[1]))
    };
    match op {
        OpKind::Diff => binary(|a, b| a - b),
        OpKind::Div => binary(|a, b| a / b),
        OpKind::PercentOf => binary(|a, b| a / b * 100.0),
        OpKind::Above => binary(|a, b| (a / b - 1.0) * 100.0),
        OpKind::Below => binary(|a, b| (1.0 - a / b) * 100.0),
        OpKind::Min => Ok(xs.iter().copied().fold(f64::INFINITY, f64::min)),
        OpKind::Max => Ok(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        OpKind::Sum => Ok(xs.iter().sum()),
        OpKind::Prod => Ok(xs.iter().product()),
        OpKind::Avg => Ok(xs.iter().sum::<f64>() / xs.len() as f64),
        OpKind::Median => {
            let mut v: Vec<f64> = xs.to_vec();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            Ok(if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            })
        }
        OpKind::Scale(f) => Ok(xs[0] * f),
        OpKind::Offset(b) => Ok(xs[0] + b),
        OpKind::Eval(e) => Ok(e.eval(named)?),
        other => Err(Error::Query(format!(
            "operator '{}' is not element-wise",
            other.name()
        ))),
    }
}

/// Execute a combiner element (paper §3.3.3): align two vectors on their
/// shared parameters; all result values of both pass through, duplicate
/// parameters are removed, colliding value names are suffixed. Every left
/// row pairs with each right row of its key, in left-major order, and the
/// result is gathered from both tables at those positions: every column
/// keeps its input's type.
fn run_combiner(spec: &CombinerSpec, left: &DataVector, right: &DataVector) -> Result<DataVector> {
    let common: Vec<String> = left
        .params
        .iter()
        .filter(|p| right.params.contains(p))
        .cloned()
        .collect();

    let mut ids = KeyIds::default();
    let lkeys = ids.rows(&left.table, &columns_of(&left.table, &common));
    let rkeys = ids.rows(&right.table, &columns_of(&right.table, &common));
    let mut matches: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (r, id) in rkeys.into_iter().enumerate() {
        matches[id].push(r);
    }
    let (mut lpos, mut rpos) = (Vec::new(), Vec::new());
    for (l, id) in lkeys.into_iter().enumerate() {
        lpos.extend(std::iter::repeat_n(l, matches[id].len()));
        rpos.extend_from_slice(&matches[id]);
    }

    // Rename colliding value columns.
    let rename = |name: &str, from_left: bool| -> String {
        let collides =
            left.values.contains(&name.to_string()) && right.values.contains(&name.to_string());
        if collides {
            format!(
                "{name}{}",
                if from_left {
                    &spec.suffix_left
                } else {
                    &spec.suffix_right
                }
            )
        } else {
            name.to_string()
        }
    };

    // Output layout: common params, left-only params, right-only params,
    // left values, right values — each (side, input column, output name).
    let only = |v: &DataVector| -> Vec<String> {
        let only = v.params.iter().filter(|p| !common.contains(p));
        only.cloned().collect()
    };
    let (lonly, ronly) = (only(left), only(right));
    let mut out_params = common.clone();
    out_params.extend(lonly.iter().cloned());
    out_params.extend(ronly.iter().cloned());
    let lvals_out: Vec<String> = left.values.iter().map(|v| rename(v, true)).collect();
    let rvals_out: Vec<String> = right.values.iter().map(|v| rename(v, false)).collect();
    let layout = (common.iter().chain(&lonly).map(|p| (0, p, p)))
        .chain(ronly.iter().map(|p| (1, p, p)))
        .chain(left.values.iter().zip(&lvals_out).map(|(v, o)| (0, v, o)))
        .chain(right.values.iter().zip(&rvals_out).map(|(v, o)| (1, v, o)));
    let (mut schema, mut columns) = (Vec::new(), Vec::new());
    for (side, name, out) in layout {
        let input = [left, right][side];
        let c = input.table.schema.index_of(name).expect("vector columns");
        schema.push(Column::new(out, input.table.schema.columns[c].dtype));
        columns.push((side, c));
    }
    let parts = [(&*left.table, &lpos[..]), (&*right.table, &rpos[..])];
    let table = Table::gathered(Schema::new(schema)?, &parts, &columns);

    let mut labels = HashMap::new();
    for p in &out_params {
        let l = left.labels.get(p).or_else(|| right.labels.get(p));
        if let Some(l) = l {
            labels.insert(p.clone(), l.clone());
        }
    }
    for (orig, renamed) in left.values.iter().zip(&lvals_out) {
        let mut label = left.label(orig);
        if renamed != orig {
            label.push_str(&format!(" [{}]", spec.suffix_left.trim_start_matches('_')));
        }
        labels.insert(renamed.clone(), label);
    }
    for (orig, renamed) in right.values.iter().zip(&rvals_out) {
        let mut label = right.label(orig);
        if renamed != orig {
            label.push_str(&format!(" [{}]", spec.suffix_right.trim_start_matches('_')));
        }
        labels.insert(renamed.clone(), label);
    }
    let mut out_values = lvals_out;
    out_values.extend(rvals_out);
    Ok(DataVector {
        table: Arc::new(table),
        params: out_params,
        values: out_values,
        labels,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiment::{ExperimentDef, Meta, VarKind, Variable};
    use crate::query::spec::{query_from_str, Filter, FilterOp, RunFilter};
    use sqldb::cluster::LatencyModel;
    use sqldb::{DataType, Engine};

    /// Small experiment: technique × chunk, bandwidth values, 2 runs per
    /// configuration with controlled numbers.
    pub(crate) fn seeded_db() -> ExperimentDb {
        let mut def = ExperimentDef::new(
            Meta {
                name: "t".into(),
                ..Meta::default()
            },
            "u",
        );
        def.add_variable(Variable::new("technique", VarKind::Parameter, DataType::Text).once())
            .unwrap();
        def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();

        // old: bw = chunk/100 + rep   new: bw = chunk/50 + rep (better)
        for technique in ["old", "new"] {
            for rep in 0..2 {
                let once: HashMap<String, Value> =
                    [("technique".to_string(), Value::Text(technique.into()))].into();
                let datasets: Vec<HashMap<String, Value>> = [100i64, 200, 400]
                    .iter()
                    .map(|&chunk| {
                        let factor = if technique == "old" { 100.0 } else { 50.0 };
                        [
                            ("chunk".to_string(), Value::Int(chunk)),
                            (
                                "bw".to_string(),
                                Value::Float(chunk as f64 / factor + rep as f64),
                            ),
                        ]
                        .into()
                    })
                    .collect();
                db.add_run(&once, &datasets, 1000 + rep).unwrap();
            }
        }
        db
    }

    #[test]
    fn source_retrieves_filtered_tuples() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["s"];
        assert_eq!(v.params, vec!["chunk"]);
        assert_eq!(v.values, vec!["bw"]);
        // 2 runs × 3 chunks.
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().count(), 1 + 6);
    }

    #[test]
    fn dataset_aggregation_mode() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="max" input="s"/>
               <output id="o" input="m" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        // Aggregated over runs: 3 rows (one per chunk), max of rep 0/1 = +1.
        let csv = &out.artifacts["o"];
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[1].starts_with("100,"));
        assert!(lines[1].contains("2")); // 100/100 + 1
    }

    #[test]
    fn full_reduction_mode() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="max" input="s"/>
               <operator id="g" type="max" input="m"/>
               <output id="o" input="g" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["g"];
        assert!(v.params.is_empty());
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().count(), 2); // header + single reduced row
        assert!(csv.lines().nth(1).unwrap().starts_with("5")); // 400/100+1
    }

    #[test]
    fn fig7_pipeline_relative_difference() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q">
              <source id="s_old">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <source id="s_new">
                <parameter name="technique" value="new"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="max_old" type="max" input="s_old"/>
              <operator id="max_new" type="max" input="s_new"/>
              <operator id="rel" type="above" input="max_new,max_old"/>
              <output id="o" input="rel" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["rel"];
        assert_eq!(v.params, vec!["chunk"]);
        let (cols, rows) = {
            let csv = &out.artifacts["o"];
            let mut lines = csv.lines();
            let cols: Vec<String> = lines
                .next()
                .unwrap()
                .split(',')
                .map(str::to_string)
                .collect();
            let rows: Vec<Vec<String>> = lines
                .map(|l| l.split(',').map(str::to_string).collect())
                .collect();
            (cols, rows)
        };
        assert_eq!(cols, vec!["chunk", "above"]);
        assert_eq!(rows.len(), 3);
        // chunk=400: old max = 5, new max = 9 → (9/5-1)*100 = 80%
        let r400 = rows.iter().find(|r| r[0] == "400").unwrap();
        let pct: f64 = r400[1].parse().unwrap();
        assert!((pct - 80.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn eval_operator_single_input() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="avg" input="s"/>
               <operator id="e" type="eval" input="m" arg="bw * 8"/>
               <output id="o" input="e" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["e"];
        assert!(v.values.contains(&"eval".to_string()));
        // avg over reps of chunk 100 = (1.0 + 2.0)/2 = 1.5; ×8 = 12
        let csv = &out.artifacts["o"];
        let line = csv.lines().find(|l| l.starts_with("100,")).unwrap();
        assert!(line.ends_with("12") || line.contains("12"), "{line}");
    }

    #[test]
    fn scale_and_offset() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <operator id="x" type="scale" input="a" arg="2"/>
               <operator id="y" type="offset" input="x" arg="-1"/>
               <output id="o" input="y" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let csv = &out.artifacts["o"];
        // chunk 100: avg 1.5 → ×2 = 3 → -1 = 2
        let line = csv.lines().find(|l| l.starts_with("100,")).unwrap();
        let val: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((val - 2.0).abs() < 1e-12);
    }

    #[test]
    fn combiner_merges_vectors() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q">
              <source id="s_old">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <source id="s_new">
                <parameter name="technique" value="new"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="m1" type="avg" input="s_old"/>
              <operator id="m2" type="avg" input="s_new"/>
              <combiner id="c" input="m1,m2" suffixes="_old,_new"/>
              <output id="o" input="c" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["c"];
        assert_eq!(v.params, vec!["chunk"]);
        assert_eq!(v.values, vec!["bw_old", "bw_new"]);
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().next().unwrap(), "chunk,bw_old,bw_new");
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn timings_cover_all_elements() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="ascii"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        assert_eq!(out.timings.len(), 3);
        let frac = out.source_time_fraction();
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn run_id_filter() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <run ids="1"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        assert_eq!(out.artifacts["o"].lines().count(), 1 + 3); // one run only
    }

    #[test]
    fn time_window_filter() {
        let db = seeded_db();
        // Runs were created at 1000 and 1001; restrict to created >= 1001.
        let mut q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        if let ElementKind::Source(s) = &mut q.elements[0].kind {
            s.run_filter.from = Some(1001);
        }
        let out = QueryRunner::new(&db).run(q).unwrap();
        // 2 techniques × 1 run × 3 chunks
        assert_eq!(out.artifacts["o"].lines().count(), 1 + 6);
    }

    #[test]
    fn in_filter() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" op="in" value="old,new"/>
                 <parameter name="chunk" op="ge" value="200" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        // 4 runs × 2 chunks (200, 400)
        assert_eq!(out.artifacts["o"].lines().count(), 1 + 8);
    }

    #[test]
    fn elementwise_without_shared_params_needs_aggregation() {
        let db = seeded_db();
        // Two raw multi-row source vectors aligned only on... nothing:
        // one side is reduced, the other is not, and the carries differ.
        let q = query_from_str(
            r#"<query name="q">
              <source id="a">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <source id="b">
                <parameter name="technique" value="new"/>
                <value name="bw"/>
              </source>
              <operator id="d" type="diff" input="a,b"/>
              <output id="o" input="d" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let err = QueryRunner::new(&db).run(q).unwrap_err();
        assert!(err.to_string().contains("aggregate it first"), "{err}");
    }

    #[test]
    fn broadcast_against_global_reference() {
        let db = seeded_db();
        // Reduce one side to a single global number, then compare the whole
        // sweep against it (percentof with a broadcast input).
        let q = query_from_str(
            r#"<query name="q">
              <source id="sweep">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="per_chunk" type="max" input="sweep"/>
              <source id="refsrc">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="agg" type="max" input="refsrc"/>
              <operator id="best" type="max" input="agg"/>
              <operator id="pct" type="percentof" input="per_chunk,best"/>
              <output id="o" input="pct" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let csv = &out.artifacts["o"];
        // Global max is 5 (chunk 400, rep 1). percentof: chunk 400 → 100%.
        let line = csv.lines().find(|l| l.starts_with("400,")).unwrap();
        let pct: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((pct - 100.0).abs() < 1e-9);
        // chunk 100 → max 2 → 40% of 5.
        let line = csv.lines().find(|l| l.starts_with("100,")).unwrap();
        let pct: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((pct - 40.0).abs() < 1e-9);
    }

    #[test]
    fn combiner_without_shared_params_cross_joins_single_rows() {
        let db = seeded_db();
        // Combine two fully-reduced single-row vectors: the only sensible
        // alignment is the cross product of the 1×1 rows.
        let q = query_from_str(
            r#"<query name="q">
              <source id="a">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <source id="b">
                <parameter name="technique" value="new"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="ra" type="avg" input="a"/>
              <operator id="ga" type="max" input="ra"/>
              <operator id="rb" type="avg" input="b"/>
              <operator id="gb" type="max" input="rb"/>
              <combiner id="c" input="ga,gb" suffixes="_old,_new"/>
              <output id="o" input="c" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().next().unwrap(), "bw_old,bw_new");
        assert_eq!(csv.lines().count(), 2);
    }

    /// A vector of `rows` under `columns`, the first `params` of them its
    /// parameters and the others its values.
    pub(crate) fn vector_of(
        columns: &[(&str, DataType)],
        params: usize,
        rows: Vec<Vec<Value>>,
    ) -> DataVector {
        let names: Vec<String> = columns.iter().map(|(n, _)| n.to_string()).collect();
        let typed = columns.iter().map(|(n, t)| Column::new(n, *t)).collect();
        DataVector {
            table: typed_table(typed, rows).unwrap(),
            params: names[..params].to_vec(),
            values: names[params..].to_vec(),
            labels: HashMap::new(),
        }
    }

    /// Alignment goes by the engine's key identity, not by a rendering of
    /// the cells a TEXT parameter can imitate: tuples whose keys once
    /// rendered to one `U+0001`-joined string stay apart, and `-0.0` meets
    /// `0.0` as it does in GROUP BY.
    #[test]
    fn alignment_keys_are_values_not_renderings() {
        use DataType::{Float, Text};
        let text = |s: &str| Value::Text(s.into());
        let left = vector_of(
            &[("a", Text), ("b", Text), ("l", Float)],
            2,
            vec![
                vec![text("x\u{1}t:y"), text("z"), Value::Float(1.0)],
                vec![text("x"), text("y\u{1}t:z"), Value::Float(2.0)],
            ],
        );
        let right = vector_of(
            &[("a", Text), ("b", Text), ("r", Float)],
            2,
            vec![vec![text("x"), text("y\u{1}t:z"), Value::Float(20.0)]],
        );
        let joined = run_combiner(&CombinerSpec::default(), &left, &right).unwrap();
        let rows = joined.table.to_rows();
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0][2..], [Value::Float(2.0), Value::Float(20.0)]);

        let zero = vector_of(
            &[("k", Float), ("l", Float)],
            1,
            vec![vec![Value::Float(-0.0), Value::Float(1.0)]],
        );
        let plus = vector_of(
            &[("k", Float), ("r", Float)],
            1,
            vec![vec![Value::Float(0.0), Value::Float(2.0)]],
        );
        let joined = run_combiner(&CombinerSpec::default(), &zero, &plus).unwrap();
        assert_eq!(joined.table.len(), 1);
    }

    /// An element-wise result has the driver's rows in the driver's order,
    /// run after run: a key the driver holds twice comes once, where it
    /// first appears, with the values of its last row.
    #[test]
    fn elementwise_rows_follow_the_driver() {
        let mut def = ExperimentDef::new(Meta::default(), "u");
        def.add_variable(Variable::new("technique", VarKind::Parameter, DataType::Text).once())
            .unwrap();
        def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
        let chunks = [700i64, 100, 1200, 300, 900, 200, 1100, 400, 500];
        for technique in ["old", "new"] {
            let once: HashMap<String, Value> =
                [("technique".to_string(), Value::Text(technique.into()))].into();
            let sets: Vec<HashMap<String, Value>> = chunks
                .iter()
                .map(|&chunk| {
                    let bw = Value::Float(chunk as f64 / 10.0);
                    [
                        ("chunk".to_string(), Value::Int(chunk)),
                        ("bw".to_string(), bw),
                    ]
                    .into()
                })
                .collect();
            db.add_run(&once, &sets, 1000).unwrap();
        }
        let want: Vec<Value> = chunks.iter().map(|&c| Value::Int(c)).collect();
        for _ in 0..2 {
            let out = QueryRunner::new(&db)
                .run(query_from_str(FIG7ISH).unwrap())
                .unwrap();
            let chunks = |id: &str| -> Vec<Value> {
                let rows = out.vectors[id].table.to_rows();
                rows.into_iter().map(|r| r[0].clone()).collect()
            };
            assert_eq!(chunks("max_new"), want);
            assert_eq!(chunks("rel"), want);
        }

        let driver = vector_of(
            &[("k", DataType::Int), ("x", DataType::Float)],
            1,
            [(3, 10.0), (1, 20.0), (3, 30.0), (2, 40.0)]
                .map(|(k, x)| vec![Value::Int(k), Value::Float(x)])
                .into(),
        );
        let other = vector_of(
            &[("k", DataType::Int), ("y", DataType::Float)],
            1,
            (1..=3)
                .map(|k| vec![Value::Int(k), Value::Float(1.0)])
                .collect(),
        );
        let inputs = [("d", &driver, false), ("o", &other, false)];
        let diff = run_operator_elementwise(&OpKind::Diff, &inputs).unwrap();
        let rows: Vec<Vec<Value>> = [(3, 29.0), (1, 19.0), (2, 39.0)]
            .map(|(k, x)| vec![Value::Int(k), Value::Float(x)])
            .into();
        assert_eq!(diff.table.to_rows(), rows);
    }

    /// A derived vector's column types come from its inputs and its
    /// operator, never from its cells: the same on a selection that matches
    /// nothing as on one that matches.
    #[test]
    fn derived_vectors_are_typed_by_the_operator() {
        use DataType::{Float, Int, Text};
        let db = seeded_db();
        for technique in ["old", "none such"] {
            let spec = format!(
                r#"<query name="typed">
                  <source id="s"><parameter name="technique" value="{technique}" carry="true"/>
                    <parameter name="chunk" carry="true"/><value name="bw"/></source>
                  <source id="n"><parameter name="technique" value="{technique}" carry="true"/>
                    <value name="chunk"/></source>
                  <source id="t"><parameter name="technique" value="{technique}"/>
                    <parameter name="chunk" carry="true"/><value name="technique"/></source>
                  <operator id="count" type="count" input="n"/>
                  <operator id="max" type="max" input="n"/>
                  <operator id="avg" type="avg" input="n"/>
                  <operator id="scale" type="scale" input="max" arg="2"/>
                  <operator id="offset" type="offset" input="t" arg="1"/>
                  <operator id="m" type="max" input="s"/>
                  <operator id="a" type="avg" input="s"/>
                  <operator id="eval" type="eval" input="m" arg="bw * 2"/>
                  <operator id="min" type="min" input="max"/>
                  <operator id="counted" type="count" input="max"/>
                  <operator id="diff" type="diff" input="m,a"/>
                  <combiner id="both" input="max,avg"/>
                </query>"#
            );
            let out = QueryRunner::new(&db)
                .run(query_from_str(&spec).unwrap())
                .unwrap();
            for (id, want) in [
                ("s", &[Text, Int, Float][..]),
                ("n", &[Text, Int]),
                ("t", &[Int, Text]),
                ("count", &[Text, Int]),
                ("max", &[Text, Int]),
                ("avg", &[Text, Float]),
                ("scale", &[Text, Float]),
                ("offset", &[Int, Text]),
                ("m", &[Text, Int, Float]),
                ("eval", &[Text, Int, Float, Float]),
                ("min", &[Int]),
                ("counted", &[Int]),
                ("diff", &[Text, Int, Float]),
                ("both", &[Text, Int, Float]),
            ] {
                let v = &out.vectors[id];
                let types: Vec<DataType> = v.table.schema.columns.iter().map(|c| c.dtype).collect();
                assert_eq!(types, want, "{technique}: {id}");
            }
        }
    }

    #[test]
    fn median_operator_dataset_aggregation() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="median" input="s"/>
               <output id="o" input="m" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        // chunk 100: values 1.0 and 2.0 over the two reps → median 1.5.
        let line = out.artifacts["o"]
            .lines()
            .find(|l| l.starts_with("100,"))
            .unwrap();
        let m: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((m - 1.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_variable_in_source_errors() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s"><value name="zzz"/></source>
               <output id="o" input="s"/></query>"#,
        )
        .unwrap();
        assert!(QueryRunner::new(&db).run(q).is_err());
    }

    pub(crate) const FIG7ISH: &str = r#"<query name="p">
      <source id="s_old">
        <parameter name="technique" value="old"/>
        <parameter name="chunk" carry="true"/>
        <value name="bw"/>
      </source>
      <source id="s_new">
        <parameter name="technique" value="new"/>
        <parameter name="chunk" carry="true"/>
        <value name="bw"/>
      </source>
      <operator id="max_old" type="max" input="s_old"/>
      <operator id="max_new" type="max" input="s_new"/>
      <operator id="rel" type="above" input="max_new,max_old"/>
      <output id="o" input="rel" format="csv"/>
    </query>"#;

    /// Rows of the vector of source `s` of `spec`.
    fn source_rows(db: &ExperimentDb, source: &str) -> Vec<Vec<Value>> {
        let spec = query_from_str(&format!(
            r#"<query name="q"><source id="s">{source}</source>
               <output id="o" input="s" format="csv"/></query>"#
        ))
        .unwrap();
        let ElementKind::Source(s) = &spec.elements[0].kind else {
            panic!("first element is the source");
        };
        run_source(db, s, false).unwrap().0.table.to_rows()
    }

    /// A restriction on a data-set parameter holds for run-level values too:
    /// a run contributes its tuple once iff one of its data sets passes.
    #[test]
    fn dataset_restriction_applies_to_run_level_sources() {
        for db in [seeded_db(), sharded_db(3)] {
            // One more run, whose only data set has a chunk no other run has.
            let once: HashMap<String, Value> =
                [("technique".to_string(), Value::Text("odd".into()))].into();
            let ds: HashMap<String, Value> = [
                ("chunk".to_string(), Value::Int(999)),
                ("bw".to_string(), Value::Float(1.0)),
            ]
            .into();
            db.add_run(&once, &[ds], 2000).unwrap();
            let techniques = |restriction: &str| -> Vec<Value> {
                let source = format!(r#"{restriction}<value name="technique"/>"#);
                source_rows(&db, &source).into_iter().flatten().collect()
            };
            let t = |s: &str| Value::Text(s.into());
            assert_eq!(
                techniques(""),
                [t("old"), t("old"), t("new"), t("new"), t("odd")]
            );
            assert_eq!(
                techniques(r#"<parameter name="chunk" value="999"/>"#),
                [t("odd")]
            );
            // Three data sets of a run pass: still one tuple per run.
            assert_eq!(
                techniques(r#"<parameter name="chunk" op="lt" value="999"/>"#),
                [t("old"), t("old"), t("new"), t("new")]
            );
            assert!(techniques(r#"<parameter name="chunk" value="5"/>"#).is_empty());
        }
    }

    /// The vector's column types are the definition's — also when no row, or
    /// no non-NULL cell, is there to guess them from.
    #[test]
    fn source_vector_is_typed_by_the_definition() {
        let db = seeded_db();
        let spec = query_from_str(
            r#"<query name="typed"><source id="s">
                 <parameter name="technique" value="none such" carry="true"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source><output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let ElementKind::Source(s) = &spec.elements[0].kind else {
            panic!("first element is the source");
        };
        let (v, runs) = run_source(&db, s, false).unwrap();
        assert_eq!(runs, 0);
        assert!(v.table.is_empty());
        let types: Vec<DataType> = v.table.schema.columns.iter().map(|c| c.dtype).collect();
        assert_eq!(types, [DataType::Text, DataType::Int, DataType::Float]);
    }

    /// Runs imported before an evolution step answer sources written after
    /// it: `update_definition` keeps every run table on the definition.
    #[test]
    fn sources_follow_the_evolved_definition() {
        let db = seeded_db();
        // A multiple-occurrence variable added later is NULL in older runs.
        db.update_definition(|def| {
            def.add_variable(Variable::new("lat", VarKind::ResultValue, DataType::Float))
        })
        .unwrap();
        let rows = source_rows(
            &db,
            r#"<parameter name="chunk" carry="true"/><value name="lat"/>"#,
        );
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r[1] == Value::Null), "{rows:?}");
        // Retyped INTEGER → FLOAT, then a run whose content needs the new
        // type: one vector holds both.
        db.update_definition(|def| {
            def.modify_variable(Variable::new("chunk", VarKind::Parameter, DataType::Float))
        })
        .unwrap();
        let ds: HashMap<String, Value> = [
            ("chunk".to_string(), Value::Float(2.5)),
            ("bw".to_string(), Value::Float(9.0)),
        ]
        .into();
        db.add_run(&HashMap::new(), &[ds], 3000).unwrap();
        let rows = source_rows(
            &db,
            r#"<parameter name="chunk" carry="true"/><value name="bw"/>"#,
        );
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0][0], Value::Float(100.0));
        assert_eq!(rows[12], [Value::Float(2.5), Value::Float(9.0)]);
    }

    /// A run table that does not follow the definition (left behind by a
    /// build that evolved only `pb_runs`) is a query error that names the run
    /// and the column — in every position a column can be used, and on a
    /// remote node, where a fused aggregate's charge counts the groups of the
    /// source's carries.
    #[test]
    fn run_table_off_the_definition_is_a_named_error() {
        let carry = r#"<parameter name="chunk" carry="true"/><value name="bw"/>"#;
        let filtered = r#"<parameter name="chunk" value="100"/><value name="technique"/>"#;
        let fused = r#"<operator id="a" type="avg" input="s"/>"#;
        for (columns, source, nodes, column) in [
            ("bw FLOAT", carry, 0, "chunk"),
            ("chunk INTEGER", carry, 0, "bw"),
            (
                "chunk INTEGER, bw INTEGER",
                carry,
                0,
                "'bw' is FLOAT, not INTEGER",
            ),
            ("bw FLOAT", filtered, 0, "chunk"),
            ("bw FLOAT", carry, 4, "chunk"),
        ] {
            let (db, consumer, input) = match nodes {
                0 => (seeded_db(), "", "s"),
                n => (sharded_db(n), fused, "a"),
            };
            if let Some(sh) = db.sharding() {
                assert_ne!(sh.map().node_of(2), Some(0), "run 2 is remote");
            }
            let e = db.rundata_engine(2);
            e.execute("DROP TABLE pb_rundata_2").unwrap();
            e.execute(&format!("CREATE TABLE pb_rundata_2 ({columns})"))
                .unwrap();
            let values = if columns.contains(',') {
                "(100, 7)"
            } else {
                "(7)"
            };
            e.execute(&format!("INSERT INTO pb_rundata_2 VALUES {values}"))
                .unwrap();
            let q = query_from_str(&format!(
                r#"<query name="q"><source id="s">{source}</source>{consumer}
                   <output id="o" input="{input}" format="csv"/></query>"#
            ))
            .unwrap();
            let err = QueryRunner::new(&db).run(q).unwrap_err().to_string();
            assert!(
                err.starts_with("query error: run 2: ") && err.contains(column),
                "{columns}: {err}"
            );
        }
    }

    /// Seeded splitmix64, as in the randomized suites under `tests/`.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (((z ^ (z >> 31)) as u128 * n as u128) >> 64) as usize
        }

        /// Each element with probability 1/2, in order.
        fn subset<T: Clone>(&mut self, of: &[T]) -> Vec<T> {
            of.iter().filter(|_| self.below(2) == 0).cloned().collect()
        }
    }

    /// The ten variables of the random experiments: every data type, once
    /// per run (`o_*`) and per data set (`m_*`).
    const KINDS: [(&str, DataType); 5] = [
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Text),
        ("b", DataType::Bool),
        ("t", DataType::Timestamp),
    ];

    /// A small pool per type, so that filters hit: NULL, the ends of ranges,
    /// text with quotes and beyond ASCII.
    fn random_value(rng: &mut Rng, dtype: DataType) -> Value {
        if rng.below(5) == 0 {
            return Value::Null;
        }
        let k = rng.below(4);
        match dtype {
            DataType::Int => Value::Int([-3, 0, 7, 1 << 40][k]),
            DataType::Float => Value::Float([-1.5, 0.0, 2.25, 1e300][k]),
            DataType::Text => Value::Text(["it's", "größe 日本", "a\"b''", "x y"][k].into()),
            DataType::Bool => Value::Bool(k < 2),
            DataType::Timestamp => Value::Timestamp([0, 1_100_000_000, 1_100_000_001, 1 << 33][k]),
        }
    }

    /// `v` as the content of a filter's `value` attribute.
    fn raw_content(v: &Value) -> String {
        match v {
            Value::Null => String::new(),
            Value::Float(f) => format!("{f:?}"),
            Value::Timestamp(t) => sqldb::format_timestamp(*t),
            other => other.to_string(),
        }
    }

    /// SQL comparison semantics, from scratch: NULL compares to nothing.
    fn holds(op: &FilterOp, cell: &Value, content: &[Value]) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let cmp = |a: &Value, b: &Value| match (a, b) {
            (Value::Int(a), Value::Int(b)) | (Value::Timestamp(a), Value::Timestamp(b)) => {
                Some(a.cmp(b))
            }
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Null, _) | (_, Value::Null) => None,
            other => panic!("filters compare one type: {other:?}"),
        };
        let first = cmp(cell, &content[0]);
        match op {
            FilterOp::Eq => first == Some(Equal),
            FilterOp::Ne => matches!(first, Some(Less | Greater)),
            FilterOp::Lt => first == Some(Less),
            FilterOp::Le => matches!(first, Some(Less | Equal)),
            FilterOp::Gt => first == Some(Greater),
            FilterOp::Ge => matches!(first, Some(Greater | Equal)),
            FilterOp::In => content.iter().any(|c| cmp(cell, c) == Some(Equal)),
        }
    }

    /// Random small experiments × random source specs: the vector read back
    /// is the one computed here from the inserted values — never through
    /// sqldb — and its column types are the definition's.
    #[test]
    fn random_sources_match_an_oracle() {
        let mut rng = Rng(15);
        let vars: Vec<(String, DataType, bool)> = ["o", "m"]
            .iter()
            .flat_map(|occ| KINDS.map(|(k, t)| (format!("{occ}_{k}"), t, *occ == "o")))
            .collect();
        let (mut specs, mut kept) = (0, 0);
        for case in 0..150 {
            let mut def = ExperimentDef::new(Meta::default(), "u");
            for (name, dtype, once) in &vars {
                let var = Variable::new(name, VarKind::Parameter, *dtype);
                def.add_variable(if *once { var.once() } else { var })
                    .unwrap();
            }
            let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
            // What was inserted: per run its id, import time, once values
            // and data sets, each a map by variable name.
            type Content = HashMap<String, Value>;
            let mut runs: Vec<(i64, i64, Content, Vec<Content>)> = Vec::new();
            for r in 0..1 + rng.below(8) {
                let content = |rng: &mut Rng, once: bool| -> Content {
                    let of = vars.iter().filter(|v| v.2 == once);
                    of.map(|(n, t, _)| (n.clone(), random_value(rng, *t)))
                        .collect()
                };
                let once = content(&mut rng, true);
                let sets: Vec<Content> = match (runs.last(), rng.below(4)) {
                    // The previous run's data sets: in the same order its
                    // run table has the same TEXT dictionary (a compiled
                    // filter is reused, codes are copied as they are); in
                    // another order, or with one set more, another one (the
                    // filter is compiled again, codes are remapped).
                    (Some(prev), 0) => prev.3.clone(),
                    (Some(prev), 1) => prev.3.iter().rev().cloned().collect(),
                    (Some(prev), 2) => {
                        let more = content(&mut rng, false);
                        prev.3.iter().cloned().chain([more]).collect()
                    }
                    _ => (0..rng.below(4))
                        .map(|_| content(&mut rng, false))
                        .collect(),
                };
                let created = 1000 + 10 * r as i64;
                let id = db.add_run(&once, &sets, created).unwrap();
                runs.push((id, created, once, sets));
            }
            if case % 3 == 2 {
                let cluster = sqldb::cluster::Cluster::with_frontend(
                    db.engine().clone(),
                    3,
                    LatencyModel::none(),
                );
                db.attach_cluster(Arc::new(cluster)).unwrap();
            }

            for _ in 0..4 {
                let filters: Vec<(usize, FilterOp, Vec<Value>)> = (0..rng.below(4))
                    .map(|_| {
                        let v = rng.below(vars.len());
                        let op = [
                            FilterOp::Eq,
                            FilterOp::Ne,
                            FilterOp::Lt,
                            FilterOp::Le,
                            FilterOp::Gt,
                            FilterOp::Ge,
                            FilterOp::In,
                        ][rng.below(7)]
                        .clone();
                        let mut content: Vec<Value> = (0..1 + rng.below(3))
                            .map(|_| random_value(&mut rng, vars[v].1))
                            .collect();
                        if op == FilterOp::In {
                            // An empty list element is no content at all.
                            content.retain(|c| !c.is_null());
                        }
                        content.truncate(if op == FilterOp::In { 3 } else { 1 });
                        (v, op, content)
                    })
                    .filter(|(_, _, content)| !content.is_empty())
                    .collect();
                // One spec in four asks for run-level columns only.
                let run_level = rng.below(4) == 0;
                let names: Vec<String> = vars
                    .iter()
                    .filter(|v| v.2 || !run_level)
                    .map(|v| v.0.clone())
                    .collect();
                let carry = rng.subset(&names);
                let rest: Vec<String> = names.into_iter().filter(|n| !carry.contains(n)).collect();
                let mut values = rng.subset(&rest);
                if carry.is_empty() && values.is_empty() {
                    values.push(rest[rng.below(rest.len())].clone());
                }
                let ids: Vec<i64> = runs.iter().map(|r| r.0).collect();
                let run_filter = RunFilter {
                    from: (rng.below(3) == 0).then(|| 1000 + 10 * rng.below(4) as i64),
                    to: (rng.below(3) == 0).then(|| 1000 + 10 * rng.below(8) as i64),
                    ids: if rng.below(3) == 0 {
                        rng.subset(&ids)
                    } else {
                        Vec::new()
                    },
                };
                let spec = SourceSpec {
                    filters: filters
                        .iter()
                        .map(|(v, op, content)| Filter {
                            parameter: vars[*v].0.clone(),
                            op: op.clone(),
                            value: content
                                .iter()
                                .map(raw_content)
                                .collect::<Vec<_>>()
                                .join(","),
                        })
                        .collect(),
                    run_filter: run_filter.clone(),
                    carry: carry.clone(),
                    values: values.clone(),
                };

                // The oracle: columns are the once carries, the data-set
                // carries, the once values, the data-set values.
                let is_once = |n: &String| n.starts_with("o_");
                let columns: Vec<&String> = carry
                    .iter()
                    .filter(|n| is_once(n))
                    .chain(carry.iter().filter(|n| !is_once(n)))
                    .chain(values.iter().filter(|n| is_once(n)))
                    .chain(values.iter().filter(|n| !is_once(n)))
                    .collect();
                let passes = |content: &Content, once: bool| {
                    filters
                        .iter()
                        .filter(|(v, _, _)| vars[*v].2 == once)
                        .all(|(v, op, lits)| holds(op, &content[&vars[*v].0], lits))
                };
                let mut want: Vec<Vec<Value>> = Vec::new();
                for (id, created, once, sets) in &runs {
                    let selected = run_filter.from.is_none_or(|t| *created >= t)
                        && run_filter.to.is_none_or(|t| *created <= t)
                        && (run_filter.ids.is_empty() || run_filter.ids.contains(id))
                        && passes(once, true);
                    if !selected {
                        continue;
                    }
                    let row = |set: Option<&Content>| -> Vec<Value> {
                        let cell = |n: &&String| match set {
                            Some(set) if !is_once(n) => set[*n].clone(),
                            _ => once[*n].clone(),
                        };
                        columns.iter().map(cell).collect()
                    };
                    let mut passing = sets.iter().filter(|set| passes(set, false));
                    if columns.iter().all(|n| is_once(n)) {
                        let unrestricted = filters.iter().all(|(v, _, _)| vars[*v].2);
                        if unrestricted || passing.next().is_some() {
                            want.push(row(None));
                        }
                    } else {
                        want.extend(passing.map(|set| row(Some(set))));
                    }
                }

                let (v, matched) = run_source(&db, &spec, false).unwrap();
                let (schema, got) = (&v.table.schema, v.table.to_rows());
                assert_eq!(got, want, "case {case}: {spec:?}");
                assert!(matched <= runs.len());
                let names: Vec<&String> = schema.columns.iter().map(|c| &c.name).collect();
                assert_eq!(names, columns);
                for c in &schema.columns {
                    let dtype = vars.iter().find(|v| v.0 == c.name).unwrap().1;
                    assert_eq!(c.dtype, dtype, "case {case}: column {}", c.name);
                }
                specs += 1;
                kept += want.len();
            }
        }
        // The generator is worth its name: the filters let rows through.
        assert!(specs == 600 && kept > 800, "{specs} specs kept {kept} rows");
    }

    #[test]
    fn parallel_matches_sequential() {
        let db = seeded_db();
        let seq = QueryRunner::new(&db)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        let par = QueryRunner::new(&db)
            .parallel(true)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        assert_eq!(seq.artifacts["o"], par.artifacts["o"]);
    }

    #[test]
    fn cluster_distribution_matches_sequential() {
        let db = seeded_db();
        let cluster = Cluster::new(4, LatencyModel::none());
        let seq = QueryRunner::new(&db)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        let par = QueryRunner::new(&db)
            .parallel(true)
            .on_cluster(&cluster)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        assert_eq!(seq.artifacts["o"], par.artifacts["o"]);
    }

    #[test]
    fn cluster_mode_charges_transfers() {
        let db = seeded_db();
        let cluster = Cluster::new(2, LatencyModel::none());
        QueryRunner::new(&db)
            .parallel(true)
            .on_cluster(&cluster)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        // With 6 elements round-robined over 2 nodes, something must have
        // crossed node boundaries.
        assert!(cluster.stats().messages > 0);
    }

    #[test]
    fn timings_recorded_per_element() {
        let db = seeded_db();
        let out = QueryRunner::new(&db)
            .parallel(true)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        assert_eq!(out.timings.len(), 6);
    }

    #[test]
    fn errors_propagate_from_workers() {
        let db = seeded_db();
        let bad = r#"<query name="p"><source id="s"><value name="zzz"/></source>
          <output id="o" input="s"/></query>"#;
        assert!(QueryRunner::new(&db)
            .parallel(true)
            .run(query_from_str(bad).unwrap())
            .is_err());
    }

    /// Everything a write to `engine` would move: commit epoch, log length,
    /// catalog.
    pub(crate) fn written(engine: &Engine) -> (u64, u64, Vec<String>) {
        (engine.epoch(), engine.wal_frames(), engine.table_names())
    }

    /// A query writes nothing — succeeding or failing in its second wave
    /// (`diff` over two multi-row vectors that share no parameter), inline,
    /// threaded, placed or sharded: epoch, log and catalog of the
    /// experiment's engine and of every node are what they were.
    #[test]
    fn a_query_writes_nothing() {
        let bad = r#"<query name="leak">
          <source id="a"><parameter name="technique" value="old"/><value name="bw"/></source>
          <source id="b"><parameter name="technique" value="new"/><value name="bw"/></source>
          <operator id="d" type="diff" input="a,b"/>
          <output id="o" input="d" format="csv"/></query>"#;
        let dir = std::env::temp_dir().join("perfbase_query_writes_nothing");
        std::fs::create_dir_all(&dir).unwrap();
        for (n, sharded) in [false, true].into_iter().enumerate() {
            let db = if sharded { sharded_db(2) } else { seeded_db() };
            let opts = sqldb::WalOptions::with_sync(sqldb::SyncPolicy::Off);
            let log = dir.join(format!("{n}.wal"));
            std::fs::remove_file(&log).ok();
            db.engine()
                .attach_wal(sqldb::Wal::create(&log, opts, 1).unwrap());
            db.engine()
                .execute("CREATE TABLE logged (x INTEGER)")
                .unwrap();
            let placement = Cluster::new(3, LatencyModel::none());
            let sharding = db.sharding();
            let engines: Vec<&Engine> = std::iter::once(&**db.engine())
                .chain((0..3).map(|i| &*placement.node(i).engine))
                .chain(sharding.iter().flat_map(|sh| {
                    (0..sh.cluster().len()).map(move |i| &*sh.cluster().node(i).engine)
                }))
                .collect();
            let before: Vec<_> = engines.iter().map(|e| written(e)).collect();
            assert_eq!(before[0].1, 1, "the log counts frames");
            for (spec, succeeds) in [(FIG7ISH, true), (bad, false)] {
                for mode in 0..6 {
                    let mut runner = QueryRunner::new(&db)
                        .parallel(mode % 2 == 1)
                        .pushdown(mode < 4);
                    if mode >= 2 {
                        runner = runner.on_cluster(&placement);
                    }
                    let ran = runner.run(query_from_str(spec).unwrap());
                    assert_eq!(ran.is_ok(), succeeds, "mode {mode}");
                    let after: Vec<_> = engines.iter().map(|e| written(e)).collect();
                    assert_eq!(after, before, "sharded={sharded} mode {mode}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two callers running two specs that share the query name and every
    /// element id on one database do not interact: every run is `Ok` and
    /// byte-equal to its own sequential artifact.
    #[test]
    fn concurrent_queries_on_one_database_do_not_interact() {
        let db = seeded_db();
        let spec = |technique: &str| {
            format!(
                r#"<query name="q"><source id="s">
                     <parameter name="technique" value="{technique}"/>
                     <parameter name="chunk" carry="true"/>
                     <value name="bw"/>
                   </source>
                   <operator id="m" type="max" input="s"/>
                   <output id="o" input="m" format="csv"/></query>"#
            )
        };
        let run = |technique: &str| {
            let out = QueryRunner::new(&db).run(query_from_str(&spec(technique)).unwrap());
            out.map(|out| out.artifacts["o"].clone())
        };
        let (old, new) = (run("old").unwrap(), run("new").unwrap());
        assert_ne!(old, new);
        std::thread::scope(|scope| {
            for (technique, want) in [("old", &old), ("new", &new)] {
                let run = &run;
                scope.spawn(move || {
                    for i in 0..200 {
                        assert_eq!(run(technique).as_ref(), Ok(want), "{technique} run {i}");
                    }
                });
            }
        });
    }

    /// Query names and element ids are labels, not SQL: any string gives the
    /// artifacts the names `q` / `s` give, through any number of aggregations.
    #[test]
    fn query_and_element_names_are_labels() {
        let db = seeded_db();
        let spec = |query: &str, source: &str, shape: usize| {
            let operators = [
                format!(r#"<output id="o" input="{source}" format="csv"/>"#),
                format!(
                    r#"<operator id="m" type="max" input="{source}"/>
                       <output id="o" input="m" format="csv"/>"#
                ),
                format!(
                    r#"<operator id="m" type="max" input="{source}"/>
                       <operator id="mm" type="max" input="m"/>
                       <output id="o" input="mm" format="csv"/>"#
                ),
            ];
            let xml = format!(
                r#"<query name="{query}"><source id="{source}">
                     <parameter name="chunk" carry="true"/><value name="bw"/>
                   </source>{}</query>"#,
                operators[shape]
            );
            QueryRunner::new(&db)
                .run(query_from_str(&xml).unwrap())
                .map(|out| out.artifacts)
        };
        for shape in 0..3 {
            let want = spec("q", "s", shape).unwrap();
            for (query, source) in [
                ("fig-7", "s"),
                ("fig 7", "s"),
                ("q", "s-old"),
                ("größe", "s"),
            ] {
                let got = spec(query, source, shape);
                assert_eq!(
                    got.as_ref(),
                    Ok(&want),
                    "{query:?} {source:?} shape {shape}"
                );
            }
        }
    }

    /// The seeded experiment, attached to an `n`-node latency-free cluster
    /// so its run data is spread across the simulated nodes.
    fn sharded_db(nodes: usize) -> ExperimentDb {
        let db = seeded_db();
        let cluster = Arc::new(sqldb::cluster::Cluster::with_frontend(
            db.engine().clone(),
            nodes,
            sqldb::cluster::LatencyModel::none(),
        ));
        db.attach_cluster(cluster).unwrap();
        db
    }

    const PUSHABLE_QUERY: &str = r#"<query name="q"><source id="s">
         <parameter name="technique" carry="true"/>
         <parameter name="chunk" carry="true"/>
         <value name="bw"/>
       </source>
       <operator id="a" type="avg" input="s"/>
       <output id="o" input="a" format="csv"/></query>"#;

    #[test]
    fn pushdown_matches_unsharded_results() {
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(PUSHABLE_QUERY).unwrap())
            .unwrap();
        for nodes in [1usize, 2, 4] {
            let db = sharded_db(nodes);
            let out = QueryRunner::new(&db)
                .run(query_from_str(PUSHABLE_QUERY).unwrap())
                .unwrap();
            assert_eq!(out.artifacts["o"], want.artifacts["o"], "{nodes} nodes");
            let t = out.transfer.expect("sharded queries record transfer stats");
            if nodes > 1 {
                // Partials only: far fewer rows than the 12 source tuples.
                assert!(t.rows < 12, "pushed {} rows over the link", t.rows);
            }
        }
    }

    #[test]
    fn pushdown_off_falls_back_to_materialization_with_same_results() {
        // Full reduction: each remote run ships one partial row under
        // pushdown versus its three raw data rows under materialization.
        let q = r#"<query name="q"><source id="s">
             <value name="bw"/>
           </source>
           <operator id="a" type="avg" input="s"/>
           <output id="o" input="a" format="csv"/></query>"#;
        let db = sharded_db(4);
        let pushed = QueryRunner::new(&db)
            .run(query_from_str(q).unwrap())
            .unwrap();
        let fetched = QueryRunner::new(&db)
            .pushdown(false)
            .run(query_from_str(q).unwrap())
            .unwrap();
        assert_eq!(pushed.artifacts["o"], fetched.artifacts["o"]);
        let tp = pushed.transfer.unwrap();
        let tf = fetched.transfer.unwrap();
        assert!(
            tp.rows < tf.rows,
            "pushdown moved {} rows, fallback {}",
            tp.rows,
            tf.rows
        );
    }

    #[test]
    fn pushdown_reduce_all_over_empty_selection_yields_one_row() {
        let q = r#"<query name="q"><source id="s">
             <parameter name="chunk" op="gt" value="100000"/>
             <value name="bw"/>
           </source>
           <operator id="c" type="count" input="s"/>
           <output id="o" input="c" format="csv"/></query>"#;
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(q).unwrap())
            .unwrap();
        let db = sharded_db(3);
        let out = QueryRunner::new(&db)
            .run(query_from_str(q).unwrap())
            .unwrap();
        assert_eq!(out.artifacts["o"], want.artifacts["o"]);
        assert_eq!(out.artifacts["o"].lines().count(), 2); // header + count 0
    }

    #[test]
    fn non_decomposable_aggregate_uses_fallback() {
        let q = r#"<query name="q"><source id="s">
             <parameter name="technique" value="old"/>
             <parameter name="chunk" carry="true"/>
             <value name="bw"/>
           </source>
           <operator id="m" type="median" input="s"/>
           <output id="o" input="m" format="csv"/></query>"#;
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(q).unwrap())
            .unwrap();
        let db = sharded_db(4);
        let out = QueryRunner::new(&db)
            .run(query_from_str(q).unwrap())
            .unwrap();
        assert_eq!(out.artifacts["o"], want.artifacts["o"]);
    }

    #[test]
    fn detached_db_answers_queries_from_the_frontend_again() {
        let db = sharded_db(4);
        db.detach_cluster().unwrap();
        let out = QueryRunner::new(&db)
            .run(query_from_str(PUSHABLE_QUERY).unwrap())
            .unwrap();
        assert!(out.transfer.is_none());
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(PUSHABLE_QUERY).unwrap())
            .unwrap();
        assert_eq!(out.artifacts["o"], want.artifacts["o"]);
    }
}
