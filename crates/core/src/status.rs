//! Experiment status retrieval (paper §3.4): list runs by criteria, show
//! variable content, and find holes in a parameter sweep. Runs are read the
//! way a query's source element reads them (`query::exec::run_source`), and
//! rows are keyed the way its operators key them (`query::KeyIds`).

use crate::error::{Error, Result};
use crate::experiment::{ExperimentDb, Occurrence, RunSummary, Variable};
use crate::query::exec::{run_source, sql_literal};
use crate::query::{DataVector, KeyIds, SourceSpec};
use sqldb::Value;

/// Criteria for listing runs.
#[derive(Debug, Clone, Default)]
pub struct RunCriteria {
    /// Only runs whose once-parameter equals this content,
    /// e.g. `("fs", "ufs")`; an empty content, e.g. `("n", "")`, asks for
    /// the runs that have none.
    pub parameter_equals: Vec<(String, String)>,
    /// Only runs imported at or after this time.
    pub since: Option<i64>,
    /// Only runs imported at or before this time.
    pub until: Option<i64>,
}

/// List the runs matching `criteria`, in `run_id` order: one read of
/// `pb_runs`, each row decoded as [`ExperimentDb::run_summary`] decodes its
/// run.
pub fn list_runs(db: &ExperimentDb, criteria: &RunCriteria) -> Result<Vec<RunSummary>> {
    let def = db.definition();
    let mut clauses = Vec::new();
    for (name, raw) in &criteria.parameter_equals {
        let var = def
            .variable(name)
            .ok_or_else(|| Error::Query(format!("unknown parameter '{name}'")))?;
        if var.occurrence != Occurrence::Once {
            return Err(Error::Query(format!(
                "'{name}' is a data-set variable; list criteria use run-constant parameters"
            )));
        }
        // An empty content parses to NULL, which `=` matches nowhere.
        clauses.push(match var.parse_content(raw)? {
            Value::Null => format!("{name} IS NULL"),
            content => format!("{name} = {}", sql_literal(&content)),
        });
    }
    if let Some(s) = criteria.since {
        clauses.push(format!("created >= {s}"));
    }
    if let Some(u) = criteria.until {
        clauses.push(format!("created <= {u}"));
    }
    let mut sql = "SELECT * FROM pb_runs".to_string();
    if !clauses.is_empty() {
        sql.push_str(&format!(" WHERE {}", clauses.join(" AND ")));
    }
    sql.push_str(" ORDER BY run_id");
    let rs = db.engine().query(&sql)?;
    rs.rows().iter().map(|row| db.summary_of(row)).collect()
}

/// What one run source carrying `parameters` (each once) returns: per run
/// for run-level parameters, read off `pb_runs`; per data set once a
/// data-set parameter is among them, read from each run's table where it
/// lives.
fn carried(db: &ExperimentDb, parameters: &[&str]) -> Result<DataVector> {
    let def = db.definition();
    let mut carry: Vec<String> = Vec::new();
    for &p in parameters {
        def.variable(p)
            .ok_or_else(|| Error::Query(format!("unknown parameter '{p}'")))?;
        if !carry.iter().any(|c| c == p) {
            carry.push(p.to_string());
        }
    }
    let spec = SourceSpec {
        carry,
        ..SourceSpec::default()
    };
    Ok(run_source(db, &spec, false)?.0)
}

/// The distinct contents `parameter` has taken across all runs, as
/// `SELECT DISTINCT … ORDER BY` answers them: the cells of one run source
/// carrying it, deduplicated first-seen by the key identity of `core`
/// (`query::KeyIds`) and sorted by [`Value::total_cmp`].
pub fn observed_values(db: &ExperimentDb, parameter: &str) -> Result<Vec<Value>> {
    let table = carried(db, &[parameter])?.table;
    let mut values = Vec::new();
    for (p, id) in KeyIds::default().rows(&table, &[0]).into_iter().enumerate() {
        if id == values.len() {
            values.push(table.value(p, 0));
        }
    }
    values.sort_by(Value::total_cmp);
    Ok(values)
}

/// A hole in a parameter sweep: a combination of parameter contents with no
/// stored run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepHole {
    /// `(parameter, content)` pairs of the missing combination.
    pub combination: Vec<(String, Value)>,
}

/// Find combinations of the contents of `parameters` that **no** run has —
/// "this allows to determine which parameter settings might still be
/// missing for a parameter sweep" (§3.4). The candidate grid is the cross
/// product of each parameter's [`observed_values`]. The combinations the
/// runs have are the rows of one run source carrying every parameter, keyed
/// by `query::KeyIds`: a grid point is a hole when its key was not seen.
pub fn missing_sweep_points(db: &ExperimentDb, parameters: &[&str]) -> Result<Vec<SweepHole>> {
    if parameters.is_empty() {
        return Ok(Vec::new());
    }
    let mut axes: Vec<Vec<Value>> = Vec::with_capacity(parameters.len());
    for p in parameters {
        let vals = observed_values(db, p)?;
        if vals.is_empty() {
            return Ok(Vec::new()); // no data at all: nothing meaningful to report
        }
        axes.push(vals);
    }
    let runs = carried(db, parameters)?.table;
    let at = |p: &&str| runs.schema.index_of(p).expect("carried");
    let mut seen = KeyIds::default();
    seen.rows(&runs, &parameters.iter().map(at).collect::<Vec<_>>());
    let measured = seen.len();

    let mut holes = Vec::new();
    let mut index = vec![0usize; parameters.len()];
    'grid: loop {
        let cells: Vec<Value> = axes
            .iter()
            .zip(&index)
            .map(|(a, &i)| a[i].clone())
            .collect();
        // A key seen first here is a combination no run has.
        if seen.id(&cells) >= measured {
            let names = parameters.iter().map(|p| p.to_string());
            holes.push(SweepHole {
                combination: names.zip(cells).collect(),
            });
        }

        // Advance the mixed-radix counter.
        for k in (0..index.len()).rev() {
            index[k] += 1;
            if index[k] < axes[k].len() {
                continue 'grid;
            }
            index[k] = 0;
            if k == 0 {
                break 'grid;
            }
        }
    }
    Ok(holes)
}

/// Render a human-readable experiment summary (the `perfbase info`
/// command).
pub fn experiment_info(db: &ExperimentDb) -> Result<String> {
    let def = db.definition();
    let runs = db.run_ids()?;
    let mut out = String::new();
    out.push_str(&format!("experiment: {}\n", def.meta.name));
    if !def.meta.synopsis.is_empty() {
        out.push_str(&format!("synopsis:   {}\n", def.meta.synopsis));
    }
    if !def.meta.project.is_empty() {
        out.push_str(&format!("project:    {}\n", def.meta.project));
    }
    if !def.meta.performed_by.name.is_empty() {
        out.push_str(&format!(
            "author:     {} ({})\n",
            def.meta.performed_by.name, def.meta.performed_by.organization
        ));
    }
    out.push_str(&format!("runs:       {}\n", runs.len()));
    out.push_str("variables:\n");
    for v in &def.variables {
        out.push_str(&format!("  {}\n", describe_variable(v)));
    }
    out.push_str("users:\n");
    for (u, l) in &def.users {
        out.push_str(&format!("  {u} [{}]\n", l.name()));
    }
    Ok(out)
}

/// One-line description of a variable.
pub fn describe_variable(v: &Variable) -> String {
    let kind = match v.kind {
        crate::experiment::VarKind::Parameter => "parameter",
        crate::experiment::VarKind::ResultValue => "result",
    };
    let occ = match v.occurrence {
        Occurrence::Once => "once",
        Occurrence::Multiple => "multiple",
    };
    let unit = v.unit.to_string();
    let mut s = format!(
        "{:<12} {kind:<9} {occ:<8} {}",
        v.name,
        crate::xmldef::datatype_name(v.datatype)
    );
    if !unit.is_empty() {
        s.push_str(&format!(" [{unit}]"));
    }
    if !v.synopsis.is_empty() {
        s.push_str(&format!(" — {}", v.synopsis));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentDef, Meta, VarKind};
    use sqldb::{DataType, Engine};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn db() -> ExperimentDb {
        let mut def = ExperimentDef::new(
            Meta {
                name: "sweep".into(),
                ..Meta::default()
            },
            "u",
        );
        def.add_variable(Variable::new("fs", VarKind::Parameter, DataType::Text).once())
            .unwrap();
        def.add_variable(Variable::new("nodes", VarKind::Parameter, DataType::Int).once())
            .unwrap();
        def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
        // Sweep fs × nodes, but leave (nfs, 8) unmeasured.
        for (fs, nodes, t) in [("ufs", 4, 10), ("ufs", 8, 20), ("nfs", 4, 30)] {
            let once: HashMap<String, Value> = [
                ("fs".to_string(), Value::Text(fs.into())),
                ("nodes".to_string(), Value::Int(nodes)),
            ]
            .into();
            let ds: HashMap<String, Value> = [
                ("chunk".to_string(), Value::Int(1024)),
                ("bw".to_string(), Value::Float(nodes as f64 * 10.0)),
            ]
            .into();
            db.add_run(&once, &[ds], t).unwrap();
        }
        db
    }

    #[test]
    fn list_all_runs() {
        let db = db();
        let runs = list_runs(&db, &RunCriteria::default()).unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].run_id, 1);
    }

    #[test]
    fn list_by_parameter() {
        let db = db();
        let c = RunCriteria {
            parameter_equals: vec![("fs".into(), "ufs".into())],
            ..RunCriteria::default()
        };
        let runs = list_runs(&db, &c).unwrap();
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn list_by_time_window() {
        let db = db();
        let c = RunCriteria {
            since: Some(15),
            until: Some(25),
            ..RunCriteria::default()
        };
        let runs = list_runs(&db, &c).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].run_id, 2);
    }

    #[test]
    fn list_rejects_dataset_variable() {
        let db = db();
        let c = RunCriteria {
            parameter_equals: vec![("chunk".into(), "1024".into())],
            ..RunCriteria::default()
        };
        assert!(list_runs(&db, &c).is_err());
    }

    #[test]
    fn observed_values_once_and_multiple() {
        let db = db();
        let fs = observed_values(&db, "fs").unwrap();
        assert_eq!(fs.len(), 2);
        let chunk = observed_values(&db, "chunk").unwrap();
        assert_eq!(chunk, vec![Value::Int(1024)]);
    }

    #[test]
    fn sweep_hole_detected() {
        let db = db();
        let holes = missing_sweep_points(&db, &["fs", "nodes"]).unwrap();
        assert_eq!(holes.len(), 1);
        let combo = &holes[0].combination;
        assert!(combo.contains(&("fs".to_string(), Value::Text("nfs".into()))));
        assert!(combo.contains(&("nodes".to_string(), Value::Int(8))));
    }

    #[test]
    fn no_holes_when_grid_complete() {
        let db = db();
        // Fill the hole.
        let once: HashMap<String, Value> = [
            ("fs".to_string(), Value::Text("nfs".into())),
            ("nodes".to_string(), Value::Int(8)),
        ]
        .into();
        db.add_run(&once, &[], 40).unwrap();
        assert!(missing_sweep_points(&db, &["fs", "nodes"])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn info_rendering() {
        let db = db();
        let info = experiment_info(&db).unwrap();
        assert!(info.contains("experiment: sweep"));
        assert!(info.contains("runs:       3"));
        assert!(info.contains("bw"));
        assert!(info.contains("u [admin]"));
    }

    #[test]
    fn empty_sweep_list() {
        let db = db();
        assert!(missing_sweep_points(&db, &[]).unwrap().is_empty());
    }
}
