//! SQL dump / restore — the persistence layer of the embedded engine.
//!
//! The original perfbase delegated persistence to the PostgreSQL server.
//! Our embedded substitute persists by dumping the whole catalog as an SQL
//! script (CREATE TABLE + INSERT) and replaying it on load: human-readable,
//! trivially diffable, and it exercises the same SQL front-end as every
//! other access path. TEMP tables are never dumped.

use crate::engine::Engine;
use crate::error::DbError;
use crate::schema::Schema;
use crate::sql;
use crate::table::Row;
use crate::value::Value;
use std::fmt::Write as _;
use std::io::Write as _;

impl Engine {
    /// Serialize every non-TEMP table as an SQL script.
    pub fn dump_sql(&self) -> String {
        let temps = self.temp_table_names();
        let mut out = String::from("-- perfbase embedded database dump\n");
        for name in self.table_names() {
            if temps.contains(&name) {
                continue;
            }
            let table = self.pin_table(&name).expect("table listed");
            let _ = writeln!(out, "{};", render_create_table(&name, &table.schema, false));
            for chunk in table.to_rows().chunks(64) {
                if !chunk.is_empty() {
                    let _ = writeln!(out, "{};", render_insert(&name, chunk));
                }
            }
            for (ix_name, column, ordered) in table.index_columns() {
                let kind = if ordered { "ORDERED " } else { "" };
                let _ = writeln!(out, "CREATE {kind}INDEX {ix_name} ON {name} ({column});");
            }
        }
        out
    }

    /// Execute a whole `;`-separated SQL script.
    pub fn execute_script(&self, script: &str) -> Result<usize, DbError> {
        let stmts = sql::parse_script(script)?;
        let mut affected = 0;
        for s in stmts {
            affected += self.run_parsed(s)?;
        }
        Ok(affected)
    }

    /// Rebuild an engine from a dump produced by [`Engine::dump_sql`].
    pub fn from_sql_dump(script: &str) -> Result<Engine, DbError> {
        let e = Engine::new();
        e.execute_script(script)?;
        Ok(e)
    }

    /// Persist to a file, atomically: the dump is written to a sibling tmp
    /// file, fsynced, then renamed into place — a crash mid-save leaves the
    /// previous dump intact (the WAL checkpoint path depends on this).
    pub fn save_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.save_to_file_with_seq(path, None)
    }

    /// [`Engine::save_to_file`], optionally stamping the WAL checkpoint
    /// sequence into the dump header. A dump written with `Some(seq)`
    /// declares "every log frame with a sequence number below `seq` is
    /// already reflected here" — recovery uses it to skip those frames
    /// when a crash lands between the dump rename and the log compaction,
    /// which would otherwise double-apply every one of them.
    pub(crate) fn save_to_file_with_seq(
        &self,
        path: &std::path::Path,
        ckpt_seq: Option<u64>,
    ) -> std::io::Result<()> {
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let mut f = std::fs::File::create(&tmp)?;
        let mut script = self.dump_sql();
        if let Some(seq) = ckpt_seq {
            let header_end = script.find('\n').map_or(script.len(), |i| i + 1);
            script.insert_str(header_end, &format!("{CKPT_SEQ_MARKER}{seq}\n"));
        }
        f.write_all(script.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    }

    /// Load from a file written by [`Engine::save_to_file`].
    pub fn load_from_file(path: &std::path::Path) -> Result<Engine, DbError> {
        let script = std::fs::read_to_string(path)
            .map_err(|e| DbError::Execution(format!("cannot read {}: {e}", path.display())))?;
        Engine::from_sql_dump(&script)
    }
}

/// Header comment a checkpoint stamps into the dump: the sequence number
/// the WAL's *next* frame will carry at checkpoint time. Frames below it
/// are reflected in the dump and must not be replayed on recovery.
pub(crate) const CKPT_SEQ_MARKER: &str = "-- wal-checkpoint-seq: ";

/// The checkpoint sequence recorded in a dump script, if any. Only the
/// leading comment lines are scanned — the marker can never be confused
/// with data.
pub(crate) fn read_checkpoint_seq(script: &str) -> Option<u64> {
    script
        .lines()
        .take_while(|l| l.starts_with("--"))
        .find_map(|l| l.strip_prefix(CKPT_SEQ_MARKER))
        .and_then(|s| s.trim().parse().ok())
}

/// Render a `CREATE TABLE` statement for a schema (no trailing `;`).
/// Shared by the dump and the WAL, which logs programmatic DDL as SQL text.
pub(crate) fn render_create_table(name: &str, schema: &Schema, if_not_exists: bool) -> String {
    let cols: Vec<String> = schema
        .columns
        .iter()
        .map(|c| {
            format!(
                "{} {}{}",
                c.name,
                c.dtype.sql_name(),
                if c.nullable { "" } else { " NOT NULL" }
            )
        })
        .collect();
    format!(
        "CREATE TABLE {}{name} ({})",
        if if_not_exists { "IF NOT EXISTS " } else { "" },
        cols.join(", ")
    )
}

/// Render a multi-row `INSERT` statement (no trailing `;`).
pub(crate) fn render_insert(name: &str, rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|row| {
            let vals: Vec<String> = row.iter().map(dump_literal).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO {name} VALUES {}", tuples.join(", "))
}

/// Literal form that parses back to the identical value (timestamps stay
/// integers and non-finite floats quoted text, both re-coerced by the
/// column type on insert). Text holding
/// control characters is emitted as an `E'...'` escaped literal so every
/// statement — dump line or WAL frame — stays on a single line.
pub(crate) fn dump_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => format!("{f:?}"),
        // `inf`, `-inf`, `NaN`: no numeric literal, but the text coerces back.
        Value::Float(f) => format!("'{f}'"),
        Value::Text(s) => {
            if s.contains(['\n', '\r', '\t', '\0']) {
                let mut out = String::with_capacity(s.len() + 4);
                out.push_str("E'");
                for ch in s.chars() {
                    match ch {
                        '\\' => out.push_str("\\\\"),
                        '\'' => out.push_str("''"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        '\0' => out.push_str("\\0"),
                        other => out.push(other),
                    }
                }
                out.push('\'');
                out
            } else {
                format!("'{}'", s.replace('\'', "''"))
            }
        }
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Timestamp(t) => t.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Engine {
        let e = Engine::new();
        e.execute(
            "CREATE TABLE runs (id INTEGER NOT NULL, fs TEXT, bw FLOAT, ok BOOLEAN, at TIMESTAMP)",
        )
        .unwrap();
        e.execute(
            "INSERT INTO runs VALUES \
             (1, 'ufs', 214.516, TRUE, 1101234630), \
             (2, NULL, NULL, FALSE, 0), \
             (3, 'it''s;tricky', -0.5, TRUE, 100)",
        )
        .unwrap();
        e.execute("CREATE TEMP TABLE scratch (x INTEGER)").unwrap();
        e
    }

    #[test]
    fn dump_restore_roundtrip() {
        let e = sample();
        let dump = e.dump_sql();
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let a = e.query("SELECT * FROM runs ORDER BY id").unwrap();
        let b = e2.query("SELECT * FROM runs ORDER BY id").unwrap();
        assert_eq!(a, b);
        // And the restored engine dumps identically (fixpoint).
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn temp_tables_not_dumped() {
        let dump = sample().dump_sql();
        assert!(!dump.contains("scratch"));
    }

    #[test]
    fn schema_survives() {
        let e2 = Engine::from_sql_dump(&sample().dump_sql()).unwrap();
        let (schema, _) = e2.read_snapshot("runs").unwrap();
        assert!(!schema.columns[0].nullable);
        assert_eq!(schema.columns[4].dtype, crate::DataType::Timestamp);
    }

    #[test]
    fn tricky_text_with_semicolons_and_quotes() {
        let e2 = Engine::from_sql_dump(&sample().dump_sql()).unwrap();
        let rs = e2.query("SELECT fs FROM runs WHERE id = 3").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("it's;tricky".into()));
    }

    #[test]
    fn file_persistence() {
        let dir = std::env::temp_dir().join("perfbase_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.sql");
        sample().save_to_file(&path).unwrap();
        let e2 = Engine::load_from_file(&path).unwrap();
        assert_eq!(e2.row_count("runs").unwrap(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn indexes_roundtrip() {
        let e = sample();
        e.execute("CREATE INDEX ix_runs_id ON runs (id)").unwrap();
        let dump = e.dump_sql();
        assert!(dump.contains("CREATE INDEX ix_runs_id ON runs (id);"));
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let rs = e2.query("SELECT fs FROM runs WHERE id = 1").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("ufs".into()));
        // Fixpoint: the restored engine dumps the index too.
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn ordered_indexes_roundtrip() {
        let e = sample();
        e.execute("CREATE ORDERED INDEX ix_runs_bw ON runs (bw)")
            .unwrap();
        e.execute("CREATE INDEX ix_runs_id ON runs (id)").unwrap();
        let dump = e.dump_sql();
        assert!(dump.contains("CREATE ORDERED INDEX ix_runs_bw ON runs (bw);"));
        assert!(dump.contains("CREATE INDEX ix_runs_id ON runs (id);"));
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        // The ordered flag survives the round trip (and dumps identically).
        let cols = e2.table("runs").unwrap().read().index_columns();
        assert!(cols.contains(&("ix_runs_bw".to_string(), "bw".to_string(), true)));
        assert!(cols.contains(&("ix_runs_id".to_string(), "id".to_string(), false)));
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn text_with_newlines_and_quotes_roundtrips_on_one_line() {
        let e = Engine::new();
        e.execute("CREATE TABLE notes (id INTEGER, body TEXT)")
            .unwrap();
        let nasty = [
            "line one\nline two",
            "quote ' then\nnewline",
            "tab\there",
            "cr\rlf\n mix",
            "back\\slash and \\n literal",
            "''\n''",
            "trailing newline\n",
        ];
        for (i, s) in nasty.iter().enumerate() {
            e.insert_rows(
                "notes",
                vec![vec![Value::Int(i as i64), Value::Text(s.to_string())]],
            )
            .unwrap();
        }
        let dump = e.dump_sql();
        // Every dumped statement occupies exactly one line: each line of the
        // dump (minus the header comment) ends with ';' and parses alone.
        for line in dump.lines().skip(1) {
            assert!(
                line.ends_with(';'),
                "multi-line statement in dump: {line:?}"
            );
            sql::parse_statement(line).unwrap();
        }
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let rs = e2.query("SELECT id, body FROM notes ORDER BY id").unwrap();
        for (i, s) in nasty.iter().enumerate() {
            assert_eq!(rs.rows()[i][1], Value::Text(s.to_string()), "row {i}");
        }
        // Fixpoint: the restored engine dumps identically.
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn columnar_layout_roundtrips_through_dump() {
        // The clause older dumps carry loads, and is never written again.
        let e = Engine::from_sql_dump(
            "CREATE TABLE cdata (id INTEGER NOT NULL, fs TEXT, bw FLOAT) USING COLUMNAR;\n\
             INSERT INTO cdata VALUES (1, 'ufs', 1.5), (2, NULL, NULL), (3, 'nfs', -0.25);\n\
             CREATE INDEX ix_c ON cdata (id);\n",
        )
        .unwrap();
        let dump = e.dump_sql();
        assert!(!dump.contains("USING"), "layout clause in dump: {dump}");
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let a = e.query("SELECT * FROM cdata ORDER BY id").unwrap();
        let b = e2.query("SELECT * FROM cdata ORDER BY id").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Fixpoint: the restored engine dumps byte-identically.
        assert_eq!(dump, e2.dump_sql());
    }

    /// Bit pattern of every float in column `v` of `t`, in `id` order.
    fn float_bits(e: &Engine) -> Vec<Option<u64>> {
        e.query("SELECT id, v FROM t ORDER BY id")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[1].as_f64().map(f64::to_bits))
            .collect()
    }

    #[test]
    fn non_finite_floats_survive_dump_and_wal_replay() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (dump, wal) = (dir.join("nonfinite.sql"), dir.join("nonfinite.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (e, _) = Engine::open_durable(&dump, &wal, opts.clone()).unwrap();
        e.execute("CREATE TABLE t (id INTEGER, v FLOAT)").unwrap();
        let vals = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 1.5];
        let rows = (0..)
            .zip(vals)
            .map(|(i, v)| vec![Value::Int(i), Value::Float(v)]);
        e.insert_rows("t", rows.collect()).unwrap();
        e.execute("INSERT INTO t VALUES (9, NULL)").unwrap();
        let live = float_bits(&e);
        let want: Vec<Option<u64>> = vals.iter().map(|v| Some(v.to_bits())).collect();
        assert_eq!(live[..5], want[..]);
        assert_eq!(live[5], None);
        // Dump round trip and fixpoint.
        let script = e.dump_sql();
        let e2 = Engine::from_sql_dump(&script).unwrap();
        assert_eq!(float_bits(&e2), live);
        assert_eq!(e2.dump_sql(), script);
        // WAL replay (no checkpoint: the whole state comes from the log).
        e.wal_sync().unwrap();
        drop(e);
        let (e3, report) = Engine::open_durable(&dump, &wal, opts).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(float_bits(&e3), live);
    }

    #[test]
    fn empty_engine_roundtrip() {
        let e = Engine::new();
        let e2 = Engine::from_sql_dump(&e.dump_sql()).unwrap();
        assert!(e2.table_names().is_empty());
    }

    #[test]
    fn execute_script_counts_rows() {
        let e = Engine::new();
        let n = e
            .execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2); INSERT INTO t VALUES (3);")
            .unwrap();
        assert_eq!(n, 3);
    }
}
