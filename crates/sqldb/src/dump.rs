//! SQL dump / restore — the persistence layer of the embedded engine.
//!
//! The original perfbase delegated persistence to the PostgreSQL server.
//! Our embedded substitute persists by dumping the whole catalog as an SQL
//! script (CREATE TABLE + INSERT) and replaying it on load: human-readable,
//! trivially diffable, and it exercises the same SQL front-end as every
//! other access path. TEMP tables are never dumped.

use crate::column::ColumnVec;
use crate::engine::{Engine, Text};
use crate::error::DbError;
use crate::schema::Schema;
use crate::sql;
use crate::table::Row;
use crate::value::Value;
use std::fmt::Write as _;
use std::io::Write as _;

/// Rows per dumped `INSERT` statement.
const DUMP_BATCH: usize = 64;

impl Engine {
    /// Serialize every non-TEMP table as an SQL script.
    pub fn dump_sql(&self) -> String {
        self.dump_with_seq(None)
    }

    /// [`Engine::dump_sql`] into one buffer, straight from each table's
    /// column store, with the checkpoint stamp (if any) as the second
    /// header line.
    fn dump_with_seq(&self, ckpt_seq: Option<u64>) -> String {
        let temps = self.temp_table_names();
        let mut out = String::from("-- perfbase embedded database dump\n");
        if let Some(seq) = ckpt_seq {
            let _ = writeln!(out, "{CKPT_SEQ_MARKER}{seq}");
        }
        for name in self.table_names() {
            if temps.contains(&name) {
                continue;
            }
            let table = self.pin_table(&name).expect("table listed");
            write_create_table(&mut out, &name, &table.schema, false);
            out.push_str(";\n");
            let store = table.store();
            for from in (0..store.len()).step_by(DUMP_BATCH) {
                let rows = from..store.len().min(from + DUMP_BATCH);
                write_tuples(
                    &mut out,
                    &name,
                    rows,
                    table.schema.arity(),
                    |out, r, c| match store.col(c) {
                        ColumnVec::Text(d) if !d.nulls.is_null(r) => {
                            write_text(out, &d.dict()[d.codes[r] as usize])
                        }
                        col => write_literal(out, &col.value(r)),
                    },
                );
                out.push_str(";\n");
            }
            for (ix_name, column, ordered) in table.index_columns() {
                let kind = if ordered { "ORDERED " } else { "" };
                let _ = writeln!(out, "CREATE {kind}INDEX {ix_name} ON {name} ({column});");
            }
        }
        out
    }

    /// Execute a whole `;`-separated SQL script, each statement as
    /// [`Engine::execute`] would (an accepted one is logged when a log is
    /// attached). The script is parsed to its end first: a syntax error
    /// anywhere executes nothing.
    pub fn execute_script(&self, script: &str) -> Result<usize, DbError> {
        let stmts: Vec<_> = sql::statements(script).collect::<Result<_, _>>()?;
        let mut affected = 0;
        for (stmt, text) in stmts {
            affected += self.run_parsed(stmt, Text::Source(text))?;
        }
        Ok(affected)
    }

    /// Rebuild an engine from a dump produced by [`Engine::dump_sql`]. Each
    /// statement executes as soon as it is parsed — neither the tokens nor
    /// the statements of the whole script are ever held — and the engine is
    /// dropped on the first error, so nothing partial is observable.
    pub fn from_sql_dump(script: &str) -> Result<Engine, DbError> {
        let e = Engine::new();
        for stmt in sql::statements(script) {
            e.run_parsed(stmt?.0, Text::Unwanted)?;
        }
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
        f.write_all(self.dump_with_seq(ckpt_seq).as_bytes())?;
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

/// Append a `CREATE TABLE` statement for a schema (no trailing `;`).
/// Shared by the dump and the WAL, which logs programmatic DDL as SQL text.
pub(crate) fn write_create_table(
    out: &mut String,
    name: &str,
    schema: &Schema,
    if_not_exists: bool,
) {
    out.push_str("CREATE TABLE ");
    if if_not_exists {
        out.push_str("IF NOT EXISTS ");
    }
    out.push_str(name);
    for (i, c) in schema.columns.iter().enumerate() {
        out.push_str(if i == 0 { " (" } else { ", " });
        out.push_str(&c.name);
        out.push(' ');
        out.push_str(c.dtype.sql_name());
        if !c.nullable {
            out.push_str(" NOT NULL");
        }
    }
    out.push(')');
}

/// Append a multi-row `INSERT` statement (no trailing `;`).
pub(crate) fn write_insert(out: &mut String, name: &str, rows: &[Row]) {
    let arity = rows.first().map_or(0, Vec::len);
    write_tuples(out, name, 0..rows.len(), arity, |out, r, c| {
        write_literal(out, &rows[r][c])
    });
}

/// `INSERT INTO name VALUES (…), (…)` over `rows`, `cell(out, row, column)`
/// appending each literal.
fn write_tuples(
    out: &mut String,
    name: &str,
    rows: std::ops::Range<usize>,
    arity: usize,
    cell: impl Fn(&mut String, usize, usize),
) {
    out.push_str("INSERT INTO ");
    out.push_str(name);
    out.push_str(" VALUES ");
    for r in rows.clone() {
        out.push_str(if r == rows.start { "(" } else { ", (" });
        for c in 0..arity {
            if c > 0 {
                out.push_str(", ");
            }
            cell(out, r, c);
        }
        out.push(')');
    }
}

/// Append the literal form that parses back to the identical value
/// (timestamps stay integers and non-finite floats quoted text, both
/// re-coerced by the column type on insert).
pub(crate) fn write_literal(out: &mut String, v: &Value) {
    // Writing to a `String` cannot fail.
    let _ = match v {
        Value::Null => out.write_str("NULL"),
        Value::Bool(b) => out.write_str(if *b { "TRUE" } else { "FALSE" }),
        Value::Text(s) => return write_text(out, s),
        Value::Int(i) | Value::Timestamp(i) => write!(out, "{i}"),
        Value::Float(f) if f.is_finite() => write!(out, "{f:?}"),
        // `inf`, `-inf`, `NaN`: no numeric literal, but the text coerces back.
        Value::Float(f) => write!(out, "'{f}'"),
    };
}

/// Append `s` as a string literal. Text holding control characters becomes
/// an `E'...'` escaped literal so every statement — dump line or WAL frame —
/// stays on a single line.
fn write_text(out: &mut String, s: &str) {
    let escaped = s.contains(['\n', '\r', '\t', '\0']);
    out.push_str(if escaped { "E'" } else { "'" });
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let replacement = match b {
            b'\'' => "''",
            b'\\' if escaped => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b'\0' => "\\0",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(replacement);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('\'');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_common::Rng;
    use crate::{Column, DataType};

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
    fn i64_min_survives_dump_and_wal_replay() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (dump, wal) = (dir.join("i64min.sql"), dir.join("i64min.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (e, _) = Engine::open_durable(&dump, &wal, opts.clone()).unwrap();
        e.execute("CREATE TABLE t (x INTEGER)").unwrap();
        // Acked ...
        let batch = vec![vec![Value::Int(i64::MIN)], vec![Value::Int(7)]];
        assert_eq!(e.insert_rows("t", batch).unwrap(), 2);
        e.execute("INSERT INTO t VALUES (-9223372036854775808), (9223372036854775807)")
            .unwrap();
        let want = [i64::MIN, 7, i64::MIN, i64::MAX].map(|v| vec![Value::Int(v)]);
        assert_eq!(e.read_snapshot("t").unwrap().1, want);
        // ... so the dump loads, and is a fixpoint,
        let script = e.dump_sql();
        let e2 = Engine::from_sql_dump(&script).unwrap();
        assert_eq!(e2.read_snapshot("t").unwrap().1, want);
        assert_eq!(e2.dump_sql(), script);
        // and the log replays it.
        e.wal_sync().unwrap();
        drop(e);
        let (e3, report) = Engine::open_durable(&dump, &wal, opts).unwrap();
        assert_eq!((report.frames_replayed, report.replay_errors), (3, 0));
        assert_eq!(e3.read_snapshot("t").unwrap().1, want);
    }

    /// Values at the edges of every kind, and text built from everything
    /// the literal syntax gives a meaning to.
    fn edge_value(rng: &mut Rng, kind: usize) -> Value {
        const INTS: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, 1, 1_101_234_630];
        const FLOATS: [f64; 12] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e21,
            0.1,
            -214.516,
        ];
        const TEXT: [&str; 20] = [
            "", "'", "''", "\\", "\\'", ";", "--", "\n", "\r", "\t", "\0", "\u{1}", "\u{7f}",
            "größe", "日本", "E", "e'", " ", "NULL", "x",
        ];
        if rng.below(6) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(INTS[rng.below(6) as usize]),
            1 => Value::Float(FLOATS[rng.below(12) as usize]),
            2 => Value::Text(
                (0..rng.below(5))
                    .map(|_| TEXT[rng.below(20) as usize])
                    .collect(),
            ),
            3 => Value::Bool(rng.bool()),
            _ => Value::Timestamp(INTS[rng.below(6) as usize]),
        }
    }

    #[test]
    fn writer_then_reader_is_the_identity_on_every_value() {
        let schema = || {
            let kinds = [
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Bool,
                DataType::Timestamp,
            ];
            let cols = kinds.iter().enumerate();
            Schema::new(
                cols.map(|(i, t)| Column::new(&format!("c{i}"), *t))
                    .collect(),
            )
            .unwrap()
        };
        let mut rng = Rng::new(0xd0);
        let e = Engine::new();
        e.create_table("edges", schema()).unwrap();
        for _ in 0..60 {
            let rows: Vec<Row> = (0..rng.below(5) + 1)
                .map(|_| (0..5).map(|kind| edge_value(&mut rng, kind)).collect())
                .collect();
            // One frame's text, read back, is the rows it was written from
            // (compared through `Debug`, which tells -0.0 from 0.0 and
            // equates NaN with itself).
            let mut text = String::new();
            write_insert(&mut text, "edges", &rows);
            assert!(!text.contains('\n'), "{text:?}");
            let Ok(sql::Stmt::Insert {
                columns,
                rows: cells,
                ..
            }) = sql::parse_statement(&text)
            else {
                panic!("{text}");
            };
            let mut table = crate::Table::new(schema());
            let read = crate::engine::insert_rows_of(&table.schema, columns, cells).unwrap();
            table.insert_all(read).unwrap();
            assert_eq!(format!("{:?}", table.to_rows()), format!("{rows:?}"));
            e.insert_rows("edges", rows).unwrap();
        }
        // And the dump of all of them is a fixpoint.
        let script = e.dump_sql();
        let e2 = Engine::from_sql_dump(&script).unwrap();
        assert_eq!(
            format!("{:?}", e2.read_snapshot("edges").unwrap().1),
            format!("{:?}", e.read_snapshot("edges").unwrap().1)
        );
        assert_eq!(e2.dump_sql(), script);
    }

    #[test]
    fn a_late_syntax_error_executes_nothing_and_fails_the_load() {
        let e = sample();
        let before = e.dump_sql();
        for last in [
            "INSERT INTO runs VALUES (",
            "SELECT 'open",
            "DROP TABLE runs extra",
        ] {
            let script = format!(
                "CREATE TABLE u (a INTEGER); INSERT INTO runs VALUES (4, 'x', 1.0, TRUE, 1); \
                 DELETE FROM runs; {last}"
            );
            assert!(matches!(e.execute_script(&script), Err(DbError::Parse(_))));
            assert_eq!(e.dump_sql(), before, "{last}");
            // A fresh engine loading the same text is dropped with the error.
            let script = format!("{before}{last}");
            assert!(matches!(
                Engine::from_sql_dump(&script),
                Err(DbError::Parse(_))
            ));
        }
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
