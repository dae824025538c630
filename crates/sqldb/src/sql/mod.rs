//! SQL text front-end: lexer, AST and parser.
//!
//! The dialect is the subset perfbase needs (see crate docs): CREATE
//! \[TEMP\] TABLE, DROP TABLE, INSERT, SELECT (WHERE / JOIN ON equality /
//! GROUP BY / ORDER BY / LIMIT / DISTINCT), UPDATE and DELETE.

mod ast;
mod lexer;
mod parser;

pub use ast::{ColumnDef, JoinClause, OrderKey, SelectItem, SelectStmt, SqlExpr, Stmt, UnOp};
pub(crate) use parser::statements;
pub use parser::{is_reserved, parse_expr, parse_script, parse_statement, split_script};

/// SQL text shared by the lexer's and the parser's tests: what the
/// replacement front end is compared on against the lexer it replaced.
#[cfg(test)]
pub(crate) mod corpus {
    use crate::test_common::Rng;
    use crate::{Engine, SyncPolicy, Value, Wal, WalOptions};

    /// Every SQL string of the lexer, parser and dump unit tests (valid or
    /// not), and the inputs of the bugs this front end was written against.
    pub(crate) const STATEMENTS: &[&str] = &[
        "SELECT a.b, 'it''s', 3, 4.5, 1e3 FROM t",
        "a <= b <> c != d >= e = f",
        "SELECT 1 -- trailing comment\n, 2",
        "select",
        "'unterminated",
        "a ? b",
        r"E'a\nb\tc\\d''e'",
        r"e'x\'y'",
        "Elapsed",
        r"E'bad \q escape'",
        "E'unterminated",
        "BEGIN",
        "begin transaction;",
        "COMMIT",
        "COMMIT TRANSACTION",
        "rollback",
        "CREATE TABLE commit (x INTEGER)",
        "BEGIN COMMIT",
        "INSERT INTO t VALUES ('a;b'); -- c; d\nSELECT 1;\n E'x\\n;y';; UPDATE t SET a = ''';'",
        "  ;; \n",
        "CREATE TEMP TABLE IF NOT EXISTS t (a INTEGER NOT NULL, b FLOAT, c TEXT NULL)",
        "CREATE TABLE t (a INTEGER, fs TEXT) USING COLUMNAR",
        "create table t (a integer) using columnar",
        "CREATE TABLE t (a INTEGER) USING",
        "CREATE TABLE t (a INTEGER) USING ROWSTORE",
        "CREATE INDEX IF NOT EXISTS ix_run ON pb_runs (run_id)",
        "CREATE INDEX ON t (a)",
        "CREATE INDEX i ON t ()",
        "CREATE ORDERED INDEX IF NOT EXISTS ix_bw ON runs (bw)",
        "CREATE ORDERED TABLE t (a INTEGER)",
        "SELECT ordered FROM t WHERE ordered = 1",
        "EXPLAIN SELECT * FROM runs WHERE run_id = 3",
        "EXPLAIN ANALYZE SELECT count(*) FROM runs",
        "EXPLAIN INSERT INTO t VALUES (1)",
        "SELECT explain, analyze FROM t WHERE explain = 1",
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
        "SELECT DISTINCT fs, avg(bw) AS abw FROM runs JOIN meta ON runs.id = meta.id \
         WHERE n >= 4 AND fs IN ('ufs','nfs') GROUP BY fs ORDER BY abw DESC, 1 LIMIT 10",
        "SELECT a FROM t WHERE a IS NULL",
        "SELECT a FROM t WHERE a IS NOT NULL",
        "SELECT a FROM t WHERE a NOT IN (1,2)",
        "SELECT a FROM t WHERE name LIKE 'bio_%'",
        "SELECT a FROM t WHERE name NOT LIKE '%run1'",
        "SELECT a FROM t WHERE NOT (a = 1 OR b <> 2)",
        "SELECT a FROM t WHERE a % 2 = 0",
        "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3",
        "DELETE FROM t WHERE id IN (1, 2, 3)",
        "DELETE FROM t",
        "SELEKT 1",
        "SELECT FROM t",
        "INSERT INTO t",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t LIMIT x",
        "CREATE TABLE t (a BLOB)",
        "SELECT 1 extra junk everywhere (",
        "SELECT 1 + 2 AS three",
        "INSERT INTO runs VALUES (1, 'ufs', 214.516, TRUE, 1101234630), \
         (2, NULL, NULL, FALSE, 0), (3, 'it''s;tricky', -0.5, TRUE, 100)",
        "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2); INSERT INTO t VALUES (3);",
        // Two scanners used to split this differently.
        "SELECT a FROM t WHERE s LIKE'x\\';SELECT 2",
        // The magnitude of i64::MIN, one more, and more than a u64 holds.
        "INSERT INTO t VALUES (-9223372036854775808, 9223372036854775807)",
        "SELECT 9223372036854775808, -9223372036854775809, 18446744073709551616",
        // Number edges: `1e` is `1` then `e`; one dot and one exponent each.
        "SELECT 1e, 1e+, 1e+5, 1.5e-3x, 1.2.3, .5, 5., 1.e5, 007, 1..2, 3.e, 2E9",
        // Unicode identifiers and blanks.
        "SELECT größe,\u{a0}ширина FROM t\u{2003}WHERE größe9 > 1 AND _x.y_ = 'ü''ß'",
        "SELECT '\u{1F600}', E'\\\u{1F600}'",
        "SELECT a\u{301} FROM t; SELECT \u{1F600}",
        "x'; E'\\",
    ];

    /// The corpus: [`STATEMENTS`], the layout-compat fixture (its dump and
    /// every frame of its log) and a generated 60-run dump.
    pub(crate) fn scripts() -> Vec<String> {
        let mut out: Vec<String> = STATEMENTS.iter().map(|s| s.to_string()).collect();
        out.push(include_str!("../../tests/fixtures/layout_compat/db.sql").to_string());
        // Tests of one process call this from several threads at once.
        let wal = std::env::temp_dir().join(format!(
            "perfbase_corpus_{}_{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &wal,
            include_bytes!("../../tests/fixtures/layout_compat/db.wal"),
        )
        .unwrap();
        let (log, frames, _) =
            Wal::open_recover(&wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        drop(log);
        std::fs::remove_file(&wal).ok();
        assert_eq!(frames.len(), 14, "fixture frames");
        out.extend(frames);
        out.push(campaign_dump(60));
        out
    }

    /// Statements to cut at every character: a `CREATE TABLE`, an `INSERT`
    /// of numbers and text, one holding an `E'…'` literal, and a SELECT
    /// ending in escapes and an exponent.
    pub(crate) fn statements_to_truncate() -> Vec<String> {
        let dump = campaign_dump(2);
        let lines: Vec<&str> = dump.lines().collect();
        let with_escape = lines.iter().find(|l| l.contains("E'")).unwrap();
        [
            lines[1],
            lines[2],
            with_escape,
            r"SELECT E'\\', 1.5e-3, 'x'",
        ]
        .map(str::to_string)
        .to_vec()
    }

    /// A dump shaped like an experiment's: an indexed run table and one
    /// 24-row data table per run.
    pub(crate) fn campaign_dump(runs: i64) -> String {
        let mut rng = Rng::new(14);
        let e = Engine::new();
        e.execute(
            "CREATE TABLE pb_runs (run_id INTEGER NOT NULL, fs TEXT, at TIMESTAMP, ok BOOLEAN)",
        )
        .unwrap();
        e.execute("CREATE INDEX ix_run ON pb_runs (run_id)")
            .unwrap();
        for run in 1..=runs {
            let fs = ["ufs", "nfs", "pvfs", "it's"][rng.below(4) as usize];
            e.insert_rows(
                "pb_runs",
                vec![vec![
                    Value::Int(run),
                    Value::Text(fs.into()),
                    Value::Timestamp(1_101_234_630 + run),
                    Value::Bool(rng.bool()),
                ]],
            )
            .unwrap();
            e.execute(&format!(
                "CREATE TABLE pb_rundata_{run} (pos INTEGER, mode TEXT, bw FLOAT, note TEXT)"
            ))
            .unwrap();
            let rows = (0..24).map(|pos| {
                vec![
                    Value::Int(pos),
                    Value::Text(["read", "write", "rewrite"][rng.below(3) as usize].into()),
                    Value::Float(rng.float(-1.0, 900.0)),
                    if rng.below(8) == 0 {
                        Value::Text(format!("line {pos}\nof run {run}"))
                    } else {
                        Value::Null
                    },
                ]
            });
            e.insert_rows(&format!("pb_rundata_{run}"), rows.collect())
                .unwrap();
        }
        e.dump_sql()
    }
}
