//! Golden-file tests for `EXPLAIN` across the five access paths
//! (point-lookup, in-list, range-window, index-end, full-scan) plus the
//! falsified path and the three vectorization strategies (full, partial, none), and
//! an `EXPLAIN ANALYZE` check that actual candidate-row counts match what
//! the query really touched.
//!
//! Regenerate the goldens with `BLESS=1 cargo test -p perfbase --test
//! explain_golden` after an intentional plan-format change.

use perfbase::sqldb::Engine;
use std::path::PathBuf;

/// 20 deterministic rows; hash index on `run_index`, ordered index on
/// `nodes`.
fn fixture() -> Engine {
    let e = Engine::new();
    e.execute("CREATE TABLE runs (run_index INTEGER NOT NULL, fs TEXT, nodes INTEGER, bw FLOAT)")
        .unwrap();
    let fs = ["ufs", "nfs", "pvfs"];
    let rows: Vec<String> = (1..=20)
        .map(|i| format!("({i}, '{}', {}, {}.0)", fs[i % 3], 1 << (i % 4), i * 10))
        .collect();
    e.execute(&format!("INSERT INTO runs VALUES {}", rows.join(",")))
        .unwrap();
    e.execute("CREATE INDEX ix_run ON runs (run_index)")
        .unwrap();
    e.execute("CREATE ORDERED INDEX ox_nodes ON runs (nodes)")
        .unwrap();
    e
}

fn explain(e: &Engine, sql: &str) -> String {
    let rs = e.query(sql).unwrap();
    assert_eq!(rs.column_names(), &["plan"]);
    let mut out = String::new();
    for row in rs.rows() {
        out.push_str(row[0].as_str().unwrap());
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "plan drift for {name}; run with BLESS=1 to re-bless"
    );
}

#[test]
fn explain_point_lookup() {
    let e = fixture();
    check_golden(
        "explain_point_lookup.txt",
        &explain(&e, "EXPLAIN SELECT * FROM runs WHERE run_index = 5"),
    );
}

#[test]
fn explain_in_list() {
    let e = fixture();
    check_golden(
        "explain_in_list.txt",
        &explain(
            &e,
            "EXPLAIN SELECT fs FROM runs WHERE run_index IN (1, 3, 5)",
        ),
    );
}

#[test]
fn explain_range_window() {
    let e = fixture();
    check_golden(
        "explain_range_window.txt",
        &explain(
            &e,
            "EXPLAIN SELECT bw FROM runs WHERE nodes >= 2 AND nodes < 8 \
             ORDER BY bw DESC LIMIT 3",
        ),
    );
}

/// `min`/`max` alone over an ordered-indexed column read the rows under the
/// first and last key (here 5 rows each of 20) — what `add_run` asks
/// `pb_runs` for its next id. A WHERE clause, a GROUP BY or a hash index
/// leave the statement on the ordinary paths.
#[test]
fn explain_index_end() {
    let e = fixture();
    check_golden(
        "explain_index_end.txt",
        &explain(
            &e,
            "EXPLAIN ANALYZE SELECT max(nodes), min(nodes) AS least FROM runs",
        ),
    );
    for other in [
        "EXPLAIN SELECT max(nodes) FROM runs WHERE fs = 'ufs'",
        "EXPLAIN SELECT max(nodes) FROM runs GROUP BY fs",
        "EXPLAIN SELECT max(nodes), count(*) FROM runs",
        "EXPLAIN SELECT max(run_index) FROM runs",
    ] {
        assert!(explain(&e, other).contains("access=full-scan"), "{other}");
    }
    let rs = e
        .query("SELECT max(nodes), min(nodes) AS least FROM runs")
        .unwrap();
    assert_eq!(rs.render_tsv(), "max(nodes)\tleast\n8\t1\n");
}

#[test]
fn explain_full_scan() {
    let e = fixture();
    check_golden(
        "explain_full_scan.txt",
        &explain(&e, "EXPLAIN SELECT fs, avg(bw) FROM runs GROUP BY fs"),
    );
}

#[test]
fn explain_falsified() {
    let e = fixture();
    check_golden(
        "explain_falsified.txt",
        &explain(&e, "EXPLAIN SELECT * FROM runs WHERE run_index = 'text'"),
    );
}

#[test]
fn explain_columnar_vectorized_full() {
    let e = fixture();
    check_golden(
        "explain_columnar_full.txt",
        &explain(&e, "EXPLAIN SELECT fs, avg(bw) FROM runs GROUP BY fs"),
    );
}

#[test]
fn explain_columnar_vectorized_partial() {
    let e = fixture();
    check_golden(
        "explain_columnar_partial.txt",
        &explain(
            &e,
            "EXPLAIN SELECT run_index, bw * 2 FROM runs WHERE fs = 'ufs'",
        ),
    );
}

#[test]
fn explain_columnar_vectorized_none() {
    let e = fixture();
    check_golden(
        "explain_columnar_none.txt",
        &explain(
            &e,
            "EXPLAIN SELECT fs FROM runs WHERE fs = 'ufs' OR nodes = 8",
        ),
    );
}

#[test]
fn analyze_columnar_reports_layout_and_actual_rows() {
    let e = fixture();
    let text = explain(
        &e,
        "EXPLAIN ANALYZE SELECT fs, avg(bw) FROM runs GROUP BY fs",
    );
    let scan = text
        .lines()
        .find(|l| l.starts_with("Scan "))
        .unwrap_or_else(|| panic!("no scan line in {text}"));
    assert!(scan.contains(" vectorized=full "), "{scan}");
    assert!(scan.ends_with("actual_rows=20"), "{scan}");
}

#[test]
fn analyze_reports_actual_candidate_rows() {
    let e = fixture();
    // (sql, expected actual_rows on the scan, expected rows returned)
    let cases = [
        (
            "EXPLAIN ANALYZE SELECT * FROM runs WHERE run_index = 5",
            1,
            1,
        ),
        (
            "EXPLAIN ANALYZE SELECT fs FROM runs WHERE run_index IN (1, 3, 5)",
            3,
            3,
        ),
        // nodes cycles 2,4,8,1; nodes in [2,8) holds for 10 of 20 rows.
        (
            "EXPLAIN ANALYZE SELECT bw FROM runs WHERE nodes >= 2 AND nodes < 8",
            10,
            10,
        ),
        // Full scan visits all 20 rows; grouping returns 3.
        (
            "EXPLAIN ANALYZE SELECT fs, avg(bw) FROM runs GROUP BY fs",
            20,
            3,
        ),
    ];
    for (sql, actual_rows, returned) in cases {
        let text = explain(&e, sql);
        let scan = text
            .lines()
            .find(|l| l.starts_with("Scan "))
            .unwrap_or_else(|| panic!("no scan line in {text}"));
        assert!(
            scan.ends_with(&format!("actual_rows={actual_rows}")),
            "{sql}: {scan}"
        );
        assert!(
            text.trim_end()
                .ends_with(&format!("Rows returned: {returned}")),
            "{sql}: {text}"
        );
        // The analyzed result must match the plain query's row count.
        let plain = e.query(sql.trim_start_matches("EXPLAIN ANALYZE ")).unwrap();
        assert_eq!(plain.len(), returned, "{sql}");
    }
}

/// [`fixture`] plus a table to join it with.
fn joined_fixture() -> Engine {
    let e = fixture();
    e.execute("CREATE TABLE hosts (nodes INTEGER, rack TEXT)")
        .unwrap();
    e.execute("INSERT INTO hosts VALUES (1, 'r0'), (2, 'r0'), (4, 'r1'), (8, 'r1'), (16, 'r2')")
        .unwrap();
    e
}

const JOINED: &str = "SELECT hosts.rack, avg(runs.bw) AS mean FROM runs \
                      JOIN hosts ON runs.nodes = hosts.nodes WHERE runs.fs <> 'nfs' \
                      GROUP BY hosts.rack ORDER BY mean DESC LIMIT 2";

/// A joined SELECT: the goldens were written by the build at commit
/// `352842c`, whose join materialised rows and ran a pipeline of its own.
#[test]
fn explain_join() {
    let e = joined_fixture();
    check_golden(
        "explain_join.txt",
        &explain(&e, &format!("EXPLAIN {JOINED}")),
    );
    check_golden(
        "explain_analyze_join.txt",
        &explain(&e, &format!("EXPLAIN ANALYZE {JOINED}")),
    );
    let rs = e.query(JOINED).unwrap();
    assert_eq!(
        rs.render_tsv(),
        "hosts.rack\tmean\nr0\t118.33333333333333\nr1\t98.57142857142857\n"
    );
}
