//! Probes of single layers that need no stage around them: each calls one
//! public function of one module in a loop and reports the median.

use crate::data::{self, InputFile};
use crate::stats::median;
use crate::workloads::{preload, text, Res};
use perfbase::core::input::{extract_runs, input_description_from_str};
use perfbase::core::xmldef::definition_from_str;
use perfbase::rematch::Regex;
use perfbase::sqldb::sql::{parse_statement, split_script};
use perfbase::sqldb::Engine;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The regular expressions of `data/input.xml`.
const INPUT_PATTERNS: [&str; 4] = [
    r"_(ufs|nfs|pvfs)_grisu",
    r"_(listbased|listless)_",
    r"T=(\d+)",
    r"Date of measurement: (.+)",
];

/// Median time of `f` over `n` calls, in microseconds.
fn median_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Every probe, on the first files of the workload's campaign. `dir` takes
/// the dump file the SQL parser probe reads back.
pub fn probe(files: &[InputFile], dir: &Path) -> Res<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    for (layer, xml) in [
        ("xmlite.parse_us.experiment", data::EXPERIMENT_XML),
        ("xmlite.parse_us.input", data::INPUT_XML),
        ("xmlite.parse_us.query", data::FIG7_XML),
    ] {
        perfbase::xmlite::parse(xml).map_err(text)?;
        out.push((
            layer,
            median_us(200, || perfbase::xmlite::parse(black_box(xml))),
        ));
    }

    for pattern in INPUT_PATTERNS {
        Regex::new(pattern).map_err(text)?;
    }
    let compile_all = median_us(200, || {
        INPUT_PATTERNS.map(|p| Regex::new(black_box(p)).is_ok())
    });
    out.push((
        "rematch.compile_us",
        compile_all / INPUT_PATTERNS.len() as f64,
    ));
    // An unanchored pattern with a capture, tried on every line of a file.
    let date = Regex::new(INPUT_PATTERNS[3]).map_err(text)?;
    let sample = &files[0].content;
    let lines = sample.lines().count();
    let whole_file = median_us(50, || {
        sample
            .lines()
            .filter(|l| date.captures(black_box(l)).is_some())
            .count()
    });
    out.push(("rematch.match_ns_per_line", whole_file * 1e3 / lines as f64));

    let def = definition_from_str(data::EXPERIMENT_XML).map_err(text)?;
    let desc = input_description_from_str(data::INPUT_XML).map_err(text)?;
    out.push((
        "core.input.describe_us",
        median_us(200, || {
            input_description_from_str(black_box(data::INPUT_XML))
        }),
    ));
    let extracted = extract_runs(&desc, &def, &files[0].name, &files[0].content).map_err(text)?;
    out.push((
        "core.input.rows_per_file",
        extracted.iter().map(|r| r.datasets.len()).sum::<usize>() as f64,
    ));

    // The statements of a real dump: what every CLI call and every recovery
    // feeds the SQL parser.
    let few = &files[..files.len().min(12)];
    let db = preload(few)?;
    let dump = dir.join("parser_probe.sql");
    db.engine().save_to_file(&dump).map_err(text)?;
    let script = std::fs::read_to_string(&dump).map_err(text)?;
    std::fs::remove_file(&dump).map_err(text)?;
    let statements = split_script(&script);
    for s in &statements {
        parse_statement(s).map_err(text)?;
    }
    let whole_script = median_us(20, || {
        statements
            .iter()
            .filter(|s| parse_statement(black_box(s)).is_ok())
            .count()
    });
    out.push((
        "sqldb.sql.parse_us_per_stmt",
        whole_script / statements.len() as f64,
    ));

    // One run's 24 rows into a fresh columnar table, no log attached: the
    // engine's share of `add_run`.
    let rows = db
        .engine()
        .query("SELECT * FROM pb_rundata_1")
        .map_err(text)?
        .into_rows();
    let engine = Engine::new();
    let mut samples = Vec::new();
    for i in 0..200 {
        engine
            .execute(&format!(
                "CREATE TABLE batch_{i} (n_proc INTEGER, pos INTEGER, s_chunk INTEGER, \
                 mode TEXT, b_scatter FLOAT, b_shared FLOAT, b_separate FLOAT, \
                 b_segmented FLOAT, b_segcoll FLOAT) USING COLUMNAR"
            ))
            .map_err(text)?;
        let batch = rows.clone();
        let t = Instant::now();
        engine
            .insert_rows(&format!("batch_{i}"), batch)
            .map_err(text)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("sqldb.exec.insert_us_per_batch", median(&samples)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testing::TestDir;

    #[test]
    fn patterns_are_the_ones_of_the_input_description() {
        for p in INPUT_PATTERNS {
            assert!(
                data::INPUT_XML.contains(&format!("<regexp>{p}</regexp>")),
                "{p}"
            );
        }
        assert_eq!(data::INPUT_XML.matches("<regexp>").count(), 4);
    }

    #[test]
    fn every_probe_reports_a_positive_number() {
        let dir = TestDir::new("layers");
        let files = data::campaign(1, 1, 2);
        let out = probe(&files, &dir.0).unwrap();
        assert_eq!(out.len(), 9);
        for (layer, v) in &out {
            assert!(v.is_finite() && *v > 0.0, "{layer} = {v}");
        }
        let rows = out
            .iter()
            .find(|(l, _)| *l == "core.input.rows_per_file")
            .unwrap();
        assert_eq!(rows.1, data::ROWS_PER_FILE as f64);
    }
}
