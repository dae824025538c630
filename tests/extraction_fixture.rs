//! Extraction answers pinned to what an earlier build extracted.
//!
//! `fixtures/extraction/expected.txt` was written by the build at commit
//! `a0c4c85` (the last whose regex VM cloned its capture slots per step and
//! whose tabular location looked each column's variable up per cell) by
//! running this file's test there with `BLESS=1`. It holds every
//! [`ExtractedRun`] of two input sets, keys sorted, values by `Debug`,
//! errors by their text:
//!
//! * 36 b_eff_io output files generated by `workloads::beffio`, read through
//!   copies of the benchmark's `experiment.xml` and `input.xml`;
//! * about forty edge cases: regex features, directions and occurrences,
//!   fixed locations, tables with and without `skip_mismatch`, number
//!   shapes, CRLF line ends, valid-set rejections and derived values.

use perfbase::core::experiment::{ExperimentDef, Meta, VarKind, Variable};
use perfbase::core::input::{
    extract_runs, input_description_from_str, Direction, ExtractedRun, InputDescription, Location,
    Pattern, TabularColumn, TabularSpec,
};
use perfbase::core::xmldef::definition_from_str;
use perfbase::rematch::{Regex, RegexBuilder};
use perfbase::sqldb::{DataType, Value};
use perfbase::workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};
use std::collections::HashMap;
use std::fmt::Write;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/extraction")
}

fn sorted(map: &HashMap<String, Value>) -> String {
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    let cells: Vec<String> = keys.iter().map(|k| format!("{k}={:?}", map[*k])).collect();
    cells.join(" ")
}

fn render(out: &mut String, name: &str, got: perfbase::core::Result<Vec<ExtractedRun>>) {
    writeln!(out, "== {name}").unwrap();
    match got {
        Err(e) => writeln!(out, "error: {e}").unwrap(),
        Ok(runs) => {
            for (i, run) in runs.iter().enumerate() {
                writeln!(out, "run {i} once {}", sorted(&run.once)).unwrap();
                for ds in &run.datasets {
                    writeln!(out, "  ds {}", sorted(ds)).unwrap();
                }
            }
        }
    }
}

/// 3 file systems × 2 techniques × 6 repetitions, with the process count,
/// date and host varying by repetition.
fn beffio(out: &mut String) {
    let dir = fixture();
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap();
    let def = definition_from_str(&read("experiment.xml")).unwrap();
    let desc = input_description_from_str(&read("input.xml")).unwrap();
    for rep in 1..=6u32 {
        for fs in [FsType::Ufs, FsType::Nfs, FsType::Pvfs] {
            for technique in [Technique::ListBased, Technique::ListLess] {
                let run = simulate(BeffIoConfig {
                    n_procs: 1 << rep,
                    fs,
                    technique,
                    hostname: format!("grisu{rep}.ccrl-nece.de"),
                    date: format!("Tue Nov 23 18:3{rep}:0{rep} 2004"),
                    run_index: rep,
                    seed: u64::from(rep) * 7919 + fs as u64 * 13 + technique as u64,
                    ..BeffIoConfig::default()
                });
                let name = run.filename();
                let got = extract_runs(&desc, &def, &name, &run.render());
                render(out, &name, got);
            }
        }
    }
}

/// Once: `i` INTEGER, `f` FLOAT, `s` TEXT, `t` TIMESTAMP, `b` BOOLEAN, `v`
/// TEXT valid in {ufs, nfs}. Multiple: `n` INTEGER, `x` FLOAT, `m` TEXT,
/// `y` FLOAT.
fn edge_def() -> ExperimentDef {
    let mut d = ExperimentDef::new(
        Meta {
            name: "edges".into(),
            ..Meta::default()
        },
        "u",
    );
    for (name, t) in [
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Text),
        ("t", DataType::Timestamp),
        ("b", DataType::Bool),
    ] {
        d.add_variable(Variable::new(name, VarKind::Parameter, t).once())
            .unwrap();
    }
    d.add_variable(
        Variable::new("v", VarKind::Parameter, DataType::Text)
            .once()
            .with_valid(&["ufs", "nfs"]),
    )
    .unwrap();
    for (name, t) in [
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("m", DataType::Text),
        ("y", DataType::Float),
    ] {
        d.add_variable(Variable::new(name, VarKind::ResultValue, t))
            .unwrap();
    }
    d
}

fn re(p: &str) -> Pattern {
    Pattern::Regexp(Regex::new(p).unwrap())
}

fn re_ci(p: &str) -> Pattern {
    Pattern::Regexp(RegexBuilder::new(p).case_insensitive(true).build().unwrap())
}

fn lit(s: &str) -> Pattern {
    Pattern::Literal(s.into())
}

fn named(variable: &str, pattern: Pattern, direction: Direction, occurrence: usize) -> Location {
    Location::Named {
        variable: variable.into(),
        pattern,
        direction,
        occurrence,
    }
}

fn after(variable: &str, pattern: Pattern) -> Location {
    named(variable, pattern, Direction::After, 1)
}

fn table(
    start: Pattern,
    offset: usize,
    end: Option<Pattern>,
    skip_mismatch: bool,
    columns: &[(usize, &str)],
) -> Location {
    Location::Tabular(TabularSpec {
        start,
        offset,
        end,
        skip_mismatch,
        columns: columns
            .iter()
            .map(|&(index, variable)| TabularColumn {
                index,
                variable: variable.into(),
            })
            .collect(),
    })
}

fn derived(variable: &str, expression: &str) -> Location {
    Location::Derived {
        variable: variable.into(),
        expression: perfbase::exprcalc::Expr::parse(expression).unwrap(),
    }
}

const TABLE: &str = "\
header line
== data ==
size bw mode
   1   10.5  read
   2   11,250.5  write
   total  99.0
   4
   8   12.5e  read

   16  2 E  rewrite
== end ==
   32  1.0  read
";

/// (name, description, file name, text)
fn edge_cases() -> Vec<(&'static str, InputDescription, &'static str, String)> {
    let one = |loc: Location| InputDescription::new().with_location(loc);
    let many = |locs: Vec<Location>| {
        locs.into_iter()
            .fold(InputDescription::new(), InputDescription::with_location)
    };
    let cols = [(1, "n"), (2, "x"), (3, "m")];
    vec![
        (
            "alternation",
            one(after("s", re(r"mode: (read|write|rewrite)"))),
            "f",
            "mode: rewrite now\n".into(),
        ),
        (
            "alternation_leftmost_first",
            one(after("s", re(r"(a|ab)(c|bcd)"))),
            "f",
            "xabcd".into(),
        ),
        (
            "greedy_repeat",
            one(after("s", re(r"<(.+)>"))),
            "f",
            "<a><b>\n".into(),
        ),
        (
            "lazy_repeat",
            one(after("s", re(r"<(.+?)>"))),
            "f",
            "<a><b>\n".into(),
        ),
        (
            "lazy_counted",
            one(after("i", re(r"x(\d{2,4}?)"))),
            "f",
            "x12345".into(),
        ),
        (
            "greedy_counted",
            one(after("i", re(r"x(\d{2,4})"))),
            "f",
            "x12345".into(),
        ),
        (
            "anchor_start",
            one(after("s", re(r"^(\w+)"))),
            "f",
            "first line\nsecond line\n".into(),
        ),
        (
            "anchor_start_not_at_line",
            one(after("s", re(r"^second (\w+)"))),
            "f",
            "first line\nsecond line\n".into(),
        ),
        (
            "anchor_end",
            one(after("i", re(r"(\d+)$"))),
            "f",
            "a 1\nb 22".into(),
        ),
        (
            "anchor_end_before_newline",
            one(after("i", re(r"(\d+)$"))),
            "f",
            "a 1\nb 22\n".into(),
        ),
        (
            "word_boundary",
            one(after("f", re(r"\bread\b\s*=\s*([\d.]+)"))),
            "f",
            "reread = 1.0\nread = 2.5\n".into(),
        ),
        (
            "non_boundary",
            one(after("i", re(r"\Bead\s+(\d+)"))),
            "f",
            "ead 1\nread 2\n".into(),
        ),
        (
            "classes",
            many(vec![
                after("s", re(r"[A-Z][a-z]+ = ([^ ]+)")),
                after("i", re(r"\D(\d)\D")),
                after("f", re(r"(\S+)\s+MB/s")),
            ]),
            "f",
            "Size = large ok\nrun 7 of 9\n  3.25   MB/s\n".into(),
        ),
        (
            "case_insensitive",
            one(after("f", re_ci(r"bandwidth: ([\d.]+) mb/s"))),
            "f",
            "BANDWIDTH: 12.5 MB/S\n".into(),
        ),
        (
            "case_insensitive_class",
            one(after("s", re_ci(r"mode=([a-c]+)"))),
            "f",
            "MODE=CAB;\n".into(),
        ),
        (
            "case_insensitive_no_capture_after",
            one(after("f", re_ci(r"total:"))),
            "f",
            "TOTAL: 4.5 s\n".into(),
        ),
        (
            "literal_after_skips_separators",
            one(after("f", lit("measurements"))),
            "f",
            "b_eff_io of these measurements = 214.516 MB/s\n".into(),
        ),
        (
            "literal_before",
            one(named("f", lit("MB/s"), Direction::Before, 1)),
            "f",
            "bandwidth 35.5 MB/s\n".into(),
        ),
        (
            "regex_before_first_on_line",
            one(named("s", re(r"^\w+"), Direction::Before, 1)),
            "f",
            "alpha beta\n".into(),
        ),
        (
            "occurrence_1_2_3",
            many(vec![
                named("i", lit("v ="), Direction::After, 1),
                named("f", lit("v ="), Direction::After, 2),
                named("s", lit("v ="), Direction::After, 3),
            ]),
            "f",
            "v = 1\nv = 2.5\nv = three\n".into(),
        ),
        (
            "occurrence_past_last",
            one(named("i", lit("v ="), Direction::After, 3)),
            "f",
            "v = 1\nv = 2\n".into(),
        ),
        (
            "occurrence_2_regex_capture",
            one(named("i", re(r"run (\d+)"), Direction::After, 2)),
            "f",
            "run 4, run 8, run 16\n".into(),
        ),
        (
            "occurrence_2_before",
            one(named("s", lit("<-"), Direction::Before, 2)),
            "f",
            "a <- b\nc <- d\n".into(),
        ),
        (
            "occurrence_2_empty_match",
            one(named("s", re("x*"), Direction::After, 2)),
            "f",
            "ab cd\n".into(),
        ),
        (
            "empty_literal",
            one(after("s", lit(""))),
            "f",
            "  first token\n".into(),
        ),
        (
            "fixed_location",
            many(vec![
                Location::Fixed {
                    variable: "i".into(),
                    row: 2,
                    column: 3,
                },
                Location::Fixed {
                    variable: "s".into(),
                    row: 9,
                    column: 1,
                },
            ]),
            "f",
            "a b c\nd e 42 f\n".into(),
        ),
        (
            "table_skip_mismatch",
            one(table(
                lit("== data =="),
                1,
                Some(lit("== end")),
                true,
                &cols,
            )),
            "f",
            TABLE.into(),
        ),
        (
            "table_stop_at_mismatch",
            one(table(
                lit("== data =="),
                1,
                Some(lit("== end")),
                false,
                &cols,
            )),
            "f",
            TABLE.into(),
        ),
        (
            "table_without_end",
            one(table(re(r"^size"), 0, None, true, &[(1, "n"), (2, "x")])),
            "f",
            "size bw\n1 2.0\n2 3.0\n\n3 4.0\n".into(),
        ),
        (
            "table_regex_start_and_end",
            one(table(
                re(r"=+ (d\w+) =+"),
                1,
                Some(re(r"^=")),
                true,
                &[(2, "x"), (1, "n")],
            )),
            "f",
            TABLE.into(),
        ),
        (
            "table_absent",
            one(table(lit("NO TABLE"), 0, None, false, &[(1, "zz")])),
            "f",
            TABLE.into(),
        ),
        (
            "table_missing_token_before_unknown_variable",
            one(table(
                lit("== data =="),
                1,
                None,
                false,
                &[(4, "n"), (1, "zz")],
            )),
            "f",
            TABLE.into(),
        ),
        (
            "table_unknown_variable",
            one(table(
                lit("== data =="),
                1,
                None,
                false,
                &[(1, "n"), (2, "zz")],
            )),
            "f",
            TABLE.into(),
        ),
        (
            "table_unknown_variable_skipped",
            one(table(
                lit("== data =="),
                1,
                None,
                true,
                &[(1, "n"), (2, "zz")],
            )),
            "f",
            TABLE.into(),
        ),
        (
            "table_once_variable_column",
            one(table(
                lit("== data =="),
                1,
                Some(lit("== end")),
                true,
                &[(1, "i")],
            )),
            "f",
            TABLE.into(),
        ),
        (
            "numbers_thousands_separators",
            many(vec![after("i", lit("bytes:")), after("f", lit("rate:"))]),
            "f",
            "bytes: 1,048,576 total\nrate: 1,234.5,6 MB\n".into(),
        ),
        (
            "numbers_unit_suffixes",
            many(vec![after("f", lit("chunk =")), after("i", lit("mem ="))]),
            "f",
            "chunk =      2.000MBytes\nmem = 256MB/PE\n".into(),
        ),
        (
            "numbers_trailing_exponent",
            many(vec![
                after("f", lit("a:")),
                after("i", lit("b:")),
                named("s", lit("c:"), Direction::After, 1),
            ]),
            "f",
            "a: 3.5e\nb: 1e3\nc: 12E-\n".into(),
        ),
        (
            "numbers_float_shaped_int",
            many(vec![after("i", lit("k:")), after("f", lit("g:"))]),
            "f",
            "k: 4.0E+\ng: 2.5E+3x\n".into(),
        ),
        (
            "numbers_exponent_with_unit",
            many(vec![after("f", lit("t:")), after("i", lit("u:"))]),
            "f",
            "t: 7.25E-5s\nu: 3,000e\n".into(),
        ),
        (
            "number_unparsable",
            one(after("i", lit("count:"))),
            "f",
            "count: many\n".into(),
        ),
        (
            "crlf_line_ends",
            many(vec![
                after("s", lit("host:")),
                after("f", re(r"bw=([\d.]+)")),
                table(lit("== data =="), 1, Some(lit("== end")), true, &cols),
            ]),
            "f",
            "host: grisu\r\nbw=3.5\r\n".to_string() + &TABLE.replace('\n', "\r\n"),
        ),
        (
            "timestamps_and_bools",
            many(vec![after("t", re(r"Date: (.+)")), after("b", lit("ok:"))]),
            "f",
            "Date: Tue Nov 23 18:30:30 2004\nok: Yes\n".into(),
        ),
        (
            "timestamp_iso",
            one(after("t", re(r"at (\d+-\d+-\d+ [\d:]+)"))),
            "f",
            "at 2004-11-23 18:30:30.\n".into(),
        ),
        (
            "valid_set_accepted",
            one(Location::Filename {
                variable: "v".into(),
                pattern: Regex::new(r"_(ufs|nfs|ext3)_").unwrap(),
            }),
            "bio_nfs_run1",
            String::new(),
        ),
        (
            "valid_set_rejected",
            one(Location::Filename {
                variable: "v".into(),
                pattern: Regex::new(r"_(ufs|nfs|ext3)_").unwrap(),
            }),
            "bio_ext3_run1",
            String::new(),
        ),
        (
            "filename_whole_match",
            one(Location::Filename {
                variable: "s".into(),
                pattern: Regex::new(r"run\d+").unwrap(),
            }),
            "bio_ufs_run12.txt",
            String::new(),
        ),
        (
            "multibyte_text",
            many(vec![
                after("i", re(r"Größe: (\d+)")),
                after("s", lit("Schlüssel:")),
            ]),
            "f",
            "Größe: 12 MB\nSchlüssel: wert\n".into(),
        ),
        (
            "once_variable_as_multiple",
            one(after("n", lit("n ="))),
            "f",
            "n = 3\n".into(),
        ),
        (
            "unknown_named_variable",
            one(after("zz", lit("n ="))),
            "f",
            "n = 3\n".into(),
        ),
        (
            "derived_once_and_per_dataset",
            many(vec![
                after("f", lit("scale:")),
                table(lit("== data =="), 1, Some(lit("== end")), true, &cols),
                derived("i", "f * 4"),
                derived("y", "x * f + n"),
            ]),
            "f",
            format!("scale: 0.5\n{TABLE}"),
        ),
        (
            "derived_once_from_dataset",
            many(vec![
                table(lit("== data =="), 1, Some(lit("== end")), true, &cols),
                derived("f", "x * 2"),
            ]),
            "f",
            TABLE.into(),
        ),
        (
            "run_separator_literal",
            one(after("i", lit("cfg:"))).with_run_separator(lit("== run")),
            "f",
            "preamble\n== run\ncfg: 1\n== run\ncfg: 2\n".into(),
        ),
        (
            "run_separator_regex",
            one(after("i", lit("cfg:"))).with_run_separator(re(r"-{3,}")),
            "f",
            "cfg: 0\n---\ncfg: 1\n-----\ncfg: 2\n".into(),
        ),
    ]
}

fn edges(out: &mut String) {
    let def = edge_def();
    for (name, desc, filename, text) in edge_cases() {
        render(out, name, extract_runs(&desc, &def, filename, &text));
    }
}

#[test]
fn extraction_answers_are_what_the_parent_build_extracted() {
    let mut got = String::new();
    beffio(&mut got);
    edges(&mut got);
    let path = fixture().join("expected.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    for (g, w) in got.lines().zip(expected.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got, expected);
}
