//! The bytes of every output format, pinned to what an earlier build wrote.
//!
//! `fixtures/output_formats/expected.txt` was written by the build at commit
//! `86e6a7e` (the last in which each format worked out its own column
//! positions, axis labels and ticks) by running [`every_format_and_style_renders_what_the_parent_build_rendered`]
//! there with `BLESS=1`. It holds, for every vector of [`vectors_spec`] and
//! every format × plot style, the artifact an output element rendered. The
//! vectors have NULL value cells, negative values, floats that are trimmed
//! when printed, a TEXT and a numeric first parameter, no parameters, one and
//! several value columns, no rows, and two inputs to one output; titles and
//! labels hold `"`, `&`, `<`, `_`, `%`, `#` and `,`. Characters whose
//! escaping the formats changed later (`\`, newline, CR, `$ { } ~ ^`) are
//! left out of it and are pinned by the escaping tests below.

use perfbase::core::experiment::{ExperimentDb, ExperimentDef, Meta, VarKind, Variable};
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::sqldb::{DataType, Engine, Value};
use std::collections::HashMap;
use std::path::PathBuf;

const FORMATS: [&str; 7] = ["csv", "ascii", "gnuplot", "latex", "xml", "svg", "grace"];
const STYLES: [&str; 4] = ["bars", "lines", "points", "linespoints"];

/// Modes `write`, `r&w` × 2 runs each; per run chunk 1, 2, 4 with `bw`
/// FLOAT (negative below chunk 2, NULL once, thirds elsewhere) and `ops`
/// INTEGER. Labels carry the characters every format escapes.
fn seeded(modes: &[&str]) -> ExperimentDb {
    let mut def = ExperimentDef::new(
        Meta {
            name: "fmt".into(),
            ..Meta::default()
        },
        "u",
    );
    let vars = [
        Variable::new("mode", VarKind::Parameter, DataType::Text)
            .once()
            .with_synopsis("I/O mode, \"kind\" #1"),
        Variable::new("chunk", VarKind::Parameter, DataType::Int).with_synopsis("chunk_size <B>"),
        Variable::new("bw", VarKind::ResultValue, DataType::Float)
            .with_synopsis("bandwidth & 100% \"peak\""),
        Variable::new("ops", VarKind::ResultValue, DataType::Int),
    ];
    for v in vars {
        def.add_variable(v).unwrap();
    }
    let db = ExperimentDb::create(std::sync::Arc::new(Engine::new()), def).unwrap();
    for (m, mode) in modes.iter().enumerate() {
        for rep in 0..2i64 {
            let once: HashMap<String, Value> =
                [("mode".to_string(), Value::Text(mode.to_string()))].into();
            let sets: Vec<HashMap<String, Value>> = [4i64, 1, 2]
                .into_iter()
                .map(|chunk| {
                    let bw = if m == 1 && rep == 1 && chunk == 2 {
                        Value::Null
                    } else {
                        Value::Float(
                            (chunk as f64 - 1.5) * (m + 1) as f64 * 10.0 / 3.0 + rep as f64,
                        )
                    };
                    [
                        ("chunk".to_string(), Value::Int(chunk)),
                        ("bw".to_string(), bw),
                        ("ops".to_string(), Value::Int(chunk * 7 - rep)),
                    ]
                    .into()
                })
                .collect();
            db.add_run(&once, &sets, 1000 + rep).unwrap();
        }
    }
    db
}

/// A source of mode `mode` (any when empty) carrying `carry`.
fn source(id: &str, mode: &str, carry: &[&str], values: &[&str]) -> String {
    let mut xml = format!(r#"<source id="{id}">"#);
    if !mode.is_empty() {
        xml.push_str(&format!(r#"<parameter name="mode" value="{mode}"/>"#));
    }
    for c in carry {
        xml.push_str(&format!(r#"<parameter name="{c}" carry="true"/>"#));
    }
    for v in values {
        xml.push_str(&format!(r#"<value name="{v}"/>"#));
    }
    xml + "</source>"
}

/// The vectors every output renders, by the element ids that feed it:
/// a TEXT first parameter with two values and a NULL, a numeric one with one
/// value, no parameters, no rows, a combiner's columns, and two inputs.
fn vectors_spec() -> (String, Vec<(&'static str, &'static str)>) {
    let mut xml = source("text_x", "", &["mode", "chunk"], &["bw", "ops"]);
    xml.push_str(&source("s_w", "write", &["chunk"], &["bw"]));
    xml.push_str(r#"<operator id="num_x" type="avg" input="s_w"/>"#);
    xml.push_str(r#"<operator id="no_params" type="min" input="num_x"/>"#);
    xml.push_str(&source("empty", "zzz", &["mode", "chunk"], &["bw"]));
    xml.push_str(&source("s_rw", "r&amp;w", &["chunk"], &["bw", "ops"]));
    xml.push_str(r#"<operator id="rw" type="max" input="s_rw"/>"#);
    xml.push_str(r#"<combiner id="joined" input="num_x,rw" suffixes="_w,_rw"/>"#);
    let inputs = vec![
        ("text_x", "text_x"),
        ("num_x", "num_x"),
        ("no_params", "no_params"),
        ("empty", "empty"),
        ("joined", "joined"),
        ("two", "num_x,rw"),
    ];
    (xml, inputs)
}

/// One output element: explicit axis labels under `lines`, derived ones
/// under every other style.
fn output(id: &str, input: &str, format: &str, style: &str) -> String {
    let labels = if style == "lines" {
        r#" xlabel="x_axis, &quot;n&quot; #" ylabel="100% &lt;y&gt; &amp; more""#
    } else {
        ""
    };
    format!(
        r#"<output id="{id}" input="{input}" format="{format}" style="{style}" title="T_1: &quot;a&quot; &amp; &lt;b&gt;, 50% #2"{labels}/>"#
    )
}

fn artifacts(db: &ExperimentDb) -> String {
    let (mut xml, inputs) = vectors_spec();
    let mut ids = Vec::new();
    for (name, input) in &inputs {
        for format in FORMATS {
            for style in STYLES {
                let id = format!("{name}.{format}.{style}");
                xml.push_str(&output(&id, input, format, style));
                ids.push(id);
            }
        }
    }
    let spec = query_from_str(&format!(r#"<query name="formats">{xml}</query>"#)).unwrap();
    let out = QueryRunner::new(db).run(spec).unwrap();
    let mut text = String::new();
    for id in ids {
        text.push_str(&format!("== {id}\n{}", out.artifacts[&id]));
        if !text.ends_with('\n') {
            text.push_str("\n== (no newline at end)\n");
        }
    }
    text
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/output_formats")
}

#[test]
fn every_format_and_style_renders_what_the_parent_build_rendered() {
    let got = artifacts(&seeded(&["write", "r&w"]));
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(fixture()).unwrap();
        std::fs::write(fixture().join("expected.txt"), &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(fixture().join("expected.txt")).unwrap();
    for (g, w) in got.lines().zip(expected.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got, expected);
}

/// The artifact of one output element over a source of every mode carrying
/// `mode` and `chunk`, titled and labelled `text`.
fn render_one(modes: &[&str], format: &str, text: &str) -> String {
    let db = seeded(modes);
    let esc = |s: &str| {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('"', "&quot;")
            .replace('\n', "&#10;")
            .replace('\r', "&#13;")
    };
    let xml = format!(
        r#"<query name="esc">{}<output id="o" input="s" format="{format}" style="lines" title="{t}" xlabel="{t}" ylabel="{t}"/></query>"#,
        source("s", "", &["mode", "chunk"], &["bw"]),
        t = esc(text)
    );
    let out = QueryRunner::new(&db)
        .run(query_from_str(&xml).unwrap())
        .unwrap();
    out.artifacts["o"].clone()
}

/// The text inside the quotes of a gnuplot string that starts at `s[0]`,
/// read as gnuplot reads it: `\\`, `\"`, `\n` and `\r` are escapes; `None`
/// when the string is not terminated on its line.
fn gnuplot_string(s: &str) -> Option<(String, &str)> {
    let mut text = String::new();
    let mut chars = s.strip_prefix('"')?.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((text, &s[i + 2..])),
            '\n' => return None,
            '\\' => match chars.next()?.1 {
                'n' => text.push('\n'),
                'r' => text.push('\r'),
                other => text.push(other),
            },
            other => text.push(other),
        }
    }
    None
}

#[test]
fn gnuplot_strings_survive_backslash_newline_and_quotes() {
    let title = "C:\\temp\\ \"x\"\nline 2\\";
    let out = render_one(&["a\"b", "C:\\"], "gnuplot", title);
    for cmd in ["set title ", "set xlabel ", "set ylabel "] {
        let line = out
            .lines()
            .find(|l| l.starts_with(cmd))
            .unwrap_or_else(|| panic!("no `{cmd}` line in\n{out}"));
        let (text, rest) = gnuplot_string(&line[cmd.len()..])
            .unwrap_or_else(|| panic!("unterminated string in `{line}`"));
        assert_eq!(text, title, "{line}");
        assert_eq!(rest, "", "{line}");
    }
    // Every data line is one quoted tick followed by the one value.
    let data = out.split("$data << EOD\n").nth(1).unwrap();
    let data = data.split("EOD\n").next().unwrap();
    let lines: Vec<&str> = data.lines().collect();
    assert_eq!(lines.len(), 12, "{data}");
    for line in lines {
        let (tick, rest) = line
            .strip_prefix('"')
            .and_then(|l| l.split_once('"'))
            .unwrap_or_else(|| panic!("no quoted tick in `{line}`"));
        assert!(tick.contains('/'), "{line}");
        assert_eq!(rest.split(' ').count(), 2, "{line}");
    }
}

#[test]
fn latex_escapes_math_and_brace_characters() {
    let out = render_one(&["x^2", "$HOME", "{a}~b"], "latex", "$ {x} ~ y^2 \\");
    assert!(out.contains("x\\textasciicircum{}2 & "), "{out}");
    assert!(out.contains("\\$HOME & "), "{out}");
    assert!(out.contains("\\{a\\}\\textasciitilde{}b & "), "{out}");
    assert!(
        out.contains(
            "{\\$ \\{x\\} \\textasciitilde{} y\\textasciicircum{}2 \\textbackslash{}} \\\\"
        ),
        "{out}"
    );
}

#[test]
fn csv_quotes_a_cell_holding_a_carriage_return() {
    let out = render_one(&["a\rb"], "csv", "");
    assert!(out.contains("\n\"a\rb\",1,"), "{out:?}");
    assert!(!out.contains("\na\rb,"), "{out:?}");
}

/// A title, an axis label or a tick holding a newline stays inside the line
/// it belongs to: no grace line starts with a command it smuggled in, and
/// every ascii line above the header row is a comment.
#[test]
fn no_title_breaks_out_of_a_grace_or_ascii_file() {
    let title = "line 1\n@    kill g0";
    let grace = render_one(&["a\r\n@    kill g0", "b"], "grace", title);
    assert!(grace.contains("# x=0: "), "{grace}");
    assert!(
        !grace.lines().any(|l| l.starts_with("@    kill")),
        "{grace}"
    );
    let ascii = render_one(&["a", "b"], "ascii", title);
    let lines: Vec<&str> = ascii.lines().collect();
    let rule = lines
        .iter()
        .position(|l| l.starts_with('-') && l.chars().all(|c| c == '-' || c == '+'))
        .unwrap_or_else(|| panic!("no rule under the header in\n{ascii}"));
    assert_eq!(rule, 3, "{ascii}");
    for line in &lines[..rule - 1] {
        assert!(line.starts_with('#'), "`{line}` in\n{ascii}");
    }
}
