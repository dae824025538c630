//! Derived vectors pinned to what an earlier build produced.
//!
//! Every artifact test renders a vector through an output element, which
//! sorts its rows and prints numbers its own way; this file pins the vectors
//! themselves. `fixtures/operator_vectors/expected.txt` was written by the
//! build at commit `aa13cb9` (the last that copied every operator input into
//! rows and guessed the result's column types from its first non-NULL cell)
//! by running this file's test there with `BLESS=1`. It holds, for every
//! vector of [`specs`], its parameters, values, labels and rows as `Debug`:
//! every aggregate an operator names, grouped and fully reduced, `scale`,
//! `offset` and `eval`, every element-wise kind, a broadcast, two combiners
//! with colliding value names, over INTEGER, FLOAT and TEXT columns, and a
//! selection that matches nothing. The rows of an element-wise result are
//! sorted first: that build emitted them in hash order.

use perfbase::core::experiment::{ExperimentDb, ExperimentDef, Meta, VarKind, Variable};
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::{ElementKind, QueryRunner};
use perfbase::sqldb::{DataType, Engine, Value};
use std::collections::HashMap;
use std::path::PathBuf;

/// Hosts a, b, c × 3 runs each; per run chunk 1, 2, 4 × size 0.5, 1.5, with
/// `bw` FLOAT (one NULL), `ops` INTEGER and `note` TEXT results.
fn seeded() -> ExperimentDb {
    let mut def = ExperimentDef::new(
        Meta {
            name: "ops".into(),
            ..Meta::default()
        },
        "u",
    );
    let vars = [
        Variable::new("host", VarKind::Parameter, DataType::Text).once(),
        Variable::new("chunk", VarKind::Parameter, DataType::Int),
        Variable::new("size", VarKind::Parameter, DataType::Float),
        Variable::new("bw", VarKind::ResultValue, DataType::Float),
        Variable::new("ops", VarKind::ResultValue, DataType::Int),
        Variable::new("note", VarKind::ResultValue, DataType::Text),
    ];
    for v in vars {
        def.add_variable(v).unwrap();
    }
    let db = ExperimentDb::create(std::sync::Arc::new(Engine::new()), def).unwrap();
    for (h, host) in ["a", "b", "c"].into_iter().enumerate() {
        for rep in 0..3i64 {
            let once: HashMap<String, Value> =
                [("host".to_string(), Value::Text(host.into()))].into();
            let mut sets = Vec::new();
            for chunk in [1i64, 2, 4] {
                for size in [0.5, 1.5] {
                    let bw = if host == "c" && rep == 2 && chunk == 4 && size == 1.5 {
                        Value::Null
                    } else {
                        Value::Float(chunk as f64 * size * (1 + h) as f64 + rep as f64 * 0.25)
                    };
                    let set: HashMap<String, Value> = [
                        ("chunk".to_string(), Value::Int(chunk)),
                        ("size".to_string(), Value::Float(size)),
                        ("bw".to_string(), bw),
                        ("ops".to_string(), Value::Int(chunk * 10 + rep)),
                        ("note".to_string(), Value::Text(format!("n{chunk}"))),
                    ]
                    .into();
                    sets.push(set);
                }
            }
            db.add_run(&once, &sets, 1000 + rep).unwrap();
        }
    }
    db
}

/// A source of host `host` (any host when empty) carrying `carry`.
fn source(id: &str, host: &str, carry: &[&str], values: &[&str]) -> String {
    let mut xml = format!(r#"<source id="{id}">"#);
    if !host.is_empty() {
        xml.push_str(&format!(r#"<parameter name="host" value="{host}"/>"#));
    }
    for c in carry {
        xml.push_str(&format!(r#"<parameter name="{c}" carry="true"/>"#));
    }
    for v in values {
        xml.push_str(&format!(r#"<value name="{v}"/>"#));
    }
    xml + "</source>"
}

/// An operator element.
fn op(id: &str, kind: &str, input: &str, arg: &str) -> String {
    let arg = if arg.is_empty() {
        String::new()
    } else {
        format!(r#" arg="{arg}""#)
    };
    format!(r#"<operator id="{id}" type="{kind}" input="{input}"{arg}/>"#)
}

/// Aggregates an operator can name.
const AGGREGATES: [&str; 9] = [
    "avg", "stddev", "variance", "count", "min", "max", "prod", "sum", "median",
];

/// Element-wise kinds of more than two inputs.
const MANY: [&str; 6] = ["min", "max", "sum", "prod", "avg", "median"];

/// Element-wise kinds of exactly two inputs.
const BINARY: [&str; 5] = ["diff", "div", "percentof", "above", "below"];

/// The specs, by name.
fn specs() -> Vec<(&'static str, String)> {
    let all = ["host", "chunk", "size"];
    let both = ["bw", "ops"];
    // Every aggregate grouped (over a source) and fully reduced (over the
    // grouped max, which keeps `ops` INTEGER), and over a parameterless
    // source.
    let mut aggregates = source("s", "", &all, &both);
    aggregates.push_str(&source("sv", "", &[], &both));
    for kind in AGGREGATES {
        aggregates.push_str(&op(&format!("g_{kind}"), kind, "s", ""));
        aggregates.push_str(&op(&format!("r_{kind}"), kind, "g_max", ""));
        aggregates.push_str(&op(&format!("v_{kind}"), kind, "sv", ""));
    }
    // scale / offset / eval over typed values, and scale over TEXT values.
    let mut linear = source("s", "a", &["chunk", "size"], &both);
    linear.push_str(&op("m", "max", "s", ""));
    linear.push_str(&op("x", "scale", "m", "2"));
    linear.push_str(&op("y", "offset", "x", "-1"));
    linear.push_str(&op("e", "eval", "m", "bw * ops + chunk"));
    linear.push_str(&source("t", "b", &["chunk"], &["note", "ops"]));
    linear.push_str(&op("tx", "scale", "t", "3"));
    linear.push_str(&op("ty", "offset", "t", "0.5"));
    // Element-wise: every kind, aligned on chunk × size, plus a broadcast.
    let mut elementwise = String::new();
    for host in ["a", "b", "c"] {
        elementwise.push_str(&source(
            &format!("s_{host}"),
            host,
            &["chunk", "size"],
            &both,
        ));
        elementwise.push_str(&op(host, "avg", &format!("s_{host}"), ""));
    }
    for kind in BINARY {
        elementwise.push_str(&op(&format!("ew_{kind}"), kind, "a,b", ""));
    }
    for kind in MANY {
        elementwise.push_str(&op(&format!("ew_{kind}"), kind, "a,b,c", ""));
    }
    elementwise.push_str(&op("ew_eval", "eval", "a,b", "bw_1 - bw_2 + chunk * size"));
    elementwise.push_str(&op("best", "max", "a", ""));
    elementwise.push_str(&op("ew_bcast", "percentof", "a,best", ""));
    // Combiners: colliding value names, equal and unequal parameter sets.
    let mut combiners = String::new();
    combiners.push_str(&source("s_a", "a", &["chunk", "size"], &both));
    combiners.push_str(&source("s_b", "b", &["chunk"], &both));
    combiners.push_str(&op("a", "avg", "s_a", ""));
    combiners.push_str(&op("b", "max", "s_b", ""));
    combiners.push_str(&op("b2", "min", "s_a", ""));
    combiners.push_str(r#"<combiner id="c1" input="a,b" suffixes="_a,_b"/>"#);
    combiners.push_str(r#"<combiner id="c2" input="a,b2" suffixes="_avg,_min"/>"#);
    // A selection that matches nothing, through each kind of element.
    let mut empty = source("s", "zzz", &all, &both);
    empty.push_str(&source("s_a", "a", &["chunk", "size"], &both));
    empty.push_str(&op("a", "avg", "s_a", ""));
    empty.push_str(&op("g_max", "max", "s", ""));
    empty.push_str(&op("g_count", "count", "s", ""));
    empty.push_str(&op("r_count", "count", "g_max", ""));
    empty.push_str(&op("r_avg", "avg", "g_max", ""));
    empty.push_str(&op("x", "scale", "g_max", "2"));
    empty.push_str(&op("e", "eval", "g_max", "bw + 1"));
    empty.push_str(&op("ew_diff", "diff", "g_max,a", ""));
    empty.push_str(r#"<combiner id="c" input="a,g_max"/>"#);
    vec![
        ("aggregates", aggregates),
        ("linear", linear),
        ("elementwise", elementwise),
        ("combiners", combiners),
        ("empty", empty),
    ]
}

/// Every vector of every spec, element ids in order.
fn vectors(db: &ExperimentDb) -> String {
    let mut text = String::new();
    for (name, body) in specs() {
        let spec = query_from_str(&format!(r#"<query name="{name}">{body}</query>"#)).unwrap();
        let elementwise: Vec<String> = spec
            .elements
            .iter()
            .filter(|e| matches!(e.kind, ElementKind::Operator(_)) && e.inputs.len() > 1)
            .map(|e| e.id.clone())
            .collect();
        let out = QueryRunner::new(db).run(spec).unwrap();
        let mut ids: Vec<&String> = out.vectors.keys().collect();
        ids.sort();
        for id in ids {
            let v = &out.vectors[id];
            let mut labels: Vec<(&String, &String)> = v.labels.iter().collect();
            labels.sort();
            let mut rows = v.table.to_rows();
            if elementwise.contains(id) {
                rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            }
            text.push_str(&format!("== {name}/{id}\n"));
            text.push_str(&format!("params {:?}\nvalues {:?}\n", v.params, v.values));
            text.push_str(&format!("labels {labels:?}\n"));
            for row in rows {
                text.push_str(&format!("{row:?}\n"));
            }
        }
    }
    text
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/operator_vectors")
}

#[test]
fn derived_vectors_are_what_the_parent_build_derived() {
    let got = vectors(&seeded());
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
