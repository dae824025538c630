//! The extraction engine: applies an [`InputDescription`] to the text of an
//! input file, producing runs (paper §3.2, Fig. 1).

use super::{Direction, InputDescription, Location, Pattern, TabularSpec};
use crate::error::{Error, Result};
use crate::experiment::{ExperimentDef, Occurrence, Variable};
use exprcalc::Context;
use sqldb::Value;
use std::collections::HashMap;

/// The extracted content of one run, before it is stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtractedRun {
    /// Unique-occurrence contents.
    pub once: HashMap<String, Value>,
    /// Data sets (tuples of multiple-occurrence contents).
    pub datasets: Vec<HashMap<String, Value>>,
}

impl ExtractedRun {
    /// Variables of the definition that ended up with no content anywhere in
    /// this run and have no default — the §3.2 "incomplete input" condition.
    pub fn missing_variables(&self, def: &ExperimentDef) -> Vec<String> {
        let mut missing = Vec::new();
        for v in &def.variables {
            if v.default.is_some() {
                continue;
            }
            let present = match v.occurrence {
                Occurrence::Once => self.once.get(&v.name).is_some_and(|x| !x.is_null()),
                Occurrence::Multiple => self
                    .datasets
                    .iter()
                    .any(|ds| ds.get(&v.name).is_some_and(|x| !x.is_null())),
            };
            if !present {
                missing.push(v.name.clone());
            }
        }
        missing
    }
}

/// Apply `desc` to one input file (`filename`, `content`), producing one run
/// per separator segment (mappings a and b of Fig. 1).
pub fn extract_runs(
    desc: &InputDescription,
    def: &ExperimentDef,
    filename: &str,
    content: &str,
) -> Result<Vec<ExtractedRun>> {
    let segments = split_runs(desc, content);
    let mut runs = Vec::with_capacity(segments.len());
    for seg in segments {
        runs.push(extract_one(desc, def, filename, seg)?);
    }
    Ok(runs)
}

/// Split the file text at run-separator matches. Without a separator (or
/// without any match) the whole text is one segment.
fn split_runs<'t>(desc: &InputDescription, content: &'t str) -> Vec<&'t str> {
    let sep = match &desc.run_separator {
        Some(p) => p,
        None => return vec![content],
    };
    let mut starts = Vec::new();
    let mut from = Some(0);
    while let Some((s, e, _)) = from.and_then(|f| sep.find_at(content, f)) {
        starts.push(s);
        from = resume_after(content, s, e);
    }
    if starts.is_empty() {
        return vec![content];
    }
    let mut segments = Vec::with_capacity(starts.len() + 1);
    // A non-empty prefix before the first separator is its own (unusual)
    // segment only if it contains non-whitespace.
    if !content[..starts[0]].trim().is_empty() {
        segments.push(&content[..starts[0]]);
    }
    for (i, &s) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(content.len());
        segments.push(&content[s..end]);
    }
    segments
}

fn extract_one(
    desc: &InputDescription,
    def: &ExperimentDef,
    filename: &str,
    text: &str,
) -> Result<ExtractedRun> {
    let lines: Vec<&str> = text.lines().collect();
    let mut run = ExtractedRun::default();

    let mut derived: Vec<(&str, &exprcalc::Expr)> = Vec::new();

    for loc in &desc.locations {
        match loc {
            Location::Named {
                variable,
                pattern,
                direction,
                occurrence,
            } => {
                if let Some(raw) = named_content(text, pattern, *direction, *occurrence) {
                    store_once(def, &mut run, variable, raw)?;
                }
            }
            Location::Fixed {
                variable,
                row,
                column,
            } => {
                let raw = lines
                    .get(row.saturating_sub(1))
                    .and_then(|l| l.split_whitespace().nth(column.saturating_sub(1)));
                if let Some(raw) = raw {
                    store_once(def, &mut run, variable, raw)?;
                }
            }
            Location::Tabular(spec) => {
                extract_table(def, &mut run, spec, &lines)?;
            }
            Location::Filename { variable, pattern } => {
                if let Some(m) = pattern.find(filename) {
                    let raw = if m.len() > 1 {
                        m.get(1).unwrap_or(m.as_str())
                    } else {
                        m.as_str()
                    };
                    store_once(def, &mut run, variable, raw)?;
                }
            }
            Location::FixedValue { variable, content } => {
                store_once(def, &mut run, variable, content)?;
            }
            Location::Derived {
                variable,
                expression,
            } => {
                derived.push((variable, expression));
            }
        }
    }

    // Derived parameters run last so they can see every extracted value.
    for (variable, expression) in derived {
        apply_derived(def, &mut run, variable, expression)?;
    }
    Ok(run)
}

/// Content of a named location: the captured group when the pattern has
/// one, otherwise the neighbouring token on the matched line.
fn named_content<'t>(
    text: &'t str,
    pattern: &Pattern,
    direction: Direction,
    occurrence: usize,
) -> Option<&'t str> {
    let mut from = 0;
    let mut hit = None;
    for _ in 0..occurrence.max(1) {
        let (s, e, g) = pattern.find_at(text, from)?;
        hit = Some((s, e, g));
        match resume_after(text, s, e) {
            Some(next) => from = next,
            None => break,
        }
    }
    let (s, e, g) = hit?;
    if g.is_some() {
        return g;
    }
    match direction {
        Direction::After => {
            let line_end = text[e..].find('\n').map(|i| e + i).unwrap_or(text.len());
            first_token(&text[e..line_end])
        }
        Direction::Before => {
            let line_start = text[..s].rfind('\n').map(|i| i + 1).unwrap_or(0);
            text[line_start..s].split_whitespace().next_back()
        }
    }
}

/// Where the search for the next match resumes after the match `s..e`: at
/// its end, or one whole character further when it is empty; `None` when an
/// empty match ends the text.
fn resume_after(text: &str, s: usize, e: usize) -> Option<usize> {
    if e > s {
        return Some(e);
    }
    text[e..].chars().next().map(|c| e + c.len_utf8())
}

/// First whitespace-separated token, tolerating leading separators like
/// `= 214.516` (skips bare `=`/`:` tokens, which belong to the label).
fn first_token(s: &str) -> Option<&str> {
    s.split_whitespace().find(|t| !matches!(*t, "=" | ":"))
}

fn store_once(
    def: &ExperimentDef,
    run: &mut ExtractedRun,
    variable: &str,
    raw: &str,
) -> Result<()> {
    let var = def
        .variable(variable)
        .ok_or_else(|| Error::Extraction(format!("unknown variable '{variable}'")))?;
    if var.occurrence != Occurrence::Once {
        return Err(Error::Extraction(format!(
            "variable '{variable}' has multiple occurrence; use a tabular location"
        )));
    }
    // Leading '=' / ':' separators survive some patterns; strip them.
    let raw = raw.trim().trim_start_matches([':', '=']).trim();
    let value = var.parse_content(raw)?;
    run.once.insert(variable.to_string(), value);
    Ok(())
}

fn extract_table(
    def: &ExperimentDef,
    run: &mut ExtractedRun,
    spec: &TabularSpec,
    lines: &[&str],
) -> Result<()> {
    let start_line = match lines.iter().position(|l| spec.start.is_match(l)) {
        Some(i) => i,
        None => return Ok(()), // table absent: variables stay without content
    };
    // Each column's variable, looked up once for the whole table. An unknown
    // one is only an error when a row gets to its column.
    let vars: Vec<Option<&Variable>> = spec
        .columns
        .iter()
        .map(|col| def.variable(&col.variable))
        .collect();
    let mut tokens = Vec::new();
    let body_start = start_line + 1 + spec.offset;
    for line in lines.iter().skip(body_start) {
        if let Some(end) = &spec.end {
            if end.is_match(line) {
                break;
            }
        }
        match parse_table_row(spec, &vars, line, &mut tokens) {
            Ok(Some(ds)) => run.datasets.push(ds),
            Ok(None) | Err(_) if spec.skip_mismatch => continue,
            Ok(None) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One table body line → one data set, or `None` when the line does not fit
/// the column layout. Columns are taken in order: at each, an unknown
/// variable is an error, then a missing or unparsable token ends the row —
/// so a row that ends at an earlier column never reports a later column's
/// unknown variable. `tokens` is scratch space kept across a table's lines.
fn parse_table_row<'t>(
    spec: &TabularSpec,
    vars: &[Option<&Variable>],
    line: &'t str,
    tokens: &mut Vec<&'t str>,
) -> Result<Option<HashMap<String, Value>>> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    tokens.clear();
    tokens.extend(line.split_whitespace());
    let mut ds = HashMap::with_capacity(spec.columns.len());
    for (col, var) in spec.columns.iter().zip(vars) {
        let var =
            var.ok_or_else(|| Error::Extraction(format!("unknown variable '{}'", col.variable)))?;
        let raw = match tokens.get(col.index.saturating_sub(1)) {
            Some(t) => *t,
            None => return Ok(None),
        };
        match var.parse_content(raw) {
            Ok(v) => {
                ds.insert(col.variable.clone(), v);
            }
            Err(_) => return Ok(None),
        }
    }
    Ok(Some(ds))
}

fn apply_derived(
    def: &ExperimentDef,
    run: &mut ExtractedRun,
    variable: &str,
    expression: &exprcalc::Expr,
) -> Result<()> {
    let var = def
        .variable(variable)
        .ok_or_else(|| Error::Extraction(format!("unknown derived variable '{variable}'")))?;
    let deps = expression.variables();
    let per_dataset = deps.iter().any(|d| {
        def.variable(d)
            .is_some_and(|v| v.occurrence == Occurrence::Multiple)
    });

    let base_ctx = |once: &HashMap<String, Value>| {
        let mut ctx = Context::new();
        for (k, v) in once {
            if let Some(f) = v.as_f64() {
                ctx.set(k, f);
            }
        }
        ctx
    };

    if per_dataset {
        if var.occurrence != Occurrence::Multiple {
            return Err(Error::Extraction(format!(
                "derived variable '{variable}' has unique occurrence but depends on data-set variables"
            )));
        }
        let once = run.once.clone();
        for ds in &mut run.datasets {
            let mut ctx = base_ctx(&once);
            for (k, v) in ds.iter() {
                if let Some(f) = v.as_f64() {
                    ctx.set(k, f);
                }
            }
            let x = expression.eval(&ctx)?;
            let value = Value::Float(x)
                .coerce(var.datatype)
                .map_err(Error::Extraction)?;
            ds.insert(variable.to_string(), value);
        }
    } else {
        let ctx = base_ctx(&run.once);
        let x = expression.eval(&ctx)?;
        let value = Value::Float(x)
            .coerce(var.datatype)
            .map_err(Error::Extraction)?;
        run.once.insert(variable.to_string(), value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Meta, VarKind, Variable};
    use crate::input::TabularColumn;
    use rematch::Regex;
    use sqldb::DataType;

    fn def() -> ExperimentDef {
        let mut d = ExperimentDef::new(Meta::default(), "u");
        let add_once = |d: &mut ExperimentDef, n: &str, t: DataType| {
            d.add_variable(Variable::new(n, VarKind::Parameter, t).once())
                .unwrap()
        };
        add_once(&mut d, "t_spec", DataType::Int);
        add_once(&mut d, "mem", DataType::Int);
        add_once(&mut d, "fs", DataType::Text);
        add_once(&mut d, "hostname", DataType::Text);
        add_once(&mut d, "date_run", DataType::Timestamp);
        add_once(&mut d, "b_eff", DataType::Float);
        d.add_variable(Variable::new("n_proc", VarKind::Parameter, DataType::Int))
            .unwrap();
        d.add_variable(Variable::new("s_chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        d.add_variable(Variable::new("mode", VarKind::Parameter, DataType::Text))
            .unwrap();
        d.add_variable(Variable::new(
            "b_scatter",
            VarKind::ResultValue,
            DataType::Float,
        ))
        .unwrap();
        d.add_variable(Variable::new(
            "mb_total",
            VarKind::ResultValue,
            DataType::Float,
        ))
        .unwrap();
        d
    }

    const SAMPLE: &str = "\
MEMORY PER PROCESSOR = 256 MBytes [1MBytes = 1024*1024 bytes]
-N 4 T=10, MT=1024 MBytes -i list-based_io.info, -rewrite
      hostname : grisu0.ccrl-nece.de
Date of measurement: Tue Nov 23 18:30:30 2004
number pos chunk- access type=0
of PEs size (l) methode scatter
        [bytes] methode [MB/s]
  4 PEs 1      32 write  35.504
  4 PEs 2    1024 write  59.088
  4 PEs total-write       58.579
  4 PEs 1      32 read    76.680
This table shows all results
b_eff_io of these measurements = 214.516 MB/s on 4 processes
";

    fn desc() -> InputDescription {
        InputDescription::new()
            .with_location(Location::Named {
                variable: "mem".into(),
                pattern: Pattern::Literal("MEMORY PER PROCESSOR =".into()),
                direction: Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Named {
                variable: "t_spec".into(),
                pattern: Pattern::Regexp(Regex::new(r"T=(\d+)").unwrap()),
                direction: Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Named {
                variable: "hostname".into(),
                pattern: Pattern::Literal("hostname :".into()),
                direction: Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Named {
                variable: "date_run".into(),
                pattern: Pattern::Regexp(Regex::new(r"Date of measurement: (.+)").unwrap()),
                direction: Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Named {
                variable: "b_eff".into(),
                pattern: Pattern::Literal("b_eff_io of these measurements =".into()),
                direction: Direction::After,
                occurrence: 1,
            })
            .with_location(Location::Filename {
                variable: "fs".into(),
                pattern: Regex::new(r"_([a-z]+)_grisu").unwrap(),
            })
            .with_location(Location::Tabular(TabularSpec {
                start: Pattern::Literal("number pos chunk-".into()),
                offset: 2,
                end: Some(Pattern::Literal("This table".into())),
                skip_mismatch: true,
                columns: vec![
                    TabularColumn {
                        index: 1,
                        variable: "n_proc".into(),
                    },
                    TabularColumn {
                        index: 4,
                        variable: "s_chunk".into(),
                    },
                    TabularColumn {
                        index: 5,
                        variable: "mode".into(),
                    },
                    TabularColumn {
                        index: 6,
                        variable: "b_scatter".into(),
                    },
                ],
            }))
    }

    #[test]
    fn full_extraction() {
        let runs = extract_runs(
            &desc(),
            &def(),
            "bio_T10_N4_listbased_ufs_grisu_run1",
            SAMPLE,
        )
        .unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.once["mem"], Value::Int(256));
        assert_eq!(r.once["t_spec"], Value::Int(10));
        assert_eq!(
            r.once["hostname"],
            Value::Text("grisu0.ccrl-nece.de".into())
        );
        assert_eq!(r.once["fs"], Value::Text("ufs".into()));
        assert_eq!(r.once["b_eff"], Value::Float(214.516));
        assert_eq!(
            r.once["date_run"],
            Value::Timestamp(sqldb::parse_timestamp("2004-11-23 18:30:30").unwrap())
        );
        // total-write row is skipped (mismatch); three data rows survive.
        assert_eq!(r.datasets.len(), 3);
        assert_eq!(r.datasets[0]["s_chunk"], Value::Int(32));
        assert_eq!(r.datasets[0]["b_scatter"], Value::Float(35.504));
        assert_eq!(r.datasets[2]["mode"], Value::Text("read".into()));
    }

    #[test]
    fn run_separator_splits_mapping_b() {
        let two = format!("{SAMPLE}{SAMPLE}");
        let d = desc().with_run_separator(Pattern::Literal("MEMORY PER PROCESSOR".into()));
        let runs = extract_runs(&d, &def(), "x_ufs_grisu", &two).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].once["mem"], Value::Int(256));
        assert_eq!(runs[1].datasets.len(), 3);
    }

    #[test]
    fn fixed_location() {
        let d = InputDescription::new().with_location(Location::Fixed {
            variable: "hostname".into(),
            row: 3,
            column: 3,
        });
        let runs = extract_runs(&d, &def(), "f", SAMPLE).unwrap();
        assert_eq!(
            runs[0].once["hostname"],
            Value::Text("grisu0.ccrl-nece.de".into())
        );
    }

    #[test]
    fn named_before_direction() {
        let d = InputDescription::new().with_location(Location::Named {
            variable: "mode".into(),
            pattern: Pattern::Literal("35.504".into()),
            direction: Direction::Before,
            occurrence: 1,
        });
        // 'mode' is multiple-occurrence: storing it as once must fail.
        assert!(extract_runs(&d, &def(), "f", SAMPLE).is_err());

        let d = InputDescription::new().with_location(Location::Named {
            variable: "fs".into(),
            pattern: Pattern::Literal("MBytes [1MBytes".into()),
            direction: Direction::Before,
            occurrence: 1,
        });
        let runs = extract_runs(&d, &def(), "f", SAMPLE).unwrap();
        assert_eq!(runs[0].once["fs"], Value::Text("256".into()));
    }

    #[test]
    fn nth_occurrence() {
        let text = "v = 1\nv = 2\nv = 3\n";
        let d = InputDescription::new().with_location(Location::Named {
            variable: "t_spec".into(),
            pattern: Pattern::Literal("v =".into()),
            direction: Direction::After,
            occurrence: 2,
        });
        let runs = extract_runs(&d, &def(), "f", text).unwrap();
        assert_eq!(runs[0].once["t_spec"], Value::Int(2));
    }

    #[test]
    fn absent_pattern_leaves_variable_without_content() {
        let d = InputDescription::new().with_location(Location::Named {
            variable: "t_spec".into(),
            pattern: Pattern::Literal("NO SUCH MARKER".into()),
            direction: Direction::After,
            occurrence: 1,
        });
        let runs = extract_runs(&d, &def(), "f", SAMPLE).unwrap();
        assert!(runs[0].once.is_empty());
        let missing = runs[0].missing_variables(&def());
        assert!(missing.contains(&"t_spec".to_string()));
    }

    #[test]
    fn derived_per_run_and_per_dataset() {
        let d = desc().with_location(Location::Derived {
            variable: "mb_total".into(),
            expression: exprcalc::Expr::parse("s_chunk * n_proc / 1024").unwrap(),
        });
        let runs = extract_runs(&d, &def(), "x_ufs_grisu", SAMPLE).unwrap();
        let ds = &runs[0].datasets[1]; // 1024-byte chunk, 4 PEs
        assert_eq!(ds["mb_total"], Value::Float(4.0));
    }

    #[test]
    fn derived_once_from_once() {
        let d = InputDescription::new()
            .with_location(Location::FixedValue {
                variable: "mem".into(),
                content: "256".into(),
            })
            .with_location(Location::Derived {
                variable: "t_spec".into(),
                expression: exprcalc::Expr::parse("mem / 64").unwrap(),
            });
        let runs = extract_runs(&d, &def(), "f", "irrelevant").unwrap();
        assert_eq!(runs[0].once["t_spec"], Value::Int(4));
    }

    #[test]
    fn table_without_end_marker_stops_at_mismatch() {
        let text = "\
tab
1 10.5
2 11.5
done
3 12.5
";
        let d = InputDescription::new().with_location(Location::Tabular(TabularSpec {
            start: Pattern::Literal("tab".into()),
            offset: 0,
            end: None,
            skip_mismatch: false,
            columns: vec![
                TabularColumn {
                    index: 1,
                    variable: "s_chunk".into(),
                },
                TabularColumn {
                    index: 2,
                    variable: "b_scatter".into(),
                },
            ],
        }));
        let runs = extract_runs(&d, &def(), "f", text).unwrap();
        assert_eq!(runs[0].datasets.len(), 2);
    }

    fn second_after(pattern: Pattern, text: &str) -> ExtractedRun {
        let d = InputDescription::new().with_location(Location::Named {
            variable: "hostname".into(),
            pattern,
            direction: Direction::After,
            occurrence: 2,
        });
        extract_runs(&d, &def(), "f", text).unwrap().remove(0)
    }

    #[test]
    fn empty_match_before_a_multibyte_character_steps_over_it() {
        // The second (empty) match of `x*` is behind the 'é', not inside it.
        let run = second_after(Pattern::Regexp(Regex::new("x*").unwrap()), "é abc");
        assert_eq!(run.once["hostname"], Value::Text("abc".into()));
        let run = second_after(Pattern::Literal(String::new()), "é abc");
        assert_eq!(run.once["hostname"], Value::Text("abc".into()));
        // At the end of the text there is no next match to step to.
        let run = second_after(Pattern::Literal(String::new()), "ü");
        assert!(run.once.is_empty());
    }

    #[test]
    fn empty_run_separator_match_steps_over_multibyte_characters() {
        let d =
            InputDescription::new().with_run_separator(Pattern::Regexp(Regex::new("y*").unwrap()));
        // Empty matches at 0, 2 and 4: three runs, the last one empty.
        assert_eq!(extract_runs(&d, &def(), "f", "éé").unwrap().len(), 3);
        assert_eq!(extract_runs(&d, &def(), "f", "ab").unwrap().len(), 3);
    }

    #[test]
    fn valid_content_rejection_propagates() {
        let mut d = def();
        d.modify_variable(
            Variable::new("fs", VarKind::Parameter, DataType::Text)
                .once()
                .with_valid(&["ufs", "nfs"]),
        )
        .unwrap();
        let spec = InputDescription::new().with_location(Location::FixedValue {
            variable: "fs".into(),
            content: "ext3".into(),
        });
        assert!(extract_runs(&spec, &d, "f", "").is_err());
    }
}
