//! Output formats (paper §3.3.4).
//!
//! "Currently implemented output formats are input files for the Gnuplot
//! plotting program … and raw ASCII tables of data. Planned output formats
//! include LaTeX tables, XML tables (i.e. for import into spreadsheet
//! software) …" — this implementation ships all of them, plus CSV.
//!
//! All labels and legends are derived from the experiment definition and
//! the query specification (the paper is explicit that Fig. 8 was created
//! without manual editing). How a vector is read for output — its row
//! order, its parameter and value columns, their labels and a row's tick —
//! is worked out once, in `View`; each format only writes it out.

use crate::query::{DataVector, OutputFormat, OutputSpec, PlotStyle};
use sqldb::Value;

/// Render one vector under `spec`.
pub fn render(spec: &OutputSpec, v: &DataVector) -> String {
    let view = View::new(spec, v);
    match spec.format {
        OutputFormat::Csv => csv(&view),
        OutputFormat::Ascii => ascii(&view),
        OutputFormat::Gnuplot => gnuplot(&view),
        OutputFormat::Latex => latex(&view),
        OutputFormat::Xml => xml_table(&view),
        OutputFormat::Svg => svg_chart(&view),
        OutputFormat::Grace => grace(&view),
    }
}

/// A vector as every format reads it.
struct View<'a> {
    spec: &'a OutputSpec,
    /// Column names, in the vector's order.
    cols: Vec<String>,
    /// Column labels from the definition, by position.
    labels: Vec<String>,
    /// The rows, stably sorted by the parameter columns (deterministic
    /// presentation).
    rows: Vec<Vec<Value>>,
    /// Positions of the parameter columns: the x axis, first one first.
    params: Vec<usize>,
    /// Positions of the value columns: one series each.
    values: Vec<usize>,
    /// `spec.xlabel`, else the parameter labels joined by ` / `.
    xlabel: String,
    /// `spec.ylabel`, else the first value's label.
    ylabel: String,
}

impl<'a> View<'a> {
    fn new(spec: &'a OutputSpec, v: &DataVector) -> Self {
        let cols = v.table.schema.names();
        let at = |names: &[String]| -> Vec<usize> {
            names
                .iter()
                .filter_map(|n| cols.iter().position(|c| c == n))
                .collect()
        };
        let (params, values) = (at(&v.params), at(&v.values));
        let mut rows = v.table.to_rows();
        rows.sort_by(|a, b| {
            params
                .iter()
                .map(|&i| a[i].total_cmp(&b[i]))
                .find(|ord| !ord.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let labels: Vec<String> = cols.iter().map(|c| v.label(c)).collect();
        let xlabel = spec.xlabel.clone().unwrap_or_else(|| {
            let names: Vec<&str> = params.iter().map(|&i| labels[i].as_str()).collect();
            names.join(" / ")
        });
        let ylabel = spec.ylabel.clone().unwrap_or_else(|| {
            values
                .first()
                .map(|&i| labels[i].clone())
                .unwrap_or_default()
        });
        View {
            spec,
            cols,
            labels,
            rows,
            params,
            values,
            xlabel,
            ylabel,
        }
    }

    /// A row's x tick: its parameter cells, each printed by `cell`, joined
    /// by `/`.
    fn tick(&self, row: &[Value], cell: impl Fn(&Value) -> String) -> String {
        let cells: Vec<String> = self.params.iter().map(|&i| cell(&row[i])).collect();
        cells.join("/")
    }

    /// The series: each value column's position and label.
    fn series(&self) -> impl Iterator<Item = (usize, &str)> {
        self.values.iter().map(|&i| (i, self.labels[i].as_str()))
    }
}

/// `s` with every character `sub` names replaced, in one pass.
fn escape(s: &str, sub: impl Fn(char) -> Option<&'static str>) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match sub(c) {
            Some(r) => out.push_str(r),
            None => out.push(c),
        }
    }
    out
}

/// Grace (xmgrace) project file — §3.3.4 names Grace as a planned output
/// format. One data set per value column; the x coordinate is the first
/// parameter when it is numeric, else the row index with string x-tick
/// labels encoded as comments. Every string stays on its line: a CR or an
/// LF is written as a space, or it would end a comment or a quoted string
/// and start a line Grace reads as a command.
fn grace(view: &View) -> String {
    let (spec, rows) = (view.spec, &view.rows);
    let numeric_x = view
        .params
        .first()
        .is_some_and(|&i| rows.iter().all(|r| r[i].as_f64().is_some()));
    let one_line = |c| matches!(c, '\r' | '\n').then_some(" ");
    let q = |s: &str| escape(s, |c| if c == '"' { Some("'") } else { one_line(c) });

    let mut out = String::new();
    out.push_str("# Grace project file\n# generated by perfbase\n@version 50125\n");
    out.push_str(&format!("@    title \"{}\"\n", q(&spec.title)));
    out.push_str(&format!("@    xaxis  label \"{}\"\n", q(&view.xlabel)));
    out.push_str(&format!("@    yaxis  label \"{}\"\n", q(&view.ylabel)));
    let kind = if spec.style == PlotStyle::Bars {
        "bar"
    } else {
        "XY"
    };
    out.push_str(&format!("@    g0 type {kind}\n"));
    let symbols = matches!(spec.style, PlotStyle::Points | PlotStyle::LinesPoints);
    for (si, (_, label)) in view.series().enumerate() {
        out.push_str(&format!(
            "@    s{si} legend \"{}\"\n@    s{si} symbol {}\n",
            q(label),
            if symbols { si + 1 } else { 0 }
        ));
    }
    for (si, (vi, _)) in view.series().enumerate() {
        out.push_str(&format!("@target G0.S{si}\n@type xy\n"));
        for (k, row) in rows.iter().enumerate() {
            let Some(y) = row[vi].as_f64() else { continue };
            let x = match view.params.first() {
                Some(&i) if numeric_x => row[i].as_f64().unwrap_or(k as f64),
                Some(_) => {
                    let tick = escape(&view.tick(row, Value::to_string), one_line);
                    out.push_str(&format!("# x={k}: {tick}\n"));
                    k as f64
                }
                None => k as f64,
            };
            out.push_str(&format!("{x} {y}\n"));
        }
        out.push_str("&\n");
    }
    out
}

/// Self-contained SVG bar/line chart — no external plotting tool needed.
/// Layout: title, y grid with tick labels, one series per value column
/// (grouped bars or polylines), x tick labels from the parameter tuple,
/// legend. All labels derive from the experiment definition, like the
/// Gnuplot output.
fn svg_chart(view: &View) -> String {
    const W: f64 = 800.0;
    const H: f64 = 500.0;
    const ML: f64 = 70.0; // left margin (y labels)
    const MR: f64 = 20.0;
    const MT: f64 = 50.0; // top (title)
    const MB: f64 = 90.0; // bottom (rotated x labels)
    let plot_w = W - ML - MR;
    let plot_h = H - MT - MB;
    let (spec, rows) = (view.spec, &view.rows);

    let series: Vec<Vec<f64>> = view
        .series()
        .map(|(i, _)| {
            rows.iter()
                .map(|r| r[i].as_f64().unwrap_or(f64::NAN))
                .collect()
        })
        .collect();

    let (mut lo, mut hi) = (0.0_f64, 0.0_f64);
    for &x in series.iter().flatten().filter(|x| x.is_finite()) {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if hi == lo {
        hi = lo + 1.0;
    }
    let pad = (hi - lo) * 0.05;
    let (lo, hi) = (lo - if lo < 0.0 { pad } else { 0.0 }, hi + pad);
    let y_of = |x: f64| MT + plot_h * (1.0 - (x - lo) / (hi - lo));

    // A small qualitative palette.
    const COLORS: [&str; 6] = [
        "#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66", "#77bedb",
    ];

    let esc = |s: &str| {
        escape(s, |c| match c {
            '&' => Some("&amp;"),
            '<' => Some("&lt;"),
            '>' => Some("&gt;"),
            '"' => Some("&quot;"),
            _ => None,
        })
    };
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"12\">\n"
    ));
    svg.push_str(&format!(
        "<rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n<text x=\"{}\" y=\"24\" \
         text-anchor=\"middle\" font-size=\"16\">{}</text>\n",
        W / 2.0,
        esc(&spec.title)
    ));

    // y grid + labels.
    for k in 0..=5 {
        let val = lo + (hi - lo) * k as f64 / 5.0;
        let y = y_of(val);
        svg.push_str(&format!(
            "<line x1=\"{ML}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" stroke=\"#ddd\"/>\n",
            W - MR
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{val:.1}</text>\n",
            ML - 6.0,
            y + 4.0
        ));
    }
    // zero line when the data crosses zero (Fig. 8 style).
    if lo < 0.0 && hi > 0.0 {
        let y = y_of(0.0);
        svg.push_str(&format!(
            "<line x1=\"{ML}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" stroke=\"#444\"/>\n",
            W - MR
        ));
    }

    let slot = plot_w / rows.len().max(1) as f64;
    match spec.style {
        PlotStyle::Bars => {
            let group_w = slot * 0.8;
            let bar_w = group_w / series.len().max(1) as f64;
            for (si, s) in series.iter().enumerate() {
                let color = COLORS[si % COLORS.len()];
                for (k, &x) in s.iter().enumerate() {
                    if !x.is_finite() {
                        continue;
                    }
                    let x0 = ML + slot * k as f64 + (slot - group_w) / 2.0 + bar_w * si as f64;
                    let (top, bottom) = if x >= 0.0 {
                        (y_of(x), y_of(0.0_f64.max(lo)))
                    } else {
                        (y_of(0.0_f64.min(hi)), y_of(x))
                    };
                    svg.push_str(&format!(
                        "<rect x=\"{x0:.1}\" y=\"{top:.1}\" width=\"{bar_w:.1}\" \
                         height=\"{:.1}\" fill=\"{color}\"/>\n",
                        (bottom - top).abs()
                    ));
                }
            }
        }
        _ => {
            for (si, s) in series.iter().enumerate() {
                let color = COLORS[si % COLORS.len()];
                let pts: Vec<String> = s
                    .iter()
                    .enumerate()
                    .filter(|(_, x)| x.is_finite())
                    .map(|(k, &x)| format!("{:.1},{:.1}", ML + slot * (k as f64 + 0.5), y_of(x)))
                    .collect();
                svg.push_str(&format!(
                    "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
                    pts.join(" ")
                ));
                if spec.style == PlotStyle::Points || spec.style == PlotStyle::LinesPoints {
                    for (k, &x) in s.iter().enumerate().filter(|(_, x)| x.is_finite()) {
                        svg.push_str(&format!(
                            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"/>\n",
                            ML + slot * (k as f64 + 0.5),
                            y_of(x)
                        ));
                    }
                }
            }
        }
    }

    // x tick labels, rotated.
    for (k, row) in rows.iter().enumerate() {
        let x = ML + slot * (k as f64 + 0.5);
        let y = H - MB + 14.0;
        svg.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{y:.1}\" text-anchor=\"end\" \
             transform=\"rotate(-45 {x:.1} {y:.1})\">{}</text>\n",
            esc(&view.tick(row, fmt_cell))
        ));
    }

    // axis labels + legend.
    svg.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
        ML + plot_w / 2.0,
        H - 8.0,
        esc(&view.xlabel)
    ));
    svg.push_str(&format!(
        "<text x=\"16\" y=\"{:.1}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {:.1})\">{}</text>\n",
        MT + plot_h / 2.0,
        MT + plot_h / 2.0,
        esc(&view.ylabel)
    ));
    for (si, (_, label)) in view.series().enumerate() {
        let color = COLORS[si % COLORS.len()];
        let y = MT + 8.0 + si as f64 * 18.0;
        svg.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"12\" height=\"12\" fill=\"{color}\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\">{}</text>\n",
            ML + 8.0,
            y,
            ML + 26.0,
            y + 10.0,
            esc(label)
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

fn fmt_cell(v: &Value) -> String {
    match v {
        Value::Float(f) => {
            // Stable, compact float formatting for tables and plot data.
            if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("{f}")
            } else {
                format!("{f:.6}")
                    .trim_end_matches('0')
                    .trim_end_matches('.')
                    .to_string()
            }
        }
        other => other.to_string(),
    }
}

/// RFC 4180: a field holding a separator, a quote or a line break is quoted,
/// its quotes doubled.
fn csv(view: &View) -> String {
    let quote = |s: &str| {
        if s.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let header: Vec<String> = view.cols.iter().map(|c| quote(c)).collect();
    let mut out = header.join(",");
    out.push('\n');
    for row in &view.rows {
        let line: Vec<String> = row.iter().map(|v| quote(&fmt_cell(v))).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

fn ascii(view: &View) -> String {
    let mut widths: Vec<usize> = view.labels.iter().map(String::len).collect();
    let cells: Vec<Vec<String>> = view
        .rows
        .iter()
        .map(|r| r.iter().map(fmt_cell).collect())
        .collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    // Each line of the title a comment of its own.
    for line in view.spec.title.lines() {
        out.push_str(&format!("# {}\n", line.replace('\r', " ")));
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("-+-");
    let fmt_row = |row: &[String]| -> String {
        row.iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    out.push_str(&fmt_row(&view.labels));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in &cells {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Gnuplot script with inline data. The first parameter column is the
/// x-axis; additional parameter columns are folded into the x-tick label;
/// each value column becomes one plotted series.
fn gnuplot(view: &View) -> String {
    let spec = view.spec;
    // A command's string: gnuplot reads `\\`, `\"`, `\n` and `\r` inside
    // double quotes, so a trailing `\` or a line break stays inside it.
    let string = |s: &str| {
        escape(s, |c| match c {
            '\\' => Some("\\\\"),
            '"' => Some("\\\""),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            _ => None,
        })
    };
    // A data line's quoted tick takes no escapes: a quote becomes `'` and a
    // line break a space, so each row stays one line of one tick.
    let datum = |s: &str| {
        escape(s, |c| match c {
            '"' => Some("'"),
            '\n' | '\r' => Some(" "),
            _ => None,
        })
    };

    let mut out = String::new();
    out.push_str("# generated by perfbase\n");
    out.push_str(&format!("set title \"{}\"\n", string(&spec.title)));
    out.push_str(&format!("set xlabel \"{}\"\n", string(&view.xlabel)));
    out.push_str(&format!("set ylabel \"{}\"\n", string(&view.ylabel)));
    out.push_str("set key outside top\n");
    out.push_str("set grid ytics\n");
    match spec.style {
        PlotStyle::Bars => {
            out.push_str("set style data histogram\n");
            out.push_str("set style histogram clustered gap 1\n");
            out.push_str("set style fill solid 0.8 border -1\n");
            out.push_str("set xtics rotate by -45\n");
        }
        PlotStyle::Lines => out.push_str("set style data lines\n"),
        PlotStyle::Points => out.push_str("set style data points\n"),
        PlotStyle::LinesPoints => out.push_str("set style data linespoints\n"),
    }

    out.push_str("$data << EOD\n");
    for row in &view.rows {
        out.push_str(&format!("\"{}\"", datum(&view.tick(row, fmt_cell))));
        for (i, _) in view.series() {
            out.push(' ');
            out.push_str(&fmt_cell(&row[i]));
        }
        out.push('\n');
    }
    out.push_str("EOD\n");

    let series: Vec<String> = view
        .series()
        .enumerate()
        .map(|(k, (_, label))| {
            let col = k + 2; // col 1 is the tick label
            let x = if spec.style == PlotStyle::Bars {
                ""
            } else {
                "0:"
            };
            format!("$data using {x}{col}:xtic(1) title \"{}\"", string(label))
        })
        .collect();
    out.push_str(&format!("plot {}\n", series.join(", \\\n     ")));
    out
}

fn latex(view: &View) -> String {
    let esc = |s: &str| {
        escape(s, |c| match c {
            '\\' => Some("\\textbackslash{}"),
            '~' => Some("\\textasciitilde{}"),
            '^' => Some("\\textasciicircum{}"),
            '_' => Some("\\_"),
            '%' => Some("\\%"),
            '&' => Some("\\&"),
            '#' => Some("\\#"),
            '$' => Some("\\$"),
            '{' => Some("\\{"),
            '}' => Some("\\}"),
            _ => None,
        })
    };
    let (spec, width) = (view.spec, view.cols.len());
    let mut out = String::new();
    out.push_str(&format!("\\begin{{tabular}}{{{}}}\n", "l".repeat(width)));
    out.push_str("\\hline\n");
    if !spec.title.is_empty() {
        out.push_str(&format!(
            "\\multicolumn{{{width}}}{{c}}{{{}}} \\\\\n\\hline\n",
            esc(&spec.title)
        ));
    }
    let headers: Vec<String> = view.labels.iter().map(|l| esc(l)).collect();
    out.push_str(&format!("{} \\\\\n\\hline\n", headers.join(" & ")));
    for row in &view.rows {
        let cells: Vec<String> = row.iter().map(|c| esc(&fmt_cell(c))).collect();
        out.push_str(&format!("{} \\\\\n", cells.join(" & ")));
    }
    out.push_str("\\hline\n\\end{tabular}\n");
    out
}

fn xml_table(view: &View) -> String {
    use xmlite::Element;
    let mut table = Element::new("table");
    if !view.spec.title.is_empty() {
        table.set_attr("title", &view.spec.title);
    }
    let mut header = Element::new("header");
    for c in &view.cols {
        header = header.with_child(Element::new("column").with_attr("name", c));
    }
    table = table.with_child(header);
    for row in &view.rows {
        let mut r = Element::new("row");
        for (c, val) in view.cols.iter().zip(row) {
            r = r.with_child(
                Element::new("cell")
                    .with_attr("column", c)
                    .with_text(&fmt_cell(val)),
            );
        }
        table = table.with_child(r);
    }
    xmlite::to_string_pretty(&xmlite::Document::from_root(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::{Column, DataType, Schema, Table};
    use std::collections::HashMap;

    /// A vector over `cols` (INTEGER, FLOAT or TEXT by the first row's
    /// cells) holding `rows`.
    fn vector_of(
        params: &[&str],
        values: &[&str],
        cols: &[&str],
        rows: Vec<Vec<Value>>,
    ) -> DataVector {
        let columns = cols
            .iter()
            .zip(&rows[0])
            .map(|(c, v)| {
                let dtype = match v {
                    Value::Int(_) => DataType::Int,
                    Value::Float(_) => DataType::Float,
                    _ => DataType::Text,
                };
                Column::new(c, dtype)
            })
            .collect();
        let mut table = Table::new(Schema::new(columns).unwrap());
        table.insert_all(rows).unwrap();
        DataVector {
            table: std::sync::Arc::new(table),
            params: params.iter().map(|p| p.to_string()).collect(),
            values: values.iter().map(|p| p.to_string()).collect(),
            labels: HashMap::new(),
        }
    }

    fn vector() -> DataVector {
        let mut v = vector_of(
            &["chunk", "mode"],
            &["bw"],
            &["chunk", "mode", "bw"],
            vec![
                vec![
                    Value::Int(2048),
                    Value::Text("read".into()),
                    Value::Float(227.0),
                ],
                vec![
                    Value::Int(1024),
                    Value::Text("write".into()),
                    Value::Float(59.125),
                ],
            ],
        );
        v.labels = HashMap::from([
            ("chunk".to_string(), "chunk size [B]".to_string()),
            ("bw".to_string(), "bandwidth [MB/s]".to_string()),
        ]);
        v
    }

    fn render_as(format: OutputFormat, style: PlotStyle, title: &str, v: &DataVector) -> String {
        let spec = OutputSpec {
            format,
            style,
            title: title.into(),
            ..OutputSpec::default()
        };
        render(&spec, v)
    }

    #[test]
    fn csv_format() {
        let out = render_as(OutputFormat::Csv, PlotStyle::Bars, "", &vector());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "chunk,mode,bw");
        assert_eq!(lines[1], "1024,write,59.125");
        assert_eq!(lines[2], "2048,read,227");
    }

    #[test]
    fn csv_quoting() {
        let v = vector_of(
            &[],
            &["a"],
            &["a"],
            vec![vec![Value::Text("x,y \"z\"".into())]],
        );
        let out = render_as(OutputFormat::Csv, PlotStyle::Bars, "", &v);
        assert!(out.contains("\"x,y \"\"z\"\"\""));
    }

    #[test]
    fn rows_are_sorted_by_parameters_stably() {
        let row = |x: i64, tag: &str| vec![Value::Int(x), Value::Text(tag.into())];
        let rows = vec![row(2, "a"), row(1, "b"), row(2, "c"), row(1, "d")];
        let v = vector_of(&["x"], &["tag"], &["x", "tag"], rows);
        let out = render_as(OutputFormat::Csv, PlotStyle::Bars, "", &v);
        assert_eq!(out, "x,tag\n1,b\n1,d\n2,a\n2,c\n");
    }

    #[test]
    fn ascii_format_uses_labels() {
        let out = render_as(
            OutputFormat::Ascii,
            PlotStyle::Bars,
            "Bandwidths",
            &vector(),
        );
        assert!(out.starts_with("# Bandwidths\n"));
        assert!(out.contains("chunk size [B]"));
        assert!(out.contains("bandwidth [MB/s]"));
        assert!(out.contains("-+-"));
        // Alignment: every data row has the same length as the header row.
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn gnuplot_bars_structure() {
        let title = "Relative difference";
        let out = render_as(OutputFormat::Gnuplot, PlotStyle::Bars, title, &vector());
        assert!(out.contains("set title \"Relative difference\""));
        assert!(out.contains("set style data histogram"));
        assert!(out.contains("$data << EOD"));
        assert!(out.contains("\"1024/write\" 59.125"));
        assert!(out.contains("using 2:xtic(1)"));
        // Labels derived from the experiment definition (paper: chart is
        // usable unedited).
        assert!(out.contains("set xlabel \"chunk size [B] / mode\""));
        assert!(out.contains("set ylabel \"bandwidth [MB/s]\""));
    }

    #[test]
    fn gnuplot_lines_use_index() {
        let out = render_as(OutputFormat::Gnuplot, PlotStyle::Lines, "", &vector());
        assert!(out.contains("set style data lines"));
        assert!(out.contains("using 0:2"));
    }

    #[test]
    fn latex_escapes() {
        let out = render_as(
            OutputFormat::Latex,
            PlotStyle::Bars,
            "100% b_eff",
            &vector(),
        );
        assert!(out.contains("\\begin{tabular}{lll}"));
        assert!(out.contains("100\\% b\\_eff"));
        assert!(out.contains("1024 & write & 59.125"));
        assert!(out.ends_with("\\end{tabular}\n"));
    }

    #[test]
    fn xml_table_parses_back() {
        let out = render_as(OutputFormat::Xml, PlotStyle::Bars, "", &vector());
        let doc = xmlite::parse(&out).unwrap();
        assert_eq!(doc.root.name, "table");
        assert_eq!(doc.root.children_named("row").count(), 2);
        let first_row = doc.root.child("row").unwrap();
        assert_eq!(first_row.children_named("cell").count(), 3);
    }

    #[test]
    fn grace_project_structure() {
        let title = "bw over chunks";
        let out = render_as(
            OutputFormat::Grace,
            PlotStyle::LinesPoints,
            title,
            &vector(),
        );
        assert!(out.starts_with("# Grace project file"));
        assert!(out.contains("@    title \"bw over chunks\""));
        assert!(out.contains("@    s0 legend \"bandwidth [MB/s]\""));
        assert!(out.contains("@target G0.S0"));
        // Numeric x (chunk) becomes the x coordinate.
        assert!(out.contains("1024 59.125"));
        assert!(out.contains("2048 227"));
        assert!(out.ends_with("&\n"));
    }

    #[test]
    fn grace_string_x_falls_back_to_index() {
        let rows = vec![
            vec![Value::Text("write".into()), Value::Float(59.0)],
            vec![Value::Text("read".into()), Value::Float(227.0)],
        ];
        let v = vector_of(&["mode"], &["bw"], &["mode", "bw"], rows);
        let out = render_as(OutputFormat::Grace, PlotStyle::Bars, "", &v);
        // Rows in presentation order: `read` sorts first.
        assert!(out.contains("# x=0: read\n0 227\n# x=1: write\n1 59\n"));
    }

    #[test]
    fn svg_bars_are_wellformed_markup() {
        let title = "Relative <difference> & more";
        let out = render_as(OutputFormat::Svg, PlotStyle::Bars, title, &vector());
        assert!(out.starts_with("<svg"));
        assert!(out.ends_with("</svg>\n"));
        // Title is escaped.
        assert!(out.contains("Relative &lt;difference&gt; &amp; more"));
        // One bar per row (one series).
        assert!(out.matches("<rect").count() >= 3); // background + 2 bars
                                                    // Labels derived from the definition.
        assert!(out.contains("bandwidth [MB/s]"));
        // And it parses as XML (our own parser is strict enough).
        xmlite::parse(&out).unwrap();
    }

    #[test]
    fn svg_lines_and_negative_values() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(-30.0), Value::Float(10.0)],
            vec![Value::Int(2), Value::Float(20.0), Value::Float(-5.0)],
        ];
        let v = vector_of(&["x"], &["a", "b"], &["x", "a", "b"], rows);
        let out = render_as(OutputFormat::Svg, PlotStyle::LinesPoints, "", &v);
        assert_eq!(out.matches("<polyline").count(), 2); // two series
        assert!(out.contains("<circle")); // points
        xmlite::parse(&out).unwrap();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_cell(&Value::Float(59.125)), "59.125");
        assert_eq!(fmt_cell(&Value::Float(227.0)), "227");
        assert_eq!(fmt_cell(&Value::Float(1.0 / 3.0)), "0.333333");
        assert_eq!(fmt_cell(&Value::Int(42)), "42");
    }
}
