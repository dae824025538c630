//! Query specification model and its XML form (paper §3.3, Fig. 7).

use crate::error::{Error, Result};
use xmlite::dtd::{AttrDecl, Dtd, Model};
use xmlite::{Document, Element};

/// A complete query specification.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Query name: a label (traces, reports), free of any syntax.
    pub name: String,
    /// All elements keyed by id, in document order.
    pub elements: Vec<ElementSpec>,
}

/// One element of the query graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementSpec {
    /// Unique id within the query.
    pub id: String,
    /// Ids of the elements whose output vectors feed this element.
    pub inputs: Vec<String>,
    /// The element behaviour.
    pub kind: ElementKind,
}

/// The four element kinds of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKind {
    /// Database retrieval.
    Source(SourceSpec),
    /// Computation.
    Operator(OperatorSpec),
    /// Vector merge.
    Combiner(CombinerSpec),
    /// Rendering.
    Output(OutputSpec),
}

impl ElementKind {
    /// Display name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            ElementKind::Source(_) => "source",
            ElementKind::Operator(_) => "operator",
            ElementKind::Combiner(_) => "combiner",
            ElementKind::Output(_) => "output",
        }
    }
}

/// Comparison operator of a parameter filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `IN (...)`
    In,
}

impl FilterOp {
    /// Parse the `op` attribute.
    pub fn parse(s: &str) -> Result<FilterOp> {
        match s.to_ascii_lowercase().as_str() {
            "eq" | "=" | "==" => Ok(FilterOp::Eq),
            "ne" | "!=" | "<>" => Ok(FilterOp::Ne),
            "lt" | "<" => Ok(FilterOp::Lt),
            "le" | "<=" => Ok(FilterOp::Le),
            "gt" | ">" => Ok(FilterOp::Gt),
            "ge" | ">=" => Ok(FilterOp::Ge),
            "in" => Ok(FilterOp::In),
            other => Err(Error::ControlFile(format!("unknown filter op '{other}'"))),
        }
    }

    /// SQL spelling (IN is handled separately).
    pub fn sql(&self) -> &'static str {
        match self {
            FilterOp::Eq => "=",
            FilterOp::Ne => "<>",
            FilterOp::Lt => "<",
            FilterOp::Le => "<=",
            FilterOp::Gt => ">",
            FilterOp::Ge => ">=",
            FilterOp::In => "IN",
        }
    }
}

/// One parameter restriction of a source element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Parameter name.
    pub parameter: String,
    /// Comparison.
    pub op: FilterOp,
    /// Raw comparison content (parsed by the variable's type); for `IN`,
    /// comma-separated.
    pub value: String,
}

/// Run-level restrictions of a source element (paper §3.3.1: "the time
/// stamp or index of a run").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunFilter {
    /// Earliest import time (inclusive, Unix seconds).
    pub from: Option<i64>,
    /// Latest import time (inclusive, Unix seconds).
    pub to: Option<i64>,
    /// Explicit run ids (empty = all).
    pub ids: Vec<i64>,
}

impl RunFilter {
    /// True when no restriction is set.
    pub fn is_empty(&self) -> bool {
        self.from.is_none() && self.to.is_none() && self.ids.is_empty()
    }
}

/// A source element (paper §3.3.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceSpec {
    /// Parameter restrictions.
    pub filters: Vec<Filter>,
    /// Run restrictions.
    pub run_filter: RunFilter,
    /// Parameters carried into the output vector (its dimensions).
    pub carry: Vec<String>,
    /// Result values retrieved.
    pub values: Vec<String>,
}

/// Operator types (paper §3.3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Statistical: arithmetic mean.
    Avg,
    /// Statistical: sample standard deviation.
    StdDev,
    /// Statistical: sample variance.
    Variance,
    /// Statistical: count of values.
    Count,
    /// Reduction: minimum.
    Min,
    /// Reduction: maximum.
    Max,
    /// Reduction: product.
    Prod,
    /// Reduction: sum.
    Sum,
    /// Statistical: median (outlook operator beyond the paper's list).
    Median,
    /// Arbitrary arithmetic over the value columns.
    Eval(exprcalc::Expr),
    /// Linear: multiply by a constant.
    Scale(f64),
    /// Linear: add a constant.
    Offset(f64),
    /// Two-input: element-wise subtraction.
    Diff,
    /// Two-input: element-wise division.
    Div,
    /// Two-input: `a / b * 100` (%).
    PercentOf,
    /// Two-input: `(a / b - 1) * 100` (% above b).
    Above,
    /// Two-input: `(1 - a / b) * 100` (% below b).
    Below,
}

impl OpKind {
    /// Parse an operator `type` attribute (Eval needs the expression text).
    pub fn parse(name: &str, arg: Option<&str>) -> Result<OpKind> {
        let need_num = || -> Result<f64> {
            arg.ok_or_else(|| Error::ControlFile(format!("operator '{name}' needs an argument")))?
                .trim()
                .parse()
                .map_err(|_| Error::ControlFile(format!("bad numeric argument for '{name}'")))
        };
        match name {
            "avg" | "mean" => Ok(OpKind::Avg),
            "stddev" => Ok(OpKind::StdDev),
            "variance" => Ok(OpKind::Variance),
            "count" => Ok(OpKind::Count),
            "min" => Ok(OpKind::Min),
            "max" => Ok(OpKind::Max),
            "prod" => Ok(OpKind::Prod),
            "sum" => Ok(OpKind::Sum),
            "median" => Ok(OpKind::Median),
            "eval" => {
                let src = arg.ok_or_else(|| {
                    Error::ControlFile("operator 'eval' needs an expression".into())
                })?;
                Ok(OpKind::Eval(exprcalc::Expr::parse(src)?))
            }
            "scale" => Ok(OpKind::Scale(need_num()?)),
            "offset" => Ok(OpKind::Offset(need_num()?)),
            "diff" => Ok(OpKind::Diff),
            "div" => Ok(OpKind::Div),
            "percentof" => Ok(OpKind::PercentOf),
            "above" => Ok(OpKind::Above),
            "below" => Ok(OpKind::Below),
            other => Err(Error::ControlFile(format!(
                "unknown operator type '{other}'"
            ))),
        }
    }

    /// The aggregate function behind statistical/reduction operators.
    pub fn aggregate(&self) -> Option<sqldb::aggregate::AggKind> {
        use sqldb::aggregate::AggKind;
        Some(match self {
            OpKind::Avg => AggKind::Avg,
            OpKind::StdDev => AggKind::StdDev,
            OpKind::Variance => AggKind::Variance,
            OpKind::Count => AggKind::Count,
            OpKind::Min => AggKind::Min,
            OpKind::Max => AggKind::Max,
            OpKind::Prod => AggKind::Prod,
            OpKind::Sum => AggKind::Sum,
            OpKind::Median => AggKind::Median,
            _ => return None,
        })
    }

    /// Exactly-two-input operators (paper: diff, div, percentof, above,
    /// below).
    pub fn is_binary(&self) -> bool {
        matches!(
            self,
            OpKind::Diff | OpKind::Div | OpKind::PercentOf | OpKind::Above | OpKind::Below
        )
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Avg => "avg",
            OpKind::StdDev => "stddev",
            OpKind::Variance => "variance",
            OpKind::Count => "count",
            OpKind::Min => "min",
            OpKind::Max => "max",
            OpKind::Prod => "prod",
            OpKind::Sum => "sum",
            OpKind::Median => "median",
            OpKind::Eval(_) => "eval",
            OpKind::Scale(_) => "scale",
            OpKind::Offset(_) => "offset",
            OpKind::Diff => "diff",
            OpKind::Div => "div",
            OpKind::PercentOf => "percentof",
            OpKind::Above => "above",
            OpKind::Below => "below",
        }
    }
}

/// An operator element.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// The operation.
    pub op: OpKind,
}

/// A combiner element (paper §3.3.3). Duplicate parameters are removed;
/// colliding value names get these suffixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinerSpec {
    /// Suffix for colliding value columns of the first input.
    pub suffix_left: String,
    /// Suffix for colliding value columns of the second input.
    pub suffix_right: String,
}

impl Default for CombinerSpec {
    fn default() -> Self {
        CombinerSpec {
            suffix_left: "_1".into(),
            suffix_right: "_2".into(),
        }
    }
}

/// Output formats (paper §3.3.4: Gnuplot and raw ASCII implemented in the
/// original; LaTeX and XML tables were "planned" — we ship them too, plus
/// CSV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Gnuplot script + inline data.
    Gnuplot,
    /// Fixed-width ASCII table.
    Ascii,
    /// Comma-separated values.
    Csv,
    /// LaTeX tabular.
    Latex,
    /// XML table (spreadsheet import).
    Xml,
    /// Self-contained SVG chart (an "outlook" format: no external plotting
    /// tool needed).
    Svg,
    /// Grace (xmgrace) project file — named as a planned format in §3.3.4.
    Grace,
}

impl OutputFormat {
    /// Parse the `format` attribute.
    pub fn parse(s: &str) -> Result<OutputFormat> {
        match s.to_ascii_lowercase().as_str() {
            "gnuplot" => Ok(OutputFormat::Gnuplot),
            "ascii" | "text" | "raw" => Ok(OutputFormat::Ascii),
            "csv" => Ok(OutputFormat::Csv),
            "latex" | "tex" => Ok(OutputFormat::Latex),
            "xml" => Ok(OutputFormat::Xml),
            "svg" => Ok(OutputFormat::Svg),
            "grace" | "agr" | "xmgrace" => Ok(OutputFormat::Grace),
            other => Err(Error::ControlFile(format!(
                "unknown output format '{other}'"
            ))),
        }
    }
}

/// Gnuplot plotting styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlotStyle {
    /// Clustered bar chart (Fig. 8).
    #[default]
    Bars,
    /// Lines.
    Lines,
    /// Points.
    Points,
    /// Lines with points.
    LinesPoints,
}

impl PlotStyle {
    /// Parse the `style` attribute.
    pub fn parse(s: &str) -> Result<PlotStyle> {
        match s.to_ascii_lowercase().as_str() {
            "bars" | "histogram" => Ok(PlotStyle::Bars),
            "lines" => Ok(PlotStyle::Lines),
            "points" => Ok(PlotStyle::Points),
            "linespoints" => Ok(PlotStyle::LinesPoints),
            other => Err(Error::ControlFile(format!("unknown plot style '{other}'"))),
        }
    }
}

/// An output element.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Target format.
    pub format: OutputFormat,
    /// Plot style (Gnuplot only).
    pub style: PlotStyle,
    /// Chart/table title.
    pub title: String,
    /// X-axis label override (defaults to the first parameter's label).
    pub xlabel: Option<String>,
    /// Y-axis label override (defaults to the first value's label).
    pub ylabel: Option<String>,
    /// Optional file the artifact is written to.
    pub filename: Option<String>,
}

impl Default for OutputSpec {
    fn default() -> Self {
        OutputSpec {
            format: OutputFormat::Ascii,
            style: PlotStyle::default(),
            title: String::new(),
            xlabel: None,
            ylabel: None,
            filename: None,
        }
    }
}

/// DTD-lite schema for query specifications.
pub fn query_schema() -> Dtd {
    let opt = |name: &str| AttrDecl {
        name: name.into(),
        required: false,
        default: None,
    };
    let req = |name: &str| AttrDecl {
        name: name.into(),
        required: true,
        default: None,
    };
    Dtd::new()
        .declare(
            "query",
            Model::Children(vec![
                "source".into(),
                "operator".into(),
                "combiner".into(),
                "output".into(),
            ]),
        )
        .attribute("query", opt("name"))
        .declare(
            "source",
            Model::Children(vec!["parameter".into(), "run".into(), "value".into()]),
        )
        .attribute("source", req("id"))
        .declare("parameter", Model::Empty)
        .attribute("parameter", req("name"))
        .attribute("parameter", opt("op"))
        .attribute("parameter", opt("value"))
        .attribute("parameter", opt("carry"))
        .declare("run", Model::Empty)
        .attribute("run", opt("from"))
        .attribute("run", opt("to"))
        .attribute("run", opt("ids"))
        .declare("value", Model::Empty)
        .attribute("value", req("name"))
        .declare("operator", Model::Empty)
        .attribute("operator", req("id"))
        .attribute("operator", req("type"))
        .attribute("operator", req("input"))
        .attribute("operator", opt("arg"))
        .declare("combiner", Model::Empty)
        .attribute("combiner", req("id"))
        .attribute("combiner", req("input"))
        .attribute("combiner", opt("suffixes"))
        .declare("output", Model::Empty)
        .attribute("output", req("id"))
        .attribute("output", req("input"))
        .attribute("output", opt("format"))
        .attribute("output", opt("style"))
        .attribute("output", opt("title"))
        .attribute("output", opt("xlabel"))
        .attribute("output", opt("ylabel"))
        .attribute("output", opt("filename"))
}

/// Parse a query specification from XML text.
pub fn query_from_str(xml: &str) -> Result<QuerySpec> {
    let doc = xmlite::parse(xml)?;
    query_from_xml(&doc.root)
}

/// Parse a query specification from a parsed `<query>` element.
pub fn query_from_xml(root: &Element) -> Result<QuerySpec> {
    if root.name != "query" {
        return Err(Error::ControlFile(format!(
            "expected <query> document element, found <{}>",
            root.name
        )));
    }
    if let Err(errors) = query_schema().validate(root) {
        let msgs: Vec<String> = errors.iter().take(5).map(|e| e.to_string()).collect();
        return Err(Error::ControlFile(format!(
            "query specification does not validate: {}",
            msgs.join("; ")
        )));
    }

    let name = root.attr("name").unwrap_or("query").to_string();
    let mut elements = Vec::new();
    for el in root.elements() {
        let id = el
            .attr("id")
            .ok_or_else(|| Error::ControlFile(format!("<{}> without id", el.name)))?
            .to_string();
        let inputs: Vec<String> = el
            .attr("input")
            .map(|i| i.split(',').map(|s| s.trim().to_string()).collect())
            .unwrap_or_default();
        let kind = match el.name.as_str() {
            "source" => ElementKind::Source(source_from_xml(el)?),
            "operator" => {
                let ty = el.attr("type").expect("schema requires type");
                ElementKind::Operator(OperatorSpec {
                    op: OpKind::parse(ty, el.attr("arg"))?,
                })
            }
            "combiner" => {
                let mut spec = CombinerSpec::default();
                if let Some(s) = el.attr("suffixes") {
                    let mut parts = s.splitn(2, ',');
                    if let (Some(l), Some(r)) = (parts.next(), parts.next()) {
                        spec.suffix_left = l.trim().to_string();
                        spec.suffix_right = r.trim().to_string();
                    }
                }
                ElementKind::Combiner(spec)
            }
            "output" => {
                let mut spec = OutputSpec::default();
                if let Some(f) = el.attr("format") {
                    spec.format = OutputFormat::parse(f)?;
                }
                if let Some(s) = el.attr("style") {
                    spec.style = PlotStyle::parse(s)?;
                }
                spec.title = el.attr("title").unwrap_or("").to_string();
                spec.xlabel = el.attr("xlabel").map(str::to_string);
                spec.ylabel = el.attr("ylabel").map(str::to_string);
                spec.filename = el.attr("filename").map(str::to_string);
                ElementKind::Output(spec)
            }
            other => {
                return Err(Error::ControlFile(format!(
                    "unknown query element <{other}>"
                )))
            }
        };
        elements.push(ElementSpec { id, inputs, kind });
    }
    Ok(QuerySpec { name, elements })
}

fn source_from_xml(el: &Element) -> Result<SourceSpec> {
    let mut filters = Vec::new();
    let mut carry = Vec::new();
    for p in el.children_named("parameter") {
        let name = p.attr("name").expect("schema requires name").to_string();
        if p.attr("carry") == Some("true") || p.attr("value").is_none() {
            // A parameter without a value restriction is a carried sweep
            // dimension.
            carry.push(name.clone());
        }
        if let Some(v) = p.attr("value") {
            let op = FilterOp::parse(p.attr("op").unwrap_or("eq"))?;
            filters.push(Filter {
                parameter: name,
                op,
                value: v.to_string(),
            });
        }
    }
    let mut run_filter = RunFilter::default();
    if let Some(r) = el.child("run") {
        run_filter.from = r.attr("from").and_then(sqldb::parse_timestamp);
        run_filter.to = r.attr("to").and_then(sqldb::parse_timestamp);
        if let Some(ids) = r.attr("ids") {
            run_filter.ids = ids
                .split(',')
                .map(|s| s.trim().parse::<i64>())
                .collect::<std::result::Result<Vec<i64>, _>>()
                .map_err(|_| Error::ControlFile("bad run ids".into()))?;
        }
    }
    let values: Vec<String> = el
        .children_named("value")
        .map(|v| v.attr("name").expect("schema requires name").to_string())
        .collect();
    if values.is_empty() {
        return Err(Error::ControlFile(
            "<source> needs at least one <value>".into(),
        ));
    }
    Ok(SourceSpec {
        filters,
        run_filter,
        carry,
        values,
    })
}

/// Serialize a query spec back to XML text (round-trip support).
pub fn query_to_string(spec: &QuerySpec) -> String {
    let mut root = Element::new("query").with_attr("name", &spec.name);
    for e in &spec.elements {
        let el = match &e.kind {
            ElementKind::Source(s) => {
                let mut x = Element::new("source").with_attr("id", &e.id);
                // Carried-only parameters (filtered ones are emitted below).
                for c in &s.carry {
                    if s.filters.iter().any(|f| &f.parameter == c) {
                        continue;
                    }
                    x = x.with_child(
                        Element::new("parameter")
                            .with_attr("name", c)
                            .with_attr("carry", "true"),
                    );
                }
                for f in &s.filters {
                    let mut p = Element::new("parameter")
                        .with_attr("name", &f.parameter)
                        .with_attr("op", f.op.sql())
                        .with_attr("value", &f.value);
                    if s.carry.contains(&f.parameter) {
                        p.set_attr("carry", "true");
                    }
                    x = x.with_child(p);
                }
                if !s.run_filter.is_empty() {
                    let mut r = Element::new("run");
                    if let Some(f) = s.run_filter.from {
                        r.set_attr("from", &sqldb::format_timestamp(f));
                    }
                    if let Some(t) = s.run_filter.to {
                        r.set_attr("to", &sqldb::format_timestamp(t));
                    }
                    if !s.run_filter.ids.is_empty() {
                        let ids: Vec<String> =
                            s.run_filter.ids.iter().map(i64::to_string).collect();
                        r.set_attr("ids", &ids.join(","));
                    }
                    x = x.with_child(r);
                }
                for v in &s.values {
                    x = x.with_child(Element::new("value").with_attr("name", v));
                }
                x
            }
            ElementKind::Operator(o) => {
                let mut x = Element::new("operator")
                    .with_attr("id", &e.id)
                    .with_attr("type", o.op.name())
                    .with_attr("input", &e.inputs.join(","));
                match &o.op {
                    OpKind::Eval(expr) => x.set_attr("arg", expr.source()),
                    OpKind::Scale(f) | OpKind::Offset(f) => x.set_attr("arg", &f.to_string()),
                    _ => {}
                }
                x
            }
            ElementKind::Combiner(c) => Element::new("combiner")
                .with_attr("id", &e.id)
                .with_attr("input", &e.inputs.join(","))
                .with_attr("suffixes", &format!("{},{}", c.suffix_left, c.suffix_right)),
            ElementKind::Output(o) => {
                let mut x = Element::new("output")
                    .with_attr("id", &e.id)
                    .with_attr("input", &e.inputs.join(","))
                    .with_attr(
                        "format",
                        match o.format {
                            OutputFormat::Gnuplot => "gnuplot",
                            OutputFormat::Ascii => "ascii",
                            OutputFormat::Csv => "csv",
                            OutputFormat::Latex => "latex",
                            OutputFormat::Xml => "xml",
                            OutputFormat::Svg => "svg",
                            OutputFormat::Grace => "grace",
                        },
                    );
                if !o.title.is_empty() {
                    x.set_attr("title", &o.title);
                }
                x
            }
        };
        root = root.with_child(el);
    }
    xmlite::to_string_pretty(&Document::from_root(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 7 query: two sources (old/new technique), per-source max
    /// aggregation, relative comparison, bar-chart output.
    pub(crate) const FIG7: &str = r#"<query name="listless_vs_listbased">
  <source id="s_old">
    <parameter name="technique" value="list-based"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="s_chunk" carry="true"/>
    <parameter name="mode" carry="true"/>
    <value name="b_scatter"/>
  </source>
  <source id="s_new">
    <parameter name="technique" value="list-less"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="s_chunk" carry="true"/>
    <parameter name="mode" carry="true"/>
    <value name="b_scatter"/>
  </source>
  <operator id="max_old" type="max" input="s_old"/>
  <operator id="max_new" type="max" input="s_new"/>
  <operator id="rel" type="above" input="max_new,max_old"/>
  <output id="plot" input="rel" format="gnuplot" style="bars"
          title="Relative performance of list-less vs list-based I/O"/>
</query>"#;

    #[test]
    fn parses_fig7() {
        let q = query_from_str(FIG7).unwrap();
        assert_eq!(q.name, "listless_vs_listbased");
        assert_eq!(q.elements.len(), 6);

        match &q.elements[0].kind {
            ElementKind::Source(s) => {
                assert_eq!(s.filters.len(), 2);
                assert_eq!(s.carry, vec!["s_chunk", "mode"]);
                assert_eq!(s.values, vec!["b_scatter"]);
            }
            other => panic!("{other:?}"),
        }
        match &q.elements[4].kind {
            ElementKind::Operator(o) => {
                assert_eq!(o.op, OpKind::Above);
                assert_eq!(q.elements[4].inputs, vec!["max_new", "max_old"]);
            }
            other => panic!("{other:?}"),
        }
        match &q.elements[5].kind {
            ElementKind::Output(o) => {
                assert_eq!(o.format, OutputFormat::Gnuplot);
                assert_eq!(o.style, PlotStyle::Bars);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let q = query_from_str(FIG7).unwrap();
        let xml = query_to_string(&q);
        let q2 = query_from_str(&xml).unwrap();
        assert_eq!(q.elements.len(), q2.elements.len());
        for (a, b) in q.elements.iter().zip(&q2.elements) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.kind.name(), b.kind.name());
        }
    }

    #[test]
    fn operator_args() {
        let q = query_from_str(
            r#"<query><source id="s"><value name="v"/></source>
               <operator id="o1" type="scale" input="s" arg="2.5"/>
               <operator id="o2" type="eval" input="o1" arg="v * 2 + 1"/>
               <output id="x" input="o2" format="ascii"/></query>"#,
        )
        .unwrap();
        match &q.elements[1].kind {
            ElementKind::Operator(o) => assert_eq!(o.op, OpKind::Scale(2.5)),
            other => panic!("{other:?}"),
        }
        match &q.elements[2].kind {
            ElementKind::Operator(OperatorSpec {
                op: OpKind::Eval(e),
            }) => {
                assert_eq!(e.source(), "v * 2 + 1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_filter_parsing() {
        let q = query_from_str(
            r#"<query><source id="s">
                 <run from="2004-11-01" to="2004-12-01 00:00:00" ids="1,2,5"/>
                 <value name="v"/>
               </source><output id="o" input="s"/></query>"#,
        )
        .unwrap();
        match &q.elements[0].kind {
            ElementKind::Source(s) => {
                assert!(s.run_filter.from.is_some());
                assert!(s.run_filter.to.is_some());
                assert_eq!(s.run_filter.ids, vec![1, 2, 5]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_op_forms() {
        for (txt, op) in [
            ("eq", FilterOp::Eq),
            (">=", FilterOp::Ge),
            ("in", FilterOp::In),
            ("ne", FilterOp::Ne),
        ] {
            assert_eq!(FilterOp::parse(txt).unwrap(), op);
        }
        assert!(FilterOp::parse("~").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(query_from_str("<experiment/>").is_err());
        assert!(query_from_str("<query><source id=\"s\"/></query>").is_err()); // no value
        assert!(
            query_from_str("<query><operator id=\"o\" type=\"bogus\" input=\"s\"/></query>")
                .is_err()
        );
        assert!(query_from_str("<query><output input=\"s\"/></query>").is_err()); // no id
        assert!(
            query_from_str("<query><operator id=\"o\" type=\"scale\" input=\"s\"/></query>")
                .is_err()
        ); // scale without arg
    }
}
