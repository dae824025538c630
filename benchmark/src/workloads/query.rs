//! Read path: the fixed query set evaluated over an in-memory experiment.
//!
//! One operation is `query_from_str` + `QueryRunner::run` of one spec, all
//! outputs included. A cycle evaluates the four specs of `data::QUERY_SET` in
//! order and is followed by one run of the reference kernel; cycles repeat
//! until the time is used.
//! The same code serves `query_large` (1200 runs, source elements dominate)
//! and `query_small` (12 runs, parsing and plumbing dominate).

use super::{ms, per, text, Checks, Counters, Ctx, Measured, Res, Roles, Stage, StageOut};
use crate::data::{self, Digest, Fig7Reference, QUERY_SET};
use crate::reference::Reference;
use crate::stats::{Latencies, Sample, Summary};
use crate::trace::{totals_by_name, Recorder};
use perfbase::core::experiment::ExperimentDb;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::{QueryOutcome, QueryRunner};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Output writers and the per-layer metric each is reported as; the output
/// elements of `formats.xml` carry the writers' names as ids.
const RENDERS: [(&str, &str); 7] = [
    ("csv", "core.output.render_us.csv"),
    ("ascii", "core.output.render_us.ascii"),
    ("gnuplot", "core.output.render_us.gnuplot"),
    ("latex", "core.output.render_us.latex"),
    ("xml", "core.output.render_us.xml"),
    ("svg", "core.output.render_us.svg"),
    ("grace", "core.output.render_us.grace"),
];

pub struct QueryStage {
    db: ExperimentDb,
    reference: Fig7Reference,
    digest: String,
    /// Artifacts of each spec as first produced and verified; the experiment
    /// does not change, so every later evaluation must print the same.
    verified: BTreeMap<&'static str, HashMap<String, String>>,
    next_op: u64,
}

/// Element walls summed by kind over a traced pass, in nanoseconds.
#[derive(Default)]
struct ElementTime {
    source: u64,
    operator: u64,
    output: u64,
    render: BTreeMap<String, (u64, u64)>,
    /// `scan.rows_visited` summed over the fig7 evaluations; −1 once the
    /// program has no such counter.
    rows_visited_fig7: f64,
    fig7_runs: u64,
}

impl Stage for QueryStage {
    const ROLES: Roles = Roles {
        ops_per_s: "specs_per_ref_s",
        primary_ms: "fig7_ref_ms",
        secondary_ms: "sweep_ref_ms",
    };

    fn setup(ctx: &Ctx) -> Res<QueryStage> {
        let files = data::campaign(ctx.seed, 1, ctx.scale.preload_reps);
        let digest = Digest::of_inputs(&[&files]);
        Ok(QueryStage {
            db: super::preload(&files)?,
            reference: Fig7Reference::of(&files),
            digest: digest.hex(),
            verified: BTreeMap::new(),
            next_op: 0,
        })
    }

    fn input_digest(&self) -> String {
        self.digest.clone()
    }

    fn run(&mut self, budget: Duration, rec: &mut Recorder, checks: &mut Checks) -> Res<StageOut> {
        let mut reference = Reference::new();
        let mut latency: BTreeMap<&'static str, Latencies> = BTreeMap::new();
        // Milliseconds per spec of each cycle, for the throughput.
        let mut per_spec = Latencies::default();
        let mut elements = ElementTime::default();
        let counters = Counters::now();
        let mut busy_ms = 0.0;
        let started = Instant::now();
        reference.tick();
        while started.elapsed() < budget {
            let cycle_started = reference.now();
            let mut cycle_ms = 0.0;
            for (name, xml) in QUERY_SET {
                let t = Instant::now();
                let outcome = self.evaluate(name, xml, rec, &mut elements)?;
                let took = ms(t.elapsed());
                latency.entry(name).or_default().push(reference.now(), took);
                cycle_ms += took;
                checks.op(self.wrong_output(name, &outcome));
            }
            per_spec.push_sample(Sample {
                at: (cycle_started + reference.now()) / 2.0,
                ms: cycle_ms / QUERY_SET.len() as f64,
            });
            busy_ms += cycle_ms;
            reference.tick();
        }
        let specs = (per_spec.count() * QUERY_SET.len()) as u64;

        let fig7 = &latency["fig7"];
        let mut out = StageOut {
            named: vec![
                Measured::new(
                    "specs_per_ref_s",
                    "specs/s",
                    per_spec.at_reference_speed(&reference).per_second(),
                ),
                Measured::new("fig7_ref_ms", "ms", fig7.at_reference_speed(&reference)),
                Measured::new(
                    "sweep_ref_ms",
                    "ms",
                    latency["sweep"].at_reference_speed(&reference),
                ),
                Measured::new(
                    "query_specs_per_s",
                    "specs/s",
                    Summary::single(specs as f64 * 1e3 / busy_ms),
                ),
                Measured::new("fig7_p50_ms", "ms", fig7.measured(50.0)),
                Measured::tail("fig7_p90_ms", fig7, 90.0),
                Measured::new("sweep_p50_ms", "ms", latency["sweep"].measured(50.0)),
                Measured::new("solidity_p50_ms", "ms", latency["solidity"].measured(50.0)),
                Measured::new("formats_p50_ms", "ms", latency["formats"].measured(50.0)),
            ],
            layers: Vec::new(),
            series: latency.into_iter().collect(),
            reference,
        };
        if rec.is_on() {
            let totals = totals_by_name(rec.spans());
            let all = (elements.source + elements.operator + elements.output).max(1) as f64;
            let stmts = counters.delta("sql.statements_parsed");
            out.layers = vec![
                (
                    "core.query.parse_us",
                    totals.get("spec.parse").map_or(f64::NAN, |t| t.mean_us()),
                ),
                ("core.query.source_share", elements.source as f64 / all),
                ("core.query.operator_share", elements.operator as f64 / all),
                ("core.query.output_share", elements.output as f64 / all),
                // Run wall minus the element walls: DAG set-up, temp-table
                // clean-up and whatever else no element accounts for.
                (
                    "core.query.self_us",
                    totals
                        .get("spec.run")
                        .map_or(f64::NAN, |t| t.mean_self_us()),
                ),
                (
                    "sqldb.sql.stmts_parsed_per_spec",
                    per(stmts, specs.max(1) as f64),
                ),
                (
                    "sqldb.exec.rows_visited_per_fig7",
                    per(elements.rows_visited_fig7, elements.fig7_runs.max(1) as f64),
                ),
            ];
            for (format, layer) in RENDERS {
                let (ns, count) = elements.render.get(format).copied().unwrap_or((0, 0));
                out.layers
                    .push((layer, ns as f64 / 1e3 / count.max(1) as f64));
            }
        }
        Ok(out)
    }
}

impl QueryStage {
    /// Parse and run one spec. Traced, the operation is a `spec` span with a
    /// `spec.parse` and a `spec.run` child, and under `spec.run` one child
    /// per element the engine reports a wall time for.
    fn evaluate(
        &mut self,
        name: &str,
        xml: &str,
        rec: &mut Recorder,
        elements: &mut ElementTime,
    ) -> Res<QueryOutcome> {
        self.next_op += 1;
        let op = self.next_op;
        let rows_before = (rec.is_on() && name == "fig7").then(Counters::now);
        let whole = rec.begin("spec", op);
        let spec = rec
            .leaf("spec.parse", op, || query_from_str(xml))
            .map_err(text)?;
        let run = rec.begin("spec.run", op);
        let outcome = QueryRunner::new(&self.db).run(spec).map_err(text)?;
        if rec.is_on() {
            let children: Vec<(&'static str, u64)> = outcome
                .timings
                .iter()
                .map(|t| {
                    let ns = t.wall.as_nanos() as u64;
                    let span = match t.kind {
                        "source" => {
                            elements.source += ns;
                            "element.source"
                        }
                        "output" => {
                            elements.output += ns;
                            if name == "formats" {
                                let slot = elements.render.entry(t.id.clone()).or_default();
                                slot.0 += ns;
                                slot.1 += 1;
                            }
                            "element.output"
                        }
                        _ => {
                            elements.operator += ns;
                            "element.operator"
                        }
                    };
                    (span, ns)
                })
                .collect();
            rec.add_sequential(&run, op, &children);
        }
        rec.end(run);
        rec.end(whole);
        if let Some(before) = rows_before {
            let visited = before.delta("scan.rows_visited");
            if visited < 0.0 || elements.rows_visited_fig7 < 0.0 {
                elements.rows_visited_fig7 = -1.0;
            } else {
                elements.rows_visited_fig7 += visited;
            }
            elements.fig7_runs += 1;
        }
        Ok(outcome)
    }

    /// Verify the first output of each spec in depth and hold every later
    /// one to it byte for byte.
    fn wrong_output(&mut self, name: &'static str, outcome: &QueryOutcome) -> Option<String> {
        let artifacts = &outcome.artifacts;
        if let Some(first) = self.verified.get(name) {
            return (first != artifacts).then(|| format!("{name}: output changed between runs"));
        }
        let mut ids: Vec<&str> = artifacts.keys().map(String::as_str).collect();
        ids.sort_unstable();
        let problem = match name {
            "fig7" if ids == ["chart", "plot", "table"] => {
                self.reference.check(&artifacts["table"]).err()
            }
            // One row per (chunk size, mode) under a title, a header and a rule.
            "solidity" => data_lines(artifacts, "table", data::ROWS_PER_FILE + 3),
            // One line of column names, one line with the single best value.
            "sweep" => data_lines(artifacts, "o", 2),
            "formats"
                if ids.len() == RENDERS.len()
                    && RENDERS.iter().all(|(format, _)| ids.contains(format)) =>
            {
                artifacts
                    .iter()
                    .find(|(_, text)| text.trim().is_empty())
                    .map(|(id, _)| format!("output {id} is empty"))
            }
            _ => Some(format!("outputs {ids:?}")),
        };
        match problem {
            Some(p) => Some(format!("{name}: {p}")),
            None => {
                self.verified.insert(name, artifacts.clone());
                None
            }
        }
    }
}

/// `None` when the artifact `id` has exactly `lines` non-empty lines.
fn data_lines(artifacts: &HashMap<String, String>, id: &str, lines: usize) -> Option<String> {
    let Some(text) = artifacts.get(id) else {
        return Some(format!("no output {id}"));
    };
    let got = text.lines().filter(|l| !l.trim().is_empty()).count();
    (got != lines).then(|| format!("output {id} has {got} lines, expected {lines}"))
}

#[cfg(test)]
mod tests {
    use super::super::testing::exercise;
    use super::*;

    #[test]
    fn query_set_end_to_end_at_small_scale() {
        let (plain, traced, rec) = exercise::<QueryStage>("query");
        assert!(plain.value("fig7_p90_ms").unwrap() >= plain.value("fig7_p50_ms").unwrap() * 0.5);
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        let shares = layer("core.query.source_share")
            + layer("core.query.operator_share")
            + layer("core.query.output_share");
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        for (_, render) in RENDERS {
            assert!(layer(render) > 0.0, "{render}");
        }
        assert!(layer("sqldb.sql.stmts_parsed_per_spec") > 0.0);
        // sweep.xml has 29 elements, each a child span of its run.
        let sweep_op = rec
            .spans()
            .iter()
            .find(|s| s.name == "spec")
            .map(|s| s.op + 2)
            .unwrap();
        let children = rec
            .spans()
            .iter()
            .filter(|s| s.op == sweep_op && s.name.starts_with("element."))
            .count();
        assert_eq!(children, 29);
    }

    #[test]
    fn a_wrong_table_is_reported() {
        let dir = super::super::testing::TestDir::new("query-wrong");
        let mut stage = QueryStage::setup(&dir.ctx()).unwrap();
        let spec = query_from_str(data::FIG7_XML).unwrap();
        let mut outcome = QueryRunner::new(&stage.db).run(spec).unwrap();
        let table = outcome.artifacts["table"].replace("-6", "-5");
        outcome.artifacts.insert("table".into(), table);
        let problem = stage.wrong_output("fig7", &outcome).unwrap();
        assert!(problem.starts_with("fig7: row"), "{problem}");
    }
}
