//! What the benchmark promises: its workloads and its metrics. The root
//! `BENCHMARK.json` says the same in the driver's format; a test keeps the
//! two equal.

use crate::workloads::Scale;
use crate::StageKind;
use std::time::Duration;

pub struct Workload {
    pub name: &'static str,
    pub stage: StageKind,
    pub scale: Scale,
    pub why: &'static str,
}

/// §5 campaign sizes: 3 file systems × 2 techniques × repetitions.
const FULL: Scale = Scale {
    import_reps: 200,
    preload_reps: 200,
    sample_rows: 100_000,
    batch_rows: 250,
    batch_interval: Duration::from_millis(50),
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "import_campaign",
        stage: StageKind::Import,
        scale: Scale {
            import_reps: 333,
            ..FULL
        },
        why: "write path: 1998 durable imports into an empty experiment, reopen from the WAL, checkpoint; extraction, add_run and WAL do all the work, scans and HTTP none",
    },
    Workload {
        name: "query_large",
        stage: StageKind::Query,
        scale: FULL,
        why: "read path over 1200 runs: four fixed query specs with all outputs; source elements (scans) are most of the element time",
    },
    Workload {
        name: "query_small",
        stage: StageKind::Query,
        scale: Scale {
            import_reps: 2,
            preload_reps: 2,
            ..FULL
        },
        why: "same specs over 12 runs: spec parsing, SQL re-parsing, temp tables between elements and output rendering dominate, scans do not",
    },
    Workload {
        name: "cli_session",
        stage: StageKind::Cli,
        scale: FULL,
        why: "the paper's user interface, file to file: perfbase input and query on a 1200-run dump, each call loading (and input re-saving) the whole SQL-text dump",
    },
    Workload {
        name: "serve_mixed",
        stage: StageKind::Serve,
        scale: FULL,
        why: "HTTP reads beside writes on one processor: a closed-loop reader next to a writer ingesting 250 rows every 50 ms on a fixed schedule, so a gain for one side that costs the other shows",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The same five metrics on every workload; which operation fills the
/// `primary` and `secondary` ones is each stage's `ROLES`. The timing values
/// are at reference speed (see `reference.rs`): a latency is the operation's
/// lower quartile over the run unless the stage says otherwise (`serve_mixed`'s
/// ingest, which is bimodal, reports its median).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "primary_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "secondary_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = module of the repository. `op.*` are the stages' operation-level
/// results at the workload's scale; `host.*` and `bench.*` qualify the rest.
pub const PER_LAYER: [PerLayer; 79] = [
    layer("xmlite.parse_us.experiment", "us", "lower"),
    layer("xmlite.parse_us.input", "us", "lower"),
    layer("xmlite.parse_us.query", "us", "lower"),
    layer("rematch.compile_us", "us", "lower"),
    layer("rematch.match_ns_per_line", "ns", "lower"),
    layer("core.input.describe_us", "us", "lower"),
    layer("core.input.extract_us_per_file", "us", "lower"),
    layer("core.input.rows_per_file", "count", "higher"),
    layer("core.import.dedup_us_per_file", "us", "lower"),
    layer("core.import.record_us_per_file", "us", "lower"),
    layer("core.import.self_us_per_file", "us", "lower"),
    layer("core.experiment.add_run_us", "us", "lower"),
    layer("core.experiment.add_run_growth", "ratio", "lower"),
    layer("core.experiment.open_us", "us", "lower"),
    layer("sqldb.sql.parse_us_per_stmt", "us", "lower"),
    layer("sqldb.sql.stmts_parsed_per_import", "count", "lower"),
    layer("sqldb.sql.stmts_parsed_per_spec", "count", "lower"),
    layer("sqldb.exec.insert_us_per_batch", "us", "lower"),
    layer("sqldb.exec.scan_ms", "ms", "lower"),
    layer("sqldb.exec.point_us", "us", "lower"),
    layer("sqldb.exec.rows_visited_per_fig7", "count", "lower"),
    layer("sqldb.dump.load_ms", "ms", "lower"),
    layer("sqldb.dump.save_ms", "ms", "lower"),
    layer("sqldb.dump.bytes", "bytes", "lower"),
    layer("sqldb.wal.sync_us_per_file", "us", "lower"),
    layer("sqldb.wal.fsyncs_per_file", "count", "lower"),
    layer("sqldb.wal.bytes_per_input_byte", "ratio", "lower"),
    layer("sqldb.wal.replay_us_per_frame", "us", "lower"),
    layer("sqldb.wal.checkpoint_ms", "ms", "lower"),
    layer("sqldb.mvcc.cow_clones_per_ingest", "count", "lower"),
    layer("sqldb.mvcc.snapshot_over_live", "ratio", "lower"),
    layer("core.query.parse_us", "us", "lower"),
    layer("core.query.source_share", "ratio", "lower"),
    layer("core.query.operator_share", "ratio", "lower"),
    layer("core.query.output_share", "ratio", "lower"),
    layer("core.query.self_us", "us", "lower"),
    layer("core.output.render_us.csv", "us", "lower"),
    layer("core.output.render_us.ascii", "us", "lower"),
    layer("core.output.render_us.gnuplot", "us", "lower"),
    layer("core.output.render_us.latex", "us", "lower"),
    layer("core.output.render_us.xml", "us", "lower"),
    layer("core.output.render_us.svg", "us", "lower"),
    layer("core.output.render_us.grace", "us", "lower"),
    layer("server.solo_point_p50_ms", "ms", "lower"),
    layer("server.solo_scan_p50_ms", "ms", "lower"),
    layer("server.overhead_point_us", "us", "lower"),
    layer("server.mixed_over_solo_scan", "ratio", "lower"),
    layer("server.ingest_rows_per_s", "rows/s", "higher"),
    layer("server.rejected_503", "count", "lower"),
    layer("server.writer_late_ms", "ms", "lower"),
    layer("perfbase.cli.input_self_ms", "ms", "lower"),
    layer("perfbase.cli.query_self_ms", "ms", "lower"),
    layer("host.fsync_probe_us", "us", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "higher"),
    layer("bench.trace_self_coverage", "ratio", "higher"),
    layer("bench.reference_kernel_ms", "ms", "lower"),
    layer("op.import_runs_per_s", "runs/s", "higher"),
    layer("op.import_p50_ms", "ms", "lower"),
    layer("op.import_p99_ms", "ms", "lower"),
    layer("op.reopen_ms", "ms", "lower"),
    layer("op.disk_bytes_per_input_byte", "ratio", "lower"),
    layer("op.query_specs_per_s", "specs/s", "higher"),
    layer("op.fig7_p50_ms", "ms", "lower"),
    layer("op.fig7_p90_ms", "ms", "lower"),
    layer("op.sweep_p50_ms", "ms", "lower"),
    layer("op.solidity_p50_ms", "ms", "lower"),
    layer("op.formats_p50_ms", "ms", "lower"),
    layer("op.cli_calls_per_s", "calls/s", "higher"),
    layer("op.cli_query_p50_ms", "ms", "lower"),
    layer("op.cli_query_p75_ms", "ms", "lower"),
    layer("op.cli_input_p50_ms", "ms", "lower"),
    layer("op.http_reads_per_s", "req/s", "higher"),
    layer("op.http_scan_p50_ms", "ms", "lower"),
    layer("op.http_scan_p90_ms", "ms", "lower"),
    layer("op.http_ingest_p50_ms", "ms", "lower"),
    layer("op.http_ingest_p75_ms", "ms", "lower"),
    layer("op.http_point_p50_ms", "ms", "lower"),
    layer("op.http_rundata_p50_ms", "ms", "lower"),
    layer("op.http_filter_scan_p50_ms", "ms", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` as these tables spell it.
    fn contract_text() -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
        );
        out.push_str("  \"paths\": [\"benchmark\"],\n  \"run_seconds\": 20,\n  \"workloads\": [\n");
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        out.push_str(&workloads.join(",\n"));
        out.push_str("\n  ],\n  \"end_to_end\": [\n");
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect();
        out.push_str(&metrics.join(",\n"));
        out.push_str("\n  ],\n  \"per_layer\": [\n");
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect();
        out.push_str(&layers.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    #[test]
    fn benchmark_json_says_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        assert!(
            on_disk == contract_text(),
            "BENCHMARK.json is out of date; it should read:\n{}",
            contract_text()
        );
    }

    #[test]
    fn names_units_and_sizes_are_within_the_drivers_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(
                name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25 && ["lower", "higher"].contains(&m.better));
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && contract_text().len() < 64 << 10);
        // setup_s has the largest bound, as the driver asks.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
