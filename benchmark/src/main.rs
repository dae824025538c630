//! `pbbench` — the perfbase workflow (set-up, input, query, output, serving)
//! measured end to end and per layer on five named workloads.
//!
//! ```text
//! pbbench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--samples] [--out DIR]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line of
//! standard output is its result as one JSON object. Without it, every
//! workload runs in a child process of its own (so that `peak_rss_mb` is per
//! workload), untraced, and with `--trace` traced as well. See `README.md`.

mod contract;
mod data;
mod host;
mod http;
mod json;
mod layers;
mod reference;
mod stats;
mod trace;
mod workloads;

use contract::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use reference::Reference;
use stats::{Latencies, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::cli::CliStage;
use workloads::import::ImportStage;
use workloads::query::QueryStage;
use workloads::serve::ServeStage;
use workloads::{ms, text, Checks, Ctx, Measured, Res, Stage, StageOut};

/// An untraced run sets its workload up at least this often, and goes on
/// until the set-ups have taken `SETUP_TIME` together; `setup_s` is their
/// median at reference speed. A 4 ms set-up is thus timed a hundred times, a
/// 1 s one thrice.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_TIME: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    Import,
    Query,
    Cli,
    Serve,
}

const STAGES: [StageKind; 4] = [
    StageKind::Import,
    StageKind::Query,
    StageKind::Cli,
    StageKind::Serve,
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Write every latency sample and every reference tick of the run out.
    samples: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        samples: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(text)?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(text)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--samples" => args.samples = true,
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One reported metric of a run.
struct Reported {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Regression bound; per-layer metrics have none.
    bound: Option<f64>,
    value: f64,
    /// Median, quartiles and sample count, where the value has them.
    summary: Option<Summary>,
    /// The stage's own name for an end-to-end value, or a remark.
    note: String,
}

/// Everything one run of one workload produced.
struct RunResult {
    input_digest: String,
    checks: Checks,
    /// The metrics the contract asks for: end-to-end when untraced,
    /// per-layer when traced.
    metrics: Vec<Reported>,
    /// The stage's operation-level results under their own names.
    named: Vec<Measured>,
    /// The workload's own stage: its samples and the reference kernel's.
    series: Vec<(&'static str, Latencies)>,
    reference: Reference,
}

/// Runs of the reference kernel whose median is one tick before and after a
/// set-up: there are only a few set-ups, so each tick has to be a good one.
const TICKS_AROUND_SETUP: usize = 5;

fn untraced<S: Stage>(ctx: &Ctx, seconds: u64) -> Res<RunResult> {
    let mut setup_reference = Reference::new();
    let mut setups = Latencies::default();
    let mut stage = None;
    let first = Instant::now();
    setup_reference.tick_median_of(TICKS_AROUND_SETUP);
    while setups.count() < MIN_SETUPS
        || (first.elapsed() < SETUP_TIME && setups.count() < MAX_SETUPS)
    {
        // The earlier set-up is dropped first, so that peak memory is that of
        // one set-up and a server set up earlier no longer runs.
        drop(stage.take());
        let started = Instant::now();
        stage = Some(S::setup(ctx)?);
        setups.push(setup_reference.now(), ms(started.elapsed()));
        setup_reference.tick_median_of(TICKS_AROUND_SETUP);
    }
    let setup_ms = setups.at_reference_speed(&setup_reference);
    let mut stage = stage.expect("set up above");
    let mut checks = Checks::default();
    let out = stage.run(
        Duration::from_secs(seconds),
        &mut Recorder::off(),
        &mut checks,
    )?;
    let input_digest = stage.input_digest();
    drop(stage);

    // Exactly the contract's list, each metric from where this stage has it.
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let (summary, note) = match (def.name, S::ROLES.filled_by(def.name)) {
                ("setup_s", _) => (
                    Summary {
                        value: setup_ms.median / 1e3,
                        median: setup_ms.median / 1e3,
                        q1: setup_ms.q1 / 1e3,
                        q3: setup_ms.q3 / 1e3,
                        samples: setup_ms.samples,
                    },
                    format!(
                        "median of {} set-ups at reference speed ({:.3} s as measured)",
                        setups.count(),
                        setups.measured(50.0).value / 1e3
                    ),
                ),
                ("peak_rss_mb", _) => (
                    Summary::single(host::peak_rss_mb()),
                    "VmHWM of this process".to_string(),
                ),
                (_, Some(stage_name)) => {
                    let m = out.named.iter().find(|m| m.name == stage_name);
                    let m = m.ok_or_else(|| format!("the stage reports no {stage_name}"))?;
                    (m.summary, format!("= {stage_name}"))
                }
                (other, None) => return Err(format!("nothing measures {other}")),
            };
            Ok(Reported {
                name: def.name,
                unit: def.unit,
                better: def.better,
                bound: Some(def.bound),
                value: summary.value,
                summary: Some(summary),
                note,
            })
        })
        .collect::<Res<Vec<_>>>()?;
    Ok(RunResult {
        input_digest,
        checks,
        metrics,
        named: out.named,
        series: out.series,
        reference: out.reference,
    })
}

/// One stage of the traced pass. The workload's own stage also runs
/// untraced first, from a set-up of its own, for the overhead ratio.
fn traced_stage<S: Stage>(
    ctx: &Ctx,
    seconds: u64,
    own: bool,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Res<(StageOut, Option<f64>, String)> {
    let share = Duration::from_secs(seconds) / if own { 4 } else { 8 };
    let plain_rate = if own {
        let mut stage = S::setup(ctx)?;
        let out = stage.run(share, &mut Recorder::off(), checks)?;
        out.value(S::ROLES.ops_per_s)
    } else {
        None
    };
    let mut stage = S::setup(ctx)?;
    let out = stage.run(share, rec, checks)?;
    let ratio = plain_rate
        .zip(out.value(S::ROLES.ops_per_s))
        .map(|(plain, traced)| traced / plain);
    Ok((out, ratio, stage.input_digest()))
}

/// The traced pass of a workload: the stand-alone layer probes, then every
/// stage at the workload's scale with the span recorder on. Returns the
/// recorder so the caller can write the trace file.
fn traced(
    w: &Workload,
    ctx: &Ctx,
    seconds: u64,
    fsync_probe_us: f64,
) -> Res<(RunResult, Recorder)> {
    let mut rec = Recorder::on(Instant::now(), 0);
    let mut checks = Checks::default();
    let mut measured: BTreeMap<String, f64> = BTreeMap::new();
    let mut named = Vec::new();
    let mut series = Vec::new();
    let mut reference = Reference::new();
    let mut input_digest = String::new();

    let first_files = data::campaign(ctx.seed, 1, 2);
    measured.extend(
        layers::probe(&first_files, &ctx.dir)?
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );
    measured.insert("host.fsync_probe_us".into(), fsync_probe_us);

    // The workload's own stage goes first, so that the pair of passes the
    // overhead ratio compares runs before any other stage has left work
    // (dirty pages of an import, say) for the system to do in the background.
    let own_first = STAGES
        .into_iter()
        .filter(|&k| k == w.stage)
        .chain(STAGES.into_iter().filter(|&k| k != w.stage));
    for kind in own_first {
        let own = kind == w.stage;
        let (out, ratio, digest) = match kind {
            StageKind::Import => {
                traced_stage::<ImportStage>(ctx, seconds, own, &mut rec, &mut checks)
            }
            StageKind::Query => {
                traced_stage::<QueryStage>(ctx, seconds, own, &mut rec, &mut checks)
            }
            StageKind::Cli => traced_stage::<CliStage>(ctx, seconds, own, &mut rec, &mut checks),
            StageKind::Serve => {
                traced_stage::<ServeStage>(ctx, seconds, own, &mut rec, &mut checks)
            }
        }?;
        measured.extend(out.layers.iter().map(|&(k, v)| (k.to_string(), v)));
        for m in &out.named {
            measured.insert(format!("op.{}", m.name), m.summary.value);
        }
        if let Some(ratio) = ratio {
            measured.insert("bench.trace_overhead_ratio".into(), ratio);
            measured.insert(
                "bench.reference_kernel_ms".into(),
                out.reference.median_ms(),
            );
            input_digest = digest;
            named = out.named;
            series = out.series;
            reference = out.reference;
        }
    }
    measured.insert(
        "bench.trace_self_coverage".into(),
        trace::self_time_coverage(rec.spans()),
    );

    // Report exactly the contract's list: a layer the pass did not produce
    // (a counter the program dropped, a ratio of nothing) reads −1.
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = measured.get(def.name).copied().filter(|v| v.is_finite());
            Reported {
                name: def.name,
                unit: def.unit,
                better: def.better,
                bound: None,
                value: value.unwrap_or(-1.0),
                summary: None,
                note: if value.is_some() {
                    String::new()
                } else {
                    "not measured".into()
                },
            }
        })
        .collect();
    Ok((
        RunResult {
            input_digest,
            checks,
            metrics,
            named,
            series,
            reference,
        },
        rec,
    ))
}

/// A directory removed again when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(w: &Workload, args: &Args) -> Res<bool> {
    std::fs::create_dir_all(&args.out).map_err(text)?;
    let work = WorkDir(
        args.out
            .join(format!("work-{}-{}", w.name, std::process::id())),
    );
    std::fs::create_dir_all(&work.0).map_err(text)?;
    let fsync_probe_us = host::fsync_probe_us(&work.0).map_err(text)?;
    let ctx = Ctx {
        seed: args.seed,
        scale: w.scale,
        dir: work.0.clone(),
    };

    let suffix = if args.trace { "_traced" } else { "" };
    let result = if args.trace {
        let (result, rec) = traced(w, &ctx, args.seconds, fsync_probe_us)?;
        let path = args.out.join(format!("trace_{}.jsonl", w.name));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(text)?);
        rec.write_jsonl(&mut file).map_err(text)?;
        std::io::Write::flush(&mut file).map_err(text)?;
        println!("trace: {} spans in {}", rec.spans().len(), path.display());
        result
    } else {
        match w.stage {
            StageKind::Import => untraced::<ImportStage>(&ctx, args.seconds),
            StageKind::Query => untraced::<QueryStage>(&ctx, args.seconds),
            StageKind::Cli => untraced::<CliStage>(&ctx, args.seconds),
            StageKind::Serve => untraced::<ServeStage>(&ctx, args.seconds),
        }?
    };
    let correct = result.checks.failed == 0
        && result.checks.attempted > 0
        && result.metrics.iter().all(|m| m.value.is_finite());

    print_report(w, args, &result);
    let host = host::describe(&work.0, fsync_probe_us);
    std::fs::write(
        args.out.join(format!("result_{}{suffix}.json", w.name)),
        format!("{}\n", result_file(w, args, &result, correct, host)),
    )
    .map_err(text)?;
    std::fs::write(
        args.out.join(format!("metrics_{}{suffix}.tsv", w.name)),
        metrics_tsv(w, &result),
    )
    .map_err(text)?;
    if args.samples {
        std::fs::write(
            args.out.join(format!("samples_{}{suffix}.tsv", w.name)),
            samples_tsv(&result),
        )
        .map_err(text)?;
    }

    // The contract's result: the last line of standard output.
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::Int(result.checks.attempted.max(1) as i64)
            ),
            ("failed", Json::Int(result.checks.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

fn print_report(w: &Workload, args: &Args, r: &RunResult) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}  input_digest {}\n  ({})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.input_digest,
        w.why
    );
    for m in &r.metrics {
        println!(
            "  {:<36} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!("  -- the stage's own names --");
    for m in &r.named {
        let s = m.summary;
        // A tail is only as good as the samples beyond it.
        let support = match m.percentile {
            Some(p) if stats::supported_percentile(s.samples).is_none_or(|ok| ok < p) => {
                format!(" (fewer than {} samples beyond p{p})", stats::MIN_BEYOND)
            }
            _ => String::new(),
        };
        println!(
            "  {:<36} {:>14.4} {:<8} median {:.4} q1 {:.4} q3 {:.4} of {} samples{support}",
            m.name, s.value, m.unit, s.median, s.q1, s.q3, s.samples
        );
    }
    println!(
        "reference kernel: median {:.4} ms over {} runs (nominal {} ms)",
        r.reference.median_ms(),
        r.reference.ticks().len(),
        r.reference.nominal_ms()
    );
    println!(
        "checks: {} attempted, {} failed",
        r.checks.attempted, r.checks.failed
    );
    for f in &r.checks.failures {
        println!("  FAILED {f}");
    }
}

fn result_file(w: &Workload, args: &Args, r: &RunResult, correct: bool, host: Json) -> Json {
    let summary = |s: &Summary| {
        vec![
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("samples", Json::Int(s.samples as i64)),
        ]
    };
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if let Some(s) = &m.summary {
                fields.extend(summary(s));
            }
            if !m.note.is_empty() {
                fields.push(("note", Json::str(m.note.clone())));
            }
            (m.name.to_string(), Json::obj(fields))
        })
        .collect();
    let named = r
        .named
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.summary.value)),
                ("unit", Json::str(m.unit)),
            ];
            fields.extend(summary(&m.summary));
            (m.name.to_string(), Json::obj(fields))
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        ("input_digest", Json::str(r.input_digest.clone())),
        ("host", host),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(r.checks.attempted as i64)),
        ("failed", Json::Int(r.checks.failed as i64)),
        (
            "failures",
            Json::Arr(r.checks.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", Json::Obj(metrics)),
        ("named", Json::Obj(named)),
        ("reference_kernel_ms", Json::Num(r.reference.median_ms())),
    ])
}

/// One line per metric for `aa.sh`: workload, metric, value, unit, better,
/// bound (empty for a per-layer metric).
fn metrics_tsv(w: &Workload, r: &RunResult) -> String {
    r.metrics
        .iter()
        .map(|m| {
            let bound = m.bound.map_or_else(String::new, |b| b.to_string());
            format!(
                "{}\t{}\t{}\t{}\t{}\t{bound}\n",
                w.name, m.name, m.value, m.unit, m.better
            )
        })
        .collect()
}

/// One line per latency sample (kind, seconds into the run, milliseconds as
/// measured) and per run of the reference kernel (kind `reference`), in the
/// order they were taken by kind: what the reported values were made from.
fn samples_tsv(r: &RunResult) -> String {
    let mut out = String::from("kind\tat_s\tms\n");
    for t in r.reference.ticks() {
        out.push_str(&format!("reference\t{:.6}\t{:.6}\n", t.at, t.ms));
    }
    for (kind, latencies) in &r.series {
        for s in latencies.samples() {
            out.push_str(&format!("{kind}\t{:.6}\t{:.6}\n", s.at, s.ms));
        }
    }
    out
}

/// Every workload, each in a child process of its own.
fn run_all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(text)?;
    let mut all_correct = true;
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for w in &WORKLOADS {
        for &trace in passes {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(args.samples.then_some("--samples"))
                .arg("--out")
                .arg(&args.out)
                .status()
                .map_err(text)?;
            all_correct &= status.success();
            println!();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => {
            let w = WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("no workload {name}"))?;
            run_workload(w, &args)
        }
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pbbench: {e}");
            ExitCode::from(2)
        }
    }
}
