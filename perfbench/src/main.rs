//! The repository's benchmark: batch and online workloads over the exact
//! MIPS engine, its sharded server and the HTTP front door, driven from
//! outside through public API only. See `perfbench/README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-flat --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set. The
//! lines before it are a human-readable report, and a run file with the
//! header, plan ledger, per-phase load counts and (traced) spans is written
//! under `perfbench/out/`.

mod batch;
mod layers;
mod online;
mod trace;
mod util;
mod wire;

use mips_bench::BenchMeta;
use mips_core::serve::{escape_json, JsonWriter};
use std::process::ExitCode;
use trace::{Sheet, Tracer};

/// End-to-end metrics gated by `BENCHMARK.json`: every workload reports
/// every one (see README for why wall-clock latency is not among them).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_users_per_s", "1/s"),
    ("exact_share", "share"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("client.p50_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.capacity_rps", "1/s"),
    ("client.vq_p99_ms", "ms"),
    ("process.peak_rss_mb", "MiB"),
    ("net.codec_us", "us"),
    ("net.loop_cpu_share", "share"),
    ("net.wire_p50_us", "us"),
    ("net.rejected_429", "count"),
    ("net.shed_503", "count"),
    ("net.timeouts", "count"),
    ("serve.latency_p50_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.mean_batch", "users"),
    ("serve.busy_share", "share"),
    ("serve.queue_us", "us"),
    ("serve.rejected", "count"),
    ("serve.users_per_cpu_s", "1/s"),
    ("engine.swap_s", "s"),
    ("engine.replan_stall_ms", "ms"),
    ("engine.planner_runs", "count"),
    ("optimus.decide_s.k1", "s"),
    ("optimus.decide_s.k10", "s"),
    ("optimus.decide_s.k50", "s"),
    ("optimus.sample_size", "users"),
    ("optimus.pred_error.k1", "ratio"),
    ("optimus.pred_error.k10", "ratio"),
    ("optimus.pred_error.k50", "ratio"),
    ("optimus.regret.k1", "ratio"),
    ("optimus.regret.k10", "ratio"),
    ("optimus.regret.k50", "ratio"),
    ("optimus.plan_keys.k1", "count"),
    ("optimus.plan_keys.k10", "count"),
    ("optimus.plan_keys.k50", "count"),
    ("bmm.build_s", "s"),
    ("maximus.build_s", "s"),
    ("lemp.build_s", "s"),
    ("fexipro-si.build_s", "s"),
    ("fexipro-sir.build_s", "s"),
    ("sparse.build_s", "s"),
    ("bmm.serve_s.k1", "s"),
    ("bmm.serve_s.k10", "s"),
    ("bmm.serve_s.k50", "s"),
    ("maximus.serve_s.k1", "s"),
    ("maximus.serve_s.k10", "s"),
    ("maximus.serve_s.k50", "s"),
    ("lemp.serve_s.k1", "s"),
    ("lemp.serve_s.k10", "s"),
    ("lemp.serve_s.k50", "s"),
    ("fexipro-si.serve_s.k1", "s"),
    ("fexipro-si.serve_s.k10", "s"),
    ("fexipro-si.serve_s.k50", "s"),
    ("fexipro-sir.serve_s.k1", "s"),
    ("fexipro-sir.serve_s.k10", "s"),
    ("fexipro-sir.serve_s.k50", "s"),
    ("sparse.serve_s.k1", "s"),
    ("sparse.serve_s.k10", "s"),
    ("sparse.serve_s.k50", "s"),
    ("screen.i8_survivor_share", "share"),
    ("screen.f32_survivor_share", "share"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.gemm_peak_gflops", "GFLOP/s"),
    ("linalg.gemm_bytes_per_call", "bytes"),
    ("linalg.dot_i8_gops", "GOP/s"),
    ("linalg.dot_i8_peak_gops", "GOP/s"),
    ("linalg.dot_i8_bytes_per_call", "bytes"),
    ("clustering.kmeans_s", "s"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("loadgen.failed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: &[&str] = &["batch-flat", "batch-skewed", "online-read", "online-churn"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of all, {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

/// One plan decision: a flip sits next to the number it moved.
pub struct LedgerEntry {
    pub epoch: u64,
    pub k: usize,
    pub key: String,
    pub precision: String,
    pub decision_s: f64,
    pub predicted_s: f64,
    /// Observed seconds to serve every user with the plan (batch: the
    /// serve-all call; online: users times the server's busy seconds per
    /// user served).
    pub observed_s: f64,
}

/// Everything a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Every metric the workload measured, end-to-end and per-layer.
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs checked against `check_user_topk`, and the first few
    /// wrong ones: any makes the run incorrect.
    pub checked: u64,
    pub violations: Vec<String>,
    /// The first few operations that failed (errors, non-200 answers,
    /// unanswered requests); counted in `failed`, not in correctness.
    pub failures: Vec<String>,
    pub ledger: Vec<LedgerEntry>,
    /// Run parameters beyond `BenchMeta` (rate, window, phase lengths...).
    pub header: Vec<(&'static str, String)>,
    /// Per-phase load counts, as JSON objects.
    pub phases: Vec<String>,
}

impl Outcome {
    pub fn violation(&mut self, message: String) {
        if self.violations.len() < 8 {
            self.violations.push(message);
        }
    }

    pub fn failure(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

fn render_run_file(args: &Args, meta: &BenchMeta, outcome: &Outcome, tracer: &Tracer) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("bench", &meta.bench);
    w.field_str("workload", &args.workload);
    w.field_u64("seed", args.seed);
    w.field_f64_shortest("seconds", args.seconds);
    w.field_bool("trace", args.trace);
    w.field_f64_shortest("scale", meta.scale);
    w.field_str("kernel", &meta.kernel);
    w.field_str("git_sha", &meta.git_sha);
    w.field_u64("host_threads", meta.host_threads as u64);
    for (key, value) in &outcome.header {
        w.field_str(key, value);
    }
    w.field_u64("attempted", outcome.attempted);
    w.field_u64("failed", outcome.failed);
    w.field_u64("checked", outcome.checked);
    for (key, list) in [
        ("violations", &outcome.violations),
        ("failures", &outcome.failures),
    ] {
        let items: Vec<String> = list
            .iter()
            .map(|v| format!("\"{}\"", escape_json(v)))
            .collect();
        w.field_raw(key, &format!("[{}]", items.join(",")));
    }
    w.begin_arr_field("ledger");
    for e in &outcome.ledger {
        w.begin_obj();
        w.field_u64("epoch", e.epoch);
        w.field_u64("k", e.k as u64);
        w.field_str("plan", &e.key);
        w.field_str("precision", &e.precision);
        w.field_f64_shortest("decision_s", e.decision_s);
        w.field_f64_shortest("predicted_s", e.predicted_s);
        w.field_f64_shortest("observed_s", e.observed_s);
        w.end_obj();
    }
    w.end_arr();
    w.field_raw("phases", &format!("[{}]", outcome.phases.join(",")));
    w.begin_obj_field("metrics");
    outcome.sheet.write_json(&mut w);
    w.end_obj();
    w.field_u64("spans", tracer.len() as u64);
    w.end_obj();
    w.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <all|{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut tracer = Tracer::new(args.trace);
    // `BenchMeta::collect` asks git for the sha; outside a git checkout the
    // benchmark reads nothing beyond its own directory, so the sha is
    // "unknown" there.
    let mut meta = if std::path::Path::new(".git").exists() {
        BenchMeta::collect("perfbench")
    } else {
        BenchMeta {
            bench: "perfbench".to_string(),
            scale: 1.0,
            kernel: mips_bench::kernel_name().to_string(),
            git_sha: "unknown".to_string(),
            host_threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    };
    let mut outcome = match args.workload.as_str() {
        "batch-flat" => batch::run(&util::NETFLIX_BPR, batch::SCALE, &args, &mut tracer),
        "batch-skewed" => batch::run(&util::R2_NOMAD, batch::SCALE, &args, &mut tracer),
        "online-read" => online::run(false, &args, &mut tracer),
        _ => online::run(true, &args, &mut tracer),
    };
    meta.scale = outcome
        .header
        .iter()
        .find(|(k, _)| *k == "model_scale")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(meta.scale);
    if outcome.sheet.get("process.peak_rss_mb").is_none() {
        outcome
            .sheet
            .set("process.peak_rss_mb", util::peak_rss_mb(), "MiB");
    }
    outcome
        .sheet
        .set("trace.spans", tracer.len() as f64, "count");
    let exact = outcome.attempted.saturating_sub(outcome.failed) as f64;
    outcome.sheet.set(
        "exact_share",
        exact / outcome.attempted.max(1) as f64,
        "share",
    );

    // Human-readable report: every measured metric by name with its unit.
    println!(
        "perfbench {} seed={} seconds={} trace={} kernel={} sha={} host_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        meta.kernel,
        meta.git_sha,
        meta.host_threads
    );
    for (key, value) in &outcome.header {
        println!("  {key} = {value}");
    }
    for e in &outcome.ledger {
        println!(
            "  plan epoch={} k={} {} ({}) decide={:.4}s predicted={:.4}s observed={:.4}s",
            e.epoch, e.k, e.key, e.precision, e.decision_s, e.predicted_s, e.observed_s
        );
    }
    for (name, (value, unit)) in outcome.sheet.iter() {
        println!("  {name} = {value:.6} {unit}");
    }
    println!(
        "  failed_share = {:.6} share ({} of {} attempted; {} outputs checked)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted,
        outcome.checked
    );
    for v in &outcome.violations {
        println!("  INEXACT: {v}");
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{stem}.json")),
            render_run_file(&args, &meta, &outcome, &tracer),
        )?;
        if args.trace {
            tracer.write(&out_dir.join(format!("{stem}.spans")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing the run file: {e}");
    }

    let names = if args.trace { LAYERS } else { E2E };
    let reported = outcome.sheet.select(names);
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_bool("correct", outcome.violations.is_empty());
    w.field_u64("attempted", outcome.attempted.max(1));
    w.field_u64("failed", outcome.failed);
    w.begin_obj_field("metrics");
    reported.write_json(&mut w);
    w.end_obj();
    w.end_obj();
    println!("{}", w.finish().replace('\n', " "));
    ExitCode::SUCCESS
}

/// `--workload all`: runs every workload in a process of its own (so each
/// reports its own peak RSS), passes its report through, and ends with a
/// summary of every metric by workload. Fails if any run fails or is
/// incorrect.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut summary = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perfbench: running {workload}: {e}");
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("").to_string();
        ok &= output.status.success() && last.starts_with("{\"correct\":true");
        summary.push((workload, last));
    }
    println!("summary (seed {}, {} s per run):", args.seed, args.seconds);
    for (workload, last) in &summary {
        println!("  {workload}: {last}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
