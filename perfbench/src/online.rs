//! Online workloads: single-user top-10 `POST /query` traffic over
//! loopback HTTP from one open-loop generator thread.
//!
//! A run is `EPOCHS` epochs. Each epoch installs the model as a fresh
//! epoch, starts a `MipsServer` and its `mips-net` front door, and waits
//! for the first answer (set-up); then runs an open-loop phase at the
//! fixed `OFFERED_RPS`, a closed-loop phase with `WINDOW` requests in
//! flight (capacity), and shuts the server down. `online-churn` adds a
//! `POST /admin/swap` every `SWAP_EVERY` seconds of open-loop time and
//! sends `VQ_SHARE` of its requests as `POST /vector-query`; `online-read`
//! times vector queries in a sequential probe after each epoch instead.

use crate::batch::{check, check_vectors};
use crate::layers::{layer_sheets, predicted_seconds, set_screen_shares};
use crate::trace::{SpanId, Tracer, NONE};
use crate::util::{
    median, peak_rss_mb, perturbed_row, quantile, reset_peak_rss, sub_seed, thread_cpu_seconds,
    Rng, Zipf, NETFLIX_DSGD,
};
use crate::wire::{epoch_of, tighten_timer_slack, wait_readable, Conn, Response};
use crate::{Args, LedgerEntry, Outcome};
use mips_core::engine::{Engine, EngineBuilder, QueryRequest, QueryResponse};
use mips_core::precision::Precision;
use mips_core::serve::{MipsServer, ServerBuilder, ServerMetrics};
use mips_data::MfModel;
use mips_net::{HttpServer, HttpServerBuilder, NetMetrics};
use mips_topk::TopKList;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Catalog scale of the online stand-in (the catalog's base shape).
const SCALE: usize = 1;
/// Model epochs per run; each is one set-up sample and one pair of phases.
const EPOCHS: usize = 5;
/// The fixed offered rate of the open-loop phases. About half the
/// closed-loop capacity (6-8k req/s) kept the single worker ~75% busy and
/// split `client.p50_ms` across seeds into two modes; at this rate it is ~55%
/// busy (2-vCPU host).
pub const OFFERED_RPS: f64 = 4000.0;
/// Requests in flight on the one connection of the closed-loop phase.
const WINDOW: usize = 32;
/// Most open-loop requests on the wire at once on one connection: the
/// `mips-net` front door's pipeline depth. A request due while this many
/// are unanswered waits in the generator and is still timed from its due
/// time, so a server stall shows in the latency. Past this depth the front
/// door leaves already-received requests unparsed until more bytes arrive,
/// and requests sent just before the client goes quiet are never answered.
const PIPELINE_DEPTH: usize = 64;
/// Share of each epoch's measured time in the closed-loop capacity phase,
/// and (online-read) in the sequential vector-query probe; the open-loop
/// phase gets the rest.
const CLOSED_SHARE: f64 = 0.25;
const PROBE_SHARE: f64 = 0.15;
/// `client.p99_ms` is the median over open-loop windows of this length of each
/// window's p99: at the offered rate every window holds well over 1,000
/// answers, and a scheduler stall of the 2-core host moves one window, not
/// the run.
const P99_WINDOW: Duration = Duration::from_millis(500);
/// Open-loop seconds between `POST /admin/swap` calls (online-churn); the
/// first falls `SWAP_OFFSET` seconds into the first phase.
const SWAP_EVERY: f64 = 5.0;
const SWAP_OFFSET: f64 = 1.0;
/// Share of online-churn requests that are `POST /vector-query`.
const VQ_SHARE: f64 = 0.02;
/// One in this many `/query` answers is decoded and checked for exactness.
const CHECK_EVERY: u64 = 64;
/// How long a phase waits for its last answers before counting them lost.
const DRAIN: Duration = Duration::from_secs(3);
/// Traced runs toggle span recording in slices of this length, so traced
/// and untraced requests share a phase, a plan and a load level.
const TRACE_SLICE: Duration = Duration::from_millis(100);

enum Kind {
    Query(usize),
    Vector(usize),
}

struct Pending {
    id: u64,
    due: Instant,
    kind: Kind,
    traced: bool,
    /// The run-wide `P99_WINDOW` index of the due time (open loop only).
    window: usize,
}

/// Per-phase load counts.
#[derive(Default)]
struct Load {
    sent: u64,
    answered: u64,
    /// `/query` and `/vector-query` answers with status 200.
    served: u64,
    /// From the phase start to its last answer.
    seconds: f64,
    failed: u64,
    late_us: Vec<f64>,
}

impl Load {
    fn json(&self, epoch: usize, phase: &str) -> String {
        format!(
            "{{\"epoch\":{epoch},\"phase\":\"{phase}\",\"sent\":{},\"answered\":{},\"failed\":{},\"late_p99_us\":{},\"late_max_us\":{}}}",
            self.sent,
            self.answered,
            self.failed,
            quantile(&self.late_us, 0.99),
            self.late_us.iter().copied().fold(0.0, f64::max)
        )
    }
}

/// Everything the phases of one run accumulate.
#[derive(Default)]
struct Acc {
    query_us: Vec<f64>,
    /// Open-loop `/query` latencies per `P99_WINDOW`.
    windows: Vec<Vec<f64>>,
    vq_us: Vec<f64>,
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    late_us: Vec<f64>,
    sent: u64,
    answered: u64,
    failed: u64,
    query_checks: Vec<(usize, String)>,
    vq_checks: Vec<(usize, String)>,
    swap_stall_ms: Vec<f64>,
    request_bytes: Vec<String>,
    decide: Vec<f64>,
    sample_sizes: Vec<f64>,
    plan_keys: BTreeSet<String>,
}

struct Ctx<'a> {
    churn: bool,
    model: &'a Arc<MfModel>,
    engine: &'a Arc<Engine>,
    permutation: &'a [usize],
    zipf: &'a Zipf,
    vectors: &'a mut Vec<Vec<f64>>,
    rng: &'a mut Rng,
    out: &'a mut Outcome,
    acc: &'a mut Acc,
    tracer: &'a mut Tracer,
    /// Open-loop seconds run so far (the swap clock).
    open_clock: f64,
    next_swap: f64,
}

fn query_body(user: usize) -> String {
    format!("{{\"k\":10,\"users\":[{user}]}}")
}

fn vector_body(vector: &[f64]) -> String {
    let items: Vec<String> = vector.iter().map(|x| format!("{x}")).collect();
    format!("{{\"k\":10,\"vector\":[{}]}}", items.join(","))
}

pub fn run(churn: bool, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    tighten_timer_slack();
    let model = NETFLIX_DSGD.model(SCALE, args.seed);
    // The swap source alternates two same-seed builds: identical factors,
    // distinct allocations, as a registry reloading one retrain would give.
    let twin = NETFLIX_DSGD.model(SCALE, args.seed);
    let epoch_seconds = args.seconds / EPOCHS as f64;
    let closed_seconds = epoch_seconds * CLOSED_SHARE;
    let probe_seconds = if churn {
        0.0
    } else {
        epoch_seconds * PROBE_SHARE
    };
    let open_seconds = epoch_seconds - closed_seconds - probe_seconds;
    for (key, value) in [
        ("model", NETFLIX_DSGD.name.to_string()),
        ("model_scale", SCALE.to_string()),
        (
            "shape",
            format!(
                "{}x{}x{}",
                model.num_users(),
                model.num_items(),
                model.num_factors()
            ),
        ),
        (
            "engine",
            "default backends, Precision::Auto, threads 1".into(),
        ),
        (
            "server",
            "1 worker, 1 shard, batching on, adaptive flush".into(),
        ),
        ("users", "Zipf(1.0) over a seeded permutation".into()),
        ("offered_rps", OFFERED_RPS.to_string()),
        ("window", WINDOW.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("open_phase_s", format!("{open_seconds:.3}")),
        ("closed_phase_s", format!("{closed_seconds:.3}")),
        ("vq_probe_s", format!("{probe_seconds:.3}")),
        ("p99_window_s", P99_WINDOW.as_secs_f64().to_string()),
        (
            "swap_every_s",
            if churn {
                SWAP_EVERY.to_string()
            } else {
                "none".into()
            },
        ),
        (
            "vq_share",
            if churn {
                VQ_SHARE.to_string()
            } else {
                "0 (sequential probe)".into()
            },
        ),
    ] {
        out.header.push((key, value));
    }

    let mut rng = Rng::new(sub_seed(args.seed, "online-requests"));
    let permutation = rng.permutation(model.num_users());
    let zipf = Zipf::new(model.num_users(), 1.0);
    let mut vectors = Vec::new();
    let mut acc = Acc::default();
    let mut engine: Option<Arc<Engine>> = None;
    let mut setup = Vec::new();
    let mut swap_s = Vec::new();
    let mut capacity = Vec::new();
    let mut wire_us = Vec::new();
    let mut serve_p50 = Vec::new();
    let mut serve_p99 = Vec::new();
    let mut mean_batch = Vec::new();
    let mut busy_share = Vec::new();
    let mut queue_us = Vec::new();
    let mut goodput = Vec::new();
    let mut users_per_cpu = Vec::new();
    let mut loop_cpu_share = Vec::new();
    let mut vq_epoch_p99 = Vec::new();
    let mut rejected = 0u64;
    let mut net_totals = NetMetrics::default();
    let mut screened = [(0u64, 0u64); 2];
    let mut next_swap = SWAP_OFFSET;
    let mut open_clock = 0.0;

    let mut epoch_rss = Vec::new();
    let mut rss_resets = true;
    for epoch in 0..EPOCHS {
        rss_resets &= reset_peak_rss();
        let span = tracer.begin("epoch", NONE);
        let t0 = Instant::now();
        let current = match &engine {
            None => {
                let built = tracer.time("engine.build", span, || {
                    EngineBuilder::new()
                        .model(Arc::clone(&model))
                        .with_default_backends()
                        .precision(Precision::Auto)
                        .threads(1)
                        .build()
                });
                match built {
                    Ok(e) => Arc::new(e),
                    Err(e) => {
                        out.failure(format!("engine build failed: {e}"));
                        out.attempted += 1;
                        out.failed += 1;
                        return out;
                    }
                }
            }
            Some(e) => {
                let t = Instant::now();
                out.attempted += 1;
                if let Err(err) =
                    tracer.time("engine.swap", span, || e.swap_model(Arc::clone(&model)))
                {
                    out.failed += 1;
                    out.failure(format!("swap failed: {err}"));
                }
                swap_s.push(t.elapsed().as_secs_f64());
                Arc::clone(e)
            }
        };
        engine = Some(Arc::clone(&current));
        let started = tracer.time("serve.start", span, || {
            start_server(&current, &model, &twin)
        });
        let (server, http) = match started {
            Ok(pair) => pair,
            Err(e) => {
                out.failure(format!("server start failed: {e}"));
                out.attempted += 1;
                out.failed += 1;
                return out;
            }
        };
        let server_started = Instant::now();
        let mut conn = match Conn::connect(http.local_addr()) {
            Ok(c) => c,
            Err(e) => {
                out.failure(format!("connect failed: {e}"));
                out.attempted += 1;
                out.failed += 1;
                return out;
            }
        };
        let first = tracer.time("first_answer", span, || {
            round_trip(&mut conn, "/query", &query_body(permutation[0]))
        });
        out.attempted += 1;
        match first {
            Some(r) if r.status == 200 => setup.push(t0.elapsed().as_secs_f64()),
            other => {
                out.failed += 1;
                out.failure(format!(
                    "first answer of epoch {epoch} failed: {:?}",
                    other.map(|r| (r.status, r.body))
                ));
                continue;
            }
        }
        let ledger_start = out.ledger.len();
        record_plan(&current, &mut out, &mut acc);

        let mut ctx = Ctx {
            churn,
            model: &model,
            engine: &current,
            permutation: &permutation,
            zipf: &zipf,
            vectors: &mut vectors,
            rng: &mut rng,
            out: &mut out,
            acc: &mut acc,
            tracer,
            open_clock,
            next_swap,
        };
        let swap_addr = http.local_addr();
        let first_sample = ctx.acc.query_us.len();
        let load = open_loop(&mut ctx, &mut conn, swap_addr, open_seconds, span);
        open_clock = ctx.open_clock;
        next_swap = ctx.next_swap;
        ctx.out.phases.push(load.json(epoch, "open"));
        goodput.push(load.served as f64 / load.seconds);
        let after_open = server.metrics();
        let client_p50 = quantile(&ctx.acc.query_us[first_sample..], 0.5);
        wire_us.push(client_p50 - after_open.latency.p50_us);
        serve_p50.push(after_open.latency.p50_us);
        serve_p99.push(after_open.latency.p99_us);

        // Serving cost per user at saturation: the closed loop keeps the
        // batcher's batches full.
        let worker_cpu = thread_cpu_seconds("mips-serve-");
        let (rps, load) = closed_loop(&mut ctx, &mut conn, closed_seconds, span);
        let worker_cpu = thread_cpu_seconds("mips-serve-") - worker_cpu;
        users_per_cpu.push(load.answered as f64 / worker_cpu);
        capacity.push(rps);
        let closed = load.json(epoch, "closed");
        ctx.out.phases.push(format!(
            "{},\"capacity_rps\":{rps}}}",
            &closed[..closed.len() - 1]
        ));
        if !churn {
            let first = ctx.acc.vq_us.len();
            vector_probe(&mut ctx, &mut conn, probe_seconds, span);
            vq_epoch_p99.push(quantile(&ctx.acc.vq_us[first..], 0.99));
        }

        let metrics = server.metrics();
        let wall = server_started.elapsed().as_secs_f64();
        let busy: f64 = metrics.shards.iter().map(|s| s.busy_seconds).sum();
        let users: u64 = metrics.shards.iter().map(|s| s.users_served).sum();
        loop_cpu_share.push(thread_cpu_seconds("mips-net") / wall);
        // The epochs this server served: observed seconds to serve every
        // user at the shard's busy rate.
        for entry in &mut out.ledger[ledger_start..] {
            entry.observed_s = model.num_users() as f64 * busy / users.max(1) as f64;
        }
        busy_share.push(busy / wall);
        mean_batch.push(metrics.mean_batch_size());
        let batches = metrics.batches().max(1) as f64;
        queue_us.push(metrics.latency.mean_us - busy / batches * 1e6);
        rejected += metrics.rejected;
        add_screen(&metrics, &mut screened);
        let net = http.metrics();
        net_totals.rejected_overload += net.rejected_overload;
        net_totals.shed += net.shed;
        net_totals.timeouts += net.timeouts;
        drop(conn);
        if let Err(e) = tracer.time("serve.shutdown", span, || http.shutdown()) {
            out.failure(format!("front door shutdown failed: {e}"));
        }
        match Arc::try_unwrap(server) {
            Ok(server) => {
                if let Err(e) = server.shutdown() {
                    out.failure(format!("server shutdown failed: {e}"));
                }
            }
            Err(_) => out.failure("server still shared after front-door shutdown".into()),
        }
        tracer.end(span);
        epoch_rss.push(peak_rss_mb());
    }

    // Exactness of the sampled answers, outside every measured window.
    let span = tracer.begin("verify", NONE);
    verify(&mut out, &model, &vectors, &acc);
    tracer.end(span);

    out.attempted += acc.sent;
    out.failed += acc.failed;
    let s = &mut out.sheet;
    s.set("setup_s", median(&setup), "s");
    s.set("process.peak_rss_mb", median(&epoch_rss), "MiB");
    s.set("batch_users_per_s", median(&goodput), "1/s");
    s.set("serve.users_per_cpu_s", median(&users_per_cpu), "1/s");
    s.set("net.loop_cpu_share", median(&loop_cpu_share), "share");
    s.set("client.p50_ms", quantile(&acc.query_us, 0.5) / 1e3, "ms");
    let window_p99: Vec<f64> = acc
        .windows
        .iter()
        .filter(|w| w.len() >= 1000)
        .map(|w| quantile(w, 0.99))
        .collect();
    s.set("client.p99_ms", median(&window_p99) / 1e3, "ms");
    s.set("client.capacity_rps", median(&capacity), "1/s");
    // online-read: median over epochs of each probe's p99; online-churn:
    // over the run, where vector queries queue behind each re-plan stall.
    let vq_p99 = if churn {
        quantile(&acc.vq_us, 0.99)
    } else {
        median(&vq_epoch_p99)
    };
    s.set("client.vq_p99_ms", vq_p99 / 1e3, "ms");
    s.set("net.wire_p50_us", median(&wire_us), "us");
    s.set(
        "net.rejected_429",
        net_totals.rejected_overload as f64,
        "count",
    );
    s.set("net.shed_503", net_totals.shed as f64, "count");
    s.set("net.timeouts", net_totals.timeouts as f64, "count");
    s.set("serve.latency_p50_us", median(&serve_p50), "us");
    s.set("serve.latency_p99_us", median(&serve_p99), "us");
    s.set("serve.mean_batch", median(&mean_batch), "users");
    s.set("serve.busy_share", median(&busy_share), "share");
    s.set("serve.queue_us", median(&queue_us), "us");
    s.set("serve.rejected", rejected as f64, "count");
    s.set("engine.swap_s", median(&swap_s), "s");
    s.set("engine.replan_stall_ms", median(&acc.swap_stall_ms), "ms");
    s.set("optimus.decide_s.k10", median(&acc.decide), "s");
    s.set("optimus.sample_size", median(&acc.sample_sizes), "users");
    s.set("optimus.plan_keys.k10", acc.plan_keys.len() as f64, "count");
    set_screen_shares(s, screened);
    s.set("loadgen.late_p99_us", quantile(&acc.late_us, 0.99), "us");
    s.set(
        "loadgen.late_max_us",
        acc.late_us.iter().copied().fold(0.0, f64::max),
        "us",
    );
    s.set("loadgen.sent", acc.sent as f64, "count");
    s.set("loadgen.answered", acc.answered as f64, "count");
    s.set("loadgen.failed", acc.failed as f64, "count");
    out.header.push((
        "peak_rss",
        if rss_resets {
            "median over epochs of each epoch's VmHWM"
        } else {
            "process VmHWM"
        }
        .to_string(),
    ));
    out.header.push((
        "latency_samples",
        format!(
            "query {} in {} p99 windows / vq {}",
            acc.query_us.len(),
            window_p99.len(),
            acc.vq_us.len()
        ),
    ));

    if let Some(engine) = engine {
        out.sheet
            .set("engine.planner_runs", engine.planner_runs() as f64, "count");
        if tracer.on() {
            let root = tracer.begin("layer_sheets", NONE);
            codec_sheet(&engine, &acc, &mut out, tracer, root);
            let overhead = (
                std::mem::take(&mut acc.traced_us),
                std::mem::take(&mut acc.untraced_us),
            );
            layer_sheets(&engine, &[], &overhead, args.seed, &mut out, tracer, root);
            tracer.end(root);
        }
    }
    out
}

fn start_server(
    engine: &Arc<Engine>,
    model: &Arc<MfModel>,
    twin: &Arc<MfModel>,
) -> Result<(Arc<MipsServer>, HttpServer), mips_core::engine::MipsError> {
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(engine))
            .shards(1)
            .workers(1)
            .batching(true)
            .build()?,
    );
    let sources = [Arc::clone(twin), Arc::clone(model)];
    let turn = AtomicU64::new(0);
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .swap_source(move || {
            let i = turn.fetch_add(1, Ordering::Relaxed) as usize % 2;
            Ok(Arc::clone(&sources[i]))
        })
        .build()?;
    Ok((server, http))
}

/// Sends one request and spins until its answer arrives (30 s cap).
fn round_trip(conn: &mut Conn, path: &str, body: &str) -> Option<Response> {
    conn.queue("POST", path, body);
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        conn.flush().ok()?;
        conn.fill().ok()?;
        if let Some(r) = conn.next_response().ok()? {
            return Some(r);
        }
        wait_readable(&[conn], Duration::from_millis(1));
    }
    None
}

/// Adds the current epoch's k=10 plan (already built by the serve path) to
/// the ledger.
fn record_plan(engine: &Engine, out: &mut Outcome, acc: &mut Acc) {
    let Ok(plan) = engine.prepare(10) else {
        out.failure("prepare(10) failed".into());
        return;
    };
    acc.decide.push(plan.decision_seconds());
    acc.sample_sizes.push(plan.sample_size() as f64);
    acc.plan_keys.insert(plan.backend_key().to_string());
    out.ledger.push(LedgerEntry {
        epoch: plan.epoch(),
        k: 10,
        key: plan.backend_key().to_string(),
        precision: plan.precision().as_str().to_string(),
        decision_s: plan.decision_seconds(),
        predicted_s: predicted_seconds(&plan),
        observed_s: 0.0,
    });
}

fn add_screen(metrics: &ServerMetrics, screened: &mut [(u64, u64); 2]) {
    let (c, s) = metrics.screen_i8();
    screened[0].0 += c;
    screened[0].1 += s;
    let (c, s) = metrics.screen_f32();
    screened[1].0 += c;
    screened[1].1 += s;
}

/// Handles one answer off connection A; returns false for a non-200.
fn settle(ctx: &mut Ctx, p: Pending, r: Response, now: Instant, phase: SpanId) -> bool {
    let us = now.saturating_duration_since(p.due).as_secs_f64() * 1e6;
    let ok = r.status == 200;
    match p.kind {
        Kind::Query(user) => {
            // A traced run records spans only in its traced slices.
            if p.traced {
                ctx.tracer.record("http.query", phase, p.id, p.due, now);
            }
            ctx.acc.query_us.push(us);
            if let Some(w) = ctx.acc.windows.get_mut(p.window) {
                w.push(us);
            }
            if ctx.tracer.on() {
                if p.traced {
                    ctx.acc.traced_us.push(us);
                } else {
                    ctx.acc.untraced_us.push(us);
                }
            }
            if ok && p.id.is_multiple_of(CHECK_EVERY) {
                ctx.acc.query_checks.push((user, r.body));
            }
        }
        Kind::Vector(idx) => {
            ctx.tracer
                .record("http.vector_query", phase, p.id, p.due, now);
            ctx.acc.vq_us.push(us);
            if ok && idx % 4 == 0 {
                ctx.acc.vq_checks.push((idx, r.body));
            }
        }
    }
    ok
}

/// The open-loop phase: requests fall due on a fixed schedule whether or
/// not earlier ones were answered, leave as soon as the connection has
/// `PIPELINE_DEPTH` room, and each is timed from its due time.
fn open_loop(
    ctx: &mut Ctx,
    conn: &mut Conn,
    swap_addr: std::net::SocketAddr,
    seconds: f64,
    parent: SpanId,
) -> Load {
    let phase = ctx.tracer.begin("phase.open", parent);
    let traced_run = ctx.tracer.on();
    let n = (OFFERED_RPS * seconds).round() as u64;
    let gap = Duration::from_secs_f64(1.0 / OFFERED_RPS);
    let mut load = Load::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    // Due but not yet written: waits for `PIPELINE_DEPTH` room.
    let mut backlog: VecDeque<Pending> = VecDeque::new();
    let mut swap_conn: Option<Conn> = None;
    let mut swap_sent: Option<Instant> = None;
    let mut awaiting_epoch: Option<(u64, Instant)> = None;
    let mut next_id = ctx.acc.sent;
    let start = Instant::now() + Duration::from_millis(1);
    let first_window = ctx.acc.windows.len();
    let windows = (seconds / P99_WINDOW.as_secs_f64()).ceil() as usize;
    ctx.acc.windows.extend((0..windows).map(|_| Vec::new()));
    let mut i = 0u64;
    let mut last_due = start;
    loop {
        let now = Instant::now();
        let mut progress = false;
        while i < n {
            let due = start + gap * i as u32;
            if due > now {
                break;
            }
            let traced = traced_run
                && (due.saturating_duration_since(start).as_nanos() / TRACE_SLICE.as_nanos())
                    .is_multiple_of(2);
            let kind = if ctx.churn && ctx.rng.unit() < VQ_SHARE {
                let user = ctx.permutation[ctx.zipf.rank(ctx.rng)];
                ctx.vectors.push(perturbed_row(ctx.model, user, ctx.rng));
                Kind::Vector(ctx.vectors.len() - 1)
            } else {
                let user = ctx.permutation[ctx.zipf.rank(ctx.rng)];
                if traced_run && ctx.acc.request_bytes.len() < 4096 {
                    ctx.acc.request_bytes.push(query_body(user));
                }
                Kind::Query(user)
            };
            load.late_us
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            let window = first_window
                + (due.saturating_duration_since(start).as_nanos() / P99_WINDOW.as_nanos())
                    as usize;
            backlog.push_back(Pending {
                id: next_id,
                due,
                kind,
                traced,
                window,
            });
            next_id += 1;
            load.sent += 1;
            last_due = due;
            i += 1;
            progress = true;
        }
        while inflight.len() < PIPELINE_DEPTH {
            let Some(p) = backlog.pop_front() else {
                break;
            };
            match p.kind {
                Kind::Query(user) => conn.queue("POST", "/query", &query_body(user)),
                Kind::Vector(idx) => {
                    conn.queue("POST", "/vector-query", &vector_body(&ctx.vectors[idx]))
                }
            }
            inflight.push_back(p);
        }
        let elapsed = now.saturating_duration_since(start).as_secs_f64();
        if ctx.churn && swap_sent.is_none() && ctx.open_clock + elapsed >= ctx.next_swap {
            ctx.next_swap += SWAP_EVERY;
            load.sent += 1;
            if swap_conn.is_none() {
                match Conn::connect(swap_addr) {
                    Ok(c) => swap_conn = Some(c),
                    Err(e) => {
                        load.failed += 1;
                        ctx.out.failure(format!("swap connection failed: {e}"));
                    }
                }
            }
            if let Some(c) = swap_conn.as_mut() {
                c.queue("POST", "/admin/swap", "");
                swap_sent = Some(now);
            }
        }
        if let Err(e) = conn.flush() {
            lose(ctx, conn, &mut inflight, &mut load, &e.to_string());
        }
        match conn.fill() {
            Ok(got) => progress |= got,
            Err(e) => lose(ctx, conn, &mut inflight, &mut load, &e.to_string()),
        }
        let recv = Instant::now();
        loop {
            match conn.next_response() {
                Ok(Some(r)) => {
                    let Some(p) = inflight.pop_front() else {
                        ctx.out.violation("answer with no request in flight".into());
                        break;
                    };
                    if let (Some((epoch, since)), Kind::Query(_)) = (awaiting_epoch, &p.kind) {
                        if epoch_of(&r.body).is_some_and(|e| e >= epoch) {
                            ctx.acc
                                .swap_stall_ms
                                .push(recv.saturating_duration_since(since).as_secs_f64() * 1e3);
                            awaiting_epoch = None;
                            // The serve path has planned the new epoch; the
                            // ledger reads that cached plan.
                            if ctx.engine.epoch() == epoch {
                                record_plan(ctx.engine, ctx.out, ctx.acc);
                            }
                        }
                    }
                    if settle(ctx, p, r, recv, phase) {
                        load.answered += 1;
                        load.served += 1;
                        load.seconds = recv.saturating_duration_since(start).as_secs_f64();
                    } else {
                        load.failed += 1;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    lose(ctx, conn, &mut inflight, &mut load, &e.to_string());
                    break;
                }
            }
        }
        if let (Some(c), Some(sent)) = (swap_conn.as_mut(), swap_sent) {
            match c
                .flush()
                .and_then(|()| c.fill())
                .and_then(|_| c.next_response())
            {
                Ok(Some(r)) => {
                    ctx.tracer.record("http.admin_swap", phase, 0, sent, recv);
                    match (r.status, epoch_of(&r.body)) {
                        (200, Some(epoch)) => {
                            load.answered += 1;
                            awaiting_epoch = Some((epoch, sent));
                        }
                        _ => {
                            load.failed += 1;
                            ctx.out
                                .failure(format!("swap answered {}: {}", r.status, r.body));
                        }
                    }
                    swap_sent = None;
                }
                Ok(None) => {}
                Err(e) => {
                    load.failed += 1;
                    ctx.out.failure(format!("swap connection lost: {e}"));
                    swap_conn = None;
                    swap_sent = None;
                }
            }
        }
        if i >= n && inflight.is_empty() && backlog.is_empty() && swap_sent.is_none() {
            break;
        }
        if i >= n && now > last_due + DRAIN {
            // Unanswered: count them and drop the connection, so a late
            // answer cannot be paired with a later request.
            let unanswered = inflight.len() + backlog.len();
            load.failed += unanswered as u64 + swap_sent.is_some() as u64;
            ctx.out.failure(format!(
                "{unanswered} requests unanswered {DRAIN:?} after the open-loop phase"
            ));
            if let Err(e) = conn.reconnect() {
                ctx.out.failure(format!("reconnect failed: {e}"));
            }
            break;
        }
        if !progress {
            // Nothing arrived and nothing was due: wait for an answer or
            // the next due time, whichever comes first.
            let until = if i < n {
                start + gap * i as u32
            } else {
                Instant::now() + Duration::from_millis(1)
            };
            let idle = until.saturating_duration_since(Instant::now());
            if !idle.is_zero() {
                match swap_conn.as_ref() {
                    Some(c) if swap_sent.is_some() => wait_readable(&[conn, c], idle),
                    _ => wait_readable(&[conn], idle),
                }
            }
        }
    }
    ctx.open_clock += seconds;
    ctx.acc.sent += load.sent;
    ctx.acc.answered += load.answered;
    ctx.acc.failed += load.failed;
    ctx.acc.late_us.extend_from_slice(&load.late_us);
    ctx.tracer.end(phase);
    load
}

/// A lost connection: every request in flight on it is unanswered.
fn lose(
    ctx: &mut Ctx,
    conn: &mut Conn,
    inflight: &mut VecDeque<Pending>,
    load: &mut Load,
    why: &str,
) {
    load.failed += inflight.len() as u64;
    ctx.out.failure(format!(
        "connection lost with {} requests in flight: {why}",
        inflight.len()
    ));
    inflight.clear();
    if let Err(e) = conn.reconnect() {
        ctx.out.failure(format!("reconnect failed: {e}"));
    }
}

/// The closed-loop phase: `WINDOW` requests stay in flight on the one
/// connection; capacity is answers per second.
fn closed_loop(ctx: &mut Ctx, conn: &mut Conn, seconds: f64, parent: SpanId) -> (f64, Load) {
    let phase = ctx.tracer.begin("phase.closed", parent);
    let mut load = Load::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut answered_in_window = 0u64;
    let mut last_answer = start;
    let mut next_id = ctx.acc.sent;
    loop {
        let now = Instant::now();
        while now < end && inflight.len() < WINDOW {
            let user = ctx.permutation[ctx.zipf.rank(ctx.rng)];
            conn.queue("POST", "/query", &query_body(user));
            inflight.push_back(Pending {
                id: next_id,
                due: now,
                kind: Kind::Query(user),
                traced: false,
                window: usize::MAX,
            });
            next_id += 1;
            load.sent += 1;
        }
        if let Err(e) = conn.flush() {
            lose(ctx, conn, &mut inflight, &mut load, &e.to_string());
        }
        if let Err(e) = conn.fill() {
            lose(ctx, conn, &mut inflight, &mut load, &e.to_string());
        }
        let recv = Instant::now();
        loop {
            match conn.next_response() {
                Ok(Some(r)) => {
                    let Some(p) = inflight.pop_front() else {
                        break;
                    };
                    let user = match p.kind {
                        Kind::Query(u) => u,
                        Kind::Vector(_) => unreachable!("closed loop sends queries only"),
                    };
                    if r.status == 200 {
                        load.answered += 1;
                        if recv <= end {
                            answered_in_window += 1;
                            last_answer = recv;
                        }
                        if p.id % CHECK_EVERY == 0 {
                            ctx.acc.query_checks.push((user, r.body));
                        }
                    } else {
                        load.failed += 1;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    lose(ctx, conn, &mut inflight, &mut load, &e.to_string());
                    break;
                }
            }
        }
        if now >= end && inflight.is_empty() {
            break;
        }
        if now > end + DRAIN {
            load.failed += inflight.len() as u64;
            ctx.out.failure(format!(
                "{} closed-loop requests unanswered",
                inflight.len()
            ));
            if let Err(e) = conn.reconnect() {
                ctx.out.failure(format!("reconnect failed: {e}"));
            }
            break;
        }
        wait_readable(&[conn], Duration::from_millis(1));
    }
    ctx.acc.sent += load.sent;
    ctx.acc.answered += load.answered;
    ctx.acc.failed += load.failed;
    ctx.tracer.end(phase);
    let span = last_answer.saturating_duration_since(start).as_secs_f64();
    (answered_in_window as f64 / span.max(1e-9), load)
}

/// online-read's vector-query probe: sequential requests, one in flight.
fn vector_probe(ctx: &mut Ctx, conn: &mut Conn, seconds: f64, parent: SpanId) {
    let phase = ctx.tracer.begin("phase.vector_probe", parent);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let user = ctx.permutation[ctx.zipf.rank(ctx.rng)];
        ctx.vectors.push(perturbed_row(ctx.model, user, ctx.rng));
        let idx = ctx.vectors.len() - 1;
        let body = vector_body(&ctx.vectors[idx]);
        let due = Instant::now();
        let answer = round_trip(conn, "/vector-query", &body);
        ctx.acc.sent += 1;
        match answer {
            Some(r) => {
                let now = Instant::now();
                let ok = settle(
                    ctx,
                    Pending {
                        id: 0,
                        due,
                        kind: Kind::Vector(idx),
                        traced: false,
                        window: usize::MAX,
                    },
                    r,
                    now,
                    phase,
                );
                if ok {
                    ctx.acc.answered += 1;
                } else {
                    ctx.acc.failed += 1;
                }
            }
            None => {
                ctx.acc.failed += 1;
                let _ = conn.reconnect();
            }
        }
    }
    ctx.tracer.end(phase);
}

/// Decodes a `/query` or `/vector-query` answer into its first list.
fn decode(body: &str) -> Result<TopKList, String> {
    let doc = mips_net::json::parse(body)?;
    let list = doc
        .get("results")
        .and_then(|r| r.as_arr())
        .and_then(|r| r.first())
        .ok_or("no results")?;
    let items = list
        .get("items")
        .and_then(|v| v.as_arr())
        .ok_or("no items")?
        .iter()
        .map(|v| v.as_u64().map(|x| x as u32).ok_or("bad item"))
        .collect::<Result<Vec<u32>, _>>()?;
    let scores = list
        .get("scores")
        .and_then(|v| v.as_arr())
        .ok_or("no scores")?
        .iter()
        .map(|v| v.as_num().ok_or("bad score"))
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(TopKList { items, scores })
}

fn verify(out: &mut Outcome, model: &MfModel, vectors: &[Vec<f64>], acc: &Acc) {
    for (user, body) in &acc.query_checks {
        match decode(body) {
            Ok(list) => check(out, model, *user, 10, &list),
            Err(e) => {
                out.failed += 1;
                out.violation(format!("undecodable /query answer: {e}"));
            }
        }
    }
    let mut answers = Vec::new();
    for (idx, body) in &acc.vq_checks {
        match decode(body) {
            Ok(list) => answers.push((
                vectors[*idx].clone(),
                QueryResponse {
                    results: vec![list],
                    backend: String::new(),
                    precision: Precision::F64,
                    planned: false,
                    epoch: 0,
                    serve_seconds: 0.0,
                },
            )),
            Err(e) => {
                out.failed += 1;
                out.violation(format!("undecodable /vector-query answer: {e}"));
            }
        }
    }
    check_vectors(out, model, &answers);
}

/// `net.codec_us`: the front door's parse, decode and encode steps replayed
/// on this run's own request bytes and a real answer.
fn codec_sheet(engine: &Engine, acc: &Acc, out: &mut Outcome, tracer: &mut Tracer, parent: SpanId) {
    if acc.request_bytes.is_empty() {
        return;
    }
    let span = tracer.begin("net.codec_replay", parent);
    let raw: Vec<Vec<u8>> = acc
        .request_bytes
        .iter()
        .map(|body| {
            format!(
                "POST /query HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let Ok(answer) = engine.execute(&QueryRequest::top_k(10).users(vec![0])) else {
        tracer.end(span);
        return;
    };
    let limits = mips_net::http::Limits::default();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut bytes = 0usize;
        for request in &raw {
            if let mips_net::http::Parse::Ready(parsed) =
                mips_net::http::parse_request(request, &limits)
            {
                if let Ok(query) = mips_net::json::decode_query_request(&parsed.body) {
                    std::hint::black_box(query);
                }
            }
            bytes += mips_net::json::encode_response(&answer).len();
        }
        std::hint::black_box(bytes);
        samples.push(t.elapsed().as_secs_f64() * 1e6 / raw.len() as f64);
    }
    out.sheet.set("net.codec_us", median(&samples), "us");
    tracer.end(span);
}
