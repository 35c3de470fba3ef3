//! Serving-runtime digest: writes `BENCH_3.json` — requests/sec and
//! p50/p99 latency for concurrent traffic through the sharded
//! [`MipsServer`], across worker counts and batching policies.
//!
//! The workload is the one the engine alone serves worst: floods of
//! single-user requests (the recommender front-end shape). Each
//! configuration pushes the same request stream through a server and
//! reads throughput and latency off the server's own metrics.
//!
//! A `swap-under-load` row per dataset measures the hot-model-swap path:
//! the same single-user flood while a background thread calls
//! `Engine::swap_model` every few milliseconds, so the row's throughput
//! captures the dip from epoch rebuilds (topology re-cut, solver rebuild,
//! re-planning). The regression gate guards it like every other row.
//!
//! `precision-sweep` rows compare the numeric-path knob — `f64` direct vs
//! `i8-rescore` (int8 screen + exact f64 rescore) vs `auto` (OPTIMUS
//! prices the two) — on the same BMM-backed single-user flood. `precision`
//! is part of every row's gate identity, so each mode gates individually
//! and the auto row guards the planner never serving slower than the
//! committed f64 row drifts.
//!
//! `per-shard-index` rows compare the `IndexScope` knob — Global vs
//! PerShard vs Auto — on a MAXIMUS-backed engine (the index whose
//! structure actually depends on which users it is built over: per-shard
//! clustering tightens every cluster's worst angle θ_b, so shard-local
//! lists prune harder). Construction and planning are warmed through a
//! sibling server with identical bounds (the epoch's per-shard cache tier
//! is keyed by bounds, so the timed server starts cache-hot), leaving the
//! rows to measure steady-state serving. The gate guards all three
//! scopes, so a regression in shard-local serving — or the scope machinery
//! slowing the global path — fails CI.
//!
//! `loopback-http` rows push the same single-user flood through the
//! `mips-net` front door over a real loopback socket — pipelined bursts on
//! one keep-alive connection, latency measured at the client from burst
//! write to each response read. Compared against the in-process
//! `single-user` rows they price the wire: HTTP parse, JSON codec, event
//! loop, kernel socket hops. The gate guards them like every other row.
//!
//! Environment knobs: `MIPS_SCALE` scales the models (as everywhere in the
//! harness); `MIPS_SERVE_MAX_WORKERS` caps the worker-count sweep (the
//! regression-gate run pins it to 1 so committed baselines stay
//! machine-comparable); `MIPS_SERVE_REQUESTS` overrides the per-config
//! request count; `MIPS_BENCH_OUT` overrides the output path.

use mips_bench::{
    bench_out_path, build_model, fmt_secs, maximus_config, render_serve_json, scale, BenchMeta,
    ServeRecord, Table,
};
use mips_core::engine::{BmmFactory, Engine, EngineBuilder, MaximusFactory, QueryRequest};
use mips_core::precision::Precision;
use mips_core::serve::{IndexScope, ServerBuilder};
use mips_data::catalog::reference_models;
use mips_data::MfModel;
use mips_net::client::Client;
use mips_net::HttpServerBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submitter threads driving each server configuration.
const SUBMITTERS: usize = 8;
/// Requests each submitter keeps in flight (windowed closed loop). A burst
/// bigger than one gives the micro-batcher a backlog to coalesce, like a
/// real fan-out front-end would.
const BURST: usize = 16;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// How often the swap-under-load workload installs a new model epoch.
const SWAP_EVERY: Duration = Duration::from_millis(3);

/// One server shape under measurement.
#[derive(Clone, Copy)]
struct ServerShape {
    shards: usize,
    workers: usize,
    batching: bool,
    /// Deadline-flush window in microseconds (0 = adaptive flush only).
    batch_window_us: u64,
    scope: IndexScope,
}

impl ServerShape {
    /// The historical single-knob shape: `workers` shards, one per worker,
    /// global index scope, a 200µs deadline window when batching.
    fn classic(workers: usize, batching: bool) -> ServerShape {
        ServerShape {
            shards: workers,
            workers,
            batching,
            batch_window_us: if batching { 200 } else { 0 },
            scope: IndexScope::Global,
        }
    }

    /// The loopback shape: like [`ServerShape::classic`] batched, but with
    /// adaptive flush only. Wire traffic keeps fewer requests in flight
    /// than `max_batch`, so a deadline window would hold every partial
    /// batch open for its full length — pure added latency, no extra
    /// coalescing to buy.
    fn wire(workers: usize) -> ServerShape {
        ServerShape {
            shards: workers,
            workers,
            batching: true,
            batch_window_us: 0,
            scope: IndexScope::Global,
        }
    }

    fn build(&self, engine: &Arc<Engine>) -> mips_core::serve::MipsServer {
        ServerBuilder::new()
            .engine(Arc::clone(engine))
            .shards(self.shards)
            .workers(self.workers)
            .max_batch(32)
            .batch_window(Duration::from_micros(self.batch_window_us))
            .batching(self.batching)
            .queue_capacity(4096)
            .index_scope(self.scope)
            .build()
            .expect("bench server assembles")
    }
}

/// One configuration's run: `requests` single-user top-10 requests pushed
/// by [`SUBMITTERS`] windowed submitters. With `swap_with`, a background
/// thread alternates `Engine::swap_model` between the served model and the
/// given stand-in every [`SWAP_EVERY`] for the whole run.
fn run_config(
    engine: &Arc<Engine>,
    model: &MfModel,
    shape: ServerShape,
    requests: usize,
    swap_with: Option<&[Arc<MfModel>; 2]>,
) -> (f64, mips_core::serve::ServerMetrics) {
    let server = shape.build(engine);
    // Warm up through the engine the server fronts: solver build + plan
    // happen outside the timed window, and the warmup sample stays out of
    // the server's latency histogram (at gate scale, p99 is only a handful
    // of samples deep — one cold outlier would *be* the p99).
    engine
        .execute(&QueryRequest::top_k(10).users(vec![0]))
        .expect("warmup");
    if shape.scope != IndexScope::Global && swap_with.is_none() {
        // Scoped runs also warm the epoch's per-shard tier (solvers +
        // plans, keyed by shard bounds) through a sibling server with
        // identical bounds; the timed server below then starts cache-hot,
        // so the row measures steady-state serving, not construction.
        let warm = shape.build(engine);
        warm.execute(&QueryRequest::top_k(10))
            .expect("scope warmup");
        warm.shutdown().expect("scope warmup shutdown");
    }

    let num_users = model.num_users();
    let done = std::sync::atomic::AtomicBool::new(false);
    /// Stops the swapper even when a submitter panics: without this, an
    /// unwound scope closure would never set `done` and `thread::scope`
    /// would block forever joining the swapper — hanging the CI job
    /// instead of reporting the failure.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let started = Instant::now();
    // The scope returns the serving time measured right after the last
    // submitter joins: the swapper thread's shutdown (it may be mid-swap
    // or mid-sleep) must not count against the row's throughput.
    let elapsed = std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(&done);
        if let Some(pair) = swap_with {
            let engine = Arc::clone(engine);
            let done = &done;
            scope.spawn(move || {
                let mut next = 0usize;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    engine
                        .swap_model(Arc::clone(&pair[next]))
                        .expect("bench swap");
                    next = 1 - next;
                    std::thread::sleep(SWAP_EVERY);
                }
            });
        }
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = &server;
                scope.spawn(move || {
                    // Spread the remainder so exactly `requests` are sent.
                    let mine = requests / SUBMITTERS + usize::from(t < requests % SUBMITTERS);
                    let mut sent = 0usize;
                    while sent < mine {
                        let burst = BURST.min(mine - sent);
                        let handles: Vec<_> = (0..burst)
                            .map(|i| {
                                // Deterministic spread over users so shards see
                                // even traffic.
                                let n = t + SUBMITTERS * (sent + i);
                                let user = (n.wrapping_mul(2654435761)) % num_users;
                                server
                                    .submit(&QueryRequest::top_k(10).users(vec![user]))
                                    .expect("bench submit")
                            })
                            .collect();
                        for handle in handles {
                            handle.wait().expect("bench request serves");
                        }
                        sent += burst;
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("bench submitter");
        }
        let elapsed = started.elapsed().as_secs_f64();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        elapsed
    });
    let metrics = server.metrics();
    (elapsed, metrics)
}

/// Requests kept pipelined on the loopback connection per burst — the
/// wire analog of [`BURST`]: written back-to-back, read back in order.
const WIRE_BURST: usize = 16;

/// One loopback pass: `requests` single-user top-10 queries through a
/// fresh HTTP front door over a real socket, pipelined [`WIRE_BURST`] at
/// a time on one keep-alive connection. A single connection keeps the
/// thread count minimal (client + net loop + workers), so on the 1-worker
/// gate shape the row prices the wire itself, not scheduler contention.
/// Returns wall seconds plus client-measured p50/p99 (burst write →
/// response read) in microseconds.
fn run_wire(
    engine: &Arc<Engine>,
    model: &MfModel,
    shape: ServerShape,
    requests: usize,
) -> WirePass {
    let server = Arc::new(shape.build(engine));
    engine
        .execute(&QueryRequest::top_k(10).users(vec![0]))
        .expect("warmup");
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .expect("bench front door assembles");
    let mut client = Client::connect(http.local_addr()).expect("bench loopback connect");
    // One warmup round trip: connection setup and first-parse costs stay
    // out of the timed window, mirroring the in-process warmup.
    let warm = client
        .request("POST", "/query", Some("{\"k\": 10, \"users\": [0]}"))
        .expect("wire warmup");
    assert_eq!(warm.status, 200, "{}", warm.body);

    let num_users = model.num_users();
    let mut latencies: Vec<Duration> = Vec::with_capacity(requests);
    let started = Instant::now();
    let mut sent = 0usize;
    while sent < requests {
        let burst = WIRE_BURST.min(requests - sent);
        let burst_started = Instant::now();
        for i in 0..burst {
            let n = sent + i;
            let user = (n.wrapping_mul(2654435761)) % num_users;
            client
                .send(
                    "POST",
                    "/query",
                    Some(&format!("{{\"k\": 10, \"users\": [{user}]}}")),
                )
                .expect("wire send");
        }
        for _ in 0..burst {
            let response = client.recv().expect("wire response");
            assert_eq!(
                response.status, 200,
                "wire request must serve: {}",
                response.body
            );
            latencies.push(burst_started.elapsed());
        }
        sent += burst;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let metrics = server.metrics();
    assert_eq!(
        metrics.completed as usize,
        requests + 1,
        "warmup + timed requests"
    );
    assert_eq!(metrics.failed, 0, "wire requests must not fail");
    http.shutdown().expect("bench front door shutdown");

    latencies.sort();
    let quantile = |q: f64| -> f64 {
        latencies[((latencies.len() - 1) as f64 * q) as usize].as_secs_f64() * 1e6
    };
    WirePass {
        elapsed,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        mean_batch: metrics.mean_batch_size(),
    }
}

/// One measured loopback pass (see [`run_wire`]).
#[derive(Clone, Copy)]
struct WirePass {
    elapsed: f64,
    p50_us: f64,
    p99_us: f64,
    mean_batch: f64,
}

/// Best-of wrapper for the loopback leg, same noise policy as [`best_of`].
fn best_of_wire(
    engine: &Arc<Engine>,
    model: &MfModel,
    shape: ServerShape,
    requests: usize,
) -> WirePass {
    let mut best: Option<WirePass> = None;
    let mut spent = 0.0;
    let mut runs = 0;
    while runs == 0 || (runs < 5 && spent < 0.3) {
        let pass = run_wire(engine, model, shape, requests);
        spent += pass.elapsed;
        let improved = match &best {
            None => true,
            Some(fastest) => pass.elapsed < fastest.elapsed,
        };
        if improved {
            best = Some(pass);
        }
        runs += 1;
    }
    best.expect("at least one wire pass ran")
}

/// Adaptive best-of wrapper around [`run_config`], shared by the steady
/// and swap-under-load rows so both get identical noise treatment: at tiny
/// CI scale one pass is only a few milliseconds, so repeat inside a 0.3s
/// budget and keep the fastest pass (and its metrics); full-scale passes
/// run once or twice.
fn best_of(
    engine: &Arc<Engine>,
    model: &MfModel,
    shape: ServerShape,
    requests: usize,
    swap_with: Option<&[Arc<MfModel>; 2]>,
) -> (f64, mips_core::serve::ServerMetrics) {
    let mut best: Option<(f64, mips_core::serve::ServerMetrics)> = None;
    let mut spent = 0.0;
    let mut runs = 0;
    while runs == 0 || (runs < 5 && spent < 0.3) {
        let (elapsed, metrics) = run_config(engine, model, shape, requests, swap_with);
        assert_eq!(metrics.completed as usize, requests);
        assert_eq!(metrics.failed, 0, "bench requests must not fail");
        spent += elapsed;
        let improved = match &best {
            None => true,
            Some((fastest, _)) => elapsed < *fastest,
        };
        if improved {
            best = Some((elapsed, metrics));
        }
        runs += 1;
    }
    best.expect("at least one pass ran")
}

/// Appends one digest row (record + printed table line) for a measured
/// configuration. `metrics.swaps` is 0 for steady workloads by
/// construction, so the same emitter serves both workload kinds. The
/// fronted engine's precision mode comes off the metrics snapshot, so the
/// row records what actually served rather than what the caller intended.
#[allow(clippy::too_many_arguments)]
fn emit_row(
    table: &mut Table,
    records: &mut Vec<ServeRecord>,
    dataset: &str,
    workload: &str,
    shape: ServerShape,
    requests: usize,
    elapsed: f64,
    metrics: &mips_core::serve::ServerMetrics,
) {
    let rps = requests as f64 / elapsed;
    let record = ServeRecord {
        dataset: dataset.to_string(),
        workload: workload.to_string(),
        index_scope: shape.scope.as_str().to_string(),
        precision: metrics.precision.as_str().to_string(),
        workers: shape.workers,
        shards: shape.shards,
        batching: shape.batching,
        max_batch: 32,
        batch_window_us: shape.batch_window_us,
        requests: requests as u64,
        swaps: metrics.swaps,
        mean_batch: metrics.mean_batch_size(),
        requests_per_sec: rps,
        seconds_per_request: elapsed / requests as f64,
        p50_us: metrics.latency.p50_us,
        p99_us: metrics.latency.p99_us,
    };
    table.row(vec![
        dataset.to_string(),
        workload.to_string(),
        record.index_scope.clone(),
        record.precision.clone(),
        shape.workers.to_string(),
        shape.batching.to_string(),
        format!("{rps:.0}"),
        fmt_secs(record.seconds_per_request),
        format!("{:.0}us", record.p50_us),
        format!("{:.0}us", record.p99_us),
        format!("{:.1}", record.mean_batch),
        record.swaps.to_string(),
    ]);
    records.push(record);
}

fn main() {
    let meta = BenchMeta::collect("BENCH_3");
    println!(
        "== {}.json serving digest (scale {}, kernel {}, sha {}, {} host threads) ==\n",
        meta.bench, meta.scale, meta.kernel, meta.git_sha, meta.host_threads
    );

    let max_workers = env_usize("MIPS_SERVE_MAX_WORKERS", 8);
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= max_workers)
        .collect();
    let requests = env_usize(
        "MIPS_SERVE_REQUESTS",
        ((768.0 * scale()) as usize).clamp(96, 1536),
    );

    let mut records: Vec<ServeRecord> = Vec::new();
    let mut table = Table::new(&[
        "dataset", "workload", "scope", "prec", "workers", "batching", "req/s", "s/req", "p50",
        "p99", "batch", "swaps",
    ]);

    for dataset in ["Netflix", "GloVe"] {
        let spec = reference_models()
            .into_iter()
            .find(|s| s.dataset == dataset)
            .expect("family present");
        let model = build_model(&spec);
        // One backend, shared across every configuration: the run times
        // the serving runtime, not index construction or planning.
        let engine = Arc::new(
            EngineBuilder::new()
                .model(Arc::clone(&model))
                .register(BmmFactory)
                .build()
                .expect("bench engine assembles"),
        );

        for &workers in &worker_counts {
            for batching in [true, false] {
                let shape = ServerShape::classic(workers, batching);
                let (elapsed, metrics) = best_of(&engine, &model, shape, requests, None);
                emit_row(
                    &mut table,
                    &mut records,
                    dataset,
                    "single-user",
                    shape,
                    requests,
                    elapsed,
                    &metrics,
                );
            }
        }

        // Loopback HTTP: the batched single-user flood again, but through
        // the network front door over a real socket. The delta against
        // the in-process batched row at the same worker count is the
        // price of the wire.
        for &workers in &worker_counts {
            let shape = ServerShape::wire(workers);
            let pass = best_of_wire(&engine, &model, shape, requests);
            let rps = requests as f64 / pass.elapsed;
            let record = ServeRecord {
                dataset: dataset.to_string(),
                workload: "loopback-http".to_string(),
                index_scope: shape.scope.as_str().to_string(),
                precision: engine.precision().as_str().to_string(),
                workers: shape.workers,
                shards: shape.shards,
                batching: shape.batching,
                max_batch: 32,
                batch_window_us: shape.batch_window_us,
                requests: requests as u64,
                swaps: 0,
                mean_batch: pass.mean_batch,
                requests_per_sec: rps,
                seconds_per_request: pass.elapsed / requests as f64,
                p50_us: pass.p50_us,
                p99_us: pass.p99_us,
            };
            table.row(vec![
                dataset.to_string(),
                "loopback-http".to_string(),
                record.index_scope.clone(),
                record.precision.clone(),
                shape.workers.to_string(),
                shape.batching.to_string(),
                format!("{rps:.0}"),
                fmt_secs(record.seconds_per_request),
                format!("{:.0}us", record.p50_us),
                format!("{:.0}us", record.p99_us),
                format!("{:.1}", record.mean_batch),
                "0".to_string(),
            ]);
            records.push(record);
        }

        // Precision-sweep: the same single-user flood on fresh BMM engines
        // differing only in the numeric-path knob. A distinct workload
        // label keeps the f64 row from colliding with the steady
        // single-user row's identity; within the sweep, `precision`
        // separates the three rows so each mode gates on its own.
        {
            let w = *worker_counts.first().unwrap();
            for precision in [Precision::F64, Precision::I8Rescore, Precision::Auto] {
                let engine = Arc::new(
                    EngineBuilder::new()
                        .model(Arc::clone(&model))
                        .register(BmmFactory)
                        .precision(precision)
                        .build()
                        .expect("bench engine assembles"),
                );
                let shape = ServerShape::classic(w, true);
                let (elapsed, metrics) = best_of(&engine, &model, shape, requests, None);
                emit_row(
                    &mut table,
                    &mut records,
                    dataset,
                    "precision-sweep",
                    shape,
                    requests,
                    elapsed,
                    &metrics,
                );
            }
        }

        // Swap-under-load: the same single-user flood with a background
        // thread hot-swapping the model the whole time. A dedicated engine
        // keeps the epoch churn out of the steady-state rows; the two
        // swapped models are fresh same-spec builds, so every epoch serves
        // the same workload shape.
        let swap_models = [build_model(&spec), build_model(&spec)];
        for &workers in &worker_counts {
            let engine = Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&swap_models[0]))
                    .register(BmmFactory)
                    .build()
                    .expect("bench engine assembles"),
            );
            let shape = ServerShape::classic(workers, true);
            let (elapsed, metrics) = best_of(&engine, &model, shape, requests, Some(&swap_models));
            emit_row(
                &mut table,
                &mut records,
                dataset,
                "swap-under-load",
                shape,
                requests,
                elapsed,
                &metrics,
            );
        }

        // Per-shard-index rows: the same single-user flood on a
        // MAXIMUS-backed engine, under each IndexScope. MAXIMUS is the
        // backend whose index structure depends on which users it covers —
        // shard-local clustering tightens θ_b, so `per-shard` lists prune
        // harder than the one global clustering (visible on the skewed
        // GloVe norms; Netflix's flat norms leave little for any index to
        // prune, shard-local or not). Four shards at every worker count
        // keep Global and PerShard serving the same topology; a fresh
        // engine per scope keeps the epoch cache tiers honest (scopes must
        // not warm each other). The scope rows compare against each other
        // at a 4x request count so the comparison is not noise-bound at
        // gate scale.
        let scope_requests = requests * 4;
        for &workers in &worker_counts {
            for scope in [IndexScope::Global, IndexScope::PerShard, IndexScope::Auto] {
                let engine = Arc::new(
                    EngineBuilder::new()
                        .model(Arc::clone(&model))
                        .register(MaximusFactory::new(maximus_config(&spec, &model)))
                        .build()
                        .expect("bench engine assembles"),
                );
                let shape = ServerShape {
                    shards: 4,
                    workers,
                    batching: true,
                    batch_window_us: 200,
                    scope,
                };
                let (elapsed, metrics) = best_of(&engine, &model, shape, scope_requests, None);
                emit_row(
                    &mut table,
                    &mut records,
                    dataset,
                    "per-shard-index",
                    shape,
                    scope_requests,
                    elapsed,
                    &metrics,
                );
            }
        }
    }

    table.print();

    // Roll-up: worker scaling (batched), batching speedup, and index-scope
    // comparison, per dataset.
    println!();
    for dataset in ["Netflix", "GloVe"] {
        let scoped_rps = |workload: &str, workers: usize, scope: &str| -> Option<f64> {
            records
                .iter()
                .find(|r| {
                    r.dataset == dataset
                        && r.workload == workload
                        && r.workers == workers
                        && r.index_scope == scope
                })
                .map(|r| r.requests_per_sec)
        };
        let rps = |workload: &str, workers: usize, batching: bool| -> Option<f64> {
            records
                .iter()
                .find(|r| {
                    r.dataset == dataset
                        && r.workload == workload
                        && r.workers == workers
                        && r.batching == batching
                })
                .map(|r| r.requests_per_sec)
        };
        let w_min = *worker_counts.first().unwrap();
        let w_max = *worker_counts.last().unwrap();
        if let (Some(lo), Some(hi)) = (
            rps("single-user", w_min, true),
            rps("single-user", w_max, true),
        ) {
            println!(
                "{dataset}: {w_min}->{w_max} workers scales {:.2}x (batched, {} host threads)",
                hi / lo,
                meta.host_threads
            );
        }
        if let (Some(unbatched), Some(batched)) = (
            rps("single-user", w_max, false),
            rps("single-user", w_max, true),
        ) {
            println!(
                "{dataset}: micro-batching {:.2}x vs unbatched at {w_max} workers",
                batched / unbatched
            );
        }
        if let (Some(steady), Some(swapped)) = (
            rps("single-user", w_max, true),
            rps("swap-under-load", w_max, true),
        ) {
            println!(
                "{dataset}: continuous hot swap keeps {:.0}% of steady throughput at {w_max} workers",
                100.0 * swapped / steady
            );
        }
        let p50 = |workload: &str, workers: usize| -> Option<f64> {
            records
                .iter()
                .find(|r| {
                    r.dataset == dataset
                        && r.workload == workload
                        && r.workers == workers
                        && r.batching
                })
                .map(|r| r.p50_us)
        };
        if let (Some(in_proc), Some(wire)) =
            (p50("single-user", w_min), p50("loopback-http", w_min))
        {
            println!(
                "{dataset}: loopback HTTP p50 {wire:.0}us = {:.2}x in-process at {w_min} worker(s)",
                wire / in_proc
            );
        }
        if let (Some(global), Some(per_shard), Some(auto)) = (
            scoped_rps("per-shard-index", w_min, "global"),
            scoped_rps("per-shard-index", w_min, "per-shard"),
            scoped_rps("per-shard-index", w_min, "auto"),
        ) {
            println!(
                "{dataset}: per-shard MAXIMUS serves {:.2}x global (auto {:.2}x) at {w_min} worker(s)",
                per_shard / global,
                auto / global
            );
        }
        let prec_rps = |precision: &str| -> Option<f64> {
            records
                .iter()
                .find(|r| {
                    r.dataset == dataset
                        && r.workload == "precision-sweep"
                        && r.precision == precision
                })
                .map(|r| r.requests_per_sec)
        };
        if let (Some(f64_rps), Some(i8_rps), Some(auto_rps)) =
            (prec_rps("f64"), prec_rps("i8-rescore"), prec_rps("auto"))
        {
            println!(
                "{dataset}: i8 screen serves {:.2}x f64 (auto {:.2}x) at {w_min} worker(s)",
                i8_rps / f64_rps,
                auto_rps / f64_rps
            );
        }
    }

    let json = render_serve_json(&meta, &records);
    let path = bench_out_path(&meta);
    std::fs::write(&path, json).expect("write serve digest");
    println!("\nwrote {}", path.display());
}
