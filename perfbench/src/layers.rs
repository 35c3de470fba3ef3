//! Per-layer probes of the traced run that time one layer in isolation:
//! the kernel sheet (linalg), MAXIMUS's clustering step, and every
//! backend's serve time next to the plan OPTIMUS chose.

use crate::trace::{Sheet, SpanId, Tracer};
use crate::util::{median, sub_seed, Rng};
use crate::Outcome;
use mips_clustering::{kmeans, KMeansConfig};
use mips_core::engine::{Engine, PreparedPlan, QueryRequest};
use mips_core::MaximusConfig;
use mips_data::MfModel;
use mips_linalg::{dot_i8, gemm_nt_blocked_with, quantize_row_i8, BlockSizes, CacheConfig, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// The `k` values of the batch workloads; the traced backend sheet covers
/// all three on every workload.
pub const KS: [usize; 3] = [1, 10, 50];

/// Users in the block the backend sheet serves per candidate (a seeded
/// contiguous range; all users when the model is smaller).
const SHEET_BLOCK: usize = 2048;

/// The traced run's layer sheets, after the measured window: tracing
/// overhead from the interleaved slices (`overhead` = traced and untraced
/// latencies), the backend sheet, k-means and the kernel sheet.
pub fn layer_sheets(
    engine: &Engine,
    observed: &[(usize, f64)],
    overhead: &(Vec<f64>, Vec<f64>),
    seed: u64,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    if !overhead.0.is_empty() && !overhead.1.is_empty() {
        let ratio = median(&overhead.0) / median(&overhead.1);
        outcome
            .sheet
            .set("trace.overhead_pct", (ratio - 1.0) * 100.0, "%");
    }
    let model = engine.model();
    let mut rng = Rng::new(sub_seed(seed, "backend-sheet"));
    backend_sheet(engine, observed, &mut rng, outcome, tracer, parent);
    kmeans_sheet(&model, &mut outcome.sheet, tracer, parent);
    kernel_sheet(&model, &mut outcome.sheet, tracer, parent);
}

/// OPTIMUS's estimate of serving every user with the plan's winner.
pub fn predicted_seconds(plan: &PreparedPlan) -> f64 {
    plan.estimates()
        .iter()
        .find(|e| e.name == plan.backend_name())
        .map_or(0.0, |e| e.estimated_total_seconds)
}

/// Survivors over candidates of the int8 and f32 screens, from
/// `[(candidates, survivors); 2]` in that order.
pub fn set_screen_shares(sheet: &mut Sheet, screened: [(u64, u64); 2]) {
    for ((candidates, survivors), name) in screened
        .into_iter()
        .zip(["screen.i8_survivor_share", "screen.f32_survivor_share"])
    {
        sheet.set(name, survivors as f64 / candidates.max(1) as f64, "share");
    }
}

/// Repeats `f` until `budget` seconds pass (at least `min_reps` times);
/// returns seconds per call, the median over repetitions.
fn per_call(budget: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Kernel sheet: achieved f64 GEMM GFLOP/s and int8 dot GOP/s on the
/// workload's shape, against the same calls on cache-resident operands
/// (the single-core peak measured the same way), with the computed bytes
/// each call moves.
fn kernel_sheet(model: &MfModel, sheet: &mut Sheet, tracer: &mut Tracer, parent: SpanId) {
    let span = tracer.begin("linalg.kernel_sheet", parent);
    let kern = mips_linalg::simd::active();
    let blocks = BlockSizes::for_scalar::<f64>(&CacheConfig::default());
    let f = model.num_factors();
    let items = model.items();
    let rows = 256.min(model.num_users());
    let users = model.users().row_block(0, rows);
    let n = items.rows();
    let mut c = vec![0.0f64; rows * n];
    let t = per_call(0.4, 3, || {
        gemm_nt_blocked_with(kern, users, items.into(), &mut c, &blocks);
        black_box(&c);
    });
    let flops = 2.0 * (rows * n * f) as f64;
    sheet.set("linalg.gemm_gflops", flops / t * 1e-9, "GFLOP/s");
    sheet.set(
        "linalg.gemm_bytes_per_call",
        ((rows * f + n * f + rows * n) * 8) as f64,
        "bytes",
    );
    // Peak: the same call on cache-resident operands, best of three shapes.
    let mut peak = 0.0f64;
    for side in [64, 128, 256] {
        let (m, p) = (side.min(rows), side.min(n));
        let a = model.users().row_block(0, m);
        let b = items.row_block(0, p);
        let mut cs = vec![0.0f64; m * p];
        let reps = (1 << 22) / (m * p * f).max(1) + 1;
        let t = per_call(0.15, 3, || {
            for _ in 0..reps {
                gemm_nt_blocked_with(kern, a, b, &mut cs, &blocks);
                black_box(&cs);
            }
        });
        peak = peak.max(2.0 * (m * p * f * reps) as f64 / t * 1e-9);
    }
    sheet.set("linalg.gemm_peak_gflops", peak, "GFLOP/s");

    // int8: quantize a block of user rows and the whole catalog, then time
    // every user-item dot.
    let quantize = |m: &Matrix<f64>, count: usize| -> Vec<Vec<i8>> {
        (0..count)
            .map(|r| {
                let mut q = vec![0i8; f];
                quantize_row_i8(m.row(r), &mut q);
                q
            })
            .collect()
    };
    let uq = quantize(model.users(), 64.min(rows));
    let iq = quantize(items, n);
    let t = per_call(0.3, 3, || {
        let mut acc = 0i32;
        for u in &uq {
            for i in &iq {
                acc = acc.wrapping_add(dot_i8(black_box(u), i));
            }
        }
        black_box(acc);
    });
    let ops = 2.0 * (uq.len() * iq.len() * f) as f64;
    sheet.set("linalg.dot_i8_gops", ops / t * 1e-9, "GOP/s");
    sheet.set("linalg.dot_i8_bytes_per_call", (2 * f) as f64, "bytes");
    let hot = &iq[..16.min(iq.len())];
    let reps = (iq.len() / hot.len()).max(1);
    let t = per_call(0.2, 3, || {
        let mut acc = 0i32;
        for u in &uq {
            for _ in 0..reps {
                for i in hot {
                    acc = acc.wrapping_add(dot_i8(black_box(u), i));
                }
            }
        }
        black_box(acc);
    });
    let ops = 2.0 * (uq.len() * reps * hot.len() * f) as f64;
    sheet.set("linalg.dot_i8_peak_gops", ops / t * 1e-9, "GOP/s");
    tracer.end(span);
}

/// Times `kmeans` with MAXIMUS's default clustering parameters on the
/// workload's users.
fn kmeans_sheet(model: &MfModel, sheet: &mut Sheet, tracer: &mut Tracer, parent: SpanId) {
    let defaults = MaximusConfig::default();
    let config = KMeansConfig {
        k: defaults.num_clusters,
        max_iters: defaults.kmeans_iters,
        seed: defaults.seed,
    };
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let clustering = tracer.time("clustering.kmeans", parent, || {
            kmeans(model.users(), &config)
        });
        samples.push(t.elapsed().as_secs_f64());
        black_box(clustering);
    }
    sheet.set("clustering.kmeans_s", median(&samples), "s");
}

/// Serves one seeded block of users at each `k` with every registered
/// backend (`Engine::execute_with`) and with the cached plan, and reports
/// per-backend serve seconds extrapolated to all users, build seconds,
/// and the plan's regret against the fastest backend. `observed` holds,
/// per `k`, the plan's measured serve-all seconds when the workload has
/// them (batch), for `pred_over_obs`.
fn backend_sheet(
    engine: &Engine,
    observed: &[(usize, f64)],
    rng: &mut Rng,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    let model = engine.model();
    let users = model.num_users();
    let block = SHEET_BLOCK.min(users);
    let start = rng.below(users - block + 1);
    let range = start..start + block;
    let scale_up = users as f64 / block as f64;
    for key in engine.backend_keys() {
        if let Ok(solver) = engine.solver(key) {
            outcome
                .sheet
                .set(format!("{key}.build_s"), solver.build_seconds(), "s");
        }
    }
    for k in KS {
        let Ok(plan) = tracer.time("optimus.prepare", parent, || engine.prepare(k)) else {
            outcome.failure(format!("prepare({k}) failed"));
            continue;
        };
        let request = QueryRequest::top_k(k).users_range(range.clone());
        let timed = |f: &dyn Fn() -> Result<_, _>| -> Option<(f64, _)> {
            let t = Instant::now();
            let out = f().ok()?;
            Some((t.elapsed().as_secs_f64(), out))
        };
        outcome.attempted += 1;
        let Some((chosen, _)) = timed(&|| plan.execute(&request)) else {
            outcome.failed += 1;
            outcome.failure(format!("plan at k={k} failed on the sheet block"));
            continue;
        };
        let mut fastest = f64::INFINITY;
        for key in engine.backend_keys() {
            let span = tracer.begin("backend.serve_block", parent);
            let served = timed(&|| engine.execute_with(key, &request));
            tracer.end(span);
            outcome.attempted += 1;
            let Some((seconds, response)) = served else {
                outcome.failed += 1;
                outcome.failure(format!("{key} failed at k={k}"));
                continue;
            };
            fastest = fastest.min(seconds);
            outcome
                .sheet
                .set(format!("{key}.serve_s.k{k}"), seconds * scale_up, "s");
            for (offset, list) in response.results.iter().enumerate().take(4) {
                crate::batch::check(outcome, &model, start + offset, k, list);
            }
        }
        outcome
            .sheet
            .set(format!("optimus.regret.k{k}"), chosen / fastest, "ratio");
        let predicted = predicted_seconds(&plan);
        let observed_all = observed
            .iter()
            .find(|(ok, _)| *ok == k)
            .map(|(_, s)| *s)
            .unwrap_or(chosen * scale_up);
        let ratio = predicted / observed_all;
        outcome
            .sheet
            .set(format!("optimus.pred_over_obs.k{k}"), ratio, "ratio");
        outcome.sheet.set(
            format!("optimus.pred_error.k{k}"),
            (ratio - 1.0).abs(),
            "ratio",
        );
    }
}
