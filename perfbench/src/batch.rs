//! Batch workloads: a nightly retrain lands as a fresh model epoch, the
//! engine plans every `k` with OPTIMUS and scores every user.
//!
//! Each round installs the model with `Engine::swap_model` (the first
//! builds the engine), prepares plans at k = 1, 10 and 50, and serves all
//! users at each. A short in-process probe then times ad-hoc top-10 vector
//! queries on the same epoch: the point-lookup latency next to the batch
//! throughput.

use crate::layers::{layer_sheets, predicted_seconds, set_screen_shares, KS};
use crate::trace::{Tracer, NONE};
use crate::util::{
    median, peak_rss_mb, perturbed_row, quantile, reset_peak_rss, sub_seed, Family, Rng, Zipf,
};
use crate::{Args, LedgerEntry, Outcome};
use mips_core::engine::{Engine, EngineBuilder, QueryRequest, VectorQueryRequest};
use mips_core::precision::Precision;
use mips_core::verify::check_user_topk;
use mips_data::MfModel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Catalog scale of the batch stand-ins (4x the catalog's base shape).
pub const SCALE: usize = 4;
/// Rounds run even when `--seconds` is shorter, so medians have samples.
const MIN_ROUNDS: usize = 3;
/// Users per `k` per epoch checked against `check_user_topk`.
const CHECK_USERS: usize = 24;
/// Vector queries per round in the probe: enough that each round's p99 has
/// ten samples beyond it.
const PROBE_QUERIES: usize = 1000;

pub fn run(family: &Family, scale: usize, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let model = family.model(scale, args.seed);
    out.header.push(("model", family.name.to_string()));
    out.header.push(("model_scale", scale.to_string()));
    out.header.push((
        "shape",
        format!(
            "{}x{}x{}",
            model.num_users(),
            model.num_items(),
            model.num_factors()
        ),
    ));
    out.header.push(("ks", "1,10,50".to_string()));
    out.header.push((
        "engine",
        "default backends, Precision::Auto, threads 1".into(),
    ));
    out.header
        .push(("vq_probe_per_round", PROBE_QUERIES.to_string()));

    let mut rng = Rng::new(sub_seed(args.seed, "batch-requests"));
    let permutation = rng.permutation(model.num_users());
    let zipf = Zipf::new(model.num_users(), 1.0);

    let mut engine: Option<Arc<Engine>> = None;
    let mut setup = Vec::new();
    let mut swap_s = Vec::new();
    let mut users_per_s = Vec::new();
    let mut vq_ms = Vec::new();
    let mut vq_round_p99 = Vec::new();
    let mut probe_seconds = 0.0;
    let mut round_rss = Vec::new();
    let mut rss_resets = true;
    let mut decide: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut sample_sizes = Vec::new();
    let mut plan_keys: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut screened = [(0u64, 0u64); 2];
    let mut observed_last = Vec::new();
    let mut overhead: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut rounds = 0;

    while rounds < MIN_ROUNDS || measured < args.seconds {
        rss_resets &= reset_peak_rss();
        let round = tracer.begin("round", NONE);
        let t0 = Instant::now();
        let current = match &engine {
            None => {
                let built = tracer.time("engine.build", round, || {
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
                        out.failed += 1;
                        out.attempted += 1;
                        return out;
                    }
                }
            }
            Some(e) => {
                let t = Instant::now();
                let swapped =
                    tracer.time("engine.swap", round, || e.swap_model(Arc::clone(&model)));
                swap_s.push(t.elapsed().as_secs_f64());
                out.attempted += 1;
                if let Err(err) = swapped {
                    out.failed += 1;
                    out.failure(format!("swap failed: {err}"));
                }
                Arc::clone(e)
            }
        };
        engine = Some(Arc::clone(&current));
        let mut plans = Vec::new();
        for k in KS {
            out.attempted += 1;
            match tracer.time("optimus.prepare", round, || current.prepare(k)) {
                Ok(plan) => plans.push((k, plan)),
                Err(e) => {
                    out.failed += 1;
                    out.failure(format!("prepare({k}) failed: {e}"));
                }
            }
        }
        let setup_s = t0.elapsed().as_secs_f64();
        setup.push(setup_s);

        let mut round_serve = 0.0;
        let mut round_users = 0u64;
        let mut served = Vec::new();
        observed_last.clear();
        for (k, plan) in &plans {
            let t = Instant::now();
            let response = tracer.time("engine.execute_all", round, || {
                current.execute(&QueryRequest::top_k(*k))
            });
            let dt = t.elapsed().as_secs_f64();
            round_serve += dt;
            out.attempted += model.num_users() as u64;
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    out.failed += model.num_users() as u64;
                    out.failure(format!("serve-all at k={k} failed: {e}"));
                    continue;
                }
            };
            if let Some(tally) = plan.solver().take_screen_stats() {
                let lane = if plan.precision() == Precision::I8Rescore {
                    0
                } else {
                    1
                };
                screened[lane].0 += tally.screened;
                screened[lane].1 += tally.rescored;
            }
            round_users += response.results.len() as u64;
            out.ledger.push(LedgerEntry {
                epoch: plan.epoch(),
                k: *k,
                key: plan.backend_key().to_string(),
                precision: plan.precision().as_str().to_string(),
                decision_s: plan.decision_seconds(),
                predicted_s: predicted_seconds(plan),
                observed_s: dt,
            });
            observed_last.push((*k, dt));
            decide.entry(*k).or_default().push(plan.decision_seconds());
            sample_sizes.push(plan.sample_size() as f64);
            plan_keys
                .entry(*k)
                .or_default()
                .insert(plan.backend_key().to_string());
            if response.epoch != plan.epoch() {
                out.violation(format!(
                    "k={k}: served on epoch {} but planned on {}",
                    response.epoch,
                    plan.epoch()
                ));
            }
            served.push((*k, response));
        }
        users_per_s.push(round_users as f64 / round_serve);

        // Point-lookup probe: ad-hoc vector queries, closed loop, one in
        // flight. `Engine::execute_vector` is the engine's unplanned point
        // path; single-user queries here would ride whichever batch plan
        // OPTIMUS picked for k = 10 and flip with it between runs. In a
        // traced run recording toggles every 16 requests, so traced and
        // untraced requests share the epoch and the load.
        let probe_start = Instant::now();
        let traced_run = tracer.on();
        let mut vq_checks = Vec::new();
        let first = vq_ms.len();
        for n in 0..PROBE_QUERIES as u64 {
            let user = permutation[zipf.rank(&mut rng)];
            let vector = perturbed_row(&model, user, &mut rng);
            let request = VectorQueryRequest::dense(10, vector.clone());
            let traced = traced_run && (n / 16) % 2 == 0;
            tracer.set_on(traced);
            let t = Instant::now();
            let response = current.execute_vector(&request);
            let end = Instant::now();
            tracer.record("engine.execute_vector", round, n, t, end);
            let dt = (end - t).as_secs_f64();
            if traced_run {
                let lane = if traced {
                    &mut overhead.0
                } else {
                    &mut overhead.1
                };
                lane.push(dt);
            }
            vq_ms.push(dt * 1e3);
            out.attempted += 1;
            match response {
                Ok(r) if n % 16 == 0 => vq_checks.push((vector, r)),
                Ok(_) => {}
                Err(e) => {
                    out.failed += 1;
                    out.failure(format!("vector query failed: {e}"));
                }
            }
        }
        tracer.set_on(traced_run);
        probe_seconds += probe_start.elapsed().as_secs_f64();
        vq_round_p99.push(quantile(&vq_ms[first..], 0.99));
        tracer.end(round);
        measured += t0.elapsed().as_secs_f64();
        rounds += 1;

        // Exactness, outside the measured window.
        let span = tracer.begin("verify", NONE);
        for (k, response) in &served {
            for user in rng.sample(model.num_users(), CHECK_USERS) {
                check(&mut out, &model, user, *k, &response.results[user]);
            }
        }
        check_vectors(&mut out, &model, &vq_checks);
        tracer.end(span);
        round_rss.push(peak_rss_mb());
    }

    let engine = engine.expect("at least one round ran");
    let s = &mut out.sheet;
    s.set("setup_s", median(&setup), "s");
    s.set("batch_users_per_s", median(&users_per_s), "1/s");
    s.set("client.p50_ms", quantile(&vq_ms, 0.5), "ms");
    s.set("client.p99_ms", median(&vq_round_p99), "ms");
    s.set(
        "client.capacity_rps",
        vq_ms.len() as f64 / probe_seconds,
        "1/s",
    );
    s.set("client.vq_p99_ms", median(&vq_round_p99), "ms");
    s.set("process.peak_rss_mb", median(&round_rss), "MiB");
    s.set("engine.swap_s", median(&swap_s), "s");
    s.set("engine.planner_runs", engine.planner_runs() as f64, "count");
    for (k, d) in &decide {
        s.set(format!("optimus.decide_s.k{k}"), median(d), "s");
    }
    s.set("optimus.sample_size", median(&sample_sizes), "users");
    for (k, keys) in &plan_keys {
        s.set(
            format!("optimus.plan_keys.k{k}"),
            keys.len() as f64,
            "count",
        );
    }
    set_screen_shares(s, screened);
    out.header.push(("rounds", rounds.to_string()));
    out.header.push(("vq_samples", vq_ms.len().to_string()));
    out.header.push((
        "peak_rss",
        if rss_resets {
            "median over rounds of each round's VmHWM"
        } else {
            "process VmHWM"
        }
        .to_string(),
    ));

    if tracer.on() {
        let root = tracer.begin("layer_sheets", NONE);
        layer_sheets(
            &engine,
            &observed_last,
            &overhead,
            args.seed,
            &mut out,
            tracer,
            root,
        );
        tracer.end(root);
    }
    out
}

pub fn check(
    out: &mut Outcome,
    model: &MfModel,
    user: usize,
    k: usize,
    list: &mips_topk::TopKList,
) {
    out.checked += 1;
    if let Err(e) = check_user_topk(model, user, k, list, 1e-9) {
        out.failed += 1;
        out.violation(format!("k={k}: {e}"));
    }
}

/// Checks vector-query answers: each vector becomes the single user of a
/// one-row model over the same catalog.
pub fn check_vectors(
    out: &mut Outcome,
    model: &MfModel,
    answers: &[(Vec<f64>, mips_core::engine::QueryResponse)],
) {
    if answers.is_empty() {
        return;
    }
    let f = model.num_factors();
    let rows: Vec<f64> = answers
        .iter()
        .flat_map(|(v, _)| v.iter().copied())
        .collect();
    let users = mips_linalg::Matrix::from_vec(answers.len(), f, rows).expect("vector rows");
    let probe = MfModel::new("vector-queries", users, model.items().clone()).expect("probe model");
    for (i, (_, response)) in answers.iter().enumerate() {
        match response.results.first() {
            Some(list) => check(out, &probe, i, 10, list),
            None => {
                out.failed += 1;
                out.violation("vector query returned no list".into());
            }
        }
    }
}
