//! The `IndexScope` comparison mode: shard-local index construction must
//! be **invisible in the results**.
//!
//! The load-bearing contract: whatever the scope — one global solver set
//! (`Global`), per-shard indexes built over each shard's user view
//! (`PerShard`), or a per-shard OPTIMUS choice (`Auto`) — every response is
//! bit-identical to the sequential global engine on the same model: same
//! candidates, same tie-breaks, same score bits. The suite proves it per
//! backend family (each built-in's shard-local build is bit-compatible
//! with its global build), exercises the per-shard cache tier's laziness
//! and reclamation, and pins the warm path: concurrent first-touch builds
//! must not convoy behind one lock.

use mips_core::engine::{
    BmmFactory, Engine, EngineBuilder, ExclusionSet, FexiproFactory, FnFactory, IndexScope,
    LempFactory, MaximusFactory, QueryRequest, SolverFactory,
};
use mips_core::maximus::MaximusConfig;
use mips_core::optimus::OptimusConfig;
use mips_core::serve::ServerBuilder;
use mips_core::solver::MipsSolver;
use mips_core::ScanTier;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::{MfModel, ModelView};
use mips_linalg::CacheConfig;
use mips_topk::TopKList;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model(users: usize, items: usize) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: items,
        num_factors: 8,
        item_norm_skew: 0.7,
        user_spread: 0.4,
        ..SynthConfig::default()
    }))
}

fn tiny_optimus() -> OptimusConfig {
    OptimusConfig {
        sample_fraction: 0.05,
        cache: CacheConfig {
            l1_bytes: 1024,
            l2_bytes: 2048,
            l3_bytes: 4096,
        },
        ..OptimusConfig::default()
    }
}

/// Mixed-shape corpus: all selections, shard-straddling ranges/ids,
/// repeats, exclusions (including across shard boundaries), k edges.
fn corpus(num_users: usize, num_items: usize) -> Vec<QueryRequest> {
    let mut exclusions = ExclusionSet::new();
    for u in [0, num_users / 3, num_users / 3 + 1, num_users - 1] {
        for item in 0..6u32 {
            exclusions.insert(u, item * 2);
        }
    }
    let exclusions = Arc::new(exclusions);
    vec![
        QueryRequest::top_k(1),
        QueryRequest::top_k(5),
        QueryRequest::top_k(num_items),
        QueryRequest::top_k(7).users_range(0..num_users),
        QueryRequest::top_k(3).users_range(num_users / 3 - 1..num_users / 3 + 2),
        QueryRequest::top_k(2).users(vec![num_users - 1, 0, num_users / 2, 0]),
        QueryRequest::top_k(4).users((0..num_users).rev().collect::<Vec<_>>()),
        QueryRequest::top_k(5).exclude(Arc::clone(&exclusions)),
        QueryRequest::top_k(2)
            .users(vec![0, num_users / 3, num_users - 1])
            .exclude(exclusions),
    ]
}

/// One backend family under every scope: the served results must be
/// bit-identical to the sequential global engine.
///
/// Each scope gets a **fresh** engine on the same model (single-backend
/// planning is deterministic, so the sequential reference transfers),
/// keeping the per-shard cache tiers independent — servers sharing an
/// engine would share them (that sharing has its own test below).
fn assert_scopes_bit_identical(make_engine: impl Fn() -> Arc<Engine>, label: &str) {
    let reference = make_engine();
    let num_users = reference.model().num_users();
    let num_items = reference.model().num_items();
    let corpus = corpus(num_users, num_items);
    let expected: Vec<Vec<TopKList>> = corpus
        .iter()
        .map(|request| reference.execute(request).unwrap().results)
        .collect();

    for scope in [IndexScope::Global, IndexScope::PerShard, IndexScope::Auto] {
        let engine = make_engine();
        let server = ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(4)
            .workers(3)
            .max_batch(8)
            .index_scope(scope)
            .build()
            .unwrap();
        // Concurrent submitters to interleave shard queues.
        std::thread::scope(|outer| {
            for t in 0..3 {
                let server = &server;
                let corpus = &corpus;
                let expected = &expected;
                outer.spawn(move || {
                    for pass in 0..2 {
                        let mut handles = Vec::new();
                        for i in 0..corpus.len() {
                            let idx = (i * 5 + t + pass) % corpus.len();
                            handles.push((idx, server.submit(&corpus[idx]).unwrap()));
                        }
                        for (idx, handle) in handles {
                            let response = handle.wait().unwrap();
                            assert_eq!(
                                response.results, expected[idx],
                                "{label}: request {idx} diverged under {scope}"
                            );
                        }
                    }
                });
            }
        });
        let metrics = server.metrics();
        assert_eq!(metrics.index_scope, scope, "{label}");
        assert_eq!(metrics.failed, 0, "{label}");
        for shard in &metrics.shards {
            assert_eq!(shard.index_scope, scope, "{label}");
        }
        match scope {
            IndexScope::Global => {
                assert_eq!(
                    metrics.local_index_builds(),
                    0,
                    "{label}: global builds none"
                );
                assert_eq!(metrics.local_build_us(), 0, "{label}");
            }
            IndexScope::PerShard | IndexScope::Auto => {
                assert!(
                    metrics.local_index_builds() > 0,
                    "{label}: {scope} must build shard-local indexes"
                );
            }
        }
        server.shutdown().unwrap();
    }
}

#[test]
fn bmm_is_bit_identical_under_every_scope() {
    let m = model(97, 60);
    assert_scopes_bit_identical(
        || {
            Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&m))
                    .register(BmmFactory)
                    .build()
                    .unwrap(),
            )
        },
        "bmm",
    );
}

#[test]
fn maximus_is_bit_identical_under_every_scope() {
    // Shard-clustered MAXIMUS is the headline per-shard index: clusters
    // computed over each shard's users differ structurally from the global
    // clustering, yet results must not move a bit.
    let m = model(90, 70);
    assert_scopes_bit_identical(
        || {
            Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&m))
                    .register(MaximusFactory::new(MaximusConfig {
                        num_clusters: 3,
                        block_size: 16,
                        ..MaximusConfig::default()
                    }))
                    .build()
                    .unwrap(),
            )
        },
        "maximus",
    );
}

#[test]
fn lemp_is_bit_identical_under_every_scope() {
    let m = model(85, 64);
    assert_scopes_bit_identical(
        || {
            Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&m))
                    .register(LempFactory::default())
                    .build()
                    .unwrap(),
            )
        },
        "lemp",
    );
}

#[test]
fn fexipro_is_bit_identical_under_every_scope() {
    let m = model(60, 48);
    assert_scopes_bit_identical(
        || {
            Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&m))
                    .register(FexiproFactory::si())
                    .build()
                    .unwrap(),
            )
        },
        "fexipro-si",
    );
}

#[test]
fn multi_backend_scopes_agree_on_candidates_and_tie_breaks() {
    // With the full registry the planner's timing decides each scope's
    // backend per shard, so different shards may serve through different
    // (exact) solvers; the item lists — candidates and tie-breaks — must
    // still agree exactly with the sequential engine, and scores to 1e-9.
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(75, 50))
            .with_default_backends()
            .optimus(tiny_optimus())
            .build()
            .unwrap(),
    );
    let corpus = corpus(75, 50);
    let expected: Vec<Vec<TopKList>> = corpus
        .iter()
        .map(|request| engine.execute(request).unwrap().results)
        .collect();
    for scope in [IndexScope::PerShard, IndexScope::Auto] {
        let server = ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(3)
            .workers(2)
            .index_scope(scope)
            .build()
            .unwrap();
        for (idx, request) in corpus.iter().enumerate() {
            let response = server.execute(request).unwrap();
            assert_eq!(response.results.len(), expected[idx].len());
            for (got, want) in response.results.iter().zip(&expected[idx]) {
                assert!(
                    got.approx_eq(want, 1e-9),
                    "{scope}: request {idx} diverged beyond rounding:\n{got:?}\nvs\n{want:?}"
                );
            }
        }
        server.shutdown().unwrap();
    }
}

#[test]
fn shard_local_state_is_built_lazily_and_shared_per_bounds() {
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(80, 40))
            .register(BmmFactory)
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(4)
        .workers(2)
        .index_scope(IndexScope::PerShard)
        .build()
        .unwrap();
    // Nothing is built at assembly: construction is first-use-lazy.
    assert_eq!(server.metrics().local_index_builds(), 0);

    // One single-user request touches exactly one shard: one local build.
    server
        .execute(&QueryRequest::top_k(3).users(vec![0]))
        .unwrap();
    let metrics = server.metrics();
    assert_eq!(metrics.local_index_builds(), 1);
    assert_eq!(metrics.shards[0].local_index_builds, 1);
    assert_eq!(metrics.shards[1].local_index_builds, 0);

    // A full-range request builds the remaining three shards' solvers;
    // further traffic at the same k builds nothing (the per-shard tier
    // caches by bounds within the epoch).
    server.execute(&QueryRequest::top_k(3)).unwrap();
    assert_eq!(server.metrics().local_index_builds(), 4);
    for _ in 0..3 {
        server.execute(&QueryRequest::top_k(3)).unwrap();
    }
    let metrics = server.metrics();
    assert_eq!(
        metrics.local_index_builds(),
        4,
        "steady state rebuilds nothing"
    );
    // A new k re-plans per shard but reuses the built solvers.
    server.execute(&QueryRequest::top_k(5)).unwrap();
    assert_eq!(server.metrics().local_index_builds(), 4);

    // A second server with identical bounds on the same engine shares the
    // epoch's per-shard tier outright.
    let sibling = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(4)
        .workers(2)
        .index_scope(IndexScope::PerShard)
        .build()
        .unwrap();
    sibling.execute(&QueryRequest::top_k(3)).unwrap();
    assert_eq!(
        sibling.metrics().local_index_builds(),
        0,
        "same bounds, same epoch: shard tier is shared"
    );
    sibling.shutdown().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn auto_scope_records_the_per_shard_decision() {
    // Auto pits the global plan's winner against the shard-local
    // candidates, shard by shard. Whichever way the timing falls, the
    // decision must be observable on the plans and serving must stay
    // exact; local candidates were built to be timed, so builds are
    // counted even when a shard stays global.
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(96, 40))
            .register(BmmFactory)
            .register(MaximusFactory::new(MaximusConfig {
                num_clusters: 2,
                block_size: 8,
                ..MaximusConfig::default()
            }))
            .optimus(tiny_optimus())
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(3)
        .workers(2)
        .index_scope(IndexScope::Auto)
        .build()
        .unwrap();
    let expected = engine.execute(&QueryRequest::top_k(4)).unwrap().results;
    let served = server.execute(&QueryRequest::top_k(4)).unwrap();
    for (got, want) in served.results.iter().zip(&expected) {
        assert_eq!(got.items, want.items);
    }
    let metrics = server.metrics();
    // Every shard built its local candidates (2 backends × 3 shards).
    assert_eq!(metrics.local_index_builds(), 6);
    assert!(metrics.local_build_us() > 0);
    server.shutdown().unwrap();
}

#[test]
fn concurrent_first_touch_builds_do_not_convoy() {
    // Regression test for the warm path: lazy builds run OUTSIDE the cache
    // cell's critical section and install compare-and-swap style. With a
    // deliberately slow-building backend, two shards' first requests — two
    // distinct cache cells — must overlap their builds instead of
    // serializing; the wall clock for both is well under two build times.
    const BUILD: Duration = Duration::from_millis(250);
    struct Slow(mips_core::BmmSolver);
    impl MipsSolver for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn build_seconds(&self) -> f64 {
            0.0
        }
        fn batches_users(&self) -> bool {
            true
        }
        fn num_users(&self) -> usize {
            self.0.num_users()
        }
        fn query_range(&self, k: usize, users: std::ops::Range<usize>) -> Vec<TopKList> {
            self.0.query_range(k, users)
        }
        fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
            self.0.query_subset(k, users)
        }
    }
    struct SlowFactory;
    impl SolverFactory for SlowFactory {
        fn key(&self) -> &str {
            "slow"
        }
        fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, mips_core::MipsError> {
            std::thread::sleep(BUILD);
            Ok(Box::new(Slow(mips_core::BmmSolver::build(
                view,
                ScanTier::F64,
            ))))
        }
    }

    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(40, 20))
            .register(SlowFactory)
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(2)
        .workers(2)
        .index_scope(IndexScope::PerShard)
        .batching(false)
        .build()
        .unwrap();
    // Two single-user requests, one per shard, submitted together: each
    // triggers its shard's first-touch build on its own worker.
    let started = Instant::now();
    let a = server
        .submit(&QueryRequest::top_k(2).users(vec![0]))
        .unwrap();
    let b = server
        .submit(&QueryRequest::top_k(2).users(vec![39]))
        .unwrap();
    a.wait().unwrap();
    b.wait().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < BUILD + BUILD / 2,
        "two first-touch builds must overlap, took {elapsed:?}"
    );
    assert_eq!(server.metrics().local_index_builds(), 2);
    server.shutdown().unwrap();
}

#[test]
fn old_epochs_reclaim_their_shard_local_caches() {
    let old_model = model(60, 30);
    let weak_old = Arc::downgrade(&old_model);
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&old_model))
            .register(BmmFactory)
            .build()
            .unwrap(),
    );
    drop(old_model);

    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(3)
        .workers(2)
        .index_scope(IndexScope::PerShard)
        .build()
        .unwrap();
    // Populate epoch 0's per-shard tier (3 shard solvers + plans).
    server.execute(&QueryRequest::top_k(4)).unwrap();
    assert_eq!(server.metrics().local_index_builds(), 3);
    assert!(weak_old.upgrade().is_some());

    // Swap (re-sharding: different user count) and drain one request on
    // the new epoch: the old epoch — model, shard solvers, shard plans —
    // must become unreachable by refcount alone.
    engine.swap_model(model(45, 30)).unwrap();
    server.execute(&QueryRequest::top_k(4)).unwrap();
    let mut reclaimed = false;
    for _ in 0..200 {
        if weak_old.upgrade().is_none() {
            reclaimed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        reclaimed,
        "epoch 0's shard-local caches kept the old model alive"
    );
    server.shutdown().unwrap();
}

#[test]
fn per_shard_single_backend_plans_without_sampling() {
    // PerShard with one backend mirrors the global single-candidate
    // shortcut: plan once per (shard, k), no sampling, and the planner-run
    // counter grows per shard, not per request.
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(64, 32))
            .register(BmmFactory)
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(4)
        .workers(1)
        .index_scope(IndexScope::PerShard)
        .build()
        .unwrap();
    for _ in 0..3 {
        server.execute(&QueryRequest::top_k(3)).unwrap();
    }
    assert_eq!(engine.planner_runs(), 4, "one shard plan per shard");
    server.shutdown().unwrap();
}

#[test]
fn fn_factories_serve_per_shard_through_the_default_view_build() {
    // A custom backend that never heard of views still works under
    // PerShard: `FnFactory` materializes the shard sub-model.
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(50, 25))
            .register(FnFactory::new("custom", |m: &Arc<MfModel>| {
                Ok(Box::new(mips_core::BmmSolver::build(
                    &ModelView::full(m),
                    ScanTier::F64,
                )) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    );
    let expected = engine.execute(&QueryRequest::top_k(3)).unwrap().results;
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(3)
        .workers(2)
        .index_scope(IndexScope::PerShard)
        .build()
        .unwrap();
    let served = server.execute(&QueryRequest::top_k(3)).unwrap();
    assert_eq!(served.results, expected);
    server.shutdown().unwrap();
}
