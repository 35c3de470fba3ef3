//! Stress and correctness suite for the sharded serving runtime.
//!
//! The load-bearing property: whatever the shard count, worker count,
//! batching policy, or submission concurrency, every response is
//! **bit-identical** to a sequential [`Engine::execute`] on the same
//! engine — sharding, coalescing, and reassembly must be invisible except
//! in the clock.

use mips_core::engine::{Engine, EngineBuilder, ExclusionSet, FnFactory, MipsError, QueryRequest};
use mips_core::optimus::OptimusConfig;
use mips_core::serve::ServerBuilder;
use mips_core::solver::MipsSolver;
use mips_core::ScanTier;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::{MfModel, ModelView};
use mips_linalg::CacheConfig;
use mips_topk::TopKList;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

fn model(users: usize, items: usize) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: items,
        num_factors: 8,
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

fn engine(users: usize, items: usize) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(model(users, items))
            .with_default_backends()
            .optimus(tiny_optimus())
            .build()
            .unwrap(),
    )
}

/// A corpus of mixed requests: every selection shape, boundary-straddling
/// ranges and id-lists, repeated ids, exclusion sets that cross shards,
/// and k from 1 to the whole catalog.
fn mixed_corpus(engine: &Engine) -> Vec<QueryRequest> {
    let num_users = engine.model().num_users();
    let num_items = engine.model().num_items();
    // Exclusions for users on both sides of every shard boundary of a
    // 3-shard split, including a power user with a huge list.
    let mut exclusions = ExclusionSet::new();
    for u in [0, num_users / 3, num_users / 3 + 1, num_users - 1] {
        for item in 0..5u32 {
            exclusions.insert(u, item * 3);
        }
    }
    for item in 0..(num_items as u32 * 2 / 3) {
        exclusions.insert(1, item); // power user: excludes 2/3 of the catalog
    }
    let exclusions = Arc::new(exclusions);
    vec![
        QueryRequest::top_k(1),
        QueryRequest::top_k(5),
        QueryRequest::top_k(num_items), // k = whole catalog
        QueryRequest::top_k(7).users_range(0..num_users),
        QueryRequest::top_k(3).users_range(num_users / 3 - 1..num_users / 3 + 2),
        QueryRequest::top_k(4).users_range(num_users - 1..num_users),
        QueryRequest::top_k(2).users(vec![num_users - 1, 0, num_users / 2]),
        QueryRequest::top_k(6).users(vec![5, 5, num_users - 1, 5, 0, num_users / 3]),
        QueryRequest::top_k(3).users((0..num_users).rev().collect::<Vec<_>>()),
        QueryRequest::top_k(5).exclude(Arc::clone(&exclusions)),
        QueryRequest::top_k(2)
            .users(vec![1, 0, num_users / 3, num_users - 1])
            .exclude(Arc::clone(&exclusions)),
        QueryRequest::top_k(4)
            .users_range(0..num_users / 2 + 1)
            .exclude(exclusions),
    ]
}

#[test]
fn concurrent_mixed_requests_are_bit_identical_to_sequential() {
    let engine = engine(97, 120); // 97 users: ragged over any shard count
    let corpus = mixed_corpus(&engine);
    let expected: Vec<Vec<TopKList>> = corpus
        .iter()
        .map(|request| engine.execute(request).unwrap().results)
        .collect();

    for (shards, workers, batching) in [(3, 4, true), (4, 2, false), (97, 8, true)] {
        let server = ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(shards)
            .workers(workers)
            .batching(batching)
            .max_batch(8)
            .build()
            .unwrap();
        // 6 submitter threads × 4 passes, each walking the corpus from a
        // different offset so shard queues interleave differently.
        std::thread::scope(|scope| {
            for t in 0..6 {
                let server = &server;
                let corpus = &corpus;
                let expected = &expected;
                scope.spawn(move || {
                    for pass in 0..4 {
                        let mut handles = Vec::new();
                        for i in 0..corpus.len() {
                            let idx = (i * 7 + t + pass) % corpus.len();
                            handles.push((idx, server.submit(&corpus[idx]).unwrap()));
                        }
                        for (idx, handle) in handles {
                            let response = handle.wait().unwrap();
                            assert_eq!(
                                response.results, expected[idx],
                                "request {idx} diverged (shards={shards} workers={workers} batching={batching})"
                            );
                            assert!(response.planned);
                            assert!(!response.backend.is_empty());
                        }
                    }
                });
            }
        });
        let metrics = server.metrics();
        assert_eq!(metrics.submitted, 6 * 4 * corpus.len() as u64);
        assert_eq!(metrics.completed, metrics.submitted);
        assert_eq!(metrics.failed, 0);
        assert_eq!(metrics.latency.count, metrics.completed);
        let shard_submitted: u64 = metrics.shards.iter().map(|s| s.submitted).sum();
        let shard_completed: u64 = metrics.shards.iter().map(|s| s.completed).sum();
        assert_eq!(shard_submitted, shard_completed);
        assert!(shard_completed >= metrics.completed);
        server.shutdown().unwrap();
    }
}

#[test]
fn ragged_boundaries_cover_every_user_exactly_once() {
    let engine = engine(41, 30);
    for shards in [1, 2, 3, 5, 7, 40, 41, 64] {
        let server = ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(shards)
            .workers(2)
            .build()
            .unwrap();
        let bounds: Vec<Range<usize>> = server.shard_bounds().to_vec();
        assert!(bounds.len() <= shards.min(41));
        assert_eq!(bounds[0].start, 0);
        assert_eq!(bounds.last().unwrap().end, 41);
        for pair in bounds.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "contiguous, no gaps");
        }
        let response = server.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(response.results.len(), 41);
    }
}

#[test]
fn k_edges_match_sequential_and_invalid_k_is_a_typed_error() {
    let engine = engine(23, 16);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(4) // users-per-shard (6) < catalog size; k spans both
        .workers(3)
        .build()
        .unwrap();
    for k in [1, 5, 6, 16] {
        // k ≥ users-per-shard and k = num_items included.
        let request = QueryRequest::top_k(k);
        assert_eq!(
            server.execute(&request).unwrap().results,
            engine.execute(&request).unwrap().results,
            "k={k}"
        );
    }
    assert_eq!(
        server.execute(&QueryRequest::top_k(0)).unwrap_err(),
        MipsError::InvalidK {
            k: 0,
            num_items: 16
        }
    );
    assert_eq!(
        server.execute(&QueryRequest::top_k(17)).unwrap_err(),
        MipsError::InvalidK {
            k: 17,
            num_items: 16
        }
    );
    assert!(server
        .execute(&QueryRequest::top_k(3).users(vec![23]))
        .is_err());
    assert!(server
        .execute(&QueryRequest::top_k(3).users(Vec::new()))
        .is_err());
}

#[test]
fn single_backend_server_matches_direct_solver() {
    // MAXIMUS takes a different sequential path for query_all (cluster
    // membership order) than for ranges; the server's range splits must
    // still reproduce it bit-for-bit.
    use mips_core::engine::MaximusFactory;
    use mips_core::maximus::MaximusConfig;
    let m = model(60, 48);
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(MaximusFactory::new(MaximusConfig {
                num_clusters: 3,
                block_size: 8,
                ..MaximusConfig::default()
            }))
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(4)
        .workers(2)
        .build()
        .unwrap();
    for request in [
        QueryRequest::top_k(5),
        QueryRequest::top_k(5).users_range(13..44),
        QueryRequest::top_k(5).users(vec![59, 0, 17, 17, 30]),
    ] {
        assert_eq!(
            server.execute(&request).unwrap().results,
            engine.execute(&request).unwrap().results
        );
    }
}

#[test]
fn micro_batching_coalesces_single_user_traffic_without_changing_results() {
    let engine = engine(64, 80);
    let expected = engine.execute(&QueryRequest::top_k(5)).unwrap().results;
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(2)
        .workers(1) // one worker: the backlog forms, batches must fill
        .max_batch(16)
        .batch_window(Duration::from_millis(2))
        .build()
        .unwrap();
    // Flood with single-user requests; a single worker guarantees a queue
    // backlog, so the adaptive batcher must coalesce.
    let handles: Vec<_> = (0..64)
        .map(|u| {
            (
                u,
                server
                    .submit(&QueryRequest::top_k(5).users(vec![u]))
                    .unwrap(),
            )
        })
        .collect();
    for (u, handle) in handles {
        assert_eq!(handle.wait().unwrap().results[0], expected[u], "user {u}");
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 64);
    assert!(
        metrics.batches() < 64,
        "single-user flood must coalesce: {} batches for 64 requests",
        metrics.batches()
    );
    assert!(metrics.coalesced() > 0);
    assert!(metrics.mean_batch_size() > 1.0);
}

#[test]
fn try_submit_applies_backpressure_and_blocking_submit_recovers() {
    /// A solver that serves slowly enough to hold the queue full.
    struct SlowSolver {
        inner: mips_core::BmmSolver,
    }
    impl MipsSolver for SlowSolver {
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
            self.inner.num_users()
        }
        fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
            std::thread::sleep(Duration::from_millis(30));
            self.inner.query_range(k, users)
        }
        fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
            std::thread::sleep(Duration::from_millis(30));
            self.inner.query_subset(k, users)
        }
    }
    let m = model(16, 20);
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(FnFactory::new("slow", |model: &Arc<MfModel>| {
                Ok(Box::new(SlowSolver {
                    inner: mips_core::BmmSolver::build(&ModelView::full(model), ScanTier::F64),
                }) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(engine)
        .shards(1)
        .workers(1)
        .queue_capacity(2)
        .batching(false)
        .build()
        .unwrap();
    // Fill the pipeline: one request executing, two queued.
    let running: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(&QueryRequest::top_k(2).users(vec![0]))
                .unwrap()
        })
        .collect();
    // The queue (capacity 2) is now full more often than not; hammer
    // try_submit until backpressure shows.
    let mut bounced = false;
    for _ in 0..50 {
        match server.try_submit(&QueryRequest::top_k(2).users(vec![1])) {
            Err(MipsError::ServerOverloaded { capacity: 2 }) => {
                bounced = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(handle) => {
                handle.wait().unwrap();
            }
        }
    }
    assert!(bounced, "try_submit never hit backpressure");
    assert!(server.metrics().rejected >= 1);
    // Blocking submit waits out the backlog instead of bouncing.
    let late = server
        .submit(&QueryRequest::top_k(2).users(vec![2]))
        .unwrap();
    assert_eq!(late.wait().unwrap().results.len(), 1);
    for handle in running {
        handle.wait().unwrap();
    }
}

#[test]
fn worker_panic_fails_the_request_but_not_the_server() {
    /// Panics when asked for user 13, serves everyone else.
    struct TrapSolver {
        inner: mips_core::BmmSolver,
    }
    impl TrapSolver {
        fn check(&self, users: &[usize]) {
            if users.contains(&13) {
                panic!("user 13 is cursed");
            }
        }
    }
    impl MipsSolver for TrapSolver {
        fn name(&self) -> &str {
            "trap"
        }
        fn build_seconds(&self) -> f64 {
            0.0
        }
        fn batches_users(&self) -> bool {
            true
        }
        fn num_users(&self) -> usize {
            self.inner.num_users()
        }
        fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
            self.check(&users.clone().collect::<Vec<_>>());
            self.inner.query_range(k, users)
        }
        fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
            self.check(users);
            self.inner.query_subset(k, users)
        }
    }
    let m = model(20, 15);
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(FnFactory::new("trap", |model: &Arc<MfModel>| {
                Ok(Box::new(TrapSolver {
                    inner: mips_core::BmmSolver::build(&ModelView::full(model), ScanTier::F64),
                }) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(engine)
        .shards(2)
        .workers(2)
        .build()
        .unwrap();
    let err = server
        .execute(&QueryRequest::top_k(2).users(vec![13]))
        .unwrap_err();
    assert!(
        matches!(&err, MipsError::WorkerPanicked { message } if message.contains("cursed")),
        "{err:?}"
    );
    // The pool survives and keeps serving; the failure is counted.
    let ok = server
        .execute(&QueryRequest::top_k(2).users(vec![1]))
        .unwrap();
    assert_eq!(ok.results.len(), 1);
    let metrics = server.metrics();
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.completed, 2);
    // The panicked batch still settles its shard counters: no phantom
    // in-flight work is left behind.
    let submitted: u64 = metrics.shards.iter().map(|s| s.submitted).sum();
    let completed: u64 = metrics.shards.iter().map(|s| s.completed).sum();
    assert_eq!(submitted, completed);
    server.shutdown().unwrap();
}

#[test]
fn shutdown_rejects_new_work_and_drop_joins_workers() {
    let engine = engine(12, 10);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(2)
        .workers(2)
        .build()
        .unwrap();
    let handle = server.submit(&QueryRequest::top_k(2)).unwrap();
    assert_eq!(handle.wait().unwrap().results.len(), 12);
    server.shutdown().unwrap();
    // A dropped server also joins cleanly (no hang, no panic).
    let server = ServerBuilder::new()
        .engine(engine)
        .shards(1)
        .workers(1)
        .build()
        .unwrap();
    let _ = server.execute(&QueryRequest::top_k(1)).unwrap();
    drop(server);
}

#[test]
fn builder_rejects_bad_assemblies() {
    let engine = engine(8, 8);
    assert!(matches!(
        ServerBuilder::new().build(),
        Err(MipsError::InvalidConfig(_))
    ));
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .queue_capacity(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .max_batch(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // A queue smaller than the shard count could never admit an all-shard
    // request except into an empty queue (starvable): rejected at build.
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(8)
            .queue_capacity(4)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // An explicit zero shard/worker count is a configuration error, not a
    // silent fall-through to automatic sizing.
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // A deadline window with batching disabled would be silently ignored:
    // rejected instead.
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .batching(false)
            .batch_window(Duration::from_micros(100))
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // The order of the two calls must not matter.
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .batch_window(Duration::from_micros(100))
            .batching(false)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // Auto knobs resolve to sane values.
    let server = ServerBuilder::new().engine(engine).build().unwrap();
    assert!(server.worker_count() >= 1);
    assert!(!server.shard_bounds().is_empty());
    assert!(server.options().shards >= 1);
}

#[test]
fn plans_are_shared_across_shards_not_resampled() {
    let engine = engine(90, 40);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .shards(6)
        .workers(3)
        .build()
        .unwrap();
    server.execute(&QueryRequest::top_k(4)).unwrap();
    // The first request fans out to 6 shards over 3 workers; first-touch
    // planning installs compare-and-swap style, so up to one planner run
    // per concurrently racing worker — never one per shard, and no convoy.
    let first_wave = engine.planner_runs();
    assert!(
        (1..=3).contains(&first_wave),
        "{first_wave} planner runs for the first request"
    );
    for _ in 0..3 {
        server.execute(&QueryRequest::top_k(4)).unwrap();
    }
    // Steady state: the installed plan is shared by all shards; nothing
    // re-samples.
    assert_eq!(engine.planner_runs(), first_wave);
}
