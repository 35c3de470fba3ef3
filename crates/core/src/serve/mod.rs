//! The sharded concurrent serving runtime: many requests, many cores, one
//! model.
//!
//! [`crate::engine`] serves one request at a time inside a blocking call.
//! This module turns that library into a traffic-serving system, the
//! ROADMAP's "millions of users" north star:
//!
//! * **Sharding.** The model's users are split into contiguous ranges (the
//!   paper's Fig. 6 partitioning), one `ShardEngine` per shard with its own
//!   [`PreparedPlan`](crate::engine::PreparedPlan) cache and counters.
//!   A request that straddles shards is split and its response reassembled
//!   in request order — including id-lists and exclusion sets that cross
//!   boundaries.
//! * **A persistent worker pool** fed by a bounded multi-producer
//!   submission queue. [`MipsServer::submit`] applies backpressure by
//!   blocking; [`MipsServer::try_submit`] bounces with
//!   [`MipsError::ServerOverloaded`] instead.
//! * **Dynamic micro-batching.** Queued single-user/small sub-requests
//!   targeting the same `(shard, k)` coalesce into one batched solver call
//!   — the paper's batched-GEMM amortization applied to concurrent traffic
//!   — flushing on a size ([`ServerBuilder::max_batch`]) or deadline
//!   ([`ServerBuilder::batch_window`]) threshold.
//! * **Observability.** Per-shard throughput/latency counters and
//!   request-level p50/p99, via [`MipsServer::metrics`].
//! * **Hot model swap.** [`Engine::swap_model`] on the fronted engine is
//!   picked up without restarting the server: each request is admitted
//!   onto the epoch current at submission and served on it end to end,
//!   while the shard topology (re-chunked when the user count changed)
//!   follows the new epoch for subsequent admissions. The micro-batcher
//!   never coalesces across epochs, and [`ServerMetrics`] reports the
//!   serving epoch and swap count.
//! * **Shard-local indexes.** [`ServerBuilder::index_scope`] selects the
//!   granularity of derived state: one global solver set shared by every
//!   shard ([`IndexScope::Global`]), per-shard indexes and plans built
//!   over each shard's user slice ([`IndexScope::PerShard`] — the paper's
//!   optimizer applied to each shard's own data shape), or a per-shard
//!   OPTIMUS choice between the two ([`IndexScope::Auto`]). Shard-local
//!   state is built lazily on first use within a model epoch and reclaimed
//!   with it; results are bit-identical to the global engine either way.
//!
//! Results are bit-identical to sequential [`Engine::execute`] calls; the
//! concurrency is invisible except in the clock.
//!
//! ```
//! use mips_core::engine::{EngineBuilder, QueryRequest};
//! use mips_core::serve::ServerBuilder;
//! use mips_data::synth::{synth_model, SynthConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 120, num_items: 200, num_factors: 8,
//!     ..SynthConfig::default()
//! }));
//! let engine = Arc::new(
//!     EngineBuilder::new().model(model).with_default_backends().build().unwrap(),
//! );
//! let server = ServerBuilder::new()
//!     .engine(engine)
//!     .shards(4)
//!     .workers(2)
//!     .build()
//!     .unwrap();
//! // Submit a few requests concurrently, then wait on each.
//! let handles: Vec<_> = (0..8)
//!     .map(|u| server.submit(&QueryRequest::top_k(5).users(vec![u])).unwrap())
//!     .collect();
//! for handle in handles {
//!     assert_eq!(handle.wait().unwrap().results.len(), 1);
//! }
//! assert_eq!(server.metrics().completed, 8);
//! ```

pub(crate) mod batcher;
pub(crate) mod metrics;
pub(crate) mod queue;
pub(crate) mod shard;
mod worker;

pub use crate::engine::IndexScope;
pub use metrics::{
    escape_json, JsonWriter, LatencyHistogram, LatencySnapshot, ServerMetrics, ShardMetrics,
};

use crate::engine::epoch::{ArcCell, ModelEpoch};
use crate::engine::{lock_recovering, Engine, MipsError, QueryRequest, QueryResponse};
use crate::sync::atomic::Ordering;
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Mutex};
use batcher::BatchPolicy;
use metrics::{ServerCounters, ShardCounters};
use queue::SubmitQueue;
use shard::{Pending, ShardEngine, ShardRouter};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Tunables of the serving runtime — every [`ServerBuilder`] knob as one
/// typed value. Zeroes mean "pick for me" where noted;
/// [`ServeOptions::validate`] (called by [`ServerBuilder::build`]) checks
/// everything else, so a hand-assembled options value and a
/// builder-assembled one are rejected identically.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// User shards (contiguous ranges). `0` = one per available core,
    /// capped by the user count.
    pub shards: usize,
    /// Worker threads in the pool. `0` = match the shard count.
    pub workers: usize,
    /// Submission-queue bound, in sub-requests; the backpressure threshold.
    pub queue_capacity: usize,
    /// Master switch for micro-batching (off = every sub-request is its own
    /// solver call).
    pub batching: bool,
    /// Largest micro-batch, in **users**: the budget for one coalesced
    /// solver call, whether it is 32 single-user requests or four 8-user
    /// ones. Sub-requests at or above this size are served solo.
    pub max_batch: usize,
    /// How long a worker holds a partial batch open for more arrivals.
    /// Zero (the default) flushes adaptively: coalesce whatever is already
    /// queued, never wait.
    pub batch_window: Duration,
    /// Granularity of derived-state construction: whether shards share the
    /// epoch's global solver set and plans ([`IndexScope::Global`], the
    /// default), build their own over their user slice
    /// ([`IndexScope::PerShard`]), or let per-shard OPTIMUS decide shard by
    /// shard ([`IndexScope::Auto`]). Results are bit-identical whatever
    /// the scope.
    pub index_scope: IndexScope,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            shards: 0,
            workers: 0,
            queue_capacity: 1024,
            batching: true,
            max_batch: 32,
            batch_window: Duration::ZERO,
            index_scope: IndexScope::Global,
        }
    }
}

impl ServeOptions {
    /// Checks the invariants that do not depend on the engine being served
    /// (`0 = pick for me` resolution and the queue-vs-shard admission bound
    /// happen in [`ServerBuilder::build`], which calls this first).
    pub fn validate(&self) -> Result<(), MipsError> {
        if !self.batching && self.batch_window > Duration::ZERO {
            // A window without batching would be silently ignored — the
            // caller asked for deadline coalescing the runtime would never
            // perform.
            return Err(MipsError::InvalidConfig(
                "batch_window requires batching to be enabled".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(MipsError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(MipsError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Step-by-step assembly of a [`MipsServer`].
#[derive(Default)]
pub struct ServerBuilder {
    engine: Option<Arc<Engine>>,
    config: ServeOptions,
    /// Whether [`ServerBuilder::shards`]/[`ServerBuilder::workers`] were
    /// called explicitly: an explicit `0` is a configuration error, while
    /// an untouched builder (or a wholesale [`ServerBuilder::config`])
    /// keeps the documented `0 = pick for me` resolution.
    shards_set: bool,
    workers_set: bool,
}

impl ServerBuilder {
    /// An empty builder with default tunables.
    pub fn new() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The engine to serve (model + backends + planner). Shared: the same
    /// engine can keep serving direct `execute` calls.
    pub fn engine(mut self, engine: Arc<Engine>) -> ServerBuilder {
        self.engine = Some(engine);
        self
    }

    /// Sets the shard count (contiguous user ranges). Passing `0` here is
    /// rejected at [`ServerBuilder::build`]: omit the call for automatic
    /// sizing.
    pub fn shards(mut self, shards: usize) -> ServerBuilder {
        self.config.shards = shards;
        self.shards_set = true;
        self
    }

    /// Sets the worker-pool size. Passing `0` here is rejected at
    /// [`ServerBuilder::build`]: omit the call for automatic sizing (one
    /// worker per shard).
    pub fn workers(mut self, workers: usize) -> ServerBuilder {
        self.config.workers = workers;
        self.workers_set = true;
        self
    }

    /// Sets the submission-queue bound (sub-requests).
    pub fn queue_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.config.queue_capacity = capacity;
        self
    }

    /// Enables or disables micro-batching.
    pub fn batching(mut self, enabled: bool) -> ServerBuilder {
        self.config.batching = enabled;
        self
    }

    /// Sets the micro-batch budget (users per coalesced solver call).
    pub fn max_batch(mut self, max_batch: usize) -> ServerBuilder {
        self.config.max_batch = max_batch;
        self
    }

    /// Sets the deadline-flush window (zero = adaptive flush only).
    pub fn batch_window(mut self, window: Duration) -> ServerBuilder {
        self.config.batch_window = window;
        self
    }

    /// Sets the index scope: global derived state (default), shard-local
    /// construction, or per-shard OPTIMUS choice. See [`IndexScope`].
    pub fn index_scope(mut self, scope: IndexScope) -> ServerBuilder {
        self.config.index_scope = scope;
        self
    }

    /// Sets every serving option at once.
    pub fn options(mut self, options: ServeOptions) -> ServerBuilder {
        self.config = options;
        self
    }

    /// Validates the assembly, spawns the worker pool, and returns the
    /// running server.
    pub fn build(self) -> Result<MipsServer, MipsError> {
        let engine = self
            .engine
            .ok_or_else(|| MipsError::InvalidConfig("a server needs an engine".into()))?;
        let mut config = self.config;
        if self.shards_set && config.shards == 0 {
            return Err(MipsError::InvalidConfig(
                "shards must be at least 1 (omit the call for automatic sizing)".into(),
            ));
        }
        if self.workers_set && config.workers == 0 {
            return Err(MipsError::InvalidConfig(
                "workers must be at least 1 (omit the call for automatic sizing)".into(),
            ));
        }
        config.validate()?;
        if config.shards == 0 {
            config.shards = crate::sync::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
        }
        if config.workers == 0 {
            config.workers = config.shards;
        }
        if config.queue_capacity < config.shards.min(engine.model().num_users()) {
            // A request can split into one sub-request per shard; a queue
            // smaller than that could only admit such a request into an
            // empty queue, which sustained small traffic can starve forever.
            // (Topology rebuilds after a model swap additionally cap the
            // effective shard count at `queue_capacity`, so the guarantee
            // survives swaps that grow the user count.)
            return Err(MipsError::InvalidConfig(format!(
                "queue_capacity ({}) must be at least the shard count ({}) \
                 so any request can be admitted",
                config.queue_capacity,
                config.shards.min(engine.model().num_users())
            )));
        }

        let snapshot = engine.snapshot();
        let counters = Arc::new(ServerCounters::default());
        let topology = Arc::new(build_topology(&engine, &snapshot, &config, None));
        let shared = Arc::new(ServerShared {
            engine,
            topology: ArcCell::new(topology),
            rebuild: Mutex::new(()),
            queue: SubmitQueue::new(config.queue_capacity),
            policy: BatchPolicy {
                enabled: config.batching,
                max_batch: config.max_batch,
                window: config.batch_window,
            },
            counters,
            config: config.clone(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("mips-serve-{i}"))
                    .spawn(move || worker::run_worker(shared))
                    .map_err(|e| MipsError::InvalidConfig(format!("spawning worker {i}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MipsServer { shared, workers })
    }
}

/// The shard layout for one model epoch: the router that splits requests
/// plus the epoch-pinned [`ShardEngine`] each shard executes on.
///
/// A model swap does not mutate a topology — a fresh one is built for the
/// new epoch on the next admission (see [`ServerShared::topology_for`]) and
/// installed atomically, so in-flight sub-requests keep their old shard
/// engines until they settle.
pub(crate) struct Topology {
    pub(crate) epoch: u64,
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<Arc<ShardEngine>>,
}

/// Builds the topology serving `snapshot`: shards re-chunk to the epoch's
/// user count (capped by the configured shard count and, post-swap, the
/// queue capacity — so a whole-model request always fits the queue). When
/// the previous topology has identical bounds, per-shard counters carry
/// over so swap-induced rebuilds do not reset cumulative metrics; a
/// re-shard (changed bounds) starts them afresh.
fn build_topology(
    engine: &Arc<Engine>,
    snapshot: &Arc<ModelEpoch>,
    config: &ServeOptions,
    previous: Option<&Topology>,
) -> Topology {
    let shard_cap = config.shards.min(config.queue_capacity);
    let router = ShardRouter::new(snapshot.model.num_users(), shard_cap);
    let carry_over =
        previous.filter(|prev| prev.router.bounds() == router.bounds() && !prev.shards.is_empty());
    let shards = router
        .bounds()
        .iter()
        .enumerate()
        .map(|(i, users)| {
            let counters = match carry_over {
                Some(prev) => Arc::clone(&prev.shards[i].counters),
                None => Arc::new(ShardCounters::default()),
            };
            Arc::new(ShardEngine::new(
                i,
                users.clone(),
                config.index_scope,
                Arc::clone(engine),
                Arc::clone(snapshot),
                counters,
            ))
        })
        .collect();
    Topology {
        epoch: snapshot.id,
        router,
        shards,
    }
}

/// State shared between the server handle and its workers.
pub(crate) struct ServerShared {
    pub(crate) engine: Arc<Engine>,
    /// The topology serving the newest epoch the server has seen.
    pub(crate) topology: ArcCell<Topology>,
    /// Serializes topology rebuilds so concurrent submitters after a swap
    /// build the new shard set once, not once each.
    rebuild: Mutex<()>,
    pub(crate) queue: SubmitQueue,
    pub(crate) policy: BatchPolicy,
    pub(crate) counters: Arc<ServerCounters>,
    pub(crate) config: ServeOptions,
}

impl ServerShared {
    /// The topology for the given epoch snapshot, rebuilding (and
    /// installing) it when the engine has swapped since the last admission.
    ///
    /// Returns `None` when `snapshot` is already older than the installed
    /// topology (another submitter raced a newer swap in): the caller must
    /// re-snapshot and re-validate on the newer epoch. This keeps the
    /// installed topology's epoch monotonic and ensures every admitted
    /// sub-request lands on shard counters that [`MipsServer::metrics`]
    /// can see — no orphan topologies.
    pub(crate) fn topology_for(&self, snapshot: &Arc<ModelEpoch>) -> Option<Arc<Topology>> {
        let current = self.topology.load();
        if current.epoch == snapshot.id {
            return Some(current);
        }
        if current.epoch > snapshot.id {
            return None;
        }
        let _rebuild = lock_recovering(&self.rebuild);
        let current = self.topology.load();
        if current.epoch == snapshot.id {
            return Some(current);
        }
        if current.epoch > snapshot.id {
            return None;
        }
        let fresh = Arc::new(build_topology(
            &self.engine,
            snapshot,
            &self.config,
            Some(&current),
        ));
        self.topology.swap_with(|_| Arc::clone(&fresh));
        self.counters.swaps.fetch_add(1, Ordering::Relaxed);
        Some(fresh)
    }
}

/// A waitable in-flight request returned by [`MipsServer::submit`].
#[must_use = "wait() on the handle to get the response"]
pub struct ResponseHandle {
    pending: Arc<Pending>,
}

impl ResponseHandle {
    /// Blocks until the request completes, returning the reassembled
    /// response (or the first error any shard hit).
    pub fn wait(self) -> Result<QueryResponse, MipsError> {
        self.pending.wait()
    }

    /// Whether the request has already completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.pending.is_finished()
    }
}

/// The sharded concurrent serving runtime. See the [module docs](self).
pub struct MipsServer {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl MipsServer {
    /// Starts assembling a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The effective serving options (after `0 = auto` resolution).
    pub fn options(&self) -> &ServeOptions {
        &self.shared.config
    }

    /// The contiguous user range of each shard of the current topology
    /// (a snapshot: a model swap that changes the user count re-chunks).
    pub fn shard_bounds(&self) -> Vec<Range<usize>> {
        self.shared.topology.load().router.bounds().to_vec()
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Validates and enqueues a request, blocking while the submission
    /// queue is over capacity (backpressure). Returns a handle to wait on.
    pub fn submit(&self, request: &QueryRequest) -> Result<ResponseHandle, MipsError> {
        self.submit_inner(request, true)
    }

    /// [`MipsServer::submit`], but a full queue returns
    /// [`MipsError::ServerOverloaded`] instead of blocking.
    pub fn try_submit(&self, request: &QueryRequest) -> Result<ResponseHandle, MipsError> {
        self.submit_inner(request, false)
    }

    /// Submits and waits: the drop-in concurrent replacement for
    /// [`Engine::execute`].
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, MipsError> {
        self.submit(request)?.wait()
    }

    fn submit_inner(
        &self,
        request: &QueryRequest,
        block: bool,
    ) -> Result<ResponseHandle, MipsError> {
        // One epoch snapshot per request: validation, splitting, planning,
        // and serving all resolve against it, so a concurrent swap_model
        // can never tear a request across two models. If a newer epoch was
        // installed while validating (rare swap race), retry on it —
        // epochs are monotonic, so this terminates.
        let (snapshot, topology) = loop {
            let snapshot = self.shared.engine.snapshot();
            request.validate(&snapshot.model)?;
            if let Some(topology) = self.shared.topology_for(&snapshot) {
                break (snapshot, topology);
            }
        };
        let now = Instant::now();
        let result_len = request.result_len(&snapshot.model);
        let pending = Arc::new(Pending::with_counters(
            result_len,
            now,
            Some(Arc::clone(&self.shared.counters)),
            snapshot.id,
        ));
        let subs = topology
            .router
            .split(request, &pending, now, &topology.shards);
        debug_assert!(!subs.is_empty(), "validated requests select users");
        // Safe to set after splitting: no worker sees the subs until
        // push_all succeeds below.
        pending.set_parts(subs.len());
        // Count shard submissions only after admission succeeds, so bounced
        // requests never show up as phantom in-flight work in ShardMetrics.
        let shard_counters: Vec<Arc<ShardCounters>> = subs
            .iter()
            .map(|s| Arc::clone(&s.engine.counters))
            .collect();
        match self.shared.queue.push_all(subs, block) {
            Ok(()) => {
                for counters in &shard_counters {
                    counters.add(&counters.submitted, 1);
                }
                self.shared
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(ResponseHandle { pending })
            }
            Err(error) => {
                if matches!(error, MipsError::ServerOverloaded { .. }) {
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(error)
            }
        }
    }

    /// Snapshots every counter: request-level throughput/latency plus the
    /// per-shard breakdown of the current topology (per-shard counters
    /// survive swaps that keep the shard bounds; a re-shard resets them).
    pub fn metrics(&self) -> ServerMetrics {
        let topology = self.shared.topology.load();
        ServerMetrics {
            submitted: self.shared.counters.submitted.load(Ordering::Relaxed),
            completed: self.shared.counters.completed.load(Ordering::Relaxed),
            rejected: self.shared.counters.rejected.load(Ordering::Relaxed),
            failed: self.shared.counters.failed.load(Ordering::Relaxed),
            epoch: topology.epoch,
            index_scope: self.shared.config.index_scope,
            precision: self.shared.engine.precision(),
            swaps: self.shared.counters.swaps.load(Ordering::Relaxed),
            latency: self.shared.counters.latency.snapshot(),
            shards: topology.shards.iter().map(|s| s.metrics()).collect(),
        }
    }

    /// Drains in-flight work and stops the pool. Also happens on `Drop`;
    /// the explicit form surfaces worker panics as a `Result`.
    pub fn shutdown(mut self) -> Result<(), MipsError> {
        self.shared.queue.close();
        let mut panicked = false;
        for worker in self.workers.drain(..) {
            panicked |= worker.join().is_err();
        }
        if panicked {
            return Err(MipsError::WorkerPanicked {
                message: "worker thread exited abnormally".into(),
            });
        }
        Ok(())
    }
}

impl Drop for MipsServer {
    fn drop(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for MipsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topology = self.shared.topology.load();
        f.debug_struct("MipsServer")
            .field("epoch", &topology.epoch)
            .field("shards", &topology.router.num_shards())
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.config.queue_capacity)
            .field("batching", &self.shared.policy.enabled)
            .field("max_batch", &self.shared.policy.max_batch)
            .field("index_scope", &self.shared.config.index_scope)
            .finish()
    }
}
