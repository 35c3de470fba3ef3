//! The dynamic micro-batcher: coalescing small requests into one solver
//! call.
//!
//! The paper's central measurement is that batched GEMM amortizes per-query
//! work — a `32 × f · f × n` multiply is far cheaper than 32 separate
//! `1 × f` passes over the item matrix (§II-B; LEMP makes the same
//! observation with bucket-batched probing). Single-user traffic squanders
//! that, so the batcher coalesces queued sub-requests that target the same
//! shard engine at the same `k` into one `query_subset` call:
//!
//! * **Adaptive flush (default).** A worker pops one sub-request, then
//!   extracts every queued match up to `max_batch`. Under light load the
//!   queue is empty and requests serve solo with zero added latency; under
//!   heavy load a backlog forms and batches fill — throughput rises exactly
//!   when it is needed.
//! * **Deadline flush (`batch_window > 0`).** After draining the backlog a
//!   worker holds the partial batch open, absorbing arrivals, then flushes.
//!   The hold-open window is anchored at **pop time** (when the worker
//!   starts assembling the batch), not at the leader's submission time: a
//!   leader that already sat in the queue for a full window — exactly the
//!   backlog situation where coalescing pays most — still gets a window's
//!   worth of arrivals. To keep queue delay from compounding unboundedly,
//!   the hold-open is capped so the leader's **total** queue latency
//!   (submission → flush) never exceeds [`QUEUE_LATENCY_CAP`] windows; a
//!   leader already past that cap flushes immediately with whatever the
//!   backlog drain produced.
//!
//! Coalescing is transparent: every solver's `query_subset` produces
//! per-user results that are independent of batch composition (the stress
//! suite asserts bit-identical results against sequential
//! [`Engine::execute`](crate::engine::Engine::execute) calls), and
//! exclusion-carrying sub-requests are never coalesced, because two
//! requests may exclude different items for the same user. Model epochs
//! are respected by construction: the batch key is the identity of the
//! shard engine (which pins one epoch), so sub-requests admitted before
//! and after a [`swap_model`](crate::engine::Engine::swap_model) can never
//! share a solver call.

use super::queue::{BoundedQueue, QueueItem};
use super::shard::{SubRequest, SubUsers};
use crate::engine::serve;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on a deadline-flush leader's total queue latency, in units of
/// `batch_window`: the hold-open never extends a leader's
/// submission-to-flush delay beyond this many windows. See the module docs
/// for the semantics.
pub const QUEUE_LATENCY_CAP: u32 = 4;

/// Flush policy for the micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Whether coalescing is enabled at all.
    pub enabled: bool,
    /// Budget of one coalesced solver call, in units of item weight
    /// (users).
    pub max_batch: usize,
    /// Deadline-flush hold-open window; zero disables the hold-open.
    pub window: Duration,
}

/// Gathers the micro-batch led by `first`: drains queued matches, then
/// (with a deadline policy) holds the batch open for the window — anchored
/// at pop time, capped by the leader's total queue latency (module docs).
/// Generic over [`QueueItem`] so the model-check suite can drive the exact
/// coalescing protocol with toy items.
pub fn collect_batch<I: QueueItem>(
    queue: &BoundedQueue<I>,
    first: I,
    policy: &BatchPolicy,
) -> Vec<I> {
    let key = first.key();
    // `max_batch` budgets the coalesced solver call in *users*: a batch of
    // 32 single-user requests and a batch of four 8-user requests cost the
    // same, and a small request is never made to wait behind a coalesced
    // call bigger than the knob promises.
    let mut budget = policy.max_batch.saturating_sub(first.weight());
    let mut batch = vec![first];
    queue.extract_matching(key, budget, policy.max_batch, &mut batch);
    budget = policy
        .max_batch
        .saturating_sub(batch.iter().map(|s| s.weight()).sum());
    if budget > 0 && !policy.window.is_zero() {
        let now = Instant::now();
        let latency_cap = batch[0].submitted_at() + policy.window * QUEUE_LATENCY_CAP;
        let deadline = (now + policy.window).min(latency_cap);
        if deadline > now {
            queue.extract_until(
                key,
                policy.max_batch,
                policy.max_batch,
                deadline,
                &mut batch,
            );
        }
    }
    batch
}

/// Executes one batch (one or many coalesced sub-requests) on the shard
/// engine every sub-request in it is pinned to, scattering results back
/// into each pending response. Request-level completion metrics roll up
/// inside the pending itself, before any waiter wakes. `progress` counts
/// subs whose shard `completed` counter has been bumped — the worker's
/// panic handler uses it to settle the remainder so
/// `submitted == completed` holds even across backend panics.
pub(crate) fn execute_batch(batch: Vec<SubRequest>, progress: &AtomicUsize) {
    debug_assert!(!batch.is_empty());
    // The batch key guarantees one shard engine (hence one epoch) per
    // batch.
    debug_assert!(batch
        .iter()
        .all(|s| Arc::ptr_eq(&s.engine, &batch[0].engine)));
    let shard = Arc::clone(&batch[0].engine);
    debug_assert!(batch
        .iter()
        .all(|s| s.shard == shard.index && s.epoch == shard.epoch.id));
    let k = batch[0].k;
    let settle_one = |sub: &SubRequest| {
        shard.counters.add(&shard.counters.completed, 1);
        shard
            .counters
            .latency
            .record_ns(sub.submitted_at.elapsed().as_nanos() as u64);
        progress.fetch_add(1, Ordering::Relaxed);
    };

    let plan = match shard.plan(k) {
        Ok(plan) => plan,
        Err(error) => {
            for sub in &batch {
                settle_one(sub);
                sub.pending.fail(error.clone());
            }
            return;
        }
    };
    let model = plan.model();
    let solver = plan.solver();

    let started = Instant::now();
    let outcome = if batch.len() == 1 {
        // Solo path: ranges stay ranges, exclusions allowed.
        let request = batch[0].to_request();
        serve(model, solver, 1, &request, true, plan.epoch()).map(|r| r.results)
    } else {
        // Coalesced path: concatenate ids into one gathered batch. Repeats
        // across sub-requests are fine — the solver's dedup fans results
        // back out per occurrence.
        let mut users: Vec<usize> = Vec::with_capacity(batch.iter().map(|s| s.users.len()).sum());
        for sub in &batch {
            match &sub.users {
                SubUsers::Range { users: r, .. } => users.extend(r.clone()),
                SubUsers::Ids { users: ids, .. } => users.extend_from_slice(ids),
            }
        }
        let request = crate::engine::QueryRequest {
            k,
            users: crate::engine::UserSelection::Ids(users),
            exclude: None,
        };
        serve(model, solver, 1, &request, true, plan.epoch()).map(|r| r.results)
    };
    let busy_ns = started.elapsed().as_nanos() as u64;

    // Roll up shard counters before scattering so metrics never lag the
    // caller's wakeup.
    let total_users: usize = batch.iter().map(|s| s.users.len()).sum();
    shard.counters.add(&shard.counters.batches, 1);
    if plan.precision() == crate::precision::Precision::I8Rescore {
        shard.counters.add(&shard.counters.i8_batches, 1);
    }
    // Fold the solver's screen work into the shard's screen counters.
    // Under concurrency another worker's in-flight scan may drain here —
    // attribution is per-shard, but no count is lost or double-counted, so
    // the totals stay exact.
    if let Some(tally) = solver.take_screen_stats() {
        shard
            .counters
            .add(&shard.counters.screen_candidates_i8, tally.screened);
        shard
            .counters
            .add(&shard.counters.screen_survivors_i8, tally.rescored);
    }
    shard.counters.add(&shard.counters.busy_ns, busy_ns);
    shard
        .counters
        .add(&shard.counters.users_served, total_users as u64);
    if batch.len() > 1 {
        shard
            .counters
            .add(&shard.counters.coalesced, batch.len() as u64);
    }

    match outcome {
        Ok(mut results) => {
            debug_assert_eq!(results.len(), total_users);
            // Scatter back to front so each split_off is O(its own slice).
            for sub in batch.iter().rev() {
                let lists = results.split_off(results.len() - sub.users.len());
                // Count and time *before* completing: the last completion
                // wakes the waiter, and metrics must already be consistent
                // when it reads them.
                settle_one(sub);
                sub.pending
                    .complete(&sub.users, lists, plan.backend_name(), plan.precision());
            }
        }
        Err(error) => {
            for sub in &batch {
                settle_one(sub);
                sub.pending.fail(error.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::queue::SubmitQueue;
    use crate::serve::shard::{test_engines, Pending, ShardEngine, ShardRouter};
    use crate::sync::Arc;

    fn policy(window: Duration) -> BatchPolicy {
        BatchPolicy {
            enabled: true,
            max_batch: 8,
            window,
        }
    }

    fn sub_at(engine: &Arc<ShardEngine>, user: usize, submitted_at: Instant) -> SubRequest {
        SubRequest {
            shard: engine.index,
            epoch: engine.epoch.id,
            k: 2,
            users: SubUsers::Ids {
                users: vec![user],
                positions: vec![0],
            },
            exclude: None,
            pending: Arc::new(Pending::new(1, submitted_at)),
            engine: Arc::clone(engine),
            submitted_at,
        }
    }

    #[test]
    fn stale_leaders_still_hold_the_window_open_at_pop_time() {
        // The leader already waited one full window in the queue — the old
        // submission-anchored deadline would flush immediately and lose
        // exactly the coalescing a backlog makes valuable. The pop-anchored
        // window must still absorb an arrival landing shortly after pop.
        let engines = test_engines(&ShardRouter::new(8, 1));
        let window = Duration::from_millis(80);
        let queue = SubmitQueue::new(16);
        let leader = sub_at(&engines[0], 0, Instant::now() - window);
        crate::sync::thread::scope(|scope| {
            scope.spawn(|| {
                crate::sync::thread::sleep(Duration::from_millis(10));
                queue
                    .push_all(vec![sub_at(&engines[0], 1, Instant::now())], false)
                    .unwrap();
            });
            let batch = collect_batch(&queue, leader, &policy(window));
            assert_eq!(batch.len(), 2, "the late arrival must coalesce");
        });
    }

    #[test]
    fn the_queue_latency_cap_bounds_the_hold_open() {
        // A leader already past QUEUE_LATENCY_CAP windows of queue delay
        // flushes with whatever the drain produced instead of waiting.
        let engines = test_engines(&ShardRouter::new(8, 1));
        let window = Duration::from_millis(60);
        let queue = SubmitQueue::new(16);
        let ancient = sub_at(
            &engines[0],
            0,
            Instant::now() - window * (QUEUE_LATENCY_CAP + 1),
        );
        let started = Instant::now();
        let batch = collect_batch(&queue, ancient, &policy(window));
        assert_eq!(batch.len(), 1);
        assert!(
            started.elapsed() < window / 2,
            "capped leader must not hold the batch open: {:?}",
            started.elapsed()
        );
    }
}
