//! Multi-core serving by user partitioning (the Fig. 6 experiment).
//!
//! Every solver in this repository is immutable after construction, so the
//! paper's observation applies directly: "because both indexes are
//! read-only, a simple partitioning scheme across users proves to be an
//! effective parallelization strategy". Users are split into contiguous
//! ranges, one per thread, served independently, and concatenated.
//!
//! Scratch discipline: each worker invokes the solver's `query_range` /
//! `query_subset` once for its whole chunk, and the solvers allocate their
//! GEMM/score scratch *inside* those calls — so every thread owns exactly
//! one scratch set for its entire partition, with no sharing, no locking,
//! and no per-block allocation. The SIMD kernel selection
//! ([`mips_linalg::simd::active`]) is process-wide and read-only, so all
//! workers run the same kernel set.

use crate::solver::MipsSolver;
use mips_topk::TopKList;
use std::ops::Range;

/// Splits `0..n` positions into at most `parts` contiguous chunks, each of
/// (near-)equal size; the final chunk is shorter when the division is
/// ragged, and `n == 0` yields no chunks.
///
/// This is the partitioning rule for both the thread-per-chunk multi-core
/// path below and the [`crate::serve`] runtime's user shards, so the two
/// layers agree on where boundaries fall.
pub fn chunk_bounds(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.min(n).max(1);
    let chunk = n.div_ceil(parts);
    let mut bounds = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        bounds.push(start..end);
        start = end;
    }
    bounds
}

/// Serves a contiguous user range with `threads` worker threads,
/// partitioning the range evenly. `threads = 1` degenerates to a plain
/// sequential call. This is the multi-core path the engine routes through
/// when [`crate::engine::EngineOptions::threads`] exceeds one.
///
/// # Panics
/// Panics if `threads == 0` (the engine validates this at build time and
/// returns a typed error instead).
pub fn par_query_range(
    solver: &dyn MipsSolver,
    k: usize,
    users: Range<usize>,
    threads: usize,
) -> Vec<TopKList> {
    assert!(threads > 0, "par_query_range: threads must be > 0");
    let n = users.len();
    if threads == 1 || n == 0 {
        return solver.query_range(k, users);
    }
    let base = users.start;
    let mut out: Vec<TopKList> = Vec::with_capacity(n);
    crate::sync::thread::scope(|scope| {
        let handles: Vec<_> = chunk_bounds(n, threads)
            .into_iter()
            .map(|r| scope.spawn(move || solver.query_range(k, base + r.start..base + r.end)))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("worker thread panicked"));
        }
    });
    out
}

/// Serves an explicit user id list with `threads` worker threads,
/// partitioning positions evenly; results come back in input order.
///
/// Repeated ids are deduplicated *before* chunking, so a user repeated
/// across the list is queried once in total — not once per worker chunk —
/// and the result is fanned back out to every occurrence.
///
/// # Panics
/// Panics if `threads == 0` (the engine validates this at build time).
pub fn par_query_subset(
    solver: &dyn MipsSolver,
    k: usize,
    users: &[usize],
    threads: usize,
) -> Vec<TopKList> {
    assert!(threads > 0, "par_query_subset: threads must be > 0");
    if threads == 1 || users.is_empty() {
        return solver.query_subset(k, users);
    }
    crate::solver::dedup_query_subset(users, |distinct| {
        let mut out: Vec<TopKList> = Vec::with_capacity(distinct.len());
        crate::sync::thread::scope(|scope| {
            let handles: Vec<_> = chunk_bounds(distinct.len(), threads)
                .into_iter()
                .map(|r| scope.spawn(move || solver.query_subset(k, &distinct[r])))
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("worker thread panicked"));
            }
        });
        out
    })
}

/// Serves all users with `threads` worker threads.
///
/// Compatibility wrapper over [`par_query_range`]; new code should set
/// [`crate::engine::EngineOptions::threads`] and go through the engine,
/// which returns typed errors instead of panicking. With one thread this
/// takes the solver's specialized `query_all` path (MAXIMUS serves whole
/// clusters in membership order there).
///
/// # Panics
/// Panics if `threads == 0`.
pub fn par_query_all(solver: &dyn MipsSolver, k: usize, threads: usize) -> Vec<TopKList> {
    assert!(threads > 0, "par_query_all: threads must be > 0");
    if threads == 1 {
        return solver.query_all(k);
    }
    par_query_range(solver, k, 0..solver.num_users(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::maximus::{MaximusConfig, MaximusIndex};
    use crate::precision::ScanTier;
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_data::ModelView;

    fn model(users: usize) -> Arc<mips_data::MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: 64,
            num_factors: 8,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn parallel_equals_sequential_for_bmm() {
        let m = model(101); // odd size: uneven final chunk
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let seq = solver.query_all(4);
        for threads in [1usize, 2, 3, 8, 200] {
            let par = par_query_all(&solver, 4, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_equals_sequential_for_maximus() {
        let m = model(60);
        let solver = MaximusIndex::build(
            m,
            &MaximusConfig {
                num_clusters: 3,
                block_size: 8,
                ..MaximusConfig::default()
            },
            ScanTier::F64,
        );
        let seq = solver.query_all(5);
        let par = par_query_all(&solver, 5, 4);
        assert_eq!(par, seq);
    }

    #[test]
    fn offset_ranges_and_subsets_match_sequential() {
        let m = model(83);
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let seq_range = solver.query_range(3, 17..64);
        for threads in [2usize, 5, 100] {
            assert_eq!(par_query_range(&solver, 3, 17..64, threads), seq_range);
        }
        let ids: Vec<usize> = vec![5, 5, 80, 0, 41, 5, 82];
        let seq_subset = solver.query_subset(3, &ids);
        for threads in [2usize, 3, 16] {
            assert_eq!(par_query_subset(&solver, 3, &ids, threads), seq_subset);
        }
        assert!(par_query_subset(&solver, 3, &[], 4).is_empty());
        assert!(par_query_range(&solver, 3, 10..10, 4).is_empty());
    }

    #[test]
    fn repeated_ids_are_queried_once_across_chunks() {
        use crate::sync::Mutex;
        use std::collections::HashMap;

        /// Wraps a solver and counts how often each user id is queried.
        struct CountingSolver {
            inner: BmmSolver,
            counts: Mutex<HashMap<usize, usize>>,
        }
        impl MipsSolver for CountingSolver {
            fn name(&self) -> &str {
                "counting"
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
            fn query_range(&self, k: usize, users: std::ops::Range<usize>) -> Vec<TopKList> {
                self.inner.query_range(k, users)
            }
            fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
                let mut counts = self.counts.lock().unwrap();
                for &u in users {
                    *counts.entry(u).or_insert(0) += 1;
                }
                drop(counts);
                self.inner.query_subset(k, users)
            }
        }

        let m = model(20);
        let solver = CountingSolver {
            inner: BmmSolver::build(&ModelView::full(&m), ScanTier::F64),
            counts: Mutex::new(HashMap::new()),
        };
        // User 7 repeats across what would be several chunks at 4 threads.
        let ids = [7usize, 1, 7, 2, 7, 3, 7, 4, 7, 5];
        let out = par_query_subset(&solver, 2, &ids, 4);
        assert_eq!(out.len(), ids.len());
        let expect = solver.inner.query_subset(2, &ids);
        assert_eq!(out, expect);
        let counts = solver.counts.lock().unwrap();
        assert_eq!(counts[&7], 1, "repeated user must be queried once");
        assert!(counts.values().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "threads must be > 0")]
    fn rejects_zero_threads() {
        let m = model(4);
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let _ = par_query_all(&solver, 1, 0);
    }
}
