//! Bit-identity properties for the sparse inverted-index backend.
//!
//! The contract under test is the acceptance bar of the sparse subsystem:
//! on *every* catalog — from fully dense to 99%-sparse, hybrid heads
//! included — the inverted index returns results bit-identical to the
//! densified brute-force reference (same item order, same score bits), at
//! every `k` edge (1, middle, `n`, clamped past `n`) and under every knob
//! combination (norm pruning on/off, postings-vs-panel split forced both
//! ways). The same bar applies to the ad-hoc [`MipsSolver::query_vector`]
//! point-lookup path the query-API redesign added.

use mips_core::solver::MipsSolver;
use mips_core::ScanTier;
use mips_core::{BmmSolver, SparseSolver};
use mips_data::sparse::{synth_sparse_model, SparseSynthConfig, SparseVec};
use mips_data::{MfModel, ModelView};
use mips_linalg::kernels::dot_gemm_ordered;
use mips_linalg::Matrix;
use mips_sparse::SparseConfig;
use mips_topk::{TopKHeap, TopKList};
use proptest::prelude::*;
use std::sync::Arc;

/// Collapses lists to comparable (ids, score bits) rows — scores must match
/// to the bit, not within a tolerance.
fn bits(lists: &[TopKList]) -> Vec<(Vec<u32>, Vec<u64>)> {
    lists
        .iter()
        .map(|l| {
            (
                l.items.clone(),
                l.scores.iter().map(|s| s.to_bits()).collect(),
            )
        })
        .collect()
}

/// The canonical reference for an ad-hoc query: every item's
/// `dot_gemm_ordered` score pushed through one `TopKHeap` (ties to the
/// smaller id) — the exact contract `query_vector` implementations owe.
fn reference_vector_topk(model: &MfModel, query: &[f64], k: usize) -> TopKList {
    let items = model.items();
    let mut heap = TopKHeap::new(k);
    for i in 0..items.rows() {
        heap.push(dot_gemm_ordered(query, items.row(i)), i as u32);
    }
    heap.into_sorted()
}

/// The knob grid every property sweeps: pruning off and on (twice), and
/// the hybrid split forced to panels-everywhere, the default mix, and
/// postings-everywhere.
fn config_grid() -> Vec<SparseConfig> {
    let mut grid = Vec::new();
    for prune_threshold in [0.0, 0.15, 0.45] {
        for dense_column_cutoff in [0.05, 0.25, 1.0] {
            let config = SparseConfig {
                prune_threshold,
                dense_column_cutoff,
            };
            config.validate().expect("grid configs are valid");
            grid.push(config);
        }
    }
    grid
}

/// The `k` edges for an `n`-item catalog: smallest, middle, exact, and
/// past-the-end (solvers clamp to `n`).
fn k_edges(n: usize) -> Vec<usize> {
    let mut edges = vec![1, (n / 2).max(1), n, n + 3];
    edges.dedup();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse catalogs across the density spectrum: the inverted index and
    /// the blocked-GEMM reference agree to the bit for every user, every
    /// `k` edge, and every knob combination.
    #[test]
    fn sparse_solver_matches_bmm_on_sparse_catalogs(users in 1usize..14,
                                                    items in 1usize..40,
                                                    f in 1usize..24,
                                                    density in 0.01f64..=1.0,
                                                    dense_head in 0usize..4,
                                                    seed in 0u64..2_000) {
        let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            density,
            dense_head: dense_head.min(f),
            seed,
        }));
        let bmm = BmmSolver::build(&ModelView::full(&model), ScanTier::F64);
        for config in config_grid() {
            let sparse = SparseSolver::build(Arc::clone(&model), &config);
            for k in k_edges(items) {
                prop_assert_eq!(
                    bits(&sparse.query_all(k)),
                    bits(&bmm.query_all(k)),
                    "divergence at k={} under {:?}", k, config
                );
            }
        }
    }

    /// Tie-heavy catalogs (values drawn from {-1, 0, 1}) force the
    /// smaller-id tie-break through both the postings path and the rescore
    /// envelope; agreement must still be exact.
    #[test]
    fn sparse_solver_matches_bmm_under_ties(users in 1usize..8,
                                            items in 2usize..30,
                                            f in 1usize..6,
                                            seed in 0u64..1_000) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 60) % 3) as f64 - 1.0
        };
        // Guarantee at least one nonzero per item row (rescue the corner).
        let mut item_matrix = Matrix::from_fn(items, f, |_, _| next());
        for r in 0..items {
            if item_matrix.row(r).iter().all(|v| *v == 0.0) {
                item_matrix.row_mut(r)[r % f] = 1.0;
            }
        }
        let users_matrix = Matrix::from_fn(users, f, |_, _| next());
        let model = Arc::new(MfModel::new("ties", users_matrix, item_matrix).unwrap());
        let bmm = BmmSolver::build(&ModelView::full(&model), ScanTier::F64);
        for config in config_grid() {
            let sparse = SparseSolver::build(Arc::clone(&model), &config);
            for k in k_edges(items) {
                prop_assert_eq!(
                    bits(&sparse.query_all(k)),
                    bits(&bmm.query_all(k)),
                    "tie divergence at k={} under {:?}", k, config
                );
            }
        }
    }

    /// Ad-hoc `query_vector` lookups — both sparse payloads densified at
    /// the API boundary and fresh dense embeddings — match the canonical
    /// one-heap scan to the bit.
    #[test]
    fn query_vector_matches_the_canonical_scan(items in 1usize..40,
                                               f in 1usize..24,
                                               density in 0.01f64..=1.0,
                                               query_density in 0.05f64..=1.0,
                                               seed in 0u64..2_000) {
        let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
            num_users: 2,
            num_items: items,
            num_factors: f,
            density,
            dense_head: 0,
            seed,
        }));
        // A deterministic ad-hoc query with exact-zero holes, exercising
        // the sparse wire shape via the same canonical form clients use.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let query: Vec<f64> = (0..f)
            .map(|_| {
                if next() < query_density {
                    let v = next() * 4.0 - 2.0;
                    if v == 0.0 { 0.5 } else { v }
                } else {
                    0.0
                }
            })
            .collect();
        let densified = SparseVec::from_dense(&query).densify();
        prop_assert_eq!(
            densified.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            query.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for config in config_grid() {
            let sparse = SparseSolver::build(Arc::clone(&model), &config);
            for k in k_edges(items) {
                let reference = reference_vector_topk(&model, &query, k);
                let got = MipsSolver::query_vector(&sparse, &query, k)
                    .expect("sparse backend supports point lookups");
                prop_assert_eq!(
                    bits(&[got]),
                    bits(&[reference]),
                    "query_vector divergence at k={} under {:?}", k, config
                );
            }
        }
    }
}

/// The trait-level default: backends without a point-lookup path report
/// `None` and the engine falls back to its canonical scan — BMM is one.
#[test]
fn backends_without_point_lookup_return_none() {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: 3,
        num_items: 10,
        num_factors: 8,
        density: 0.5,
        dense_head: 0,
        seed: 7,
    }));
    let bmm = BmmSolver::build(&ModelView::full(&model), ScanTier::F64);
    assert!(MipsSolver::query_vector(&bmm, &[1.0; 8], 3).is_none());
}

/// An all-zero ad-hoc query has no postings to walk; the sparse path must
/// still produce the reference answer (all scores exactly `+0.0`, ids
/// ascending), not an empty list.
#[test]
fn zero_query_vector_is_exact() {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: 2,
        num_items: 12,
        num_factors: 6,
        density: 0.3,
        dense_head: 0,
        seed: 11,
    }));
    let query = vec![0.0; 6];
    for config in config_grid() {
        let sparse = SparseSolver::build(Arc::clone(&model), &config);
        for k in [1, 5, 12, 15] {
            let got = MipsSolver::query_vector(&sparse, &query, k).unwrap();
            let reference = reference_vector_topk(&model, &query, k);
            assert_eq!(bits(&[got]), bits(&[reference]), "k={k} under {config:?}");
        }
    }
}
