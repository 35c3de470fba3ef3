//! Blocked matrix multiply brute force: the hardware-efficient baseline of
//! §II-B.
//!
//! Users are processed in batches. On the default **fused** path each batch
//! streams `U_batch · Iᵀ` score panels straight into per-user top-k heaps
//! ([`mips_topk::gemm_nt_topk`]): only one NC-wide panel of scores is ever
//! resident, so selection happens on cache-warm data and the `batch × n`
//! score buffer of the two-stage pipeline never exists. The **unfused** path
//! (the paper's literal BMM recipe — MKL `dgemm` + `std::priority_queue`,
//! here our packed GEMM + bounded heap) is kept behind
//! [`BmmSolver::build_unfused`] as the A/B baseline for the fusion benches;
//! its score buffer is hoisted into the query loop and reused across batches
//! rather than re-allocated per block.
//!
//! Both paths run on the runtime-dispatched SIMD micro-kernels
//! ([`mips_linalg::simd`]); results are identical either way.

use crate::precision::{Precision, ScanTier};
use crate::solver::{MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::Arc;
use mips_data::{MfModel, MirrorI8, ModelView};
use mips_linalg::{gemm_nt_into_scratch, CacheConfig, GemmScratch, Matrix, RowBlock};
use mips_topk::{
    gemm_nt_topk, rows_topk, screen_i8_topk_into_heaps, ColumnIds, QuantItems, QuantUsers,
    ScreenI8Scratch, TopKHeap, TopKList,
};
use std::ops::Range;
use std::time::Instant;

pub use mips_linalg::matrix::RowBlock as UserBlock;

/// Memory budget for one batch's score buffer on the unfused path. Sized to
/// the last-level cache: a larger buffer only adds write traffic for score
/// rows that the top-k scan immediately consumes and evicts. The fused path
/// keeps the same batch geometry (its resident panel is strictly smaller),
/// so fused-vs-unfused benches compare fusion alone.
const SCORE_BUFFER_BYTES: usize = 8 << 20;

/// The brute-force blocked-matrix-multiply solver.
///
/// A solver may cover only a contiguous user range of its model
/// ([`BmmSolver::build`] over a proper [`ModelView`]): queries then address
/// users by **local** row (`0..range.len()`), and every factor access
/// offsets into the parent matrix — the view is zero-copy over the factor
/// block.
#[derive(Debug, Clone)]
pub struct BmmSolver {
    model: Arc<MfModel>,
    /// The contiguous user range served, in the model's (global) row space.
    users: Range<usize>,
    batch_rows: usize,
    build_seconds: f64,
    fused: bool,
    /// `Some` on the int8 screen path: scans run over the model's int8
    /// mirror with a quantization envelope and survivors are rescored in
    /// f64, so results stay bit-identical to the pure-f64 path (see
    /// [`mips_topk::screen_i8`]). `None` on the f64 tier, and when the
    /// model doesn't quantize usably ([`MirrorI8::is_usable`]) — then
    /// serving silently stays f64.
    screen: Option<Arc<MirrorI8>>,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]). Clones share the cells —
    /// the counters describe the screen's selectivity, not one handle's.
    screen_tally: Arc<ScreenTallyCells>,
}

/// Owned int8 user data gathered for a `query_subset` call: codes, scales
/// and L1 norms, row-aligned with the gathered f64 block.
struct GatheredScreen {
    codes: Vec<i8>,
    scales: Vec<f64>,
    l1: Vec<f64>,
}

impl BmmSolver {
    /// Prepares a solver over a contiguous user range of the model — no
    /// index, so build cost is effectively zero — serving through the fused
    /// GEMM→top-k path. Zero-copy: only the range is stored; factor rows
    /// are read straight out of the shared matrix, offset by the range
    /// start, and queries use local user ids `0..view.num_users()`.
    ///
    /// [`ScanTier::I8`] adds the exact-integer int8 screen of the scan plus
    /// an exact f64 rescore. The model's [`MirrorI8`] is built here (or
    /// fetched from the epoch-shared cache, so sibling shard views share
    /// one quantization pass) and its cost is paid at build time, where
    /// OPTIMUS accounts it.
    pub fn build(view: &ModelView, tier: ScanTier) -> BmmSolver {
        let start = Instant::now();
        let model = Arc::clone(view.model());
        let batch_rows = Self::pick_batch_rows(model.num_items(), model.num_factors());
        let screen = match tier {
            ScanTier::I8 => Some(Arc::clone(model.mirror_i8())).filter(|m| m.is_usable()),
            ScanTier::F64 => None,
        };
        let build_seconds = start.elapsed().as_secs_f64();
        BmmSolver {
            model,
            users: view.user_range(),
            batch_rows,
            build_seconds,
            fused: true,
            screen,
            screen_tally: Arc::new(ScreenTallyCells::default()),
        }
    }

    /// Prepares a solver that serves through the two-stage path (full score
    /// buffer, then a separate top-k pass). Kept for the fusion A/B benches
    /// and as a bisection aid; results are identical to the fused path.
    pub fn build_unfused(model: Arc<MfModel>) -> BmmSolver {
        BmmSolver {
            fused: false,
            ..Self::build(&ModelView::full(&model), ScanTier::F64)
        }
    }

    /// Users per GEMM batch: bounded by the score-buffer budget, floored at
    /// the L2-occupancy row count OPTIMUS also uses (§IV-A).
    fn pick_batch_rows(num_items: usize, f: usize) -> usize {
        let by_memory = (SCORE_BUFFER_BYTES / 8 / num_items.max(1)).max(1);
        let l2_floor = CacheConfig::default().rows_to_fill_l2(f, 8);
        by_memory.max(l2_floor)
    }

    /// The configured batch size (exposed for tests and benches).
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// `true` when serving takes the fused GEMM→top-k path.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// `true` when serving screens in int8 (a [`ScanTier::I8`] solver whose
    /// model quantizes usably).
    pub fn is_screening(&self) -> bool {
        self.screen.is_some()
    }

    /// Serves one gathered user block into `out`, reusing the caller's
    /// scratch (fused) or score buffer (unfused) across blocks. `screen`
    /// carries the block's int8 user codes when the screen is active.
    fn serve_block_into(
        &self,
        users: RowBlock<'_, f64>,
        screen: Option<QuantUsers<'_>>,
        k: usize,
        scratch: &mut BmmScratch,
        out: &mut Vec<TopKList>,
    ) {
        let n = self.model.num_items();
        if let (Some(users_q), Some(mirror)) = (screen, self.screen.as_ref()) {
            let mut heaps: Vec<TopKHeap> = (0..users.rows()).map(|_| TopKHeap::new(k)).collect();
            let stats = screen_i8_topk_into_heaps(
                users,
                self.model.items().into(),
                users_q,
                QuantItems {
                    codes: mirror.items_q(),
                    inv_scales: mirror.item_inv_scales(),
                    l1: mirror.item_l1(),
                },
                &mut heaps,
                ColumnIds::Offset(0),
                &mut scratch.screen_i8,
            );
            self.screen_tally.record(stats.screened, stats.rescored);
            out.extend(heaps.into_iter().map(TopKHeap::into_sorted));
        } else if self.fused {
            out.extend(gemm_nt_topk(
                users,
                self.model.items().into(),
                k,
                &mut scratch.gemm,
            ));
        } else {
            scratch.scores.resize(users.rows() * n, 0.0);
            let scores = &mut scratch.scores[..users.rows() * n];
            gemm_nt_into_scratch(users, self.model.items().into(), scores, &mut scratch.gemm);
            out.extend(rows_topk(scores, users.rows(), n, k));
        }
    }
}

/// Per-query-loop reusable buffers: one of these lives on the stack of each
/// `query_*` invocation (and therefore per worker thread under
/// `par_query_*`). The bulk buffers — GEMM pack panels, the streaming score
/// panel, the unfused path's `batch × n` score buffer — are allocated once
/// per query loop and reused across blocks; what remains per block is only
/// the per-user output itself (heaps/lists of size `k`).
#[derive(Default)]
struct BmmScratch {
    gemm: GemmScratch<f64>,
    scores: Vec<f64>,
    screen_i8: ScreenI8Scratch,
}

impl MipsSolver for BmmSolver {
    fn name(&self) -> &str {
        // The suffix matches the planner's candidate labelling, so the
        // `backend` response field and OPTIMUS estimates distinguish the
        // two numeric paths.
        if self.screen.is_some() {
            "Blocked MM+i8"
        } else {
            "Blocked MM"
        }
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        true
    }

    fn num_users(&self) -> usize {
        self.users.len()
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        let base = self.users.start;
        let mut scratch = BmmScratch::default();
        let mut out = Vec::with_capacity(users.len());
        let mut start = users.start;
        while start < users.end {
            let end = (start + self.batch_rows).min(users.end);
            let block = self.model.users().row_block(base + start, base + end);
            let f = self.model.num_factors();
            let screen = self.screen.as_ref().map(|m| QuantUsers {
                codes: &m.users_q()[(base + start) * f..(base + end) * f],
                scales: &m.user_scales()[base + start..base + end],
                l1: &m.user_l1()[base + start..base + end],
            });
            self.serve_block_into(block, screen, k, &mut scratch, &mut out);
            start = end;
        }
        out
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let base = self.users.start;
            let rows: Vec<usize> = distinct
                .iter()
                .map(|&u| {
                    assert!(u < self.num_users(), "user id out of bounds");
                    base + u
                })
                .collect();
            let gathered: Matrix<f64> = self.model.users().gather_rows(&rows);
            let gathered_screen = self.screen.as_ref().map(|m| GatheredScreen {
                codes: rows.iter().flat_map(|&r| m.user_row(r)).copied().collect(),
                scales: rows.iter().map(|&r| m.user_scales()[r]).collect(),
                l1: rows.iter().map(|&r| m.user_l1()[r]).collect(),
            });
            let f = self.model.num_factors();
            let mut scratch = BmmScratch::default();
            let mut out = Vec::with_capacity(distinct.len());
            let mut start = 0;
            while start < gathered.rows() {
                let end = (start + self.batch_rows).min(gathered.rows());
                let screen = gathered_screen.as_ref().map(|g| QuantUsers {
                    codes: &g.codes[start * f..end * f],
                    scales: &g.scales[start..end],
                    l1: &g.l1[start..end],
                });
                self.serve_block_into(
                    gathered.row_block(start, end),
                    screen,
                    k,
                    &mut scratch,
                    &mut out,
                );
                start = end;
            }
            out
        })
    }

    fn precision(&self) -> Precision {
        if self.screen.is_some() {
            Precision::I8Rescore
        } else {
            Precision::F64
        }
    }

    fn take_screen_stats(&self) -> Option<ScreenTally> {
        self.screen.as_ref().map(|_| self.screen_tally.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_linalg::kernels::dot;
    use mips_topk::TopKHeap;

    fn model(users: usize, items: usize, f: usize) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            ..SynthConfig::default()
        }))
    }

    fn reference(model: &MfModel, u: usize, k: usize) -> TopKList {
        let mut heap = TopKHeap::new(k);
        for i in 0..model.num_items() {
            heap.push(dot(model.users().row(u), model.items().row(i)), i as u32);
        }
        heap.into_sorted()
    }

    #[test]
    fn matches_per_pair_reference() {
        let m = model(30, 50, 12);
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let all = solver.query_all(5);
        for (u, got) in all.iter().enumerate() {
            let want = reference(&m, u, 5);
            assert_eq!(got.items, want.items, "user {u}");
            for (a, b) in got.scores.iter().zip(&want.scores) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn fused_and_unfused_paths_agree_exactly() {
        let m = model(45, 120, 10);
        let fused = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let unfused = BmmSolver::build_unfused(Arc::clone(&m));
        assert!(fused.is_fused());
        assert!(!unfused.is_fused());
        for k in [0usize, 1, 7, 120, 500] {
            assert_eq!(fused.query_all(k), unfused.query_all(k), "k={k}");
        }
        let ids: Vec<usize> = vec![3, 40, 3, 11];
        assert_eq!(fused.query_subset(5, &ids), unfused.query_subset(5, &ids));
    }

    #[test]
    fn batching_is_invisible_to_results() {
        let m = model(40, 20, 6);
        let mut solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let whole = solver.query_all(4);
        solver.batch_rows = 7; // force many partial batches
        let batched = solver.query_all(4);
        assert_eq!(whole, batched);
    }

    #[test]
    fn subset_and_range_agree() {
        let m = model(25, 15, 5);
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let range = solver.query_range(3, 10..20);
        let subset = solver.query_subset(3, &(10..20).collect::<Vec<_>>());
        assert_eq!(range, subset);
    }

    #[test]
    fn k_edge_cases() {
        let m = model(5, 8, 4);
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        assert!(solver.query_all(0).iter().all(|l| l.is_empty()));
        let big = solver.query_all(100);
        assert!(big.iter().all(|l| l.len() == 8));
        let empty_range = solver.query_range(3, 2..2);
        assert!(empty_range.is_empty());
    }

    #[test]
    fn view_solver_matches_the_global_solver_bit_for_bit() {
        let m = model(37, 60, 9);
        let global = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let view = ModelView::of_range(&m, 11..29);
        let local = BmmSolver::build(&view, ScanTier::F64);
        assert_eq!(local.num_users(), 18);
        // Local range 0..18 is global 11..29, down to every score bit.
        assert_eq!(local.query_range(5, 0..18), global.query_range(5, 11..29));
        assert_eq!(
            local.query_subset(4, &[0, 17, 3, 3]),
            global.query_subset(4, &[11, 28, 14, 14])
        );
        // The full view degenerates to the global solver.
        let full = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        assert_eq!(full.query_all(6), global.query_all(6));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_solver_rejects_local_ids_past_the_view() {
        let m = model(10, 8, 4);
        let local = BmmSolver::build(&ModelView::of_range(&m, 2..6), ScanTier::F64);
        let _ = local.query_subset(1, &[4]);
    }

    #[test]
    fn batch_rows_respects_l2_floor() {
        let cache = CacheConfig::default();
        let floor = cache.rows_to_fill_l2(100, 8);
        assert!(BmmSolver::pick_batch_rows(10_000_000, 100) >= floor);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_range() {
        let m = model(5, 8, 4);
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let _ = solver.query_range(1, 0..6);
    }
}
