//! Int8 screen-then-rescore: exact integer scan, exact f64 top-k.
//!
//! The fused f64 path ([`crate::fused`]) already keeps score panels
//! cache-resident; this module cuts the scan bytes 8× against f64 and swaps
//! the FMA pipes for the wider integer multiply-add pipes, at the price of
//! a second (tiny) pass:
//!
//! 1. **Screen** — for every (user, item) pair compute the integer dot
//!    `D = q(u)·q(i)` of the symmetric int8 codes
//!    ([`mips_linalg::quant::quantize_row_i8`]) with the pipelined
//!    [`mips_linalg::simd::Kernel::dot_i8_quad`] kernel, reconstruct the
//!    screen score `ŝ = D·(1/s_u)·(1/s_i)`, and widen it into
//!    `[ŝ − env, ŝ + env]` with
//!    `env = a_u·(1/s_i) + b_u·‖i‖₁`, the per-pair envelope from
//!    [`mips_linalg::i8_screen_envelope_parts`] that bounds the total
//!    quantization error against the exact score `s` (so `s` is always
//!    inside the interval). A per-user bound heap retains the `k` largest
//!    *lower* bounds; any item whose *upper* bound reaches that heap's
//!    threshold is collected as a candidate.
//! 2. **Rescore** — recompute each surviving candidate's score in f64 with
//!    the GEMM per-element reduction
//!    ([`mips_linalg::simd::Kernel::dot_seq4`]) and offer it to the
//!    caller's heap.
//!
//! ## Why no true top-k member can be lost
//!
//! Let `L̂` be the final threshold of a user's bound heap. Each of its `k`
//! retained entries is a lower bound of some column's exact score, so at
//! least `k` columns have exact score `≥ L̂` — hence the true k-th exact
//! score is `≥ L̂`. Every true top-k column `c` has exact score
//! `s_c ≥ kth ≥ L̂`, and its upper bound `ŝ_c + env ≥ s_c ≥ L̂`, so `c` was
//! collected (thresholds only grow during the scan, so the test it faced
//! was no stricter than `L̂`) and survives the final `hi ≥ L̂` filter. Ties
//! (`s_c` equal to the k-th score, decided by the smaller-id rule) are
//! safe for the same reason: the comparison uses `≥`, never `>`.
//!
//! Entries already present in the caller's heaps are treated as exact
//! scores from a previous phase: they seed the bound heap (an exact score
//! is its own lower bound), so the screen is exactly as selective as the
//! f64 path would have been with the same preloaded state.
//!
//! The integer dot is exact in `i32` under every accumulation order
//! (guarded by [`mips_linalg::I8_DOT_MAX_LEN`]), so every kernel set
//! screens with bit-identical scores and collects the identical candidate
//! set — the envelope covers quantization only, not kernel-dependent
//! rounding. And because every reported score comes from the f64 rescore
//! with the same reduction order as the pure-f64 GEMM path, the i8 mode's
//! results are **bit-identical** to f64-direct: same scores, same ids,
//! same tie-breaks. The `precision_identity_i8` suite in `mips-core`
//! asserts this end to end.
//!
//! Callers must gate on their mirror's usability
//! (`mips_data::MirrorI8::is_usable`): the scan assumes every scale and L1
//! norm is finite.

use crate::fused::ColumnIds;
use crate::heap::TopKHeap;
use mips_linalg::simd::{self, Kernel};
use mips_linalg::{i8_screen_envelope_parts, RowBlock};

/// Counters describing how selective one screen pass was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Scores screened in int8 (`rows × cols`).
    pub screened: u64,
    /// Candidates surviving to the exact rescore.
    pub rescored: u64,
}

/// Reusable buffers for [`screen_i8_topk_into_heaps_with`]: the per-user
/// bound heaps and candidate lists. Own one per query loop / worker thread.
/// (No GEMM scratch: the integer scan reads the packed code rows directly —
/// at 1 byte per coordinate the item block is already cache-friendly.)
#[derive(Debug, Default)]
pub struct ScreenI8Scratch {
    bound_heaps: Vec<TopKHeap>,
    candidates: Vec<Vec<(u32, f64)>>,
}

impl ScreenI8Scratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> ScreenI8Scratch {
        ScreenI8Scratch::default()
    }
}

/// The int8 user side of the screen: row-major codes plus the per-row
/// quantization metadata the envelope's user coefficients need. Borrowed
/// straight from `mips_data::MirrorI8` or from a backend's re-gathered copy.
#[derive(Debug, Clone, Copy)]
pub struct QuantUsers<'a> {
    /// Row-major int8 codes, `rows × f`.
    pub codes: &'a [i8],
    /// Per-row quantization scale `s_u` (codes = round(value · s_u)).
    pub scales: &'a [f64],
    /// Per-row exact (f64) L1 norm of the *original* row.
    pub l1: &'a [f64],
}

/// The int8 item side of the screen. Items carry the precomputed *inverse*
/// scale because every screened score and envelope multiplies by `1/s_i`
/// (the forward scale is never needed at scan time).
#[derive(Debug, Clone, Copy)]
pub struct QuantItems<'a> {
    /// Row-major int8 codes, `rows × f`.
    pub codes: &'a [i8],
    /// Per-row inverse quantization scale `1/s_i`.
    pub inv_scales: &'a [f64],
    /// Per-row exact (f64) L1 norm of the *original* row.
    pub l1: &'a [f64],
}

fn code_row(codes: &[i8], f: usize, r: usize) -> &[i8] {
    &codes[r * f..(r + 1) * f]
}

/// Screens `A·Bᵀ` with exact int8 integer dots and streams exact f64
/// rescored survivors into caller-owned heaps — same contract and output as
/// [`crate::fused::stream_topk_into_heaps`], different execution.
///
/// `a_q`/`b_q` must hold the int8 quantization of `a64`/`b64`
/// (`mips_data::MirrorI8`) with **finite** scales and L1 norms — the
/// mirror's usability flag is the caller's precondition.
///
/// # Panics
/// Panics if `heaps.len() != a.rows()`, if any code block, scale or norm
/// slice disagrees on shape, or if a mapped id slice is shorter than
/// `b.rows()`.
#[allow(clippy::too_many_arguments)]
pub fn screen_i8_topk_into_heaps(
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    a_q: QuantUsers<'_>,
    b_q: QuantItems<'_>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut ScreenI8Scratch,
) -> ScreenStats {
    screen_i8_topk_into_heaps_with(simd::active(), a64, b64, a_q, b_q, heaps, ids, scratch)
}

/// [`screen_i8_topk_into_heaps`] with an explicit kernel set — the
/// forced-scalar test entry.
#[allow(clippy::too_many_arguments)]
pub fn screen_i8_topk_into_heaps_with(
    kern: &Kernel,
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    a_q: QuantUsers<'_>,
    b_q: QuantItems<'_>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut ScreenI8Scratch,
) -> ScreenStats {
    let (m, n, f) = (a64.rows(), b64.rows(), a64.cols());
    assert_eq!(heaps.len(), m, "screen_i8_topk: one heap per query row");
    assert_eq!(a_q.codes.len(), m * f, "screen_i8_topk: user code shape");
    assert_eq!(b_q.codes.len(), n * f, "screen_i8_topk: item code shape");
    assert_eq!(a_q.scales.len(), m, "screen_i8_topk: one scale per query");
    assert_eq!(a_q.l1.len(), m, "screen_i8_topk: one L1 per query");
    assert_eq!(b_q.l1.len(), n, "screen_i8_topk: one L1 per item");
    assert_eq!(
        b_q.inv_scales.len(),
        n,
        "screen_i8_topk: one inverse scale per item"
    );
    if let ColumnIds::Mapped(map) = ids {
        assert!(
            map.len() >= n,
            "screen_i8_topk: id map shorter than item count"
        );
    }

    // Per-row bound heaps: capacity k, seeded with the caller's existing
    // (exact) entries — see the module docs.
    scratch.bound_heaps.resize_with(m, || TopKHeap::new(0));
    scratch.candidates.resize_with(m, Vec::new);
    for (i, heap) in heaps.iter().enumerate() {
        let bh = &mut scratch.bound_heaps[i];
        *bh = TopKHeap::new(heap.capacity());
        for e in heap.entries() {
            bh.push(e.score, e.id);
        }
        scratch.candidates[i].clear();
    }

    // Screen pass: exact integer dots in groups of four. The reconstruction
    // order `D·(1/s_u)·(1/s_i)` matches the one the envelope's slack was
    // derived (and is tested) against in `mips_linalg::quant`.
    for i in 0..m {
        let urow = code_row(a_q.codes, f, i);
        let inv_su = 1.0 / a_q.scales[i];
        let (env_a, env_b) = i8_screen_envelope_parts(f, a_q.scales[i], a_q.l1[i]);
        let bh = &mut scratch.bound_heaps[i];
        let cand = &mut scratch.candidates[i];
        let mut threshold = bh.threshold();
        let mut offer = |col: usize, d: i32, bh: &mut TopKHeap| {
            let inv_si = b_q.inv_scales[col];
            let s = d as f64 * (inv_su * inv_si);
            let env = env_a * inv_si + env_b * b_q.l1[col];
            let hi = s + env;
            if hi >= threshold {
                let id = match ids {
                    ColumnIds::Offset(off) => off + col as u32,
                    ColumnIds::Mapped(map) => map[col],
                };
                cand.push((col as u32, hi));
                bh.push(s - env, id);
                threshold = bh.threshold();
            }
        };
        let mut col = 0usize;
        while col + 4 <= n {
            let quad = kern.dot_i8_quad(
                urow,
                [
                    code_row(b_q.codes, f, col),
                    code_row(b_q.codes, f, col + 1),
                    code_row(b_q.codes, f, col + 2),
                    code_row(b_q.codes, f, col + 3),
                ],
            );
            for (q, &d) in quad.iter().enumerate() {
                offer(col + q, d, bh);
            }
            col += 4;
        }
        while col < n {
            offer(col, kern.dot_i8(urow, code_row(b_q.codes, f, col)), bh);
            col += 1;
        }
    }

    // Rescore pass: exact f64, GEMM per-element reduction, groups of four
    // so the sequential chains pipeline.
    let mut rescored = 0u64;
    for (i, heap) in heaps.iter_mut().enumerate() {
        let final_threshold = scratch.bound_heaps[i].threshold();
        let survivors = scratch.candidates[i]
            .iter()
            .filter(|&&(_, hi)| hi >= final_threshold);
        let urow = a64.row(i);
        let mut group = [0usize; 4];
        let mut filled = 0usize;
        let flush = |cols: &[usize], heap: &mut TopKHeap| {
            let pad = cols[cols.len() - 1];
            let pick = |q: usize| b64.row(*cols.get(q).unwrap_or(&pad));
            let scores = kern.dot_seq4(urow, [pick(0), pick(1), pick(2), pick(3)]);
            for (q, &col) in cols.iter().enumerate() {
                let id = match ids {
                    ColumnIds::Offset(off) => off + col as u32,
                    ColumnIds::Mapped(map) => map[col],
                };
                heap.push(scores[q], id);
            }
        };
        for &(col, _) in survivors {
            group[filled] = col as usize;
            filled += 1;
            rescored += 1;
            if filled == 4 {
                flush(&group, heap);
                filled = 0;
            }
        }
        if filled > 0 {
            flush(&group[..filled], heap);
        }
    }

    ScreenStats {
        screened: (m * n) as u64,
        rescored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{gemm_nt_topk, stream_topk_into_heaps};
    use mips_linalg::{quantize_row_i8, GemmScratch, Matrix};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    struct Quantized {
        codes: Vec<i8>,
        scales: Vec<f64>,
        l1: Vec<f64>,
        inv_scales: Vec<f64>,
    }

    fn quantize(m: &Matrix<f64>) -> Quantized {
        let f = m.cols();
        let mut codes = vec![0i8; m.rows() * f];
        let mut scales = Vec::new();
        let mut l1 = Vec::new();
        for (r, row) in m.iter_rows().enumerate() {
            let (s, n1) = quantize_row_i8(row, &mut codes[r * f..(r + 1) * f]);
            scales.push(s);
            l1.push(n1);
        }
        let inv_scales = scales.iter().map(|&s| 1.0 / s).collect();
        Quantized {
            codes,
            scales,
            l1,
            inv_scales,
        }
    }

    impl Quantized {
        fn users(&self) -> QuantUsers<'_> {
            QuantUsers {
                codes: &self.codes,
                scales: &self.scales,
                l1: &self.l1,
            }
        }

        fn items(&self) -> QuantItems<'_> {
            QuantItems {
                codes: &self.codes,
                inv_scales: &self.inv_scales,
                l1: &self.l1,
            }
        }
    }

    fn screen_all(
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        k: usize,
        ids: ColumnIds<'_>,
    ) -> (Vec<TopKHeap>, ScreenStats) {
        let aq = quantize(a);
        let bq = quantize(b);
        let mut heaps: Vec<TopKHeap> = (0..a.rows()).map(|_| TopKHeap::new(k)).collect();
        let mut scratch = ScreenI8Scratch::new();
        let stats = screen_i8_topk_into_heaps(
            a.into(),
            b.into(),
            aq.users(),
            bq.items(),
            &mut heaps,
            ids,
            &mut scratch,
        );
        (heaps, stats)
    }

    #[test]
    fn i8_screen_is_bit_identical_to_f64_direct() {
        let mut scratch64 = GemmScratch::new();
        for &(m, n, f, k) in &[
            (1usize, 1usize, 1usize, 1usize),
            (3, 17, 7, 4),
            (9, 50, 12, 5),
            (33, 70, 31, 10),
            (5, 301, 6, 3), // exercises the quad loop's tail
        ] {
            let a = random_matrix(m, f, 100 + m as u64);
            let b = random_matrix(n, f, 200 + n as u64);
            let (heaps, stats) = screen_all(&a, &b, k, ColumnIds::Offset(0));
            let got: Vec<_> = heaps.into_iter().map(TopKHeap::into_sorted).collect();
            let want = gemm_nt_topk((&a).into(), (&b).into(), k, &mut scratch64);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.items, w.items, "m={m} n={n} f={f} k={k}");
                for (gs, ws) in g.scores.iter().zip(&w.scores) {
                    assert_eq!(gs.to_bits(), ws.to_bits(), "m={m} n={n} f={f} k={k}");
                }
            }
            assert_eq!(stats.screened, (m * n) as u64);
            assert!(stats.rescored >= got.iter().map(|l| l.len() as u64).max().unwrap_or(0));
        }
    }

    #[test]
    fn adversarial_magnitudes_and_near_ties_stay_exact() {
        // Saturating outliers force coarse codes (wide envelopes, heavy
        // rescoring) and near-duplicate items force the exact tie-break —
        // both must still reproduce the f64 path bit for bit.
        let f = 24usize;
        let mut a = random_matrix(3, f, 5);
        for v in a.as_mut_slice() {
            *v *= 100.0;
        }
        let base = random_matrix(1, f, 7);
        let n = 40usize;
        let mut b = Matrix::from_fn(n, f, |r, c| base.get(0, c) + ((r / 4) as f64) * 1e-13);
        // One item with a huge outlier coordinate: its other codes collapse
        // toward zero, maximizing quantization error.
        b.set(n - 1, 0, 1e6);
        let (heaps, _) = screen_all(&a, &b, 5, ColumnIds::Offset(0));
        let mut scratch64 = GemmScratch::new();
        let want = gemm_nt_topk((&a).into(), (&b).into(), 5, &mut scratch64);
        for (heap, w) in heaps.into_iter().zip(&want) {
            let g = heap.into_sorted();
            assert_eq!(g.items, w.items);
            for (gs, ws) in g.scores.iter().zip(&w.scores) {
                assert_eq!(gs.to_bits(), ws.to_bits());
            }
        }
    }

    #[test]
    fn all_zero_rows_screen_cleanly() {
        // Zero users and zero items quantize to scale 1 / all-zero codes;
        // every bound degenerates to exactly 0 and the rescore still
        // reproduces the f64 ordering (ids break the ties).
        let a = Matrix::<f64>::zeros(2, 6);
        let mut b = random_matrix(9, 6, 3);
        for c in 0..6 {
            b.set(4, c, 0.0);
        }
        let (heaps, _) = screen_all(&a, &b, 3, ColumnIds::Offset(0));
        let mut scratch64 = GemmScratch::new();
        let want = gemm_nt_topk((&a).into(), (&b).into(), 3, &mut scratch64);
        for (heap, w) in heaps.into_iter().zip(&want) {
            let g = heap.into_sorted();
            assert_eq!(g.items, w.items);
            assert_eq!(g.scores, w.scores);
        }
    }

    #[test]
    fn preloaded_heaps_match_the_f64_path_with_the_same_preload() {
        let a = random_matrix(2, 9, 31);
        let b = random_matrix(25, 9, 32);
        let aq = quantize(&a);
        let bq = quantize(&b);
        let preload = [(2.5f64, 900u32), (0.1, 901), (-3.0, 902)];

        let mut screened: Vec<TopKHeap> = (0..2).map(|_| TopKHeap::new(4)).collect();
        let mut direct: Vec<TopKHeap> = (0..2).map(|_| TopKHeap::new(4)).collect();
        for heap in screened.iter_mut().chain(direct.iter_mut()) {
            for &(s, id) in &preload {
                heap.push(s, id);
            }
        }
        let mut scratch = ScreenI8Scratch::new();
        screen_i8_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            aq.users(),
            bq.items(),
            &mut screened,
            ColumnIds::Offset(0),
            &mut scratch,
        );
        let mut scratch64 = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut direct,
            ColumnIds::Offset(0),
            &mut scratch64,
        );
        for (s, d) in screened.into_iter().zip(direct) {
            let (s, d) = (s.into_sorted(), d.into_sorted());
            assert_eq!(s.items, d.items);
            for (gs, ws) in s.scores.iter().zip(&d.scores) {
                assert_eq!(gs.to_bits(), ws.to_bits());
            }
        }
    }

    #[test]
    fn mapped_ids_and_k_edges() {
        let a = random_matrix(2, 5, 7);
        let b = random_matrix(4, 5, 8);
        let map = [40u32, 30, 20, 10];
        let (heaps, _) = screen_all(&a, &b, 2, ColumnIds::Mapped(&map));
        let mut scratch64 = GemmScratch::new();
        let plain = gemm_nt_topk((&a).into(), (&b).into(), 2, &mut scratch64);
        for (heap, want) in heaps.into_iter().zip(plain) {
            let got = heap.into_sorted();
            let translated: Vec<u32> = want.items.iter().map(|&j| map[j as usize]).collect();
            assert_eq!(got.items, translated);
            assert_eq!(got.scores, want.scores);
        }

        // k = 0 collects nothing and rescores nothing.
        let (heaps, stats) = screen_all(&a, &b, 0, ColumnIds::Offset(0));
        assert!(heaps.iter().all(TopKHeap::is_empty));
        assert_eq!(stats.rescored, 0);

        // k ≥ n keeps everything.
        let (heaps, stats) = screen_all(&a, &b, 10, ColumnIds::Offset(0));
        assert!(heaps.iter().all(|h| h.len() == 4));
        assert_eq!(stats.rescored, 8);
    }

    #[test]
    fn candidate_sets_are_identical_across_kernel_sets() {
        // The integer screen scores are kernel-invariant, so even the
        // *intermediate* candidate counts agree between the dispatched and
        // scalar kernels.
        let a = random_matrix(4, 19, 41);
        let b = random_matrix(60, 19, 42);
        let aq = quantize(&a);
        let bq = quantize(&b);
        let mut kernels = vec![Kernel::scalar()];
        kernels.extend(Kernel::avx2());
        kernels.extend(Kernel::neon());
        let mut counts = Vec::new();
        for kern in &kernels {
            let mut heaps: Vec<TopKHeap> = (0..4).map(|_| TopKHeap::new(6)).collect();
            let mut scratch = ScreenI8Scratch::new();
            let stats = screen_i8_topk_into_heaps_with(
                kern,
                (&a).into(),
                (&b).into(),
                aq.users(),
                bq.items(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut scratch,
            );
            counts.push(stats.rescored);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "one heap per query row")]
    fn rejects_mismatched_heap_count() {
        let a = random_matrix(3, 4, 1);
        let b = random_matrix(2, 4, 2);
        let aq = quantize(&a);
        let bq = quantize(&b);
        let mut heaps = vec![TopKHeap::new(1); 2];
        let mut scratch = ScreenI8Scratch::new();
        screen_i8_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            aq.users(),
            bq.items(),
            &mut heaps,
            ColumnIds::Offset(0),
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "one inverse scale per item")]
    fn rejects_short_inverse_scales() {
        let a = random_matrix(1, 4, 1);
        let b = random_matrix(3, 4, 2);
        let aq = quantize(&a);
        let bq = quantize(&b);
        let mut heaps = vec![TopKHeap::new(1)];
        let mut scratch = ScreenI8Scratch::new();
        screen_i8_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            aq.users(),
            QuantItems {
                inv_scales: &bq.inv_scales[..2],
                ..bq.items()
            },
            &mut heaps,
            ColumnIds::Offset(0),
            &mut scratch,
        );
    }
}
