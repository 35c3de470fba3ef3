//! Blocked matrix multiply: the "BMM" in the paper.
//!
//! Computes `C = A·Bᵀ` for row-major `A (m×k)` and `B (n×k)` — exactly the
//! MIPS rating computation `R = U·Iᵀ` — using the Goto/BLIS decomposition:
//!
//! 1. the **NC loop** slices B into panels that stay resident in L3,
//! 2. the **KC loop** slices the shared dimension so packed panels fit caches,
//! 3. the **MC loop** packs a block of A into L2,
//! 4. the **macro-kernel** walks `MR × NR` register tiles,
//! 5. the **micro-kernel** runs `KC` fused multiply-adds per tile element
//!    with all `MR × NR` accumulators held in registers.
//!
//! Packing rewrites both operands into tile-interleaved layout so the
//! micro-kernel reads purely sequential memory. This is the "advanced data
//! layout and blocking to maximize cache utilization" (§II-B) that gives
//! brute force its constant-factor edge over index traversal.
//!
//! [`naive_gemm_nt`] is the same computation as a double loop of `dot` calls
//! — the paper's "naïve inner products" strawman — kept for correctness
//! testing and for the §II-B speedup measurement in `bench/micro_gemm`.

use crate::blocking::{BlockSizes, CacheConfig, MR, NR};
use crate::kernels::dot;
use crate::matrix::{Matrix, RowBlock};
use crate::scalar::Scalar;
use crate::simd::{self, Kernel};
use std::ops::Range;

/// Number of floating-point operations in one `m × n × k` multiply.
///
/// Used by the GEMM micro-benchmarks to report sustained FLOP/s.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// `C = A·Bᵀ` into a freshly allocated matrix.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn gemm_nt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm_nt_into(a.into(), b.into(), c.as_mut_slice());
    c
}

/// `C = A·Bᵀ` into a caller-provided row-major buffer of length `m·n`.
///
/// Both operands are zero-copy row views, which lets the BMM solver stream
/// user batches and lets MAXIMUS multiply per-cluster user blocks without
/// copying. `c` is fully overwritten.
///
/// # Panics
/// Panics if the operand widths differ or `c` has the wrong length.
pub fn gemm_nt_into<T: Scalar>(a: RowBlock<'_, T>, b: RowBlock<'_, T>, c: &mut [T]) {
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    assert_eq!(k, b.cols(), "gemm_nt: inner dimension mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: output buffer length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(T::ZERO);
        return;
    }
    let blocks = BlockSizes::for_scalar::<T>(&CacheConfig::default());
    gemm_nt_blocked(a, b, c, &blocks);
}

/// `C = A·Bᵀ` with explicit blocking parameters (exposed for the blocking
/// ablation bench; [`gemm_nt_into`] picks parameters from the default cache
/// geometry).
pub fn gemm_nt_blocked<T: Scalar>(
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    c: &mut [T],
    blocks: &BlockSizes,
) {
    gemm_nt_blocked_with(simd::active(), a, b, c, blocks)
}

/// [`gemm_nt_blocked`] with an explicit micro-kernel set (exposed so tests
/// and benches can force the scalar fallback regardless of `MIPS_KERNEL`).
pub fn gemm_nt_blocked_with<T: Scalar>(
    kern: &Kernel,
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    c: &mut [T],
    blocks: &BlockSizes,
) {
    // Per-call packing buffers; hot loops should prefer
    // [`gemm_nt_into_scratch`] to reuse them across calls.
    let mut pack_a: Vec<T> = Vec::new();
    let mut pack_b: Vec<T> = Vec::new();
    gemm_nt_packed(kern, a, b, c, blocks, &mut pack_a, &mut pack_b)
}

/// `C = A·Bᵀ` into a caller-provided buffer, reusing the pack panels in
/// `scratch` across calls (default blocking and the active kernel set).
///
/// This is the unfused serve path's entry: repeated batches pay zero
/// allocation once the scratch reaches its high-water mark.
///
/// # Panics
/// Panics if the operand widths differ or `c` has the wrong length.
pub fn gemm_nt_into_scratch<T: Scalar>(
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    c: &mut [T],
    scratch: &mut GemmScratch<T>,
) {
    let blocks = BlockSizes::for_scalar::<T>(&CacheConfig::default());
    gemm_nt_packed(
        simd::active(),
        a,
        b,
        c,
        &blocks,
        &mut scratch.pack_a,
        &mut scratch.pack_b,
    )
}

/// The blocked driver over caller-owned packing buffers.
fn gemm_nt_packed<T: Scalar>(
    kern: &Kernel,
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    c: &mut [T],
    blocks: &BlockSizes,
    pack_a: &mut Vec<T>,
    pack_b: &mut Vec<T>,
) {
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    assert_eq!(k, b.cols(), "gemm_nt: inner dimension mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: output buffer length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(T::ZERO);
        return;
    }
    let (mc, kc, nc) = (blocks.mc.max(MR), blocks.kc.max(1), blocks.nc.max(NR));

    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc);
        compute_panel(kern, a, b, jc, ncb, mc, kc, c, n, jc, pack_a, pack_b);
    }
}

/// Reusable buffers for the blocked/streaming GEMM drivers: the two packed
/// operand panels plus the resident score panel of the streaming path.
///
/// Owning one of these per query loop (or per worker thread) removes every
/// per-block allocation from the serve path; the buffers grow to the
/// high-water mark of the shapes they see and are reused thereafter.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch<T> {
    pack_a: Vec<T>,
    pack_b: Vec<T>,
    panel: Vec<T>,
}

impl<T: Scalar> GemmScratch<T> {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        GemmScratch {
            pack_a: Vec::new(),
            pack_b: Vec::new(),
            panel: Vec::new(),
        }
    }
}

/// Panel-streaming `C = A·Bᵀ`: instead of materializing the full `m × n`
/// score buffer, walks B in NC-sized column panels and hands each finished
/// `m × ncb` panel of scores to `consumer` before computing the next one.
///
/// `consumer` receives the panel (row-major, row stride = the panel width)
/// and the global column range it covers. Only one panel of scores is ever
/// resident, so the fused GEMM→top-k path (`mips-topk::gemm_nt_topk`) does
/// its selection on cache-warm scores and the `batch × n` round-trip through
/// memory disappears — the §II-B memory-traffic argument applied to our own
/// serving loop.
///
/// # Panics
/// Panics if the operand widths differ.
pub fn gemm_nt_stream_panels<T: Scalar>(
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    scratch: &mut GemmScratch<T>,
    consumer: impl FnMut(&[T], Range<usize>),
) {
    let blocks = BlockSizes::for_scalar::<T>(&CacheConfig::default());
    gemm_nt_stream_panels_with(simd::active(), a, b, &blocks, scratch, consumer)
}

/// [`gemm_nt_stream_panels`] with explicit kernel set and blocking
/// parameters (the forced-scalar test entry).
pub fn gemm_nt_stream_panels_with<T: Scalar>(
    kern: &Kernel,
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    blocks: &BlockSizes,
    scratch: &mut GemmScratch<T>,
    mut consumer: impl FnMut(&[T], Range<usize>),
) {
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    assert_eq!(k, b.cols(), "gemm_nt: inner dimension mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let (mc, kc, nc) = (blocks.mc.max(MR), blocks.kc.max(1), blocks.nc.max(NR));

    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc);
        scratch.panel.resize(m * ncb, T::ZERO);
        if k == 0 {
            scratch.panel.fill(T::ZERO);
        } else {
            // Stale values from the previous panel are fully overwritten by
            // the first (non-accumulating) depth pass.
            compute_panel(
                kern,
                a,
                b,
                jc,
                ncb,
                mc,
                kc,
                &mut scratch.panel,
                ncb,
                0,
                &mut scratch.pack_a,
                &mut scratch.pack_b,
            );
        }
        consumer(&scratch.panel[..m * ncb], jc..jc + ncb);
    }
}

/// Computes one NC panel of `C = A·Bᵀ` (all depth and row blocks for columns
/// `jc..jc+ncb` of C), writing into `out` with row stride `out_stride` at
/// column offset `out_col0`. Shared by the in-place and streaming drivers.
#[allow(clippy::too_many_arguments)]
fn compute_panel<T: Scalar>(
    kern: &Kernel,
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    jc: usize,
    ncb: usize,
    mc: usize,
    kc: usize,
    out: &mut [T],
    out_stride: usize,
    out_col0: usize,
    pack_a: &mut Vec<T>,
    pack_b: &mut Vec<T>,
) {
    let (m, k) = (a.rows(), a.cols());
    for pc in (0..k).step_by(kc) {
        let kcb = kc.min(k - pc);
        pack_panel_b(b, jc, ncb, pc, kcb, pack_b);
        let accumulate = pc > 0;
        for ic in (0..m).step_by(mc) {
            let mcb = mc.min(m - ic);
            pack_panel_a(a, ic, mcb, pc, kcb, pack_a);
            macro_kernel(
                kern, pack_a, pack_b, out, out_stride, ic, out_col0, mcb, ncb, kcb, accumulate,
            );
        }
    }
}

/// Packs `ncb` rows of B starting at `row0` (depth window `pc..pc+kcb`) into
/// NR-interleaved panels, zero-padding the final partial panel.
fn pack_panel_b<T: Scalar>(
    b: RowBlock<'_, T>,
    row0: usize,
    ncb: usize,
    pc: usize,
    kcb: usize,
    out: &mut Vec<T>,
) {
    let panels = ncb.div_ceil(NR);
    out.clear();
    out.resize(panels * kcb * NR, T::ZERO);
    for q in 0..panels {
        let base = q * kcb * NR;
        let width = NR.min(ncb - q * NR);
        for jj in 0..width {
            let src = &b.row(row0 + q * NR + jj)[pc..pc + kcb];
            for (p, &v) in src.iter().enumerate() {
                out[base + p * NR + jj] = v;
            }
        }
    }
}

/// Packs `mcb` rows of A starting at `row0` (depth window `pc..pc+kcb`) into
/// MR-interleaved panels, zero-padding the final partial panel.
fn pack_panel_a<T: Scalar>(
    a: RowBlock<'_, T>,
    row0: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    out: &mut Vec<T>,
) {
    let panels = mcb.div_ceil(MR);
    out.clear();
    out.resize(panels * kcb * MR, T::ZERO);
    for q in 0..panels {
        let base = q * kcb * MR;
        let height = MR.min(mcb - q * MR);
        for ii in 0..height {
            let src = &a.row(row0 + q * MR + ii)[pc..pc + kcb];
            for (p, &v) in src.iter().enumerate() {
                out[base + p * MR + ii] = v;
            }
        }
    }
}

/// Walks the `MR × NR` register tiles of one `mcb × ncb` block of C,
/// dispatching each tile to the selected micro-kernel (`f64`) or the
/// portable generic one (other scalar types).
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Scalar>(
    kern: &Kernel,
    pack_a: &[T],
    pack_b: &[T],
    c: &mut [T],
    n: usize,
    ic: usize,
    jc: usize,
    mcb: usize,
    ncb: usize,
    kcb: usize,
    accumulate: bool,
) {
    let a_panels = mcb.div_ceil(MR);
    let b_panels = ncb.div_ceil(NR);
    for qa in 0..a_panels {
        let a_panel = &pack_a[qa * kcb * MR..(qa + 1) * kcb * MR];
        let tile_rows = MR.min(mcb - qa * MR);
        for qb in 0..b_panels {
            let b_panel = &pack_b[qb * kcb * NR..(qb + 1) * kcb * NR];
            let tile_cols = NR.min(ncb - qb * NR);
            let mut acc = [[T::ZERO; NR]; MR];
            match (
                simd::as_f64(a_panel),
                simd::as_f64(b_panel),
                simd::acc_as_f64_mut(&mut acc),
            ) {
                (Some(ap), Some(bp), Some(af)) => kern.micro_4x8(ap, bp, af),
                _ => micro_kernel(a_panel, b_panel, &mut acc),
            }
            let c_row0 = ic + qa * MR;
            let c_col0 = jc + qb * NR;
            if accumulate {
                for i in 0..tile_rows {
                    let row = &mut c[(c_row0 + i) * n + c_col0..][..tile_cols];
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot += acc[i][j];
                    }
                }
            } else {
                for i in 0..tile_rows {
                    let row = &mut c[(c_row0 + i) * n + c_col0..][..tile_cols];
                    row.copy_from_slice(&acc[i][..tile_cols]);
                }
            }
        }
    }
}

/// The register micro-kernel: `acc += Aᵖ ⊗ Bᵖ` summed over the packed depth.
///
/// `a_panel` and `b_panel` are tile-interleaved (`MR` / `NR` values per depth
/// step), so every iteration reads two short contiguous runs and issues
/// `MR × NR` independent fused multiply-adds — the compiler keeps the whole
/// accumulator tile in vector registers.
#[inline(always)]
fn micro_kernel<T: Scalar>(a_panel: &[T], b_panel: &[T], acc: &mut [[T; NR]; MR]) {
    let steps_a = a_panel.chunks_exact(MR);
    let steps_b = b_panel.chunks_exact(NR);
    for (ap, bp) in steps_a.zip(steps_b) {
        // Fixed-size views let the compiler drop all bounds checks.
        let ap: &[T; MR] = ap.try_into().expect("packed A panel is MR-aligned");
        let bp: &[T; NR] = bp.try_into().expect("packed B panel is NR-aligned");
        for i in 0..MR {
            let ai = ap[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(bp[j], acc[i][j]);
            }
        }
    }
}

/// Monomorphic scalar micro-kernel entry for the [`crate::simd::Kernel`]
/// vtable (the guaranteed fallback and bit-identity reference).
pub(crate) fn micro_4x8_scalar_f64(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    micro_kernel(a_panel, b_panel, acc)
}

/// Reference `C = A·Bᵀ` as a double loop over [`dot`] — the paper's
/// "naïve inner products" brute force. Quadratically cache-unfriendly for
/// large `B`; kept for testing and the §II-B speedup measurement.
pub fn naive_gemm_nt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.cols(), "naive_gemm_nt: dimension mismatch");
    let mut c = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let ai = a.row(i);
        let crow = c.row_mut(i);
        for (j, slot) in crow.iter_mut().enumerate() {
            *slot = dot(ai, b.row(j));
        }
    }
    c
}

/// Matrix–vector product `y = A·x` (one dot per row — the "matrix–vector"
/// middle ground of §II-B).
///
/// # Panics
/// Panics if `x.len() != a.cols()`.
pub fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), a.cols(), "matvec: dimension mismatch");
    a.iter_rows().map(|row| dot(row, x)).collect()
}

/// Standard product `C = A·B` for row-major operands, implemented by
/// transposing `B` once and dispatching to the blocked `A·Bᵀ` kernel.
///
/// Only used on small matrices (e.g. applying an `f × f` SVD basis), where
/// the transpose copy is negligible.
pub fn matmul_nn<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "matmul_nn: dimension mismatch");
    let bt = b.transpose();
    gemm_nt(a, &bt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic LCG; avoids pulling rand into the crate deps.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn assert_close(a: &Matrix<f64>, b: &Matrix<f64>, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let (x, y) = (a.get(r, c), b.get(r, c));
                assert!(
                    (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                    "mismatch at ({r},{c}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn gemm_matches_naive_on_awkward_shapes() {
        // Shapes chosen to hit every edge: partial MR/NR tiles, k smaller and
        // larger than KC, single rows/cols.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 3),
            (17, 23, 31),
            (64, 64, 64),
            (33, 70, 129),
            (2, 100, 1),
            (100, 2, 200),
        ] {
            let a = random_matrix(m, k, 42 + m as u64);
            let b = random_matrix(n, k, 999 + n as u64);
            let fast = gemm_nt(&a, &b);
            let slow = naive_gemm_nt(&a, &b);
            assert_close(&fast, &slow, 1e-11 * k as f64);
        }
    }

    #[test]
    fn gemm_deep_k_crosses_multiple_kc_blocks() {
        // KC for f64 defaults to 256; k = 700 forces three depth passes and
        // exercises the accumulate path.
        let a = random_matrix(9, 700, 7);
        let b = random_matrix(13, 700, 8);
        assert_close(&gemm_nt(&a, &b), &naive_gemm_nt(&a, &b), 1e-9);
    }

    #[test]
    fn gemm_with_custom_tiny_blocks_still_correct() {
        let a = random_matrix(10, 20, 1);
        let b = random_matrix(12, 20, 2);
        let mut c = Matrix::zeros(10, 12);
        let blocks = BlockSizes {
            mc: 4,
            kc: 3,
            nc: 8,
        };
        gemm_nt_blocked((&a).into(), (&b).into(), c.as_mut_slice(), &blocks);
        assert_close(&c, &naive_gemm_nt(&a, &b), 1e-11);
    }

    #[test]
    fn gemm_empty_dimensions() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(3, 5);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 3);

        // k == 0: result is all zeros, and a dirty output buffer is cleared.
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(3, 0);
        let mut buf = vec![7.0; 6];
        gemm_nt_into((&a).into(), (&b).into(), &mut buf);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_rejects_mismatched_widths() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 4);
        let _ = gemm_nt(&a, &b);
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn gemm_rejects_bad_output_buffer() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let mut c = vec![0.0; 3];
        gemm_nt_into((&a).into(), (&b).into(), &mut c);
    }

    #[test]
    fn gemm_on_row_blocks_matches_full() {
        let a = random_matrix(20, 15, 3);
        let b = random_matrix(10, 15, 4);
        let full = gemm_nt(&a, &b);
        let mut c = vec![0.0; 5 * 10];
        gemm_nt_into(a.row_block(5, 10), (&b).into(), &mut c);
        for i in 0..5 {
            for j in 0..10 {
                assert!((c[i * 10 + j] - full.get(5 + i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_matches_gemm_column() {
        let a = random_matrix(11, 9, 5);
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.3 - 1.0).collect();
        let xm = Matrix::from_vec(1, 9, x.clone()).unwrap();
        let y = matvec(&a, &x);
        let c = gemm_nt(&a, &xm);
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - c.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_nn_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul_nn(&a, &b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert!((c.get(0, 0) - 58.0).abs() < 1e-12);
        assert!((c.get(0, 1) - 64.0).abs() < 1e-12);
        assert!((c.get(1, 0) - 139.0).abs() < 1e-12);
        assert!((c.get(1, 1) - 154.0).abs() < 1e-12);
    }

    #[test]
    fn gemm_f32_matches_naive() {
        let a64 = random_matrix(19, 37, 11);
        let b64 = random_matrix(21, 37, 12);
        let a: Matrix<f32> = a64.cast();
        let b: Matrix<f32> = b64.cast();
        let fast = gemm_nt(&a, &b);
        let slow = naive_gemm_nt(&a, &b);
        for r in 0..fast.rows() {
            for c in 0..fast.cols() {
                assert!((fast.get(r, c) - slow.get(r, c)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn flops_counts_multiply_adds() {
        assert_eq!(gemm_flops(10, 20, 30), 2.0 * 10.0 * 20.0 * 30.0);
    }
}
