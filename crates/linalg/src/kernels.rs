//! Level-1 kernels: dot products, norms, axpy, scaling.
//!
//! These are the `sdot`-style routines the paper contrasts against blocked
//! matrix multiply. Every accumulating kernel uses four independent
//! accumulators so four FMA chains stay in flight; a single-accumulator loop
//! serializes on the FMA latency and runs several times slower.
//!
//! Double-precision inputs are routed through the process-wide SIMD kernel
//! set ([`crate::simd::active`]) — AVX2+FMA or NEON when available — whose
//! results are bit-identical to the scalar bodies below (see the contract in
//! [`crate::simd`]). Other scalar types take the portable path. This makes
//! every `f64` caller in the workspace (LEMP's LENGTH/INCR scans, MAXIMUS's
//! list walks, FEXIPRO's partial products, the naive GEMM reference) pick up
//! the dispatched kernels without code changes.

use crate::scalar::Scalar;
use crate::simd;

/// Dot product `xᵀy` with unrolled independent accumulators
/// (SIMD-dispatched for `f64`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if let (Some(xf), Some(yf)) = (simd::as_f64(x), simd::as_f64(y)) {
        return T::from_f64(simd::active().dot(xf, yf));
    }
    dot_scalar(x, y)
}

/// The portable dot product body (the scalar kernel-set entry).
#[inline]
fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        acc0 = xs[0].mul_add(ys[0], acc0);
        acc1 = xs[1].mul_add(ys[1], acc1);
        acc2 = xs[2].mul_add(ys[2], acc2);
        acc3 = xs[3].mul_add(ys[3], acc3);
    }
    let mut tail = T::ZERO;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail = a.mul_add(b, tail);
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// Dot product with the **GEMM micro-kernel's per-element reduction**: one
/// accumulator, sequential fused multiply-add over the shared dimension.
///
/// Every blocked-GEMM entry point in this crate accumulates each output
/// element `C[i][j]` sequentially over `k` (a single FMA chain per
/// element, across panel boundaries), so this kernel reproduces any
/// `gemm_nt*` output bit-for-bit for the same row pair — under every
/// kernel set, since the SIMD tiles keep the same per-element chain. The
/// default [`dot`] does not: its four independent accumulator lanes
/// combine in a different order and can differ in the last ulp.
///
/// Use this where a single recomputed score must agree bit-for-bit with
/// GEMM-produced scores (e.g. canonicalizing an index's reported top-k
/// values). The single chain serializes on the FMA latency, so it is
/// several times slower than [`dot`] on long vectors — keep it off bulk
/// scan paths.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot_gemm_ordered<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot_gemm_ordered: length mismatch");
    let mut acc = T::ZERO;
    for (a, b) in x.iter().zip(y) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// Four GEMM-ordered dot products `xᵀy_i` at once (SIMD-dispatched for
/// `f64` so the fused multiply-adds stay hardware instructions): each
/// product is one sequential FMA chain — [`dot_gemm_ordered`]'s reduction
/// — and the four independent chains pipeline, so a bulk canonicalizing
/// pass is throughput-bound instead of FMA-latency-bound.
///
/// # Panics
/// Panics if any `y` length differs from `x`'s.
#[inline]
pub fn dot_gemm_ordered_x4(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    simd::active().dot_seq4(x, ys)
}

/// Monomorphic scalar entries for the [`crate::simd::Kernel`] vtable.
pub(crate) fn dot_scalar_f64(x: &[f64], y: &[f64]) -> f64 {
    dot_scalar(x, y)
}

/// Scalar body of [`crate::simd::Kernel::dot_seq4`]. On targets without
/// baseline FMA the `mul_add`s go through libm's (hardware-backed,
/// correctly rounded) `fma`, so results stay bit-identical to the SIMD
/// kernel sets — only slower, which is the scalar set's usual deal.
pub(crate) fn dot_seq4_scalar_f64(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    let [y0, y1, y2, y3] = ys;
    let mut acc = [0.0f64; 4];
    for (j, &u) in x.iter().enumerate() {
        acc[0] = u.mul_add(y0[j], acc[0]);
        acc[1] = u.mul_add(y1[j], acc[1]);
        acc[2] = u.mul_add(y2[j], acc[2]);
        acc[3] = u.mul_add(y3[j], acc[3]);
    }
    acc
}

pub(crate) fn axpy_scalar_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_scalar(alpha, x, y)
}

pub(crate) fn dist2_sq_scalar_f64(x: &[f64], y: &[f64]) -> f64 {
    dist2_sq_scalar(x, y)
}

pub(crate) fn suffix_sumsq_scalar_f64(x: &[f64], out: &mut [f64]) {
    suffix_sumsq_scalar(x, out)
}

/// Scalar body of [`crate::simd::Kernel::dot_i8`]: widening i8×i8→i32
/// multiply-accumulate. Integer addition is associative, so every kernel
/// set (and any unrolling the autovectorizer applies here) produces the
/// identical `i32` — the i8 screen's bit-identity needs no envelope term
/// for accumulation order. Overflow-free for `x.len() ≤ I8_DOT_MAX_LEN`
/// (see [`crate::quant::I8_DOT_MAX_LEN`]), which the safe vtable wrapper
/// asserts.
pub(crate) fn dot_scalar_i8(x: &[i8], y: &[i8]) -> i32 {
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let mut acc2 = 0i32;
    let mut acc3 = 0i32;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        acc0 += xs[0] as i32 * ys[0] as i32;
        acc1 += xs[1] as i32 * ys[1] as i32;
        acc2 += xs[2] as i32 * ys[2] as i32;
        acc3 += xs[3] as i32 * ys[3] as i32;
    }
    let mut tail = 0i32;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a as i32 * b as i32;
    }
    acc0 + acc1 + acc2 + acc3 + tail
}

/// Scalar body of [`crate::simd::Kernel::dot_i8_quad`]: four independent
/// integer chains sharing the `x` loads, so the scan loop that consumes
/// groups of four item rows stays throughput-bound.
pub(crate) fn dot_i8_quad_scalar(x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
    let [y0, y1, y2, y3] = ys;
    let mut acc = [0i32; 4];
    for (j, &u) in x.iter().enumerate() {
        let u = u as i32;
        acc[0] += u * y0[j] as i32;
        acc[1] += u * y1[j] as i32;
        acc[2] += u * y2[j] as i32;
        acc[3] += u * y3[j] as i32;
    }
    acc
}

/// Upper bound on the *relative* disagreement between any two summation
/// orders of `n` squared terms in f64 — the actual bound behind the
/// suffix-sumsq "epsilon-covered exception" of [`crate::simd`].
///
/// Each computed suffix `Σ x_j²` (serial FMA chain or block-re-associated
/// vector scan) differs from the exact value by at most `γ_n = n·ε/(1−n·ε)`
/// relative (`ε = 2⁻⁵³`; the squares are non-negative, so the term-wise
/// bound is also the sum-wise bound). Two different orders therefore differ
/// from *each other* by at most `2γ_n` relative. Pruning bounds built on
/// suffix norms stay conservative as long as they are inflated by at least
/// this much — LEMP's `BOUND_EPS = 1e-10` dominates it for every feasible
/// factor count (`2γ_n < 1e-10` up to n ≈ 2.2×10⁵), which the bound tests
/// in `mips-lemp` assert rather than assume.
#[inline]
pub fn sumsq_reassoc_bound(n: usize) -> f64 {
    let ne = n as f64 * f64::EPSILON * 0.5;
    2.0 * ne / (1.0 - ne)
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq<T: Scalar>(x: &[T]) -> T {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm2<T: Scalar>(x: &[T]) -> T {
    norm2_sq(x).sqrt()
}

/// Squared Euclidean distance `‖x − y‖²` with unrolled independent
/// accumulators (SIMD-dispatched for `f64`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist2_sq<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    if let (Some(xf), Some(yf)) = (simd::as_f64(x), simd::as_f64(y)) {
        return T::from_f64(simd::active().dist2_sq(xf, yf));
    }
    dist2_sq_scalar(x, y)
}

/// Portable `dist2_sq` body: four FMA chains in flight, matching [`dot`]'s
/// accumulator layout (a single-accumulator loop serializes on FMA latency).
#[inline]
fn dist2_sq_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        let d0 = xs[0] - ys[0];
        let d1 = xs[1] - ys[1];
        let d2 = xs[2] - ys[2];
        let d3 = xs[3] - ys[3];
        acc0 = d0.mul_add(d0, acc0);
        acc1 = d1.mul_add(d1, acc1);
        acc2 = d2.mul_add(d2, acc2);
        acc3 = d3.mul_add(d3, acc3);
    }
    let mut tail = T::ZERO;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        let d = a - b;
        tail = d.mul_add(d, tail);
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// `y += alpha * x` (SIMD-dispatched for `f64`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if let Some(xf) = simd::as_f64(x) {
        if let Some(yf) = simd::as_f64_mut(y) {
            simd::active().axpy(alpha.to_f64(), xf, yf);
            return;
        }
    }
    axpy_scalar(alpha, x, y)
}

/// Portable `axpy` body, unrolled four-wide so the independent element
/// updates issue as four parallel FMA streams.
#[inline]
fn axpy_scalar<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact_mut(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        ys[0] = xs[0].mul_add(alpha, ys[0]);
        ys[1] = xs[1].mul_add(alpha, ys[1]);
        ys[2] = xs[2].mul_add(alpha, ys[2]);
        ys[3] = xs[3].mul_add(alpha, ys[3]);
    }
    for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi = xi.mul_add(alpha, *yi);
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean length and returns the original norm.
///
/// A zero vector is left untouched and `0` is returned; callers (e.g. the
/// MAXIMUS query path) treat zero-norm users as "any answer is maximal".
#[inline]
pub fn normalize<T: Scalar>(x: &mut [T]) -> T {
    let n = norm2(x);
    if n > T::ZERO {
        let inv = T::ONE / n;
        scale(inv, x);
    }
    n
}

/// The cosine of the angle between `x` and `y`, clamped to `[-1, 1]`.
///
/// Returns `0` when either vector has zero norm (orthogonal by convention).
#[inline]
pub fn cosine<T: Scalar>(x: &[T], y: &[T]) -> T {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx == T::ZERO || ny == T::ZERO {
        return T::ZERO;
    }
    let c = dot(x, y) / (nx * ny);
    c.max_val(-T::ONE).min_val(T::ONE)
}

/// The angle in radians between `x` and `y` (`acos` of [`cosine`]).
#[inline]
pub fn angle<T: Scalar>(x: &[T], y: &[T]) -> T {
    cosine(x, y).acos_clamped()
}

/// Suffix norms: `out[j] = ‖x[j..]‖` for every `j`, plus `out[len] = 0`.
///
/// Both LEMP's incremental pruning and FEXIPRO's partial inner products need
/// the norm of the *remaining* coordinates at a checkpoint; computing the
/// running sum backwards gives all of them in one pass. For `f64` the
/// sum-of-squares scan dispatches to the active SIMD kernel; its block
/// re-association is covered by the bound-inflation epsilon at every
/// pruning call site (see [`crate::simd`]).
pub fn suffix_norms<T: Scalar>(x: &[T]) -> Vec<T> {
    let mut out = vec![T::ZERO; x.len() + 1];
    if let (Some(xf), Some(of)) = (simd::as_f64(x), simd::as_f64_mut(&mut out)) {
        simd::active().suffix_sumsq(xf, of);
        for v in &mut out {
            *v = v.sqrt();
        }
        return out;
    }
    suffix_sumsq_scalar(x, &mut out);
    for v in &mut out {
        *v = v.sqrt();
    }
    out
}

/// Portable suffix sum-of-squares body: one backward FMA carry chain.
#[inline]
fn suffix_sumsq_scalar<T: Scalar>(x: &[T], out: &mut [T]) {
    debug_assert_eq!(out.len(), x.len() + 1);
    out[x.len()] = T::ZERO;
    let mut acc = T::ZERO;
    for j in (0..x.len()).rev() {
        acc = x[j].mul_add(x[j], acc);
        out[j] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miri-targeted: drives every TypeId-guarded slice reinterpretation
    /// in `simd/mod.rs` directly — the match arms (`T == f64`), the
    /// `None` arms, and writes through the `_mut` casts — so the Miri CI
    /// leg checks the pointer casts under strict provenance even though
    /// it cannot execute the vector intrinsics behind them.
    #[test]
    fn typeid_guarded_reinterprets_round_trip_under_miri() {
        use crate::blocking::{MR, NR};

        let xs64 = [1.0f64, -2.0, 3.5];
        let got = simd::as_f64(&xs64).expect("T == f64 must reinterpret");
        assert_eq!(got, &xs64[..]);
        let xs32 = [0.5f32, -4.0];
        assert!(simd::as_f64(&xs32).is_none(), "f32 is not f64");

        let mut ys64 = [0.0f64; 4];
        simd::as_f64_mut(&mut ys64).expect("mutable f64 cast")[2] = 9.0;
        assert_eq!(ys64[2], 9.0);
        let mut ys32 = [0.0f32; 4];
        assert!(simd::as_f64_mut(&mut ys32).is_none());

        let mut acc64 = [[0.0f64; NR]; MR];
        simd::acc_as_f64_mut(&mut acc64).expect("f64 tile cast")[MR - 1][NR - 1] = 1.5;
        assert_eq!(acc64[MR - 1][NR - 1], 1.5);
        let mut acc32 = [[0.0f32; NR]; MR];
        assert!(simd::acc_as_f64_mut(&mut acc32).is_none());
    }

    #[test]
    fn dot_matches_naive_all_lengths() {
        // Cover the unrolled body plus every remainder size.
        for len in 0..24usize {
            let x: Vec<f64> = (0..len).map(|i| (i as f64) * 0.5 - 2.0).collect();
            let y: Vec<f64> = (0..len).map(|i| 1.0 - (i as f64) * 0.25).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!(
                (dot(&x, &y) - naive).abs() < 1e-10,
                "len {len}: {} vs {naive}",
                dot(&x, &y)
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0_f64], &[1.0, 2.0]);
    }

    #[test]
    fn norms_and_distances() {
        let x = [3.0_f64, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-12);
        assert!((norm2_sq(&x) - 25.0).abs() < 1e-12);
        let y = [0.0_f64, 0.0];
        assert!((dist2_sq(&x, &y) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0_f64, 2.0, 3.0];
        let mut y = [10.0_f64, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0, 18.0]);
    }

    #[test]
    fn normalize_unit_length_and_zero_vector() {
        let mut x = [3.0_f64, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);

        let mut z = [0.0_f64, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn cosine_and_angle_known_values() {
        let x = [1.0_f64, 0.0];
        let y = [0.0_f64, 1.0];
        assert!(cosine(&x, &y).abs() < 1e-12);
        assert!((angle(&x, &y) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-12);
        assert_eq!(angle(&x, &x), 0.0);
        let z = [0.0_f64, 0.0];
        assert_eq!(cosine(&x, &z), 0.0);
    }

    #[test]
    fn cosine_never_escapes_unit_interval() {
        // Nearly parallel vectors whose raw cosine exceeds 1 by rounding.
        let x = [1e8_f64, 1.0, 1e-8];
        let c = cosine(&x, &x);
        assert!((-1.0..=1.0).contains(&c));
        assert_eq!(angle(&x, &x), 0.0);
    }

    #[test]
    fn suffix_norms_match_direct_computation() {
        let x = [1.0_f64, -2.0, 2.0, 0.5];
        let s = suffix_norms(&x);
        assert_eq!(s.len(), 5);
        for j in 0..=4 {
            let direct = norm2(&x[j..]);
            assert!((s[j] - direct).abs() < 1e-12, "j={j}");
        }
        assert_eq!(s[4], 0.0);
    }

    #[test]
    fn f32_kernels_work() {
        let x = [1.0_f32, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0_f32, 4.0, 3.0, 2.0, 1.0];
        assert!((dot(&x, &y) - 35.0).abs() < 1e-5);
        assert!((norm2(&[3.0_f32, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn sumsq_reassoc_bound_dominates_observed_kernel_disagreement() {
        // The documented bound must cover the real deviation between the
        // serial scalar scan and the block-re-associated SIMD scan (and
        // leave room — it is a worst-case bound, not a fit).
        let kernels = [
            crate::simd::Kernel::scalar(),
            crate::simd::Kernel::best(), // scalar again on plain hosts; fine
        ];
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0
        };
        for len in [1usize, 4, 17, 128, 1000] {
            let x: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut reference = vec![0.0; len + 1];
            kernels[0].suffix_sumsq(&x, &mut reference);
            let mut other = vec![0.0; len + 1];
            kernels[1].suffix_sumsq(&x, &mut other);
            for j in 0..len {
                let bound = sumsq_reassoc_bound(len - j) * reference[j].abs();
                assert!(
                    (reference[j] - other[j]).abs() <= bound.max(f64::MIN_POSITIVE),
                    "len {len} j {j}"
                );
            }
        }
        // Shape sanity: monotone in n, tiny at realistic factor counts, and
        // dominated by LEMP's 1e-10 inflation far beyond any model width.
        assert!(sumsq_reassoc_bound(64) < sumsq_reassoc_bound(4096));
        assert!(sumsq_reassoc_bound(4096) < 1e-12);
        assert!(sumsq_reassoc_bound(100_000) < 1e-10);
    }

    #[test]
    fn dot_gemm_ordered_reproduces_gemm_elements_bit_for_bit() {
        use crate::{gemm_nt, Matrix};
        for (m, n, f) in [(23, 37, 11), (5, 300, 50), (3, 7, 1), (4, 9, 257)] {
            let a =
                Matrix::<f64>::from_fn(m, f, |r, c| ((r * 31 + c * 7) % 13) as f64 * 0.137 - 0.5);
            let b =
                Matrix::<f64>::from_fn(n, f, |r, c| ((r * 17 + c * 3) % 11) as f64 * 0.211 - 0.7);
            let big = gemm_nt(&a, &b);
            for u in 0..m {
                for i in 0..n {
                    assert_eq!(
                        dot_gemm_ordered(a.row(u), b.row(i)),
                        big.get(u, i),
                        "({m},{n},{f}) element ({u},{i})"
                    );
                }
            }
        }
    }
}
