//! AVX2 + FMA micro-kernels (x86-64, 256-bit, four f64 lanes).
//!
//! Each public item is a *safe* wrapper whose soundness rests on the
//! constructor contract in [`super`]: these wrappers are only ever reachable
//! through a [`super::Kernel`] built by `Kernel::avx2()`, which verified
//! `avx2` and `fma` via `is_x86_feature_detected!`. The inner `unsafe fn`s
//! carry `#[target_feature]` and do nothing unsafe beyond in-bounds pointer
//! addressing derived from slice lengths (trip counts are computed from
//! `len / lanes`, tails handled by scalar remainder loops).
//!
//! The accumulation orders deliberately mirror the scalar kernels so results
//! are bit-identical — see the bit-identity contract in [`super`].

use crate::blocking::{MR, NR};
use core::arch::x86_64::*;

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: reachable only via a Kernel constructed after feature
    // detection; the inner kernel reads in bounds only.
    unsafe { dot_inner(x, y) }
}

// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    // One vector accumulator: lane l sums x[4i+l]·y[4i+l], exactly the four
    // independent scalar accumulators of `kernels::dot`.
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        let xv = _mm256_loadu_pd(xp.add(4 * i));
        let yv = _mm256_loadu_pd(yp.add(4 * i));
        acc = _mm256_fmadd_pd(xv, yv, acc);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        tail = (*xp.add(j)).mul_add(*yp.add(j), tail);
    }
    // Same combine tree as the scalar kernel: ((l0+l1)+(l2+l3)) + tail.
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot_seq4(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    // SAFETY: as for `dot`.
    unsafe { dot_seq4_inner(x, ys) }
}

/// Four sequential-chain (GEMM-ordered) dots. The body is the scalar
/// kernel's, written out here so that under `target_feature(fma)` every
/// `mul_add` lowers to an inline `vfmadd` instead of the baseline
/// target's libm call — same bits, hardware speed.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_seq4_inner(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
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

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { axpy_inner(alpha, x, y) }
}

// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let chunks = n / 4;
    let a = _mm256_set1_pd(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    for i in 0..chunks {
        let xv = _mm256_loadu_pd(xp.add(4 * i));
        let yv = _mm256_loadu_pd(yp.add(4 * i));
        _mm256_storeu_pd(yp.add(4 * i), _mm256_fmadd_pd(xv, a, yv));
    }
    for j in 4 * chunks..n {
        *yp.add(j) = (*xp.add(j)).mul_add(alpha, *yp.add(j));
    }
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dist2_sq_inner(x, y) }
}

// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn dist2_sq_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        let d = _mm256_sub_pd(
            _mm256_loadu_pd(xp.add(4 * i)),
            _mm256_loadu_pd(yp.add(4 * i)),
        );
        acc = _mm256_fmadd_pd(d, d, acc);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        let d = *xp.add(j) - *yp.add(j);
        tail = d.mul_add(d, tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn suffix_sumsq(x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), x.len() + 1);
    // SAFETY: as for `dot`.
    unsafe { suffix_sumsq_inner(x, out) }
}

/// Backward suffix scan with vectorized squaring.
///
/// The carry chain is inherently serial; the vector unit only computes the
/// four squares of each block at once. Within-block sums are re-associated
/// relative to the scalar scan (square-then-add instead of a fused chain),
/// which is the documented exception to the bit-identity contract.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn suffix_sumsq_inner(x: &[f64], out: &mut [f64]) {
    let n = x.len();
    let op = out.as_mut_ptr();
    *op.add(n) = 0.0;
    let rem = n % 4;
    let mut carry = 0.0f64;
    let xp = x.as_ptr();
    let mut block = n;
    while block > rem {
        block -= 4;
        let v = _mm256_loadu_pd(xp.add(block));
        let mut sq = [0.0f64; 4];
        _mm256_storeu_pd(sq.as_mut_ptr(), _mm256_mul_pd(v, v));
        let t3 = sq[3] + carry;
        let t2 = sq[2] + t3;
        let t1 = sq[1] + t2;
        let t0 = sq[0] + t1;
        *op.add(block) = t0;
        *op.add(block + 1) = t1;
        *op.add(block + 2) = t2;
        *op.add(block + 3) = t3;
        carry = t0;
    }
    let mut j = rem;
    while j > 0 {
        j -= 1;
        carry = (*xp.add(j)).mul_add(*xp.add(j), carry);
        *op.add(j) = carry;
    }
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dot_i8_inner(x, y) }
}

/// Int8 widening dot: each 32-byte block is sign-extended to i16 halves
/// (`vpmovsxbw`) and folded by `vpmaddwd` into eight i32 lanes — 32
/// products per two madds. The remainder is peeled vector-first: one
/// 16-element sub-chunk (full 128-bit load, one madd) and one 8-element
/// sub-chunk (`vmovq` zero-extends the upper half, whose lanes then
/// contribute exact zero products), leaving at most 7 scalar elements —
/// this matters at recommender widths like f = 50, where a 32-wide loop
/// alone would push 18 of 50 coordinates through the scalar tail.
/// Per-lane worst case at the documented length cap
/// (`quant::I8_DOT_MAX_LEN`) is `(f/16 + 2)·2·127² < 2³¹`, so the i32
/// lanes cannot overflow; every add is an exact integer add, making the
/// result bit-identical to the scalar kernel under every input.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection) and pass slices
// satisfying the safe wrapper's length invariants — every pointer read
// below is in bounds exactly when they hold (each sub-chunk load is
// guarded by `i + width <= n`).
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_inner(x: &[i8], y: &[i8]) -> i32 {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let xv = _mm256_loadu_si256(xp.add(i) as *const __m256i);
        let yv = _mm256_loadu_si256(yp.add(i) as *const __m256i);
        let xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
        let xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1));
        let ylo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(yv));
        let yhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(yv, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, ylo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, yhi));
        i += 32;
    }
    if i + 16 <= n {
        let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xp.add(i) as *const __m128i));
        let yv = _mm256_cvtepi8_epi16(_mm_loadu_si128(yp.add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
        i += 16;
    }
    if i + 8 <= n {
        let xv = _mm256_cvtepi8_epi16(_mm_loadl_epi64(xp.add(i) as *const __m128i));
        let yv = _mm256_cvtepi8_epi16(_mm_loadl_epi64(yp.add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
        i += 8;
    }
    let mut sum = hsum_epi32(acc);
    while i < n {
        sum += *xp.add(i) as i32 * *yp.add(i) as i32;
        i += 1;
    }
    sum
}

/// Horizontal i32 sum of the eight lanes — fold the halves, then two
/// pairwise hadds. Exact: integer addition commutes and associates.
// SAFETY contract: AVX2 available, per the kernel constructor contract.
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let s = _mm_hadd_epi32(s, s);
    let s = _mm_hadd_epi32(s, s);
    _mm_cvtsi128_si32(s)
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot_i8_quad(x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
    // SAFETY: as for `dot`.
    unsafe { dot_i8_quad_inner(x, ys) }
}

/// Four int8 widening dots sharing the `x` loads: four independent
/// accumulator registers keep the madd chains pipelined the way
/// `dot_seq4` does for f64. Remainder handling and overflow bound as for
/// `dot_i8` (16- then 8-element sub-chunks, ≤ 7 scalar elements); the
/// four horizontal sums are produced together by two levels of
/// `vphaddd` plus one cross-half fold. Exactness as for `dot_i8` —
/// integer adds, bit-identical to the scalar kernel.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection) and pass slices
// satisfying the safe wrapper's length invariants — every pointer read
// below is in bounds exactly when they hold (each sub-chunk load is
// guarded by `i + width <= n`).
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_quad_inner(x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = [
        ys[0].as_ptr(),
        ys[1].as_ptr(),
        ys[2].as_ptr(),
        ys[3].as_ptr(),
    ];
    let mut acc = [_mm256_setzero_si256(); 4];
    let mut i = 0usize;
    while i + 32 <= n {
        let xv = _mm256_loadu_si256(xp.add(i) as *const __m256i);
        let xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
        let xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1));
        for q in 0..4 {
            let yv = _mm256_loadu_si256(yp[q].add(i) as *const __m256i);
            let ylo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(yv));
            let yhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(yv, 1));
            acc[q] = _mm256_add_epi32(acc[q], _mm256_madd_epi16(xlo, ylo));
            acc[q] = _mm256_add_epi32(acc[q], _mm256_madd_epi16(xhi, yhi));
        }
        i += 32;
    }
    if i + 16 <= n {
        let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xp.add(i) as *const __m128i));
        for (q, &p) in yp.iter().enumerate() {
            let yv = _mm256_cvtepi8_epi16(_mm_loadu_si128(p.add(i) as *const __m128i));
            acc[q] = _mm256_add_epi32(acc[q], _mm256_madd_epi16(xv, yv));
        }
        i += 16;
    }
    if i + 8 <= n {
        let xv = _mm256_cvtepi8_epi16(_mm_loadl_epi64(xp.add(i) as *const __m128i));
        for (q, &p) in yp.iter().enumerate() {
            let yv = _mm256_cvtepi8_epi16(_mm_loadl_epi64(p.add(i) as *const __m128i));
            acc[q] = _mm256_add_epi32(acc[q], _mm256_madd_epi16(xv, yv));
        }
        i += 8;
    }
    // hadd(a, b) interleaves pairwise sums of a and b within each 128-bit
    // half; two levels leave [A B C D | A' B' C' D'] where X + X' is the
    // lane sum of acc[X] — one cross-half add finishes all four at once.
    let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
    let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
    let h = _mm256_hadd_epi32(h01, h23);
    let s = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
    let mut out = [0i32; 4];
    _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, s);
    for (q, &p) in yp.iter().enumerate() {
        for j in i..n {
            out[q] += *xp.add(j) as i32 * *p.add(j) as i32;
        }
    }
    out
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn micro_4x8(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    debug_assert_eq!(a_panel.len() / MR, b_panel.len() / NR);
    // SAFETY: as for `dot`.
    unsafe { micro_4x8_inner(a_panel, b_panel, acc) }
}

/// The `4×8` register tile: 8 vector accumulators (4 rows × 2 vectors of 4
/// columns), two B loads and four A broadcasts per depth step, 8 independent
/// FMAs in flight. Each `(i, j)` lane is a single sequential FMA chain over
/// the packed depth — bit-identical to the scalar micro-kernel.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_4x8_inner(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    let depth = a_panel.len() / MR;
    let ap = a_panel.as_ptr();
    let bp = b_panel.as_ptr();

    let mut c00 = _mm256_loadu_pd(acc[0].as_ptr());
    let mut c01 = _mm256_loadu_pd(acc[0].as_ptr().add(4));
    let mut c10 = _mm256_loadu_pd(acc[1].as_ptr());
    let mut c11 = _mm256_loadu_pd(acc[1].as_ptr().add(4));
    let mut c20 = _mm256_loadu_pd(acc[2].as_ptr());
    let mut c21 = _mm256_loadu_pd(acc[2].as_ptr().add(4));
    let mut c30 = _mm256_loadu_pd(acc[3].as_ptr());
    let mut c31 = _mm256_loadu_pd(acc[3].as_ptr().add(4));

    for p in 0..depth {
        let b0 = _mm256_loadu_pd(bp.add(p * NR));
        let b1 = _mm256_loadu_pd(bp.add(p * NR + 4));
        let arow = ap.add(p * MR);
        let a0 = _mm256_set1_pd(*arow);
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a0, b1, c01);
        let a1 = _mm256_set1_pd(*arow.add(1));
        c10 = _mm256_fmadd_pd(a1, b0, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let a2 = _mm256_set1_pd(*arow.add(2));
        c20 = _mm256_fmadd_pd(a2, b0, c20);
        c21 = _mm256_fmadd_pd(a2, b1, c21);
        let a3 = _mm256_set1_pd(*arow.add(3));
        c30 = _mm256_fmadd_pd(a3, b0, c30);
        c31 = _mm256_fmadd_pd(a3, b1, c31);
    }

    _mm256_storeu_pd(acc[0].as_mut_ptr(), c00);
    _mm256_storeu_pd(acc[0].as_mut_ptr().add(4), c01);
    _mm256_storeu_pd(acc[1].as_mut_ptr(), c10);
    _mm256_storeu_pd(acc[1].as_mut_ptr().add(4), c11);
    _mm256_storeu_pd(acc[2].as_mut_ptr(), c20);
    _mm256_storeu_pd(acc[2].as_mut_ptr().add(4), c21);
    _mm256_storeu_pd(acc[3].as_mut_ptr(), c30);
    _mm256_storeu_pd(acc[3].as_mut_ptr().add(4), c31);
}
