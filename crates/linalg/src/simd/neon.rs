//! NEON micro-kernels (aarch64, 128-bit, two f64 lanes).
//!
//! NEON with double-precision FMA is a baseline aarch64 feature, so no
//! runtime detection is needed; the `unsafe` here is only the intrinsic
//! calls themselves, with the same in-bounds addressing discipline as the
//! AVX2 kernels (see [`super`] for the full safety contract).
//!
//! Two 2-lane accumulators stand in for AVX2's one 4-lane accumulator:
//! lanes `(0,1)` of the first and `(0,1)` of the second map onto scalar
//! accumulators `0..4`, and the combine tree matches the scalar kernels, so
//! the bit-identity contract of [`super`] holds here too.

use crate::blocking::{MR, NR};
use core::arch::aarch64::*;

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: NEON is baseline on aarch64; reads are in bounds.
    unsafe { dot_inner(x, y) }
}

// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dot_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        acc01 = vfmaq_f64(acc01, vld1q_f64(xp.add(4 * i)), vld1q_f64(yp.add(4 * i)));
        acc23 = vfmaq_f64(
            acc23,
            vld1q_f64(xp.add(4 * i + 2)),
            vld1q_f64(yp.add(4 * i + 2)),
        );
    }
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        tail = (*xp.add(j)).mul_add(*yp.add(j), tail);
    }
    ((vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1))
        + (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1)))
        + tail
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { axpy_inner(alpha, x, y) }
}

// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let chunks = n / 2;
    let a = vdupq_n_f64(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    for i in 0..chunks {
        let yv = vld1q_f64(yp.add(2 * i));
        vst1q_f64(yp.add(2 * i), vfmaq_f64(yv, vld1q_f64(xp.add(2 * i)), a));
    }
    for j in 2 * chunks..n {
        *yp.add(j) = (*xp.add(j)).mul_add(alpha, *yp.add(j));
    }
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dist2_sq_inner(x, y) }
}

// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dist2_sq_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        let d01 = vsubq_f64(vld1q_f64(xp.add(4 * i)), vld1q_f64(yp.add(4 * i)));
        let d23 = vsubq_f64(vld1q_f64(xp.add(4 * i + 2)), vld1q_f64(yp.add(4 * i + 2)));
        acc01 = vfmaq_f64(acc01, d01, d01);
        acc23 = vfmaq_f64(acc23, d23, d23);
    }
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        let d = *xp.add(j) - *yp.add(j);
        tail = d.mul_add(d, tail);
    }
    ((vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1))
        + (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1)))
        + tail
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn suffix_sumsq(x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), x.len() + 1);
    // SAFETY: as for `dot`.
    unsafe { suffix_sumsq_inner(x, out) }
}

// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn suffix_sumsq_inner(x: &[f64], out: &mut [f64]) {
    let n = x.len();
    let op = out.as_mut_ptr();
    *op.add(n) = 0.0;
    let rem = n % 2;
    let mut carry = 0.0f64;
    let xp = x.as_ptr();
    let mut block = n;
    while block > rem {
        block -= 2;
        let v = vld1q_f64(xp.add(block));
        let sq = vmulq_f64(v, v);
        let t1 = vgetq_lane_f64(sq, 1) + carry;
        let t0 = vgetq_lane_f64(sq, 0) + t1;
        *op.add(block) = t0;
        *op.add(block + 1) = t1;
        carry = t0;
    }
    if rem == 1 {
        carry = (*xp).mul_add(*xp, carry);
        *op = carry;
    }
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dot_i8_inner(x, y) }
}

/// Int8 widening dot: 16 codes per step via `smull` (i8×i8→i16, exact —
/// products are ≤ 127² and fit i16) and `sadalp` (pairwise add-accumulate
/// into i32 lanes). Every add happens in i32 after exact i16 products, so
/// the result is bit-identical to the scalar kernel; the per-lane bound at
/// the documented length cap (`quant::I8_DOT_MAX_LEN`) stays far inside
/// `i32`.
// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dot_i8_inner(x: &[i8], y: &[i8]) -> i32 {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = vdupq_n_s32(0);
    let mut i = 0usize;
    while i + 16 <= n {
        let xv = vld1q_s8(xp.add(i));
        let yv = vld1q_s8(yp.add(i));
        let lo = vmull_s8(vget_low_s8(xv), vget_low_s8(yv));
        let hi = vmull_s8(vget_high_s8(xv), vget_high_s8(yv));
        acc = vpadalq_s16(acc, lo);
        acc = vpadalq_s16(acc, hi);
        i += 16;
    }
    // 8-element sub-chunk (64-bit load) keeps the scalar tail under 8.
    if i + 8 <= n {
        acc = vpadalq_s16(acc, vmull_s8(vld1_s8(xp.add(i)), vld1_s8(yp.add(i))));
        i += 8;
    }
    let mut sum = vaddvq_s32(acc);
    while i < n {
        sum += *xp.add(i) as i32 * *yp.add(i) as i32;
        i += 1;
    }
    sum
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dot_i8_quad(x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
    // SAFETY: as for `dot`.
    unsafe { dot_i8_quad_inner(x, ys) }
}

/// Four int8 widening dots sharing the `x` loads — four independent
/// accumulators keep the multiply chains pipelined. Exactness as for
/// `dot_i8`.
// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dot_i8_quad_inner(x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = [
        ys[0].as_ptr(),
        ys[1].as_ptr(),
        ys[2].as_ptr(),
        ys[3].as_ptr(),
    ];
    let mut acc = [vdupq_n_s32(0); 4];
    let mut i = 0usize;
    while i + 16 <= n {
        let xv = vld1q_s8(xp.add(i));
        let xlo = vget_low_s8(xv);
        let xhi = vget_high_s8(xv);
        for q in 0..4 {
            let yv = vld1q_s8(yp[q].add(i));
            acc[q] = vpadalq_s16(acc[q], vmull_s8(xlo, vget_low_s8(yv)));
            acc[q] = vpadalq_s16(acc[q], vmull_s8(xhi, vget_high_s8(yv)));
        }
        i += 16;
    }
    // 8-element sub-chunk (64-bit loads) keeps the scalar tail under 8.
    if i + 8 <= n {
        let xv = vld1_s8(xp.add(i));
        for (q, &p) in yp.iter().enumerate() {
            acc[q] = vpadalq_s16(acc[q], vmull_s8(xv, vld1_s8(p.add(i))));
        }
        i += 8;
    }
    let mut out = [0i32; 4];
    for (q, &p) in yp.iter().enumerate() {
        out[q] = vaddvq_s32(acc[q]);
        for j in i..n {
            out[q] += *xp.add(j) as i32 * *p.add(j) as i32;
        }
    }
    out
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn micro_4x8(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    debug_assert_eq!(a_panel.len() / MR, b_panel.len() / NR);
    // SAFETY: as for `dot`.
    unsafe { micro_4x8_inner(a_panel, b_panel, acc) }
}

/// The `4×8` tile as 16 two-lane accumulators; each `(i, j)` lane is one
/// sequential FMA chain over the packed depth, matching the scalar kernel.
// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn micro_4x8_inner(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    let depth = a_panel.len() / MR;
    let ap = a_panel.as_ptr();
    let bp = b_panel.as_ptr();

    let mut c: [[float64x2_t; 4]; MR] = [[vdupq_n_f64(0.0); 4]; MR];
    for (i, row) in c.iter_mut().enumerate() {
        for (q, v) in row.iter_mut().enumerate() {
            *v = vld1q_f64(acc[i].as_ptr().add(2 * q));
        }
    }

    for p in 0..depth {
        let b0 = vld1q_f64(bp.add(p * NR));
        let b1 = vld1q_f64(bp.add(p * NR + 2));
        let b2 = vld1q_f64(bp.add(p * NR + 4));
        let b3 = vld1q_f64(bp.add(p * NR + 6));
        let arow = ap.add(p * MR);
        for (i, row) in c.iter_mut().enumerate() {
            let ai = vdupq_n_f64(*arow.add(i));
            row[0] = vfmaq_f64(row[0], ai, b0);
            row[1] = vfmaq_f64(row[1], ai, b1);
            row[2] = vfmaq_f64(row[2], ai, b2);
            row[3] = vfmaq_f64(row[3], ai, b3);
        }
    }

    for (i, row) in c.iter().enumerate() {
        for (q, v) in row.iter().enumerate() {
            vst1q_f64(acc[i].as_mut_ptr().add(2 * q), *v);
        }
    }
}
