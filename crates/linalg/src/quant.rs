//! Shared quantization helpers: scale selection, symmetric int8 rows, and
//! the conservative error envelope of the int8 screen path.
//!
//! Two consumers quantize in this workspace and both use the same scale
//! policy, implemented once here:
//!
//! * FEXIPRO's integer pruning stage (`mips-fexipro`) maps magnitudes onto
//!   a `bits`-wide unsigned range with a **ceiling** rounding so the
//!   quantized dot is a one-sided upper bound;
//! * the int8 screen mirror (`mips-data`) maps each row onto `[-127, 127]`
//!   with **round-to-nearest** and a per-row scale, trading the one-sided
//!   bound for a symmetric error envelope ([`i8_screen_envelope_parts`])
//!   half as wide.
//!
//! The scale policy ([`scale_for`]) is: map the largest magnitude of the
//! block onto the top of the representable range, and give all-zero blocks
//! the scale `1.0` (every quantized value is then `0`, and both consumers'
//! bounds degenerate to exactly `0`, which is correct for a zero vector).
//! Saturation is impossible by construction — `max_abs · scale ≤ max_level`
//! up to one float rounding, which both consumers absorb (FEXIPRO's ceil
//! stays a valid upper bound; the i8 path clamps to the symmetric range and
//! its envelope slack covers the half-ulp this can move a code point).

use crate::simd;

/// The scale mapping a block's largest magnitude onto `max_level`:
/// `scale_for(m, L) = L / m`, with all-zero blocks (`m ≤ 0`) pinned to
/// `1.0` so downstream quantized values are exactly `0`.
///
/// `max_abs` must be finite and non-negative (callers quantize validated
/// factor blocks). The returned scale can still overflow to `+∞` when
/// `max_abs` is subnormal-small; quantizing consumers must check
/// [`f64::is_finite`] on the scale and fall back to their unquantized path
/// rather than produce saturated garbage.
#[inline]
pub fn scale_for(max_abs: f64, max_level: f64) -> f64 {
    if max_abs <= 0.0 {
        1.0
    } else {
        max_level / max_abs
    }
}

/// The symmetric int8 code range: quantized values live in `[-127, 127]`
/// (the two's-complement `-128` is never produced, keeping negation exact).
pub const I8_QUANT_LEVEL: f64 = 127.0;

/// Maximum vector length the int8 dot kernels accept.
///
/// The kernels accumulate in `i32`; the worst case per coordinate is
/// `127² = 16129`, so `f ≤ 65536` bounds any accumulation order by
/// `2³⁰.3 < i32::MAX` with a 2× margin. Factor counts beyond this are far
/// outside any MF model this repository targets; consumers gate their i8
/// mirrors on it (`mips_data::MirrorI8` marks itself unusable).
pub const I8_DOT_MAX_LEN: usize = 65536;

/// Quantizes one row symmetrically into `out`, returning `(scale, l1)`:
/// the per-row scale (`scale_for(max|row|, 127)`) and the row's exact-f64
/// L1 norm `Σ|row_j|`, which the screen envelope needs.
///
/// Each coordinate becomes `round(v·scale)` clamped to `[-127, 127]`, so
/// `|out_j / scale − row_j| ≤ (0.5 + 127·ε)/scale` — the half-step bound
/// the envelope in [`i8_screen_envelope_parts`] is built on.
///
/// The row must be finite. A subnormal-small `max_abs` can push the scale
/// to `+∞`; callers must check `scale.is_finite()` before using the
/// quantized row (the clamp keeps `out` well-defined regardless).
///
/// # Panics
/// Panics if `out.len() != row.len()`.
pub fn quantize_row_i8(row: &[f64], out: &mut [i8]) -> (f64, f64) {
    assert_eq!(out.len(), row.len(), "quantize_row_i8: length mismatch");
    let mut max_abs = 0.0f64;
    let mut l1 = 0.0f64;
    for &v in row {
        let a = v.abs();
        max_abs = max_abs.max(a);
        l1 += a;
    }
    let scale = scale_for(max_abs, I8_QUANT_LEVEL);
    for (o, &v) in out.iter_mut().zip(row) {
        // `as i8` saturates on the (non-finite-scale) degenerate case, so
        // this cast is well-defined even before the caller's finiteness
        // check; the clamp makes the intended range explicit.
        *o = (v * scale).round().clamp(-I8_QUANT_LEVEL, I8_QUANT_LEVEL) as i8;
    }
    (scale, l1)
}

/// Slack factor of the i8 screen envelope: covers every f64 rounding in
/// evaluating the screen score, the envelope itself, and the cached scales
/// and L1 norms (each contributes relative error `O(f·ε₆₄) ≪ 10⁻⁴`).
const I8_SCREEN_SLACK: f64 = 1.0001;

/// The per-user coefficients `(a_u, b_u)` of the int8 screen envelope:
/// for user `u` (quantized with scale `s_u`, L1 norm `‖u‖₁`) and item `i`
/// (scale `s_i`, L1 norm `‖i‖₁`),
///
/// ```text
/// |ŝ − s| ≤ a_u·(1/s_i) + b_u·‖i‖₁
/// ```
///
/// where `s = uᵀi` is the exact score and `ŝ = (q_u·q_i)/(s_u·s_i)` the
/// screen score computed from the quantized rows. Derivation: write
/// `u_j = (q_{u,j} + δ_j)/s_u` and `i_j = (q_{i,j} + γ_j)/s_i` with
/// `|δ_j|, |γ_j| ≤ ½` (round-to-nearest). Expanding `s·s_u·s_i` around the
/// exact integer dot `D = Σ q_{u,j} q_{i,j}` leaves three error sums:
///
/// ```text
/// |s − ŝ| ≤ [ ½·Σ|q_{u,j}| + ½·Σ|q_{i,j}| + ¼·f ] / (s_u·s_i)
/// ```
///
/// and bounding `Σ|q_{u,j}| ≤ s_u·‖u‖₁ + ½f` (ditto for `i`) gives
///
/// ```text
/// |s − ŝ| ≤ ½·‖u‖₁/s_i + ½·‖i‖₁/s_u + ¾·f/(s_u·s_i)
///         = (½‖u‖₁ + ¾f/s_u)·(1/s_i)  +  (½/s_u)·‖i‖₁ .
/// ```
///
/// The two factored coefficients are returned with a `1.0001` slack that
/// absorbs every f64 rounding step in the chain (quantization computed
/// `v·s` with one rounding; `ŝ` is one exact integer converted and two
/// roundings; the envelope and the cached norms add `O(f·ε₆₄)` — all
/// orders of magnitude below the slack).
///
/// The screen *score* itself carries no kernel-dependent term: the integer dot `D` is exact in `i32` under
/// every accumulation order (guarded by [`I8_DOT_MAX_LEN`]), so all kernel
/// sets screen with identical scores and identical candidate sets.
#[inline]
pub fn i8_screen_envelope_parts(f: usize, user_scale: f64, user_l1: f64) -> (f64, f64) {
    let f = f as f64;
    (
        (0.5 * user_l1 + 0.75 * f / user_scale) * I8_SCREEN_SLACK,
        (0.5 / user_scale) * I8_SCREEN_SLACK,
    )
}

/// Int8 dot product `xᵀy`, exact in `i32`, via the process-wide dispatched
/// kernel set. All kernel sets produce the identical integer (the sum is
/// associative), so — unlike [`crate::dot`] on floats — this is
/// bit-identical across `scalar`, `avx2-fma` and `neon` by construction.
///
/// # Panics
/// Panics if the lengths differ or exceed [`I8_DOT_MAX_LEN`].
#[inline]
pub fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    simd::active().dot_i8(x, y)
}

/// Four int8 dot products `xᵀy_q` at once — the pipelined form for scan
/// loops (four independent integer chains hide the multiply latency).
///
/// # Panics
/// Panics if any length differs from `x`'s or exceeds [`I8_DOT_MAX_LEN`].
#[inline]
pub fn dot_i8_quad(x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
    simd::active().dot_i8_quad(x, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn scale_for_pins_zero_blocks_to_one() {
        assert_eq!(scale_for(0.0, I8_QUANT_LEVEL), 1.0);
        assert_eq!(scale_for(-0.0, 4095.0), 1.0);
        assert_eq!(scale_for(2.0, 127.0), 63.5);
    }

    #[test]
    fn scale_for_saturation_edge_maps_max_to_top_of_range() {
        // The largest magnitude lands exactly on the top code (up to one
        // rounding), so round-to-nearest can never exceed the range by
        // more than the clamp absorbs.
        for max_abs in [1e-3, 1.0, 3.7, 1e6] {
            let s = scale_for(max_abs, I8_QUANT_LEVEL);
            let top = (max_abs * s).round();
            assert_eq!(top, I8_QUANT_LEVEL, "max_abs {max_abs}");
        }
    }

    #[test]
    fn scale_for_overflows_to_infinity_on_subnormal_blocks() {
        // Documented degenerate case: consumers must detect and fall back.
        assert!(!scale_for(f64::MIN_POSITIVE / 256.0, 1e300).is_finite());
    }

    #[test]
    fn quantize_row_i8_all_zero_row() {
        let row = [0.0f64; 7];
        let mut q = [1i8; 7];
        let (scale, l1) = quantize_row_i8(&row, &mut q);
        assert_eq!(scale, 1.0);
        assert_eq!(l1, 0.0);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn quantize_row_i8_saturating_magnitudes_stay_in_range() {
        // A huge outlier forces every other coordinate toward zero codes;
        // the outlier itself maps to ±127 and nothing escapes the range.
        let row = [1e30, -1e30, 1.0, -1.0, 0.0];
        let mut q = [0i8; 5];
        let (scale, _) = quantize_row_i8(&row, &mut q);
        assert!(scale.is_finite());
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -127);
        assert_eq!(q[2], 0);
        assert!(q.iter().all(|&v| (-127..=127).contains(&v)));
    }

    #[test]
    fn quantize_row_i8_half_step_error_bound_holds() {
        for seed in 0..8u64 {
            let row = pseudo(33, seed);
            let mut q = [0i8; 33];
            let (scale, l1) = quantize_row_i8(&row, &mut q);
            let direct_l1: f64 = row.iter().map(|v| v.abs()).sum();
            assert_eq!(l1, direct_l1);
            for (j, (&code, &v)) in q.iter().zip(&row).enumerate() {
                let err = (code as f64 / scale - v).abs();
                assert!(
                    err <= (0.5 + 1e-9) / scale,
                    "seed {seed} j {j}: err {err} scale {scale}"
                );
            }
        }
    }

    #[test]
    fn envelope_contains_the_exact_score_on_adversarial_rows() {
        // Near-cancelling pairs and saturating outliers: the dequantized
        // screen score must stay within the envelope of the exact score.
        for seed in 0..12u64 {
            let f = 50usize;
            let u = pseudo(f, seed * 2 + 1);
            let mut i = pseudo(f, seed * 2 + 2);
            if seed % 3 == 0 {
                // Outlier magnitude forces coarse item codes.
                i[0] = 1e4;
            }
            if seed % 3 == 1 {
                // Near-negated copy: exact score nearly cancels.
                i = u.iter().map(|&v| -v).collect();
            }
            let mut qu = vec![0i8; f];
            let mut qi = vec![0i8; f];
            let (su, l1u) = quantize_row_i8(&u, &mut qu);
            let (si, l1i) = quantize_row_i8(&i, &mut qi);
            let d: i32 = qu.iter().zip(&qi).map(|(&a, &b)| a as i32 * b as i32).sum();
            let shat = d as f64 * ((1.0 / su) * (1.0 / si));
            let exact: f64 = u.iter().zip(&i).map(|(a, b)| a * b).sum();
            let (a_u, b_u) = i8_screen_envelope_parts(f, su, l1u);
            let env = a_u * (1.0 / si) + b_u * l1i;
            assert!(
                (shat - exact).abs() <= env,
                "seed {seed}: |{shat} - {exact}| > {env}"
            );
        }
    }

    #[test]
    fn dispatched_i8_dots_are_bit_identical_to_a_plain_loop() {
        for len in [0usize, 1, 3, 16, 31, 32, 50, 257] {
            let x: Vec<i8> = (0..len).map(|j| ((j * 37 + 11) % 255) as i8).collect();
            let ys: Vec<Vec<i8>> = (0..4)
                .map(|q| {
                    (0..len)
                        .map(|j| ((j * 13 + q * 91 + 5) % 255) as i8)
                        .collect()
                })
                .collect();
            let want: Vec<i32> = ys
                .iter()
                .map(|y| x.iter().zip(y).map(|(&a, &b)| a as i32 * b as i32).sum())
                .collect();
            assert_eq!(dot_i8(&x, &ys[0]), want[0], "len {len}");
            let quad = dot_i8_quad(&x, [&ys[0], &ys[1], &ys[2], &ys[3]]);
            assert_eq!(quad.to_vec(), want, "len {len}");
        }
    }

    #[test]
    fn i8_dot_worst_case_fits_i32_at_the_length_cap() {
        // The documented overflow argument: f · 127² at the cap.
        let worst = I8_DOT_MAX_LEN as i64 * 127 * 127;
        assert!(worst < i32::MAX as i64);
    }
}
