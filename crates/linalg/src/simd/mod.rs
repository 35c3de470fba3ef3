//! Runtime-dispatched SIMD micro-kernels for the double-precision hot path.
//!
//! The paper's hardware-efficiency argument (§II-B) assumes the brute-force
//! kernels actually reach the machine's FMA throughput. Portable scalar Rust
//! compiled for the baseline `x86-64` target cannot: `f64::mul_add` lowers to
//! a libm call and the autovectorizer never emits YMM FMAs. This module
//! closes that gap with explicit `unsafe` intrinsic kernels selected **once**
//! per process:
//!
//! * `avx2-fma` — 256-bit AVX2 + FMA kernels (the `avx2` module), chosen when
//!   `is_x86_feature_detected!` confirms both features at startup;
//! * `neon` — 128-bit NEON kernels (the `neon` module) on `aarch64` (NEON and
//!   double-precision FMA are baseline features there);
//! * `scalar` — the crate's portable kernels, the guaranteed fallback on
//!   every other target and the reference the SIMD paths are tested against.
//!
//! Selection happens on the first call to [`active`] and is cached for the
//! process lifetime. Set `MIPS_KERNEL=scalar` in the environment to force the
//! portable path (e.g. to measure the SIMD speedup, or to rule the SIMD
//! kernels out when debugging); an unknown or unsupported name falls back to
//! `scalar` rather than faulting. [`Kernel::name`] reports what is actually
//! running.
//!
//! ## Bit-identity contract
//!
//! Every SIMD kernel reproduces the scalar kernel's floating-point result
//! **bit for bit**, not merely within tolerance. This is possible because the
//! scalar kernels already use independent accumulators: a vector register's
//! lanes are mapped one-to-one onto the scalar code's accumulators, every
//! multiply-add uses the (single-rounding) FMA in both paths, and the final
//! reduction uses the same combine tree. Concretely:
//!
//! * [`Kernel::dot`] — lane `l` of the one vector accumulator sums elements
//!   `x[4i+l]·y[4i+l]`, exactly the scalar `dot`'s four accumulators; the
//!   reduction is `((l0+l1)+(l2+l3)) + tail` in both.
//! * [`Kernel::dist2_sq`] — same mapping over `(x-y)²`.
//! * [`Kernel::axpy`] — element-wise, so lane mapping is trivial.
//! * [`Kernel::micro_4x8`] — each `(i, j)` accumulator of the `MR×NR` GEMM
//!   register tile is one vector lane fed by a single sequential FMA chain
//!   over the packed depth, identical to the scalar micro-kernel's loop.
//! * [`Kernel::dot_seq4`] — four scalar sequential FMA chains (the GEMM
//!   per-element order, one chain per item); the arch kernels only ensure
//!   the `mul_add`s compile to inline hardware FMA, and every path's `fma`
//!   is correctly rounded, so all kernel sets agree bit for bit — with each
//!   other *and* with the matching `micro_4x8` output element.
//!
//! The one exception is [`Kernel::suffix_sumsq`]: a suffix scan is a serial
//! carry chain, and the vector version re-associates the within-block sums
//! (squares are computed with a vector multiply instead of being fused into
//! the carry FMA). Its consumers (LEMP / FEXIPRO pruning bounds) inflate
//! every bound by a relative epsilon; [`crate::sumsq_reassoc_bound`] derives
//! the actual re-association bound that inflation must (and does, with orders
//! of magnitude to spare) dominate, so exactness of the *search results* is
//! unaffected.
//!
//! The `fused_exactness` property suite in `mips-topk` exercises the
//! contract: bit-identical top-k (scores *and* tie-broken id order) between
//! the fused SIMD path and the scalar reference, across shapes that are
//! deliberately not multiples of the tile sizes.
//!
//! ## Int8 screen kernels
//!
//! The `*_i8` entries ([`Kernel::dot_i8`], [`Kernel::dot_i8_quad`]) serve
//! the quantized screen tier: item rows are stored as symmetric int8 codes
//! with per-row scales (`mips_data::MirrorI8`), the widening i8×i8→i32
//! accumulation is **exact** under every association order
//! (`f ≤ `[`crate::quant::I8_DOT_MAX_LEN`] keeps the worst case inside
//! `i32`), and the AVX2 path uses `pmaddwd`-style paired multiply-adds
//! while NEON uses `smull`+`sadalp` widening. Because integer
//! addition is associative, these kernels sit *inside* the bit-identity
//! contract — every set returns the identical `i32` — so the i8 screen's
//! envelope ([`crate::quant::i8_screen_envelope_parts`]) only has to cover
//! quantization error, not accumulation order.
//!
//! ## Safety contract
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (the crate is `deny(unsafe_code)`; this module opts back in). The
//! obligations are local and uniform:
//!
//! * Arch-specific functions are `unsafe fn` + `#[target_feature]`. Their
//!   only precondition is that the CPU supports the enabled features; they
//!   perform no raw-pointer arithmetic beyond in-bounds slice addressing,
//!   which each kernel guards with explicit length math (`chunks`/`len`
//!   derived trip counts, remainder loops for tails).
//! * The safe wrappers stored in a [`Kernel`] may only be constructed by
//!   [`Kernel::avx2`] / [`Kernel::neon`], which return `None` unless the
//!   features were detected (or the target guarantees them). The wrappers
//!   are never exported individually, so a `Kernel` value is a proof that
//!   its function pointers are safe to call on this machine.
//! * Slice casts between `&[T]` and `&[f64]` (used by the generic entry
//!   points in [`crate::kernels`] and [`crate::gemm`]) are guarded by a
//!   `TypeId` equality check, making the transmute a no-op reinterpretation
//!   of the same type. These helpers are intrinsics-free, so the Miri CI
//!   leg executes them directly (with `MIPS_KERNEL=scalar` forcing the
//!   portable path around the uninterpretable vector intrinsics).
//!
//! The discipline is mechanically enforced: `mips-lint` (CI's lint job)
//! rejects any `unsafe` outside this directory, and rejects any `unsafe`
//! here that is not annotated — every `unsafe { .. }` call site carries a
//! `// SAFETY:` argument naming the invariant it relies on, and every
//! `unsafe fn` carries a `// SAFETY contract:` stating what its callers
//! must uphold. A new unsafe block without its argument fails CI, not
//! review.

#![allow(unsafe_code)]

use crate::blocking::{MR, NR};
use std::any::TypeId;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

/// A dispatch table of double-precision micro-kernels.
///
/// All fields are plain `fn` pointers: the arch-specific `unsafe` functions
/// are wrapped in safe shims whose soundness is guaranteed by construction
/// (see the module-level safety contract). Obtain one via [`active`] (the
/// process-wide selection) or [`Kernel::scalar`] (the portable reference).
#[derive(Clone, Copy)]
pub struct Kernel {
    name: &'static str,
    dot: fn(&[f64], &[f64]) -> f64,
    dot_seq4: fn(&[f64], [&[f64]; 4]) -> [f64; 4],
    axpy: fn(f64, &[f64], &mut [f64]),
    dist2_sq: fn(&[f64], &[f64]) -> f64,
    suffix_sumsq: fn(&[f64], &mut [f64]),
    micro_4x8: fn(&[f64], &[f64], &mut [[f64; NR]; MR]),
    dot_i8: fn(&[i8], &[i8]) -> i32,
    dot_i8_quad: fn(&[i8], [&[i8]; 4]) -> [i32; 4],
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

impl Kernel {
    /// The kernel's identity: `"avx2-fma"`, `"neon"`, or `"scalar"`.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Dot product `xᵀy`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        (self.dot)(x, y)
    }

    /// Four dot products `xᵀy_i` computed with the **GEMM per-element
    /// reduction**: each product is one sequential fused-multiply-add
    /// chain (bit-identical to the matching `gemm_nt*` output element),
    /// and the four independent chains pipeline so the pass is
    /// throughput-bound rather than FMA-latency-bound.
    ///
    /// # Panics
    /// Panics if any length differs from `x`'s.
    #[inline]
    pub fn dot_seq4(&self, x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
        for y in &ys {
            assert_eq!(x.len(), y.len(), "dot_seq4: length mismatch");
        }
        (self.dot_seq4)(x, ys)
    }

    /// `y += alpha * x`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        (self.axpy)(alpha, x, y)
    }

    /// Squared Euclidean distance `‖x − y‖²`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn dist2_sq(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
        (self.dist2_sq)(x, y)
    }

    /// Suffix sums of squares: `out[j] = Σ_{i ≥ j} x[i]²`, with
    /// `out[x.len()] = 0`.
    ///
    /// # Panics
    /// Panics unless `out.len() == x.len() + 1`.
    #[inline]
    pub fn suffix_sumsq(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), x.len() + 1, "suffix_sumsq: output length");
        (self.suffix_sumsq)(x, out)
    }

    /// The GEMM register micro-kernel: `acc += Aᵖ ⊗ Bᵖ` over the packed
    /// depth, for tile-interleaved panels (`MR` values of A and `NR` values
    /// of B per depth step).
    ///
    /// # Panics
    /// Panics unless the panel lengths describe the same depth.
    #[inline]
    pub fn micro_4x8(&self, a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        assert_eq!(
            a_panel.len() / MR,
            b_panel.len() / NR,
            "micro_4x8: panel depth mismatch"
        );
        (self.micro_4x8)(a_panel, b_panel, acc)
    }

    /// Int8 dot product `xᵀy` for the quantized screen path, accumulated
    /// exactly in `i32`. Integer addition is associative, so every kernel
    /// set returns the **identical** integer; the i8 screen's envelope only
    /// has to cover quantization, not accumulation order.
    ///
    /// # Panics
    /// Panics if the lengths differ or exceed
    /// [`crate::quant::I8_DOT_MAX_LEN`] (the i32-overflow guard).
    #[inline]
    pub fn dot_i8(&self, x: &[i8], y: &[i8]) -> i32 {
        assert_eq!(x.len(), y.len(), "dot_i8: length mismatch");
        assert!(
            x.len() <= crate::quant::I8_DOT_MAX_LEN,
            "dot_i8: length exceeds the i32-overflow cap"
        );
        (self.dot_i8)(x, y)
    }

    /// Four int8 dot products `xᵀy_q` at once: four independent integer
    /// accumulation chains sharing the `x` loads, so scan loops consuming
    /// item rows in groups of four stay throughput-bound. Same exactness
    /// and overflow contract as [`Kernel::dot_i8`].
    ///
    /// # Panics
    /// Panics if any length differs from `x`'s or exceeds
    /// [`crate::quant::I8_DOT_MAX_LEN`].
    #[inline]
    pub fn dot_i8_quad(&self, x: &[i8], ys: [&[i8]; 4]) -> [i32; 4] {
        for y in &ys {
            assert_eq!(x.len(), y.len(), "dot_i8_quad: length mismatch");
        }
        assert!(
            x.len() <= crate::quant::I8_DOT_MAX_LEN,
            "dot_i8_quad: length exceeds the i32-overflow cap"
        );
        (self.dot_i8_quad)(x, ys)
    }

    /// The portable scalar kernel set (the guaranteed fallback and the
    /// reference for the bit-identity contract).
    pub fn scalar() -> Kernel {
        Kernel {
            name: "scalar",
            dot: crate::kernels::dot_scalar_f64,
            dot_seq4: crate::kernels::dot_seq4_scalar_f64,
            axpy: crate::kernels::axpy_scalar_f64,
            dist2_sq: crate::kernels::dist2_sq_scalar_f64,
            suffix_sumsq: crate::kernels::suffix_sumsq_scalar_f64,
            micro_4x8: crate::gemm::micro_4x8_scalar_f64,
            dot_i8: crate::kernels::dot_scalar_i8,
            dot_i8_quad: crate::kernels::dot_i8_quad_scalar,
        }
    }

    /// The AVX2+FMA kernel set, or `None` if the CPU lacks either feature
    /// (always `None` off x86-64).
    pub fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Some(Kernel {
                    name: "avx2-fma",
                    dot: avx2::dot,
                    dot_seq4: avx2::dot_seq4,
                    axpy: avx2::axpy,
                    dist2_sq: avx2::dist2_sq,
                    suffix_sumsq: avx2::suffix_sumsq,
                    micro_4x8: avx2::micro_4x8,
                    dot_i8: avx2::dot_i8,
                    dot_i8_quad: avx2::dot_i8_quad,
                });
            }
            None
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }

    /// The NEON kernel set, or `None` off `aarch64` (where NEON with
    /// double-precision FMA is a baseline feature, so detection is static).
    pub fn neon() -> Option<Kernel> {
        #[cfg(target_arch = "aarch64")]
        {
            Some(Kernel {
                name: "neon",
                dot: neon::dot,
                // aarch64 guarantees scalar FMA, so the portable body
                // already compiles to fused hardware madds.
                dot_seq4: crate::kernels::dot_seq4_scalar_f64,
                axpy: neon::axpy,
                dist2_sq: neon::dist2_sq,
                suffix_sumsq: neon::suffix_sumsq,
                micro_4x8: neon::micro_4x8,
                dot_i8: neon::dot_i8,
                dot_i8_quad: neon::dot_i8_quad,
            })
        }
        #[cfg(not(target_arch = "aarch64"))]
        {
            None
        }
    }

    /// Resolves a kernel by name (`"scalar"`, `"avx2"`, `"avx2-fma"`,
    /// `"neon"`), returning `None` for unknown names or kernels this CPU
    /// cannot run. This is the `MIPS_KERNEL` lookup, exposed for tests.
    pub fn by_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::scalar()),
            "avx2" | "avx2-fma" => Kernel::avx2(),
            "neon" => Kernel::neon(),
            _ => None,
        }
    }

    /// The best kernel this CPU supports, ignoring the environment override.
    pub fn best() -> Kernel {
        Kernel::avx2()
            .or_else(Kernel::neon)
            .unwrap_or_else(Kernel::scalar)
    }
}

/// The process-wide active kernel, selected on first use and cached.
///
/// Honors `MIPS_KERNEL` (see the module docs); otherwise picks the best
/// supported set. The selection is intentionally immutable for the process
/// lifetime so mixed-kernel results can never be produced within one run.
pub fn active() -> &'static Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("MIPS_KERNEL") {
        // A set-but-empty variable (e.g. a CI matrix leg exporting
        // `MIPS_KERNEL: ''`) means "no override", not "force scalar".
        Ok(name) if !name.trim().is_empty() => {
            Kernel::by_name(name.trim()).unwrap_or_else(Kernel::scalar)
        }
        _ => Kernel::best(),
    })
}

/// Reinterprets `&[T]` as `&[f64]` when `T` *is* `f64`.
#[inline(always)]
pub(crate) fn as_f64<T: 'static>(x: &[T]) -> Option<&[f64]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: the TypeId check proves T == f64, so this is a no-op
        // reinterpretation of the same slice type.
        Some(unsafe { &*(x as *const [T] as *const [f64]) })
    } else {
        None
    }
}

/// Reinterprets `&mut [T]` as `&mut [f64]` when `T` *is* `f64`.
#[inline(always)]
pub(crate) fn as_f64_mut<T: 'static>(x: &mut [T]) -> Option<&mut [f64]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: as in `as_f64`; uniqueness is inherited from the input.
        Some(unsafe { &mut *(x as *mut [T] as *mut [f64]) })
    } else {
        None
    }
}

/// Reinterprets a generic `MR×NR` accumulator tile as `f64` when `T` is.
#[inline(always)]
pub(crate) fn acc_as_f64_mut<T: 'static>(acc: &mut [[T; NR]; MR]) -> Option<&mut [[f64; NR]; MR]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: the TypeId check proves T == f64; the array layout is
        // unchanged, so this is a no-op reinterpretation.
        Some(unsafe { &mut *(acc as *mut [[T; NR]; MR] as *mut [[f64; NR]; MR]) })
    } else {
        None
    }
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

    /// Every kernel this host can run, always including scalar.
    fn all_kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::scalar()];
        ks.extend(Kernel::avx2());
        ks.extend(Kernel::neon());
        ks
    }

    #[test]
    fn by_name_resolves_scalar_everywhere() {
        assert_eq!(Kernel::by_name("scalar").unwrap().name(), "scalar");
        assert!(Kernel::by_name("no-such-kernel").is_none());
    }

    #[test]
    fn active_is_one_of_the_known_kernels() {
        let name = active().name();
        assert!(
            ["scalar", "avx2-fma", "neon"].contains(&name),
            "unexpected kernel {name}"
        );
    }

    #[test]
    fn best_never_panics_and_is_named() {
        assert!(!Kernel::best().name().is_empty());
    }

    #[test]
    fn dot_bit_identical_across_kernels() {
        for len in [0usize, 1, 3, 4, 7, 8, 31, 50, 128, 257] {
            let x = pseudo(len, 11);
            let y = pseudo(len, 13);
            let want = Kernel::scalar().dot(&x, &y);
            for k in all_kernels() {
                let got = k.dot(&x, &y);
                assert!(
                    got.to_bits() == want.to_bits(),
                    "{}: len {len}: {got:e} vs scalar {want:e}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn dot_seq4_bit_identical_across_kernels_and_to_gemm_order() {
        for len in [0usize, 1, 3, 8, 31, 50, 257] {
            let x = pseudo(len, 11);
            let ys: Vec<Vec<f64>> = (0..4).map(|i| pseudo(len, 43 + i)).collect();
            let refs = [&ys[0][..], &ys[1][..], &ys[2][..], &ys[3][..]];
            let want = Kernel::scalar().dot_seq4(&x, refs);
            for k in all_kernels() {
                let got = k.dot_seq4(&x, refs);
                for lane in 0..4 {
                    assert_eq!(
                        got[lane].to_bits(),
                        want[lane].to_bits(),
                        "{} lane {lane} len {len}",
                        k.name()
                    );
                }
            }
            // Each lane is exactly the sequential (GEMM-ordered) chain.
            for lane in 0..4 {
                let mut acc = 0.0f64;
                for (a, b) in x.iter().zip(&ys[lane]) {
                    acc = a.mul_add(*b, acc);
                }
                assert_eq!(want[lane].to_bits(), acc.to_bits(), "lane {lane} len {len}");
            }
        }
    }

    #[test]
    fn dist2_bit_identical_across_kernels() {
        for len in [0usize, 1, 5, 16, 33, 50, 100] {
            let x = pseudo(len, 21);
            let y = pseudo(len, 23);
            let want = Kernel::scalar().dist2_sq(&x, &y);
            for k in all_kernels() {
                assert_eq!(k.dist2_sq(&x, &y).to_bits(), want.to_bits(), "{}", k.name());
            }
        }
    }

    #[test]
    fn axpy_bit_identical_across_kernels() {
        for len in [0usize, 1, 6, 17, 64, 97] {
            let x = pseudo(len, 31);
            let base = pseudo(len, 37);
            let mut want = base.clone();
            Kernel::scalar().axpy(1.7, &x, &mut want);
            for k in all_kernels() {
                let mut got = base.clone();
                k.axpy(1.7, &x, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{}", k.name());
                }
            }
        }
    }

    #[test]
    fn micro_4x8_bit_identical_across_kernels() {
        for depth in [0usize, 1, 2, 7, 64, 256] {
            let a = pseudo(depth * MR, 41);
            let b = pseudo(depth * NR, 43);
            let mut want = [[0.25f64; NR]; MR];
            Kernel::scalar().micro_4x8(&a, &b, &mut want);
            for k in all_kernels() {
                let mut got = [[0.25f64; NR]; MR];
                k.micro_4x8(&a, &b, &mut got);
                for i in 0..MR {
                    for j in 0..NR {
                        assert_eq!(
                            got[i][j].to_bits(),
                            want[i][j].to_bits(),
                            "{} depth {depth} ({i},{j})",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn suffix_sumsq_matches_scalar_within_tolerance() {
        // The suffix scan is the documented exception to bit-identity:
        // assert tight relative agreement instead.
        for len in [0usize, 1, 3, 4, 9, 50, 130] {
            let x = pseudo(len, 51);
            let mut want = vec![0.0; len + 1];
            Kernel::scalar().suffix_sumsq(&x, &mut want);
            for k in all_kernels() {
                let mut got = vec![0.0; len + 1];
                k.suffix_sumsq(&x, &mut got);
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                        "{} len {len} j {j}: {g} vs {w}",
                        k.name()
                    );
                }
                assert_eq!(got[len], 0.0);
            }
        }
    }

    #[test]
    fn slice_reinterpretation_is_type_guarded() {
        let xs = [1.0f64, 2.0];
        assert!(as_f64(&xs).is_some());
        let ys = [1.0f32, 2.0];
        assert!(as_f64(&ys).is_none());
        let mut zs = [3.0f64];
        assert!(as_f64_mut(&mut zs).is_some());
        let mut acc = [[0.0f64; NR]; MR];
        assert!(acc_as_f64_mut(&mut acc).is_some());
        let mut acc32 = [[0.0f32; NR]; MR];
        assert!(acc_as_f64_mut(&mut acc32).is_none());
    }

    #[test]
    fn dot_i8_bit_identical_across_kernels() {
        // Integer accumulation is exact, so the i8 kernels sit inside the
        // bit-identity contract under every kernel set — including shapes
        // that are not multiples of the 16/32-byte vector widths, and the
        // extreme codes ±127.
        for len in [0usize, 1, 3, 15, 16, 17, 31, 32, 33, 50, 127, 257] {
            let x: Vec<i8> = (0..len)
                .map(|j| [127i8, -127, 0, 1, -1, 64, -33][(j * 5 + 3) % 7])
                .collect();
            let ys: Vec<Vec<i8>> = (0..4)
                .map(|q| {
                    (0..len)
                        .map(|j| [-127i8, 127, 5, -5, 0, -90, 17][(j * 11 + q * 13 + 1) % 7])
                        .collect()
                })
                .collect();
            let refs = [&ys[0][..], &ys[1][..], &ys[2][..], &ys[3][..]];
            let want = Kernel::scalar().dot_i8(&x, &ys[0]);
            let want_quad = Kernel::scalar().dot_i8_quad(&x, refs);
            // The scalar reference agrees with a plain widening loop.
            let naive: i32 = x
                .iter()
                .zip(&ys[0])
                .map(|(&a, &b)| a as i32 * b as i32)
                .sum();
            assert_eq!(want, naive, "len {len}");
            assert_eq!(want_quad[0], naive, "len {len}");
            for k in all_kernels() {
                assert_eq!(k.dot_i8(&x, &ys[0]), want, "{} len {len}", k.name());
                assert_eq!(k.dot_i8_quad(&x, refs), want_quad, "{} len {len}", k.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow cap")]
    fn dot_i8_rejects_lengths_past_the_overflow_cap() {
        let too_long = vec![1i8; crate::quant::I8_DOT_MAX_LEN + 1];
        let _ = Kernel::scalar().dot_i8(&too_long, &too_long);
    }
}
