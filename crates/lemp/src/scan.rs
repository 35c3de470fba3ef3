//! Per-bucket retrieval algorithms: NAIVE, LENGTH, and INCR.
//!
//! All three produce identical results; they differ in how much work they
//! spend deciding that an item cannot beat the current threshold. Bounds are
//! inflated by a relative epsilon before comparison so floating-point
//! rounding can never prune a true top-k item (exactness first, then speed).
//!
//! Every full and partial inner product here (`dot` over the bucket rows,
//! INCR's leading-coordinate partial products, the suffix-norm tables built
//! through [`suffix_norms`]) runs on the runtime-dispatched SIMD kernels of
//! [`mips_linalg::simd`] — the scans get AVX2/NEON FMA throughput without
//! any per-call-site change. The suffix scan's block re-association (the one
//! kernel that is not bit-identical to scalar) is absorbed by [`BOUND_EPS`],
//! which dominates the proved re-association bound
//! ([`mips_linalg::sumsq_reassoc_bound`]) by orders of magnitude.
//!
//! When the index carries int8 mirrors, an **int8 screen** runs just
//! before each verification dot: items carry symmetric int8 codes
//! ([`crate::bucket::BucketI8`]), the pre-score is an exact integer dot
//! reconstructed through the per-row scales, widened by the
//! [`mips_linalg::i8_screen_envelope_parts`] error bound, and the exact dot
//! is skipped when even the widened score cannot reach the heap threshold —
//! the skipped push was guaranteed to be rejected, so results stay
//! bit-identical to the pure double-precision scan, at an eighth of the
//! scan bandwidth.

use crate::bucket::Bucket;
use mips_linalg::kernels::{dot, norm2, suffix_norms};
use mips_linalg::{dot_i8, i8_screen_envelope_parts, quantize_row_i8};
use mips_topk::TopKHeap;

/// Relative inflation applied to every pruning bound.
///
/// Two rounding sources must stay underneath it, and both are covered by
/// *proved* bounds, not just margin:
///
/// * accumulating an `f`-term double-precision dot in any association
///   order shifts it by at most `γ_f ≈ f·2⁻⁵³` relative to the operand
///   magnitudes (Higham ch. 3) — `≤ 5.7·10⁻¹⁴` for `f = 512`;
/// * the suffix-norm tables are built by [`suffix_norms`], whose blocked
///   SIMD re-association is bounded by
///   [`mips_linalg::sumsq_reassoc_bound`] — `≤ 2.3·10⁻¹³` at `n = 1024`.
///
/// `BOUND_EPS = 10⁻¹⁰` dominates both with more than two orders of
/// magnitude to spare for every feasible factor count; the
/// `bound_eps_dominates_proved_rounding_bounds` test pins the margin.
pub const BOUND_EPS: f64 = 1e-10;

/// Inflates an upper bound so rounding cannot make it under-estimate.
#[inline(always)]
pub fn inflate(bound: f64) -> f64 {
    bound + bound.abs() * BOUND_EPS
}

/// The retrieval algorithms LEMP chooses among per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalAlgo {
    /// Full inner product for every item in the bucket.
    Naive,
    /// Norm-bound scanning: stop at the first item with
    /// `‖u‖·‖i‖ < threshold` (items are norm-sorted).
    Length,
    /// LENGTH plus partial inner products over the first `cp` coordinates
    /// with a Cauchy–Schwarz bound on the suffix.
    Incr,
}

/// Per-user state of the int8 screen (consumed by the scan kernels'
/// verify-and-push step).
#[derive(Debug, Clone)]
pub struct ScreenCtxI8 {
    /// Symmetric int8 codes of the user vector.
    pub codes: Vec<i8>,
    /// `1 / s_u` (reconstruction multiplier).
    pub inv_su: f64,
    /// The envelope's scale-proportional term `a` of
    /// [`i8_screen_envelope_parts`]: the per-item envelope is
    /// `env_a · (1/s_i) + env_b · ‖i‖₁`.
    pub env_a: f64,
    /// The envelope's L1-proportional term `b`.
    pub env_b: f64,
}

/// Per-user query state shared across buckets.
#[derive(Debug, Clone)]
pub struct UserCtx {
    /// The original user vector.
    pub user: Vec<f64>,
    /// `‖u‖`.
    pub norm: f64,
    /// `u / ‖u‖` (zeros stay zero).
    pub unit: Vec<f64>,
    /// `‖û[cp..]‖` — the user-side Cauchy–Schwarz suffix factor.
    pub unit_suffix_at_cp: f64,
    /// The INCR checkpoint used to compute `unit_suffix_at_cp`.
    pub checkpoint: usize,
    /// int8 screen state, present only via [`UserCtx::with_screen_i8`]
    /// (and only when the user row quantizes finitely).
    pub screen_i8: Option<ScreenCtxI8>,
}

impl UserCtx {
    /// Prepares per-user state for a query.
    ///
    /// # Panics
    /// Panics if the checkpoint exceeds the dimensionality.
    pub fn new(user: &[f64], checkpoint: usize) -> UserCtx {
        assert!(
            checkpoint >= 1 && checkpoint <= user.len(),
            "UserCtx: checkpoint {checkpoint} out of range"
        );
        let norm = norm2(user);
        let unit: Vec<f64> = if norm > 0.0 {
            user.iter().map(|&v| v / norm).collect()
        } else {
            vec![0.0; user.len()]
        };
        let unit_suffix_at_cp = suffix_norms(&unit)[checkpoint];
        UserCtx {
            user: user.to_vec(),
            norm,
            unit,
            unit_suffix_at_cp,
            checkpoint,
            screen_i8: None,
        }
    }

    /// Arms the int8 screen: quantizes the user vector to symmetric int8
    /// codes and precomputes the [`i8_screen_envelope_parts`] coefficients.
    /// A user row whose quantization degenerates (non-finite scale or L1)
    /// scans unscreened — still exact, just unaccelerated. Only buckets
    /// that carry an int8 mirror ([`Bucket::build_screen_mirror_i8`])
    /// actually screen.
    pub fn with_screen_i8(mut self) -> UserCtx {
        let mut codes = vec![0i8; self.user.len()];
        let (su, ul1) = quantize_row_i8(&self.user, &mut codes);
        if su.is_finite() && ul1.is_finite() {
            let (env_a, env_b) = i8_screen_envelope_parts(self.user.len(), su, ul1);
            self.screen_i8 = Some(ScreenCtxI8 {
                codes,
                inv_su: 1.0 / su,
                env_a,
                env_b,
            });
        }
        self
    }
}

/// Work counters accumulated during a scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Items whose full inner product was computed.
    pub dots_computed: u64,
    /// Items skipped by the LENGTH norm bound (including break-offs).
    pub length_pruned: u64,
    /// Items skipped by the INCR partial-product bound.
    pub incr_pruned: u64,
    /// Items the int8 screen evaluated: every
    /// screen pre-score computed, whether it pruned or not.
    /// `screen_evaluated - screen_pruned` survivors went on to the exact
    /// verification dot.
    pub screen_evaluated: u64,
    /// Items whose exact verification dot (and guaranteed-rejected heap
    /// push) was skipped by the int8 screen.
    pub screen_pruned: u64,
}

impl ScanStats {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ScanStats) {
        self.dots_computed += other.dots_computed;
        self.length_pruned += other.length_pruned;
        self.incr_pruned += other.incr_pruned;
        self.screen_evaluated += other.screen_evaluated;
        self.screen_pruned += other.screen_pruned;
    }
}

/// Scans one bucket with the given algorithm, updating the heap in place.
pub fn scan_bucket(
    algo: RetrievalAlgo,
    bucket: &Bucket,
    ctx: &UserCtx,
    heap: &mut TopKHeap,
    stats: &mut ScanStats,
) {
    match algo {
        RetrievalAlgo::Naive => scan_naive(bucket, ctx, heap, stats),
        RetrievalAlgo::Length => scan_length(bucket, ctx, heap, stats),
        RetrievalAlgo::Incr => scan_incr(bucket, ctx, heap, stats),
    }
}

/// The exact verification dot and push, gated by the int8 screen when
/// both sides carry int8 codes ([`UserCtx::with_screen_i8`],
/// [`Bucket::build_screen_mirror_i8`]).
///
/// The screen scores the item with an exact integer dot and widens the
/// reconstructed estimate by the [`i8_screen_envelope_parts`] error bound.
/// When even the widened score sits strictly below the heap threshold, the
/// exact score does too, so its push would have been rejected — skipping
/// the f64 dot *and* the push leaves the heap trajectory, and therefore the
/// results, bit-identical to the pure double-precision scan.
#[inline]
fn verify_and_push(
    bucket: &Bucket,
    ctx: &UserCtx,
    r: usize,
    id: u32,
    heap: &mut TopKHeap,
    stats: &mut ScanStats,
) {
    if heap.is_full() {
        // The integer estimate is always finite by construction.
        if let (Some(sc), Some(qi)) = (&ctx.screen_i8, bucket.vectors_i8.as_ref()) {
            let f = sc.codes.len();
            let d = dot_i8(&sc.codes, &qi.codes[r * f..(r + 1) * f]);
            let inv_si = qi.inv_scales[r];
            let est = d as f64 * (sc.inv_su * inv_si);
            let env = sc.env_a * inv_si + sc.env_b * qi.l1[r];
            stats.screen_evaluated += 1;
            if est + env < heap.threshold() {
                stats.screen_pruned += 1;
                return;
            }
        }
    }
    heap.push(dot(&ctx.user, bucket.vectors.row(r)), id);
    stats.dots_computed += 1;
}

fn scan_naive(bucket: &Bucket, ctx: &UserCtx, heap: &mut TopKHeap, stats: &mut ScanStats) {
    for (r, &id) in bucket.ids.iter().enumerate() {
        verify_and_push(bucket, ctx, r, id, heap, stats);
    }
}

fn scan_length(bucket: &Bucket, ctx: &UserCtx, heap: &mut TopKHeap, stats: &mut ScanStats) {
    for (r, &id) in bucket.ids.iter().enumerate() {
        // Items are norm-sorted: once the Cauchy–Schwarz ceiling drops below
        // the threshold, no later item in this bucket can qualify either.
        if heap.is_full() && inflate(ctx.norm * bucket.norms[r]) < heap.threshold() {
            stats.length_pruned += (bucket.len() - r) as u64;
            return;
        }
        verify_and_push(bucket, ctx, r, id, heap, stats);
    }
}

fn scan_incr(bucket: &Bucket, ctx: &UserCtx, heap: &mut TopKHeap, stats: &mut ScanStats) {
    let cp = ctx.checkpoint;
    for (r, &id) in bucket.ids.iter().enumerate() {
        let scale = ctx.norm * bucket.norms[r];
        if heap.is_full() && inflate(scale) < heap.threshold() {
            stats.length_pruned += (bucket.len() - r) as u64;
            return;
        }
        if heap.is_full() {
            // Partial cosine over the leading coordinates, Cauchy–Schwarz on
            // the rest: cos(û, d̂) ≤ û[..cp]·d̂[..cp] + ‖û[cp..]‖‖d̂[cp..]‖.
            // The rounding slack must be relative to the *scale of the
            // terms* (≤ 1 for cosines), not to the bound itself — partial
            // and suffix terms can cancel to a bound near zero while each
            // carries ~ulp(1) of error.
            let partial = dot(&ctx.unit[..cp], &bucket.dirs.row(r)[..cp]);
            let cos_bound = (partial + ctx.unit_suffix_at_cp * bucket.dir_suffix_at_cp[r]).min(1.0);
            if scale * (cos_bound + BOUND_EPS) < heap.threshold() {
                stats.incr_pruned += 1;
                continue;
            }
        }
        verify_and_push(bucket, ctx, r, id, heap, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::build_buckets;
    use mips_linalg::Matrix;

    fn random_items(n: usize, f: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(n, f, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn reference_topk(items: &Matrix<f64>, user: &[f64], k: usize) -> Vec<u32> {
        let mut heap = TopKHeap::new(k);
        for r in 0..items.rows() {
            heap.push(dot(user, items.row(r)), r as u32);
        }
        heap.into_sorted().items
    }

    fn run_algo(
        algo: RetrievalAlgo,
        items: &Matrix<f64>,
        user: &[f64],
        k: usize,
    ) -> (Vec<u32>, ScanStats) {
        let (list, stats) = run_algo_screened(algo, items, user, k, false);
        (list.items, stats)
    }

    fn run_algo_screened(
        algo: RetrievalAlgo,
        items: &Matrix<f64>,
        user: &[f64],
        k: usize,
        screened: bool,
    ) -> (mips_topk::TopKList, ScanStats) {
        let cp = (items.cols() / 4).max(1);
        let mut buckets = build_buckets(items, 16, cp);
        let mut ctx = UserCtx::new(user, cp);
        if screened {
            for b in &mut buckets {
                assert!(b.build_screen_mirror_i8());
            }
            ctx = ctx.with_screen_i8();
        }
        let mut heap = TopKHeap::new(k);
        let mut stats = ScanStats::default();
        for b in &buckets {
            if heap.is_full() && inflate(ctx.norm * b.max_norm) < heap.threshold() {
                break;
            }
            scan_bucket(algo, b, &ctx, &mut heap, &mut stats);
        }
        (heap.into_sorted(), stats)
    }

    #[test]
    fn all_algorithms_agree_with_reference() {
        let items = random_items(120, 12, 5);
        let users = random_items(8, 12, 99);
        for k in [1usize, 3, 10] {
            for u in 0..users.rows() {
                let user = users.row(u);
                let want = reference_topk(&items, user, k);
                for algo in [
                    RetrievalAlgo::Naive,
                    RetrievalAlgo::Length,
                    RetrievalAlgo::Incr,
                ] {
                    let (got, _) = run_algo(algo, &items, user, k);
                    assert_eq!(got, want, "algo {algo:?} k={k} user {u}");
                }
            }
        }
    }

    #[test]
    fn pruning_algorithms_do_less_work_on_skewed_norms() {
        // Strong norm skew: a few giant items dominate every top-k. The
        // brute-force cost is |users|·|items| dots; LEMP's bucket bound plus
        // per-item pruning should eliminate the bulk of them.
        let mut items = random_items(200, 8, 3);
        for r in 0..items.rows() {
            let boost = if r < 5 { 50.0 } else { 0.1 };
            for v in items.row_mut(r) {
                *v *= boost;
            }
        }
        let users = random_items(4, 8, 17);
        let brute_force_dots = (items.rows() * users.rows()) as u64;
        let mut length_dots = 0;
        let mut incr_dots = 0;
        for u in 0..users.rows() {
            let (_, s) = run_algo(RetrievalAlgo::Length, &items, users.row(u), 3);
            length_dots += s.dots_computed;
            let (_, s) = run_algo(RetrievalAlgo::Incr, &items, users.row(u), 3);
            incr_dots += s.dots_computed;
        }
        assert!(
            length_dots < brute_force_dots / 2,
            "{length_dots} vs brute force {brute_force_dots}"
        );
        // INCR's extra partial-product filter can only reduce full dots.
        assert!(incr_dots <= length_dots, "{incr_dots} vs {length_dots}");
    }

    #[test]
    fn zero_norm_user_is_handled() {
        let items = random_items(30, 6, 8);
        let zero = vec![0.0; 6];
        let want = reference_topk(&items, &zero, 5);
        for algo in [
            RetrievalAlgo::Naive,
            RetrievalAlgo::Length,
            RetrievalAlgo::Incr,
        ] {
            let (got, _) = run_algo(algo, &items, &zero, 5);
            assert_eq!(got, want, "algo {algo:?}");
        }
    }

    #[test]
    fn negative_thresholds_do_not_prune_wrongly() {
        // All ratings negative: bounds (≥ 0) never beat the threshold test.
        let items = random_items(40, 4, 2);
        let mut user = vec![0.0; 4];
        // A user anti-aligned with everything: flip sign of a random item.
        for (j, v) in user.iter_mut().enumerate() {
            *v = -items.get(0, j) * 3.0;
        }
        let want = reference_topk(&items, &user, 4);
        for algo in [RetrievalAlgo::Length, RetrievalAlgo::Incr] {
            let (got, _) = run_algo(algo, &items, &user, 4);
            assert_eq!(got, want, "algo {algo:?}");
        }
    }

    #[test]
    fn screened_scans_are_bit_identical_and_prune() {
        let items = random_items(300, 24, 11);
        let users = random_items(6, 24, 42);
        let mut pruned = 0;
        for u in 0..users.rows() {
            let user = users.row(u);
            for k in [1usize, 4, 9] {
                for algo in [
                    RetrievalAlgo::Naive,
                    RetrievalAlgo::Length,
                    RetrievalAlgo::Incr,
                ] {
                    let (want, _) = run_algo_screened(algo, &items, user, k, false);
                    let (got, stats) = run_algo_screened(algo, &items, user, k, true);
                    assert_eq!(got.items, want.items, "algo {algo:?} k={k} user {u}");
                    for (a, b) in got.scores.iter().zip(&want.scores) {
                        assert_eq!(a.to_bits(), b.to_bits(), "algo {algo:?} k={k} user {u}");
                    }
                    pruned += stats.screen_pruned;
                }
            }
        }
        // Random dense scores leave most items far from the top-k
        // threshold: the screen must actually be saving exact dots.
        assert!(pruned > 0, "i8 screen never pruned anything");
    }

    #[test]
    fn i8_screen_without_bucket_mirror_degrades_to_plain_scan() {
        // A screened UserCtx against mirror-less buckets must not change
        // behavior (the screen needs both sides).
        let items = random_items(80, 8, 3);
        let buckets = build_buckets(&items, 16, 2);
        let ctx = UserCtx::new(items.row(0), 2).with_screen_i8();
        assert!(ctx.screen_i8.is_some());
        let mut heap = TopKHeap::new(5);
        let mut stats = ScanStats::default();
        for b in &buckets {
            scan_bucket(RetrievalAlgo::Naive, b, &ctx, &mut heap, &mut stats);
        }
        assert_eq!(stats.screen_pruned, 0);
        assert_eq!(stats.dots_computed, 80);
    }

    #[test]
    fn degenerate_user_rows_scan_unscreened_but_exact() {
        // A subnormal user row quantizes to a non-finite scale: with_screen_i8
        // must leave the screen unarmed rather than prune wrongly.
        let items = random_items(60, 6, 9);
        let user = vec![1.0e-320; 6];
        let ctx = UserCtx::new(&user, 2).with_screen_i8();
        assert!(ctx.screen_i8.is_none());
        let (got, stats) = run_algo_screened(RetrievalAlgo::Naive, &items, &user, 5, true);
        let (want, _) = run_algo_screened(RetrievalAlgo::Naive, &items, &user, 5, false);
        assert_eq!(got.items, want.items);
        assert_eq!(stats.screen_pruned, 0);
    }

    #[test]
    fn bound_eps_dominates_proved_rounding_bounds() {
        // Satellite of the mixed-precision PR: the BOUND_EPS slack is not
        // an ad-hoc epsilon — it must dominate the *proved* rounding
        // bounds it absorbs, with two orders of magnitude of margin.
        // (a) any-order f64 dot accumulation: γ_f = (f·ε/2)/(1 − f·ε/2);
        // (b) the suffix-norm kernel's blocked re-association.
        for f in [8usize, 64, 512, 1024] {
            let eps = f64::EPSILON;
            let gamma = (f as f64 * eps / 2.0) / (1.0 - f as f64 * eps / 2.0);
            assert!(
                100.0 * gamma <= BOUND_EPS,
                "γ_{f} = {gamma} too close to BOUND_EPS"
            );
            let reassoc = mips_linalg::sumsq_reassoc_bound(f);
            assert!(
                100.0 * reassoc <= BOUND_EPS,
                "sumsq_reassoc_bound({f}) = {reassoc} too close to BOUND_EPS"
            );
        }
    }

    #[test]
    fn inflate_is_an_upper_bound_transform() {
        assert!(inflate(1.0) > 1.0);
        assert!(inflate(-1.0) > -1.0);
        assert_eq!(inflate(0.0), 0.0);
    }

    #[test]
    fn user_ctx_normalizes() {
        let ctx = UserCtx::new(&[3.0, 0.0, 0.0, 4.0], 2);
        assert!((ctx.norm - 5.0).abs() < 1e-12);
        assert!((ctx.unit[0] - 0.6).abs() < 1e-12);
        // Suffix after 2 coords: ‖(0, 0.8)‖ = 0.8.
        assert!((ctx.unit_suffix_at_cp - 0.8).abs() < 1e-12);
    }
}
