//! The offline analytical BMM cost model (§IV-A, "Offline Performance
//! Profiling for BMM").
//!
//! Dense matrix multiply is compute-bound, so its runtime is well predicted
//! by `FLOPs / sustained FLOP rate`. The paper derives the rate from CPU
//! datasheets \[14\]; lacking a datasheet for arbitrary hosts, we *calibrate*
//! the sustained rate once with a short measurement — same model, same
//! limitation: it predicts only the multiply stage, not the data-dependent
//! top-k selection, which is why OPTIMUS's production path uses online
//! sampling instead (the paper reports the min-heap stage at ≥ 9.5 % of
//! runtime for its largest models).
//!
//! Calibration runs through [`gemm_nt`], i.e. through whatever SIMD kernel
//! set [`mips_linalg::simd::active`] selected, and records that kernel's
//! name. This matters: switching between the scalar and AVX2 micro-kernels
//! moves the sustained rate by an order of magnitude, which in turn moves
//! every BMM-vs-index crossover the optimizer reasons about. A rate
//! calibrated under one kernel must never be reused under another — compare
//! [`AnalyticalBmmModel::kernel`] before trusting a cached rate.

use mips_linalg::{gemm_flops, gemm_nt, simd, Matrix};
use std::time::Instant;

/// A calibrated analytical cost model for the BMM multiply stage.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticalBmmModel {
    /// Sustained throughput in FLOP/s measured during calibration.
    pub flops_per_second: f64,
    /// The SIMD kernel set the rate was measured under
    /// ([`mips_linalg::simd::Kernel::name`]).
    pub kernel: &'static str,
}

impl AnalyticalBmmModel {
    /// Calibrates by timing a `256 × 256 × 256` double-precision multiply
    /// (large enough to exercise the blocked kernel, small enough to finish
    /// in milliseconds).
    pub fn calibrate() -> AnalyticalBmmModel {
        const DIM: usize = 256;
        let a = Matrix::<f64>::from_fn(DIM, DIM, |r, c| ((r * 31 + c * 7) % 13) as f64 * 0.1);
        let b = Matrix::<f64>::from_fn(DIM, DIM, |r, c| ((r * 17 + c * 3) % 11) as f64 * 0.1);
        // One warmup, then the timed run.
        let _ = gemm_nt(&a, &b);
        let start = Instant::now();
        let c = gemm_nt(&a, &b);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        // Keep the result alive so the multiply cannot be optimized out.
        let _guard = c.get(0, 0);
        AnalyticalBmmModel {
            flops_per_second: gemm_flops(DIM, DIM, DIM) / elapsed,
            kernel: simd::active().name(),
        }
    }

    /// Builds a model from a known FLOP rate (for tests and datasheets).
    pub fn with_rate(flops_per_second: f64) -> AnalyticalBmmModel {
        assert!(
            flops_per_second > 0.0,
            "AnalyticalBmmModel: rate must be positive"
        );
        AnalyticalBmmModel {
            flops_per_second,
            kernel: "assumed",
        }
    }

    /// Predicted seconds for the `m × n × k` multiply stage (top-k
    /// selection excluded — see module docs).
    pub fn predict_seconds(&self, m: usize, n: usize, k: usize) -> f64 {
        gemm_flops(m, n, k) / self.flops_per_second
    }
}

/// A calibrated analytical cost model for the sparse inverted-index
/// accumulation stage — the postings analog of [`AnalyticalBmmModel`].
///
/// A postings walk is one fused multiply-add per stored nonzero, but
/// through an index indirection into a scattered accumulator, so its
/// sustained rate sits far below the dense GEMM rate and must be measured
/// separately. Calibration times a synthetic walk with the same access
/// pattern (gathered accumulator updates); prediction multiplies the rate
/// by the expected touched-posting count, which the engine derives from
/// sampled nnz/density statistics ([`mips_data::SparsityStats`]) the same
/// way the planner samples users for its timing runs. Like the BMM model it
/// covers only the accumulation stage — candidate selection and the exact
/// rescore are data-dependent and left to online sampling.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticalSparseModel {
    /// Sustained postings updates per second measured during calibration.
    pub updates_per_second: f64,
    /// The SIMD kernel set active at calibration time (the scalar walk does
    /// not dispatch, but the cache key and provenance mirror the BMM model).
    pub kernel: &'static str,
}

impl AnalyticalSparseModel {
    /// Calibrates by timing a synthetic term-at-a-time walk: 2¹⁸ postings
    /// scattered over a 4096-slot accumulator (big enough to defeat the
    /// store buffer, small enough to finish in milliseconds).
    pub fn calibrate() -> AnalyticalSparseModel {
        const POSTINGS: usize = 1 << 18;
        const SLOTS: usize = 4096;
        let items: Vec<u32> = (0..POSTINGS)
            .map(|p| ((p * 2654435761) % SLOTS) as u32)
            .collect();
        let values: Vec<f64> = (0..POSTINGS)
            .map(|p| ((p * 31 + 7) % 13) as f64 * 0.1)
            .collect();
        let mut acc = vec![0.0f64; SLOTS];
        let walk = |acc: &mut [f64]| {
            let q = 0.37f64;
            for (&i, &v) in items.iter().zip(&values) {
                let slot = &mut acc[i as usize];
                *slot = q.mul_add(v, *slot);
            }
        };
        walk(&mut acc); // warmup
        let start = Instant::now();
        walk(&mut acc);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        // Keep the accumulator alive so the walk cannot be optimized out.
        let _guard = acc[0];
        AnalyticalSparseModel {
            updates_per_second: POSTINGS as f64 / elapsed,
            kernel: simd::active().name(),
        }
    }

    /// Builds a model from a known update rate (for tests).
    pub fn with_rate(updates_per_second: f64) -> AnalyticalSparseModel {
        assert!(
            updates_per_second > 0.0,
            "AnalyticalSparseModel: rate must be positive"
        );
        AnalyticalSparseModel {
            updates_per_second,
            kernel: "assumed",
        }
    }

    /// Predicted seconds for `updates` accumulator updates (selection and
    /// rescore excluded — see type docs).
    pub fn predict_seconds(&self, updates: f64) -> f64 {
        assert!(updates >= 0.0, "AnalyticalSparseModel: negative work");
        updates / self.updates_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_linalg::gemm_nt_into;

    #[test]
    fn calibration_yields_plausible_rate() {
        let model = AnalyticalBmmModel::calibrate();
        // Anything from an emulator to a vector monster.
        assert!(model.flops_per_second > 1e6);
        assert!(model.flops_per_second < 1e13);
    }

    #[test]
    fn prediction_scales_linearly_with_flops() {
        let model = AnalyticalBmmModel::with_rate(1e9);
        let base = model.predict_seconds(100, 100, 100);
        assert!((model.predict_seconds(200, 100, 100) - 2.0 * base).abs() < 1e-12);
        assert!((model.predict_seconds(100, 300, 100) - 3.0 * base).abs() < 1e-12);
    }

    #[test]
    fn calibrated_prediction_matches_measurement_on_multiply_stage() {
        // The paper reports ~5 % accuracy for MKL on a fixed testbed; on a
        // shared VM we assert the right order of magnitude (within 4×),
        // which is all OPTIMUS's coarse-grained decision needs.
        let model = AnalyticalBmmModel::calibrate();
        let m = 300;
        let n = 400;
        let k = 64;
        let a = Matrix::<f64>::from_fn(m, k, |r, c| ((r + c) % 7) as f64 * 0.3);
        let b = Matrix::<f64>::from_fn(n, k, |r, c| ((r * 3 + c) % 5) as f64 * 0.2);
        let mut out = vec![0.0; m * n];
        // Warmup + best-of-three to tame scheduler noise.
        gemm_nt_into((&a).into(), (&b).into(), &mut out);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            gemm_nt_into((&a).into(), (&b).into(), &mut out);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let predicted = model.predict_seconds(m, n, k);
        let ratio = predicted / best;
        assert!(
            (0.25..=4.0).contains(&ratio),
            "predicted {predicted}s vs measured {best}s (ratio {ratio})"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_rate() {
        let _ = AnalyticalBmmModel::with_rate(0.0);
    }

    #[test]
    fn sparse_calibration_yields_plausible_rate() {
        let model = AnalyticalSparseModel::calibrate();
        // One FMA per update: anywhere from an emulator to a wide core.
        assert!(model.updates_per_second > 1e5);
        assert!(model.updates_per_second < 1e12);
    }

    #[test]
    fn sparse_prediction_scales_linearly_with_updates() {
        let model = AnalyticalSparseModel::with_rate(1e8);
        let base = model.predict_seconds(1e6);
        assert!((model.predict_seconds(2e6) - 2.0 * base).abs() < 1e-12);
        assert_eq!(model.predict_seconds(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sparse_rejects_bad_rate() {
        let _ = AnalyticalSparseModel::with_rate(-1.0);
    }
}
