//! [`MipsSolver`] adapters for the LEMP, FEXIPRO, and sparse inverted-index
//! crates.

use crate::precision::{Precision, ScanTier};
use crate::solver::{MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::Arc;
use mips_data::MfModel;
use mips_fexipro::{FexiproConfig, FexiproIndex};
use mips_lemp::{LempConfig, LempIndex, QueryStats};
use mips_sparse::{InvertedIndex, SparseConfig, SparseScratch};
use mips_topk::TopKList;
use std::ops::Range;
use std::time::Instant;

/// LEMP behind the common solver interface.
pub struct LempSolver {
    model: Arc<MfModel>,
    index: LempIndex,
    build_seconds: f64,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]).
    screen_tally: ScreenTallyCells,
}

impl LempSolver {
    /// Builds the LEMP index (bucketing + per-bucket tuning).
    ///
    /// [`ScanTier::I8`] enables the int8 screen: scans pre-score candidates
    /// with exact integer dots over symmetric int8 codes and skip exact dots
    /// the quantization envelope proves hopeless, with bit-identical results
    /// (see [`mips_lemp::scan`]). Falls back to the plain f64 identity when
    /// the model quantizes degenerately. The quantization pass is part of
    /// the reported build time.
    pub fn build(model: Arc<MfModel>, config: &LempConfig, tier: ScanTier) -> LempSolver {
        let start = Instant::now();
        let mut index = LempIndex::build(&model, config);
        if tier == ScanTier::I8 {
            index.enable_screen_i8();
        }
        let build_seconds = start.elapsed().as_secs_f64();
        LempSolver {
            model,
            index,
            build_seconds,
            screen_tally: ScreenTallyCells::default(),
        }
    }

    /// The wrapped index (for stats-aware benches).
    pub fn index(&self) -> &LempIndex {
        &self.index
    }

    /// Folds one query loop's scan counters into the drainable tally.
    fn record_scan(&self, stats: &QueryStats) {
        self.screen_tally.record(
            stats.scan.screen_evaluated,
            stats.scan.screen_evaluated - stats.scan.screen_pruned,
        );
    }
}

impl MipsSolver for LempSolver {
    fn name(&self) -> &str {
        if self.index.is_screening_i8() {
            "LEMP+i8"
        } else {
            "LEMP"
        }
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        false // point queries: OPTIMUS may t-test LEMP
    }

    fn precision(&self) -> Precision {
        if self.index.is_screening_i8() {
            Precision::I8Rescore
        } else {
            Precision::F64
        }
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        let mut stats = QueryStats::default();
        let out = users
            .map(|u| {
                self.index
                    .query_with_stats(self.model.users().row(u), k, &mut stats)
            })
            .collect();
        self.record_scan(&stats);
        out
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let mut stats = QueryStats::default();
            let out = distinct
                .iter()
                .map(|&u| {
                    self.index
                        .query_with_stats(self.model.users().row(u), k, &mut stats)
                })
                .collect();
            self.record_scan(&stats);
            out
        })
    }

    fn take_screen_stats(&self) -> Option<ScreenTally> {
        self.index
            .is_screening_i8()
            .then(|| self.screen_tally.drain())
    }
}

/// FEXIPRO behind the common solver interface.
pub struct FexiproSolver {
    index: FexiproIndex,
    name: &'static str,
    build_seconds: f64,
}

impl FexiproSolver {
    /// Builds the FEXIPRO index (SVD, quantization, user preprocessing).
    pub fn build(model: Arc<MfModel>, config: &FexiproConfig) -> FexiproSolver {
        let start = Instant::now();
        let index = FexiproIndex::build(&model, config);
        let build_seconds = start.elapsed().as_secs_f64();
        let name = if config.enable_reduction {
            "FEXIPRO-SIR"
        } else {
            "FEXIPRO-SI"
        };
        FexiproSolver {
            index,
            name,
            build_seconds,
        }
    }

    /// The wrapped index (for stats-aware benches).
    pub fn index(&self) -> &FexiproIndex {
        &self.index
    }
}

impl MipsSolver for FexiproSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        false // point queries: OPTIMUS may t-test FEXIPRO
    }

    fn num_users(&self) -> usize {
        self.index.num_users()
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        users.map(|u| self.index.query_user(u, k)).collect()
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            distinct
                .iter()
                .map(|&u| self.index.query_user(u, k))
                .collect()
        })
    }
}

/// The sparse inverted-index backend behind the common solver interface —
/// the first non-scan access pattern in the registry. Exact (bit-identical
/// to BMM) via candidate screening plus canonical rescoring; see
/// [`mips_sparse`] for the pipeline and its envelope argument.
pub struct SparseSolver {
    model: Arc<MfModel>,
    index: InvertedIndex,
    build_seconds: f64,
}

impl SparseSolver {
    /// Builds the per-factor postings lists and hybrid-head dense panels.
    pub fn build(model: Arc<MfModel>, config: &SparseConfig) -> SparseSolver {
        let start = Instant::now();
        let index = InvertedIndex::build(model.items(), *config);
        let build_seconds = start.elapsed().as_secs_f64();
        SparseSolver {
            model,
            index,
            build_seconds,
        }
    }

    /// The wrapped index (for stats-aware benches and OPTIMUS costing).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Exact top-`k` for an ad-hoc dense query vector (not a stored user
    /// row) — the path behind [`crate::engine::Engine::execute_vector`].
    pub fn query_vector(&self, query: &[f64], k: usize) -> TopKList {
        self.index.query(query, k, self.model.items())
    }
}

impl MipsSolver for SparseSolver {
    fn name(&self) -> &str {
        "Sparse-II"
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        false // point queries: OPTIMUS may t-test the inverted index
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        let items = self.model.items();
        let mut scratch = SparseScratch::new(items.rows());
        users
            .map(|u| {
                self.index
                    .query_with_scratch(self.model.users().row(u), k, items, &mut scratch)
            })
            .collect()
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let items = self.model.items();
            let mut scratch = SparseScratch::new(items.rows());
            distinct
                .iter()
                .map(|&u| {
                    self.index
                        .query_with_scratch(self.model.users().row(u), k, items, &mut scratch)
                })
                .collect()
        })
    }

    fn query_vector(&self, query: &[f64], k: usize) -> Option<TopKList> {
        Some(SparseSolver::query_vector(self, query, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 20,
            num_items: 60,
            num_factors: 8,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn adapters_agree_with_bmm() {
        let m = model();
        let bmm = BmmSolver::build(&mips_data::ModelView::full(&m), ScanTier::F64);
        let want = bmm.query_all(4);

        let lemp = LempSolver::build(Arc::clone(&m), &LempConfig::default(), ScanTier::F64);
        let got = lemp.query_all(4);
        for u in 0..20 {
            assert_eq!(got[u].items, want[u].items, "LEMP user {u}");
        }

        for cfg in [FexiproConfig::si(), FexiproConfig::sir()] {
            let fex = FexiproSolver::build(Arc::clone(&m), &cfg);
            let got = fex.query_all(4);
            for u in 0..20 {
                assert_eq!(got[u].items, want[u].items, "{} user {u}", fex.name());
            }
        }
    }

    #[test]
    fn adapters_report_point_query_semantics() {
        let m = model();
        assert!(
            !LempSolver::build(Arc::clone(&m), &LempConfig::default(), ScanTier::F64)
                .batches_users()
        );
        assert!(!SparseSolver::build(Arc::clone(&m), &SparseConfig::default()).batches_users());
        assert!(!FexiproSolver::build(m, &FexiproConfig::si()).batches_users());
    }

    #[test]
    fn sparse_adapter_is_bit_identical_to_bmm_even_on_dense_models() {
        // Fully dense factors are the sparse backend's worst case; the
        // exactness contract must hold regardless.
        let m = model();
        let bmm = BmmSolver::build(&mips_data::ModelView::full(&m), ScanTier::F64);
        let sparse = SparseSolver::build(Arc::clone(&m), &SparseConfig::default());
        assert_eq!(sparse.name(), "Sparse-II");
        for k in [1, 4, 60, 61] {
            let want = bmm.query_all(k);
            let got = sparse.query_all(k);
            for u in 0..20 {
                assert_eq!(got[u].items, want[u].items, "items k={k} user {u}");
                let gb: Vec<u64> = got[u].scores.iter().map(|s| s.to_bits()).collect();
                let wb: Vec<u64> = want[u].scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(gb, wb, "score bits k={k} user {u}");
            }
        }
        // Ad-hoc vector queries run the same pipeline.
        let q = m.users().row(3);
        let got = sparse.query_vector(q, 5);
        assert_eq!(got.items, bmm.query_range(5, 3..4)[0].items);
    }

    #[test]
    fn build_time_is_recorded() {
        let m = model();
        let lemp = LempSolver::build(m, &LempConfig::default(), ScanTier::F64);
        assert!(lemp.build_seconds() >= 0.0);
        assert!(lemp.build_seconds() < 10.0);
    }
}
