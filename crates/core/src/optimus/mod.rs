//! OPTIMUS: the online, sample-based MIPS serving optimizer (§IV).
//!
//! Given a model and a set of candidate strategies (BMM plus one or more
//! indexes), OPTIMUS:
//!
//! 1. **builds every candidate index** — construction is orders of magnitude
//!    cheaper than serving (Fig. 4), so this is affordable;
//! 2. **samples users** — a fraction of `U` (default 0.5 %) floored so the
//!    sampled user block at least occupies the L2 cache, without which BMM's
//!    timing degenerates toward matrix–vector multiply (§IV-A);
//! 3. **times BMM and every index on the sample** and linearly extrapolates
//!    total serving time. For point-query indexes (LEMP, FEXIPRO) an
//!    incremental one-sample t-test against BMM's mean per-user time stops
//!    sampling as soon as the comparison is statistically settled;
//! 4. **serves the remaining users with the estimated winner**, reusing the
//!    winner's sampled results.
//!
//! [`cost`] additionally implements the paper's offline analytical FLOP
//! model for the BMM multiply stage, with calibration replacing the paper's
//! hardware datasheet lookup.

pub mod cost;
pub mod oracle;

use crate::engine::registry::{BmmFactory, SolverFactory};
use crate::solver::MipsSolver;
use crate::sync::Arc;
use mips_data::{MfModel, ModelView};
use mips_linalg::CacheConfig;
use mips_stats::{OneSampleTTest, TTestDecision};
use mips_topk::TopKList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// OPTIMUS configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptimusConfig {
    /// Fraction of users sampled for runtime estimation (paper: 0.5 %).
    pub sample_fraction: f64,
    /// Cache geometry used for the L2-occupancy sample floor.
    pub cache: CacheConfig,
    /// Significance level for the early-stopping t-test (paper: 5 %).
    pub alpha: f64,
    /// Minimum observations before the t-test may decide.
    pub min_t_samples: u64,
    /// Enable t-test early stopping for point-query indexes.
    pub early_stopping: bool,
    /// Seed for user sampling.
    pub seed: u64,
}

impl Default for OptimusConfig {
    fn default() -> Self {
        OptimusConfig {
            sample_fraction: 0.005,
            cache: CacheConfig::default(),
            alpha: 0.05,
            min_t_samples: 8,
            early_stopping: true,
            seed: 0x0971,
        }
    }
}

/// One candidate's measured estimate.
#[derive(Debug, Clone)]
pub struct StrategyEstimate {
    /// Strategy display name.
    pub name: String,
    /// Index construction seconds (0 for BMM).
    pub build_seconds: f64,
    /// Users actually timed (may be below the sample size when the t-test
    /// stopped early).
    pub sampled_users: usize,
    /// Measured sampling seconds.
    pub sample_seconds: f64,
    /// Extrapolated total serving time for all users, in seconds.
    pub estimated_total_seconds: f64,
}

/// The outcome of one OPTIMUS invocation.
pub struct OptimusOutcome {
    /// Name of the chosen strategy.
    pub chosen: String,
    /// Per-candidate estimates (BMM first, then indexes in input order).
    pub estimates: Vec<StrategyEstimate>,
    /// Users sampled for estimation.
    pub sample_size: usize,
    /// Wall-clock seconds spent on construction + sampling (the optimizer's
    /// overhead before the main run starts).
    pub decision_seconds: f64,
    /// Wall-clock seconds of the full invocation, decision included.
    pub total_seconds: f64,
    /// Top-k results for every user, in user order.
    pub results: Vec<TopKList>,
}

/// Everything the estimation phase produces: estimates plus the built
/// solvers and sampled results, so the serving phase can reuse them.
struct EstimationPhase {
    sample: Vec<usize>,
    taken: Vec<bool>,
    bmm: Box<dyn MipsSolver>,
    built: Vec<Box<dyn MipsSolver>>,
    estimates: Vec<StrategyEstimate>,
    bmm_results: Vec<TopKList>,
    index_results: Vec<Option<Vec<TopKList>>>,
}

/// A planning decision over already-built candidate solvers: the engine's
/// query-planner entry point (the candidates come from its backend
/// registry, not from factory values).
#[derive(Debug, Clone)]
pub struct PlannedChoice {
    /// Index of the winning solver in the input slice.
    pub chosen: usize,
    /// Per-candidate estimates, in input order.
    pub estimates: Vec<StrategyEstimate>,
    /// Users sampled for estimation.
    pub sample_size: usize,
    /// Wall-clock seconds spent sampling and deciding.
    pub decision_seconds: f64,
}

/// The OPTIMUS optimizer.
#[derive(Debug, Clone, Default)]
pub struct Optimus {
    config: OptimusConfig,
}

impl Optimus {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: OptimusConfig) -> Optimus {
        assert!(
            config.sample_fraction > 0.0 && config.sample_fraction <= 1.0,
            "OptimusConfig: sample_fraction must be in (0, 1]"
        );
        Optimus { config }
    }

    /// The sample size rule of §IV-A: `max(fraction·|U|, L2-occupancy rows,
    /// 2)`, capped at `|U|`.
    pub fn sample_size(&self, num_users: usize, f: usize) -> usize {
        let by_fraction = (num_users as f64 * self.config.sample_fraction).ceil() as usize;
        let l2_floor = self.config.cache.rows_to_fill_l2(f, 8);
        by_fraction.max(l2_floor).max(2).min(num_users)
    }

    /// Draws `sample_size` distinct users, deterministic per seed. Returns
    /// the sample plus a membership mask over all `n` users.
    fn sample_users(&self, n: usize, f: usize) -> (Vec<usize>, Vec<bool>) {
        let sample_size = self.sample_size(n, f);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut sample: Vec<usize> = Vec::with_capacity(sample_size);
        let mut taken = vec![false; n];
        while sample.len() < sample_size {
            let u = rng.gen_range(0..n);
            if !taken[u] {
                taken[u] = true;
                sample.push(u);
            }
        }
        (sample, taken)
    }

    /// Chooses among already-built solvers by timing each on a user sample
    /// — the planning primitive behind [`crate::engine::PreparedPlan`].
    ///
    /// Sampling and cost extrapolation are **sized to the view**: the
    /// sample is drawn from the view's user range (in the parent model's
    /// global id space, which is what the candidate solvers must speak),
    /// and each candidate's total is extrapolated to the view's user
    /// count. A full view reproduces the whole-model planning of earlier
    /// revisions bit-for-bit (same seed, same draws); a shard view is how
    /// the serving runtime lets every shard plan for its own slice.
    ///
    /// `solvers[0]` is the timing reference for the early-stopping t-test
    /// applied to point-query candidates, so it should be the batch
    /// baseline (BMM) when one is present. Panics if `solvers` is empty;
    /// the engine guards that case with a typed error before calling.
    pub fn choose(&self, view: &ModelView, k: usize, solvers: &[&dyn MipsSolver]) -> PlannedChoice {
        assert!(!solvers.is_empty(), "Optimus::choose: no candidate solvers");
        let overall = Instant::now();
        let n = view.num_users();
        let (mut sample, _) = self.sample_users(n, view.num_factors());
        let base = view.user_range().start;
        if base != 0 {
            for user in &mut sample {
                *user += base;
            }
        }

        // Untimed warm-up prefix per candidate before its timed pass:
        // a candidate's first queries pay one-off costs (page faults,
        // cold caches over its index, lazily initialised scratch) that
        // land asymmetrically — whoever samples first pays the most —
        // and on small views inflate the extrapolated totals by orders
        // of magnitude. Planning is a *comparison* of steady-state
        // costs, and the screen-adoption floor guards mixed-precision
        // plans in absolute seconds, so estimates must not carry
        // cold-start noise.
        let warm = &sample[..sample.len().min(4)];

        // Screen pairing: an engine in `Auto` precision competes each
        // backend's `+i8` screen against its own f64 build, and the
        // adoption rule downstream compares exactly those two estimates.
        // The t-test early stop can halt the two sides at *different*
        // user counts, and on backends with heterogeneous per-user cost
        // (LEMP's scan length tracks the user's norm) that makes the
        // pair's estimates averages over different user mixes — enough
        // to mis-rank a pair whose true costs are within ~20%. Force
        // both sides of every screen pair onto the identical full
        // sample so their comparison is apples-to-apples; unpaired
        // candidates keep the cheap early-stopped sampling.
        let names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        fn strip(name: &str) -> Option<&str> {
            name.strip_suffix(crate::engine::SCREEN_I8_SUFFIX)
        }
        let screen_paired: Vec<bool> = names
            .iter()
            .map(|name| {
                names
                    .iter()
                    .any(|other| strip(other) == Some(name) || strip(name) == Some(*other))
            })
            .collect();

        // Time the reference candidate on the whole sample.
        let _ = solvers[0].query_subset(k, warm);
        let t0 = Instant::now();
        let _ = solvers[0].query_subset(k, &sample);
        let ref_sample_seconds = t0.elapsed().as_secs_f64();
        let ref_per_user = ref_sample_seconds / sample.len() as f64;
        let mut estimates = vec![StrategyEstimate {
            name: solvers[0].name().to_string(),
            build_seconds: solvers[0].build_seconds(),
            sampled_users: sample.len(),
            sample_seconds: ref_sample_seconds,
            estimated_total_seconds: ref_per_user * n as f64,
        }];

        for (idx, solver) in solvers[1..].iter().enumerate() {
            let _ = solver.query_subset(k, warm);
            let (estimate, _) =
                self.estimate_index(*solver, k, &sample, ref_per_user, n, screen_paired[idx + 1]);
            estimates.push(estimate);
        }

        // Paired candidates get a second, interleaved timing pass with
        // the per-side minimum kept: one scheduler burst landing inside
        // a side's only pass can mis-rank a pair whose true costs sit
        // within the adoption margin, but to survive a min-of-two the
        // burst would have to hit the same side twice and the other
        // side never. Unpaired candidates don't face a head-to-head
        // margin decision, so their single pass stands.
        for (idx, solver) in solvers.iter().enumerate() {
            if !screen_paired[idx] {
                continue;
            }
            let t0 = Instant::now();
            let _ = solver.query_subset(k, &sample);
            let second = t0.elapsed().as_secs_f64();
            let e = &mut estimates[idx];
            if second < e.sample_seconds {
                e.sample_seconds = second;
                e.estimated_total_seconds = second / sample.len() as f64 * n as f64;
            }
        }

        let chosen = estimates
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.estimated_total_seconds
                    .total_cmp(&b.1.estimated_total_seconds)
            })
            .expect("at least one candidate")
            .0;
        PlannedChoice {
            chosen,
            estimates,
            sample_size: sample.len(),
            decision_seconds: overall.elapsed().as_secs_f64(),
        }
    }

    /// Runs only the estimation phase (construction + sampling + per-user
    /// timing) and returns the per-strategy estimates without serving the
    /// remaining users. This is the measurement behind Fig. 7, which plots
    /// estimate quality against the sample ratio.
    ///
    /// `indexes` are backend factories (the same [`SolverFactory`] values a
    /// [`crate::engine::BackendRegistry`] holds); BMM is always included as
    /// the batch baseline, so the list must not contain the `"bmm"` key.
    pub fn estimate_only(
        &self,
        model: &Arc<MfModel>,
        k: usize,
        indexes: &[Arc<dyn SolverFactory>],
    ) -> Vec<StrategyEstimate> {
        self.estimation_phase(&ModelView::full(model), k, indexes)
            .estimates
    }

    /// [`Optimus::estimate_only`] over a user-range view: candidates are
    /// **built over the view** (shard-local index construction) and the
    /// sample is drawn from — and the totals extrapolated to — the view's
    /// users. The per-shard planning the serving runtime's
    /// `IndexScope::PerShard` mode performs is exactly this.
    pub fn estimate_only_view(
        &self,
        view: &ModelView,
        k: usize,
        indexes: &[Arc<dyn SolverFactory>],
    ) -> Vec<StrategyEstimate> {
        self.estimation_phase(view, k, indexes).estimates
    }

    /// Construction plus sampling: everything OPTIMUS does before
    /// committing to a strategy. Candidates are built over `view` and
    /// queried with local user ids (`0..view.num_users()`).
    fn estimation_phase(
        &self,
        view: &ModelView,
        k: usize,
        indexes: &[Arc<dyn SolverFactory>],
    ) -> EstimationPhase {
        assert!(
            !indexes.iter().any(|f| f.key() == "bmm"),
            "Optimus: BMM is always included; pass only index factories"
        );
        let n = view.num_users();
        let (sample, taken) = self.sample_users(n, view.num_factors());

        // Build all candidates (cheap relative to serving, Fig. 4).
        let build = |factory: &dyn SolverFactory| -> Box<dyn MipsSolver> {
            factory
                .build(view)
                .unwrap_or_else(|err| panic!("Optimus: building {}: {err}", factory.key()))
        };
        let bmm = build(&BmmFactory);
        let built: Vec<Box<dyn MipsSolver>> = indexes.iter().map(|f| build(f.as_ref())).collect();

        // Time BMM on the sample.
        let t0 = Instant::now();
        let bmm_results = bmm.query_subset(k, &sample);
        let bmm_sample_seconds = t0.elapsed().as_secs_f64();
        let bmm_per_user = bmm_sample_seconds / sample.len() as f64;
        let mut estimates = vec![StrategyEstimate {
            name: bmm.name().to_string(),
            build_seconds: bmm.build_seconds(),
            sampled_users: sample.len(),
            sample_seconds: bmm_sample_seconds,
            estimated_total_seconds: bmm_per_user * n as f64,
        }];

        // Time each index on the sample.
        let mut index_results: Vec<Option<Vec<TopKList>>> = Vec::new();
        for solver in &built {
            let (estimate, results) =
                self.estimate_index(solver.as_ref(), k, &sample, bmm_per_user, n, false);
            estimates.push(estimate);
            index_results.push(results);
        }

        EstimationPhase {
            sample,
            taken,
            bmm,
            built,
            estimates,
            bmm_results,
            index_results,
        }
    }

    /// Chooses between BMM and the given index factories for serving top-k
    /// for all users, then serves them. `indexes` must not contain the
    /// `"bmm"` factory (BMM is always a candidate).
    ///
    /// Two-way optimization passes one index (the paper's Table II rows 1–4);
    /// passing two or more gives the multi-way optimizer (row 5).
    pub fn run(
        &self,
        model: &Arc<MfModel>,
        k: usize,
        indexes: &[Arc<dyn SolverFactory>],
    ) -> OptimusOutcome {
        let overall = Instant::now();
        let n = model.num_users();
        let EstimationPhase {
            sample,
            taken,
            bmm,
            built,
            estimates,
            bmm_results,
            mut index_results,
        } = self.estimation_phase(&ModelView::full(model), k, indexes);

        // Decide.
        let chosen_idx = estimates
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.estimated_total_seconds
                    .total_cmp(&b.1.estimated_total_seconds)
            })
            .expect("at least BMM is a candidate")
            .0;
        let chosen_name = estimates[chosen_idx].name.clone();
        let decision_seconds = overall.elapsed().as_secs_f64();

        // Serve remaining users with the winner; reuse its sampled results
        // when it produced complete ones.
        let winner: &dyn MipsSolver = if chosen_idx == 0 {
            bmm.as_ref()
        } else {
            built[chosen_idx - 1].as_ref()
        };
        let sampled_results: Option<Vec<TopKList>> = if chosen_idx == 0 {
            Some(bmm_results)
        } else {
            index_results[chosen_idx - 1].take()
        };

        let mut results = vec![TopKList::empty(); n];
        let remaining: Vec<usize> = match &sampled_results {
            Some(lists) => {
                for (pos, &u) in sample.iter().enumerate() {
                    results[u] = lists[pos].clone();
                }
                (0..n).filter(|u| !taken[*u]).collect()
            }
            None => (0..n).collect(),
        };
        let remaining_results = winner.query_subset(k, &remaining);
        for (pos, &u) in remaining.iter().enumerate() {
            results[u] = remaining_results[pos].clone();
        }

        OptimusOutcome {
            chosen: chosen_name,
            estimates,
            sample_size: sample.len(),
            decision_seconds,
            total_seconds: overall.elapsed().as_secs_f64(),
            results,
        }
    }

    /// Times one index on the sample. Batch indexes are timed on the whole
    /// sample at once (their per-user cost is only meaningful with work
    /// sharing); point-query indexes are timed user-by-user under the
    /// incremental t-test, unless `full_sample` pins them to the whole
    /// sample (used by [`Optimus::choose`] for screen-paired candidates,
    /// whose estimates are compared head-to-head and must average over
    /// the same user mix).
    ///
    /// Returns the estimate and, when the full sample was processed, the
    /// sampled results for reuse.
    #[allow(clippy::too_many_arguments)]
    fn estimate_index(
        &self,
        solver: &dyn MipsSolver,
        k: usize,
        sample: &[usize],
        bmm_per_user: f64,
        n: usize,
        full_sample: bool,
    ) -> (StrategyEstimate, Option<Vec<TopKList>>) {
        if solver.batches_users() || full_sample || !self.config.early_stopping {
            let t0 = Instant::now();
            let results = solver.query_subset(k, sample);
            let sample_seconds = t0.elapsed().as_secs_f64();
            let per_user = sample_seconds / sample.len() as f64;
            return (
                StrategyEstimate {
                    name: solver.name().to_string(),
                    build_seconds: solver.build_seconds(),
                    sampled_users: sample.len(),
                    sample_seconds,
                    estimated_total_seconds: per_user * n as f64,
                },
                Some(results),
            );
        }

        // Point queries: incremental one-sample t-test against BMM's mean.
        let mut ttest =
            OneSampleTTest::new(bmm_per_user, self.config.alpha, self.config.min_t_samples);
        let mut results = Vec::with_capacity(sample.len());
        let mut sample_seconds = 0.0;
        let mut used = 0;
        for &u in sample {
            let t0 = Instant::now();
            let mut r = solver.query_subset(k, &[u]);
            let dt = t0.elapsed().as_secs_f64();
            sample_seconds += dt;
            results.push(r.pop().expect("one result per user"));
            used += 1;
            if ttest.push(dt) != TTestDecision::Continue {
                break;
            }
        }
        let per_user = sample_seconds / used as f64;
        let complete = used == sample.len();
        (
            StrategyEstimate {
                name: solver.name().to_string(),
                build_seconds: solver.build_seconds(),
                sampled_users: used,
                sample_seconds,
                estimated_total_seconds: per_user * n as f64,
            },
            complete.then_some(results),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::engine::registry::{FexiproFactory, LempFactory, MaximusFactory};
    use crate::maximus::MaximusConfig;
    use crate::precision::ScanTier;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_lemp::LempConfig;

    fn fac(factory: impl SolverFactory + 'static) -> Arc<dyn SolverFactory> {
        Arc::new(factory)
    }

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 300,
            num_items: 250,
            num_factors: 10,
            item_norm_skew: 0.8,
            user_spread: 0.3,
            ..SynthConfig::default()
        }))
    }

    fn tiny_config() -> OptimusConfig {
        OptimusConfig {
            sample_fraction: 0.05,
            cache: CacheConfig {
                l1_bytes: 1024,
                l2_bytes: 2048, // tiny: keeps the L2 floor small for tests
                l3_bytes: 4096,
            },
            ..OptimusConfig::default()
        }
    }

    #[test]
    fn results_are_exact_regardless_of_choice() {
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let outcome = optimus.run(
            &m,
            5,
            &[fac(MaximusFactory::new(MaximusConfig {
                num_clusters: 4,
                block_size: 32,
                ..MaximusConfig::default()
            }))],
        );
        let want = BmmSolver::build(&ModelView::full(&m), ScanTier::F64).query_all(5);
        assert_eq!(outcome.results.len(), want.len());
        for (u, (got, expect)) in outcome.results.iter().zip(&want).enumerate() {
            assert_eq!(got.items, expect.items, "user {u}");
        }
        assert!(["Blocked MM", "Maximus"].contains(&outcome.chosen.as_str()));
        assert_eq!(outcome.estimates.len(), 2);
        assert!(outcome.decision_seconds <= outcome.total_seconds);
    }

    #[test]
    fn three_way_optimization_works() {
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let outcome = optimus.run(
            &m,
            3,
            &[
                fac(MaximusFactory::new(MaximusConfig {
                    num_clusters: 4,
                    block_size: 32,
                    ..MaximusConfig::default()
                })),
                fac(LempFactory::new(LempConfig::default())),
            ],
        );
        assert_eq!(outcome.estimates.len(), 3);
        let want = BmmSolver::build(&ModelView::full(&m), ScanTier::F64).query_all(3);
        for u in (0..m.num_users()).step_by(37) {
            assert_eq!(outcome.results[u].items, want[u].items);
        }
    }

    #[test]
    fn sample_size_respects_l2_floor_and_bounds() {
        let optimus = Optimus::new(OptimusConfig::default());
        // 0.5 % of 100k users at f=100 is 500, but the L2 floor (256 KB /
        // 800 B) is 328 — fraction dominates.
        assert_eq!(optimus.sample_size(100_000, 100), 500);
        // For few users the floor caps at |U|.
        assert_eq!(optimus.sample_size(50, 100), 50);
        // At tiny f the floor dominates the fraction.
        let floor = CacheConfig::default().rows_to_fill_l2(10, 8);
        assert_eq!(optimus.sample_size(100_000, 10), floor.max(500));
    }

    #[test]
    fn estimates_are_positive_and_finite() {
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let outcome = optimus.run(&m, 1, &[fac(FexiproFactory::si())]);
        for e in &outcome.estimates {
            assert!(e.estimated_total_seconds > 0.0);
            assert!(e.estimated_total_seconds.is_finite());
            assert!(e.sampled_users >= 2);
        }
    }

    #[test]
    fn early_stopping_can_cut_the_sample_short() {
        // FEXIPRO point queries against BMM: on this model the per-user gap
        // is wide, so with early stopping enabled the t-test should settle
        // before the full sample — sampled_users < sample_size at least
        // sometimes. We only assert it never exceeds the sample.
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let outcome = optimus.run(&m, 1, &[fac(FexiproFactory::sir())]);
        let fex = &outcome.estimates[1];
        assert!(fex.sampled_users <= outcome.sample_size);
    }

    #[test]
    fn screen_paired_candidates_are_timed_on_the_full_sample() {
        // A `+i8` screen and its f64 base are compared head-to-head by
        // the adoption rule, so `choose` must not let the t-test stop
        // the two at different user counts (different user mixes bias
        // the pair's comparison on norm-heterogeneous backends). Both
        // sides of the pair must report the full sample; the unpaired
        // point-query candidate keeps early-stopped sampling (only
        // bounded here — whether it stops early is model-dependent).
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let bmm = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let lemp = crate::adapters::LempSolver::build(
            Arc::clone(&m),
            &LempConfig::default(),
            ScanTier::F64,
        );
        let lemp_screen = crate::adapters::LempSolver::build(
            Arc::clone(&m),
            &LempConfig::default(),
            ScanTier::I8,
        );
        let fex = crate::adapters::FexiproSolver::build(
            Arc::clone(&m),
            &mips_fexipro::FexiproConfig::si(),
        );
        let view = ModelView::full(&m);
        let choice = optimus.choose(&view, 3, &[&bmm, &lemp, &lemp_screen, &fex]);
        for e in &choice.estimates {
            if e.name == "LEMP" || e.name == "LEMP+i8" {
                assert_eq!(
                    e.sampled_users, choice.sample_size,
                    "{} must be timed on the whole sample",
                    e.name
                );
            } else {
                assert!(e.sampled_users <= choice.sample_size);
            }
        }
    }

    #[test]
    #[should_panic(expected = "pass only index factories")]
    fn rejects_bmm_in_index_list() {
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let _ = optimus.run(&m, 1, &[fac(BmmFactory)]);
    }
}
