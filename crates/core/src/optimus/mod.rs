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
//!    sampling as soon as the comparison is statistically settled. The
//!    engine's planner ([`Optimus::choose`]) adds a dominance cut: a
//!    point-query pass stops once its elapsed time proves the candidate
//!    can neither win nor change a screen demotion, and only screen-pair
//!    sides within the cut get a second, min-of-two pass;
//! 4. **serves the remaining users with the estimated winner**, reusing the
//!    winner's sampled results.
//!
//! Decisions rest on these sampled timings alone. The paper's offline
//! analytical FLOP model (§IV-A) predicts only BMM's multiply stage, not
//! the data-dependent top-k selection, so it is not implemented here.

pub mod oracle;

use crate::engine::registry::{BmmFactory, SolverFactory};
use crate::engine::{SCREEN_ADOPTION_FLOOR_SECONDS, SCREEN_ADOPTION_MARGIN};
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
    /// Enable early stopping: the t-test for point-query indexes, and in
    /// [`Optimus::choose`] the dominance cut. Off, every candidate is timed
    /// on the full sample, and both sides of a screen pair twice (Fig. 7).
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
    /// Users actually timed: below the sample size when the t-test or the
    /// dominance cut stopped a point-query pass early.
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
    bmm_results: Option<Vec<TopKList>>,
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
    /// baseline (BMM) when one is present. Candidates the dominance cut
    /// stops are timed only until they are provably out of the running, so
    /// the choice equals the argmin over full measurements of the same
    /// passes. Panics if `solvers` is empty; the engine guards that case
    /// with a typed error before calling.
    pub fn choose(&self, view: &ModelView, k: usize, solvers: &[&dyn MipsSolver]) -> PlannedChoice {
        assert!(!solvers.is_empty(), "Optimus::choose: no candidate solvers");
        let overall = Instant::now();
        // Sampling is planning, not serving: keep it out of the
        // candidates' served screen counters.
        let _planning = crate::solver::PlanningGuard::enter();
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
        // to mis-rank a pair whose true costs are within ~20%. So the
        // t-test never stops a screen pair's side; unpaired candidates
        // keep the cheap early-stopped sampling.
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

        // Dominance cut: a candidate whose elapsed time proves its
        // estimate above `dominance_cut(best)`, `best` being the smallest
        // estimate recorded so far, can neither win the argmin nor change
        // a screen demotion, so timing it further is waste. `best` only
        // falls, so that stays true against the final winner. Point-query
        // passes stop at the first user that crosses the cut (scaled to
        // the sample) and extrapolate from the users done, which puts
        // their estimate above the cut by construction; batch passes are
        // never split, since the L2 sample floor needs the whole block.
        let early = self.config.early_stopping;
        let cut_seconds = |best: f64| {
            if early {
                dominance_cut(best) * sample.len() as f64 / n as f64
            } else {
                f64::INFINITY
            }
        };
        let mut best = f64::INFINITY;
        let mut ref_per_user = None;
        let mut estimates = Vec::with_capacity(solvers.len());
        for (idx, solver) in solvers.iter().enumerate() {
            let _ = solver.query_subset(k, warm);
            let ttest = ref_per_user.filter(|_| early && !screen_paired[idx]);
            let (estimate, _) =
                self.estimate_index(*solver, k, &sample, n, ttest, cut_seconds(best));
            if idx == 0 {
                ref_per_user = Some(estimate.sample_seconds / estimate.sampled_users as f64);
            }
            best = best.min(estimate.estimated_total_seconds);
            estimates.push(estimate);
        }

        // Paired candidates get a second, interleaved timing pass with
        // the per-side minimum kept: one scheduler burst landing inside
        // a side's only pass can mis-rank a pair whose true costs sit
        // within the adoption margin, but to survive a min-of-two the
        // burst would have to hit the same side twice and the other
        // side never. Unpaired candidates don't face a head-to-head
        // margin decision, so their single pass stands — and neither
        // does a pair side beyond the cut, which is out of the running
        // by more than the margin. A point-query second pass stops once
        // it is slower than the first: it can no longer lower the
        // minimum.
        for (idx, solver) in solvers.iter().enumerate() {
            let first = estimates[idx].sample_seconds;
            if !screen_paired[idx] || first > cut_seconds(best) {
                continue;
            }
            let stop_after = if early { first } else { f64::INFINITY };
            let (used, second, _) = timed_pass(*solver, k, &sample, None, stop_after);
            if used == sample.len() && second < first {
                let e = &mut estimates[idx];
                e.sample_seconds = second;
                e.estimated_total_seconds = second / sample.len() as f64 * n as f64;
                best = best.min(e.estimated_total_seconds);
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
        self.estimation_phase(model, k, indexes).estimates
    }

    /// Construction plus sampling: everything OPTIMUS does before
    /// committing to a strategy.
    fn estimation_phase(
        &self,
        model: &Arc<MfModel>,
        k: usize,
        indexes: &[Arc<dyn SolverFactory>],
    ) -> EstimationPhase {
        assert!(
            !indexes.iter().any(|f| f.key() == "bmm"),
            "Optimus: BMM is always included; pass only index factories"
        );
        let view = &ModelView::full(model);
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

        // Time BMM on the sample, then each index: point-query indexes
        // under the t-test against BMM's mean per-user time.
        let (bmm_estimate, bmm_results) =
            self.estimate_index(bmm.as_ref(), k, &sample, n, None, f64::INFINITY);
        let bmm_per_user = bmm_estimate.sample_seconds / sample.len() as f64;
        let ttest = self.config.early_stopping.then_some(bmm_per_user);
        let mut estimates = vec![bmm_estimate];
        let mut index_results: Vec<Option<Vec<TopKList>>> = Vec::new();
        for solver in &built {
            let (estimate, results) =
                self.estimate_index(solver.as_ref(), k, &sample, n, ttest, f64::INFINITY);
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
        } = self.estimation_phase(model, k, indexes);

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
            bmm_results
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

    /// Times one candidate on the sample and extrapolates its total over
    /// `n` users. Point-query candidates may stop early (see
    /// [`timed_pass`]): under the one-sample t-test against `ttest_mean`,
    /// BMM's mean per-user seconds, when given; and once their elapsed
    /// time exceeds `stop_after` seconds.
    ///
    /// Returns the estimate and, when the full sample was processed, the
    /// sampled results for reuse.
    fn estimate_index(
        &self,
        solver: &dyn MipsSolver,
        k: usize,
        sample: &[usize],
        n: usize,
        ttest_mean: Option<f64>,
        stop_after: f64,
    ) -> (StrategyEstimate, Option<Vec<TopKList>>) {
        let ttest = ttest_mean
            .map(|mean| OneSampleTTest::new(mean, self.config.alpha, self.config.min_t_samples));
        let (used, sample_seconds, results) = timed_pass(solver, k, sample, ttest, stop_after);
        let per_user = sample_seconds / used as f64;
        (
            StrategyEstimate {
                name: solver.name().to_string(),
                build_seconds: solver.build_seconds(),
                sampled_users: used,
                sample_seconds,
                estimated_total_seconds: per_user * n as f64,
            },
            (used == sample.len()).then_some(results),
        )
    }
}

/// One timed pass of `solver` over `sample`. Batch solvers are timed on
/// the whole sample at once: their per-user cost is only meaningful with
/// work sharing. So is a pass with no stopping rule. A point-query pass
/// otherwise runs user by user and stops after the first user that
/// settles `ttest` or takes its elapsed time past `stop_after` seconds.
///
/// Returns the users done, their elapsed seconds and their results.
fn timed_pass(
    solver: &dyn MipsSolver,
    k: usize,
    sample: &[usize],
    mut ttest: Option<OneSampleTTest>,
    stop_after: f64,
) -> (usize, f64, Vec<TopKList>) {
    if solver.batches_users() || (ttest.is_none() && stop_after.is_infinite()) {
        let t0 = Instant::now();
        let results = solver.query_subset(k, sample);
        return (sample.len(), t0.elapsed().as_secs_f64(), results);
    }
    let mut results = Vec::with_capacity(sample.len());
    let mut elapsed = 0.0;
    for &u in sample {
        let t0 = Instant::now();
        let mut r = solver.query_subset(k, &[u]);
        let dt = t0.elapsed().as_secs_f64();
        elapsed += dt;
        results.push(r.pop().expect("one result per user"));
        let settled = ttest
            .as_mut()
            .is_some_and(|t| t.push(dt) != TTestDecision::Continue);
        if settled || elapsed > stop_after {
            break;
        }
    }
    (results.len(), elapsed, results)
}

/// The estimate above which a candidate is dominated by one estimated at
/// `best` seconds: it loses the argmin, and as the f64 base of a `+i8`
/// winner it cannot demote that winner, since the screen is then below
/// [`SCREEN_ADOPTION_MARGIN`] of it and saves more than
/// [`SCREEN_ADOPTION_FLOOR_SECONDS`].
fn dominance_cut(best: f64) -> f64 {
    (best / SCREEN_ADOPTION_MARGIN).max(best + SCREEN_ADOPTION_FLOOR_SECONDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::engine::registry::{FexiproFactory, LempFactory, MaximusFactory};
    use crate::maximus::MaximusConfig;
    use crate::precision::{Precision, ScanTier};
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_lemp::LempConfig;
    use std::time::Duration;

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

    /// Delegates to a solver and counts the users it is asked for, so a
    /// test can tell how many timing passes `choose` gave it.
    struct Counting<'a> {
        inner: &'a dyn MipsSolver,
        users: AtomicUsize,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn MipsSolver) -> Counting<'a> {
            Counting {
                inner,
                users: AtomicUsize::new(0),
            }
        }

        fn users(&self) -> usize {
            self.users.load(Ordering::SeqCst)
        }
    }

    impl MipsSolver for Counting<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn build_seconds(&self) -> f64 {
            self.inner.build_seconds()
        }
        fn batches_users(&self) -> bool {
            self.inner.batches_users()
        }
        fn num_users(&self) -> usize {
            self.inner.num_users()
        }
        fn query_range(&self, k: usize, users: std::ops::Range<usize>) -> Vec<TopKList> {
            self.users.fetch_add(users.len(), Ordering::SeqCst);
            self.inner.query_range(k, users)
        }
        fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
            self.users.fetch_add(users.len(), Ordering::SeqCst);
            self.inner.query_subset(k, users)
        }
        fn precision(&self) -> Precision {
            self.inner.precision()
        }
    }

    /// The argmin over the recorded estimates, as `choose` decides.
    fn argmin(estimates: &[StrategyEstimate]) -> usize {
        (0..estimates.len())
            .min_by(|&a, &b| {
                estimates[a]
                    .estimated_total_seconds
                    .total_cmp(&estimates[b].estimated_total_seconds)
            })
            .expect("at least one estimate")
    }

    #[test]
    fn screen_paired_candidates_are_timed_on_the_full_sample() {
        // A `+i8` screen and its f64 base are compared head-to-head by
        // the adoption rule, so `choose` must not let the t-test stop
        // the two at different user counts (different user mixes bias
        // the pair's comparison on norm-heterogeneous backends). A pair
        // side that was not cut reports the full sample and gets its
        // second pass; a side that was cut (or found beyond the cut
        // before its second pass) reports an estimate above the cut of
        // the best estimate, and ran no second pass. The unpaired
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
        let (lemp, lemp_screen) = (Counting::new(&lemp), Counting::new(&lemp_screen));
        let view = ModelView::full(&m);
        let choice = optimus.choose(&view, 3, &[&bmm, &lemp, &lemp_screen, &fex]);
        assert_eq!(choice.chosen, argmin(&choice.estimates));
        let best = choice.estimates[choice.chosen].estimated_total_seconds;
        let warm = choice.sample_size.min(4);
        for (e, side) in choice.estimates[1..3].iter().zip([&lemp, &lemp_screen]) {
            let timed = side.users() - warm;
            if timed > e.sampled_users {
                assert_eq!(
                    e.sampled_users, choice.sample_size,
                    "{} was not cut, so it must be timed on the whole sample",
                    e.name
                );
            } else {
                assert!(
                    e.estimated_total_seconds > dominance_cut(best),
                    "{} ran one pass, so it must be dominated: {e:?}, best {best}",
                    e.name
                );
            }
        }
        assert!(choice.estimates[3].sampled_users <= choice.sample_size);
    }

    /// A planning-only stub backend: every call costs `per_user` of busy
    /// wall time for each user asked for (one call per sample for a batch
    /// stub, one per user otherwise), and the users asked for are counted.
    /// Its answers are empty lists, so it is never served.
    struct Stub {
        name: String,
        per_user: Duration,
        batch: bool,
        precision: Precision,
        num_users: usize,
        users: Arc<AtomicUsize>,
    }

    impl MipsSolver for Stub {
        fn name(&self) -> &str {
            &self.name
        }
        fn build_seconds(&self) -> f64 {
            0.0
        }
        fn batches_users(&self) -> bool {
            self.batch
        }
        fn num_users(&self) -> usize {
            self.num_users
        }
        fn query_range(&self, k: usize, users: std::ops::Range<usize>) -> Vec<TopKList> {
            self.query_subset(k, &users.collect::<Vec<_>>())
        }
        fn query_subset(&self, _k: usize, users: &[usize]) -> Vec<TopKList> {
            self.users.fetch_add(users.len(), Ordering::SeqCst);
            let cost = self.per_user * users.len() as u32;
            let t0 = Instant::now();
            while t0.elapsed() < cost {
                std::hint::spin_loop();
            }
            vec![TopKList::empty(); users.len()]
        }
        fn precision(&self) -> Precision {
            self.precision
        }
    }

    /// Builds [`Stub`]s under `key`: a plain build costing `per_user`,
    /// and, when `screen` is set, a `+i8` screen build costing that much.
    struct StubFactory {
        key: &'static str,
        batch: bool,
        per_user: Duration,
        screen: Option<Duration>,
        users: Arc<AtomicUsize>,
        screen_users: Arc<AtomicUsize>,
    }

    impl StubFactory {
        fn new(key: &'static str, batch: bool, per_user_us: u64) -> StubFactory {
            StubFactory {
                key,
                batch,
                per_user: Duration::from_micros(per_user_us),
                screen: None,
                users: Arc::default(),
                screen_users: Arc::default(),
            }
        }

        fn with_screen(mut self, per_user_us: u64) -> StubFactory {
            self.screen = Some(Duration::from_micros(per_user_us));
            self
        }

        fn stub(&self, view: &ModelView, screen: bool) -> Box<dyn MipsSolver> {
            Box::new(Stub {
                name: format!("{}{}", self.key, if screen { "+i8" } else { "" }),
                per_user: if screen {
                    self.screen.expect("screen build")
                } else {
                    self.per_user
                },
                batch: self.batch,
                precision: if screen {
                    Precision::I8Rescore
                } else {
                    Precision::F64
                },
                num_users: view.num_users(),
                users: Arc::clone(if screen {
                    &self.screen_users
                } else {
                    &self.users
                }),
            })
        }
    }

    impl SolverFactory for StubFactory {
        fn key(&self) -> &str {
            self.key
        }
        fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, crate::engine::MipsError> {
            Ok(self.stub(view, false))
        }
        fn build_screen(
            &self,
            view: &ModelView,
        ) -> Option<Result<Box<dyn MipsSolver>, crate::engine::MipsError>> {
            self.screen.map(|_| Ok(self.stub(view, true)))
        }
    }

    /// Plans k = 1 under `Precision::Auto` over `num_users` users with the
    /// given stub backends, sampling `sample_fraction` of them (the tiny
    /// cache keeps the L2 floor at 64 users at f = 4).
    fn plan_stubs(
        num_users: usize,
        sample_fraction: f64,
        early_stopping: bool,
        stubs: &[Arc<StubFactory>],
    ) -> Arc<crate::engine::PreparedPlan> {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users,
            num_items: 16,
            num_factors: 4,
            ..SynthConfig::default()
        }));
        let mut builder = crate::engine::EngineBuilder::new()
            .model(model)
            .precision(Precision::Auto)
            .optimus(OptimusConfig {
                sample_fraction,
                early_stopping,
                ..tiny_config()
            });
        for stub in stubs {
            builder = builder.register_arc(Arc::clone(stub) as Arc<dyn SolverFactory>);
        }
        builder.build().unwrap().prepare(1).unwrap()
    }

    fn estimate<'a>(plan: &'a crate::engine::PreparedPlan, name: &str) -> &'a StrategyEstimate {
        plan.estimates()
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no estimate for {name}"))
    }

    #[test]
    fn dominated_pair_stops_short_and_skips_its_second_pass() {
        // 256 users, 64 sampled: the reference's batch pass takes ~13 ms,
        // so the cut in sample seconds is ~15 ms and a 2 ms/user point
        // query crosses it after ~8 users — an order of magnitude from
        // either side of every boundary.
        let reference = Arc::new(StubFactory::new("ref", true, 200));
        let slow = Arc::new(StubFactory::new("slow", false, 2_000).with_screen(2_000));
        let plan = plan_stubs(
            256,
            0.25,
            true,
            &[Arc::clone(&reference), Arc::clone(&slow)],
        );
        let sample = plan.sample_size();
        assert_eq!(sample, 64);
        assert_eq!(plan.backend_key(), "ref");
        assert_eq!(plan.estimates()[argmin(plan.estimates())].name, "ref");
        let best = estimate(&plan, "ref").estimated_total_seconds;
        let warm = 4;
        for (name, users) in [("slow", &slow.users), ("slow+i8", &slow.screen_users)] {
            let e = estimate(&plan, name);
            assert!(e.sampled_users < sample, "{name} was not cut: {e:?}");
            assert!(
                e.estimated_total_seconds > dominance_cut(best),
                "{name}'s estimate must exceed the cut: {e:?}, best {best}"
            );
            assert_eq!(
                users.load(Ordering::SeqCst),
                warm + e.sampled_users,
                "{name} must get no second pass"
            );
        }
        // The unpaired reference ran its warm-up and one whole pass.
        assert_eq!(reference.users.load(Ordering::SeqCst), warm + sample);
    }

    #[test]
    fn screen_winner_keeps_the_plan_when_its_base_was_cut() {
        // The base is timed before its screen, against the reference
        // alone, and is cut; the screen then wins by far more than the
        // adoption margin, so the cut base must not demote it.
        let reference = Arc::new(StubFactory::new("ref", true, 200));
        let slow = Arc::new(StubFactory::new("slow", false, 2_000).with_screen(10));
        let plan = plan_stubs(256, 0.25, true, &[reference, Arc::clone(&slow)]);
        let base = estimate(&plan, "slow");
        assert!(base.sampled_users < plan.sample_size(), "{base:?}");
        assert_eq!(slow.users.load(Ordering::SeqCst), 4 + base.sampled_users);
        assert_eq!(plan.backend_key(), "slow+i8");
        assert_eq!(plan.precision(), Precision::I8Rescore);
        assert_eq!(plan.estimates()[argmin(plan.estimates())].name, "slow+i8");
        let screen = estimate(&plan, "slow+i8");
        assert_eq!(screen.sampled_users, plan.sample_size());
        assert!(base.estimated_total_seconds > dominance_cut(screen.estimated_total_seconds));
    }

    #[test]
    fn without_early_stopping_every_candidate_is_timed_in_full() {
        let reference = Arc::new(StubFactory::new("ref", true, 200));
        let slow = Arc::new(StubFactory::new("slow", false, 400).with_screen(400));
        let plan = plan_stubs(256, 0.25, false, &[reference, Arc::clone(&slow)]);
        let sample = plan.sample_size();
        for e in plan.estimates() {
            assert_eq!(e.sampled_users, sample, "{e:?}");
        }
        // Both sides of the pair ran their warm-up and two whole passes.
        for users in [&slow.users, &slow.screen_users] {
            assert_eq!(users.load(Ordering::SeqCst), 4 + 2 * sample);
        }
    }

    #[test]
    fn pair_sides_within_the_cut_get_their_second_pass() {
        // An evenly matched pair of near-free point queries: a pass takes
        // microseconds, and the cut sits the 500 µs adoption floor above
        // the best estimate, so both sides are within it unless a stall
        // that long lands inside a microseconds-long pass.
        let reference = Arc::new(StubFactory::new("ref", true, 30));
        let even = Arc::new(StubFactory::new("even", false, 0).with_screen(0));
        let plan = plan_stubs(64, 1.0, true, &[reference, Arc::clone(&even)]);
        let sample = plan.sample_size();
        assert_eq!(sample, 64);
        let best = plan.estimates()[argmin(plan.estimates())].estimated_total_seconds;
        for (name, users) in [("even", &even.users), ("even+i8", &even.screen_users)] {
            let e = estimate(&plan, name);
            assert!(
                e.estimated_total_seconds <= dominance_cut(best),
                "{name} must be within the cut: {e:?}, best {best}"
            );
            assert_eq!(e.sampled_users, sample, "{e:?}");
            assert!(
                users.load(Ordering::SeqCst) > 4 + sample,
                "{name} must get its second pass"
            );
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
