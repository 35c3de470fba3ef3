//! OPTIMUS: the online, sample-based MIPS serving optimizer (§IV).
//!
//! Given already-built candidate solvers (BMM plus one or more indexes —
//! construction is orders of magnitude cheaper than serving, Fig. 4 — and,
//! under `Precision::Auto`, each scan backend's int8 screen build next to
//! its f64 build), [`Optimus::choose`]:
//!
//! 1. **samples users** — a fraction of `U` (default 0.5 %) floored so the
//!    sampled user block at least occupies the L2 cache, without which BMM's
//!    timing degenerates toward matrix–vector multiply (§IV-A);
//! 2. **times every candidate on the sample**, the first batch-capable one
//!    (BMM) first as the reference, and linearly extrapolates total serving
//!    time. For point-query indexes (LEMP, FEXIPRO) an incremental
//!    one-sample t-test against the reference's mean per-user time stops
//!    sampling as soon as the comparison is statistically settled. A
//!    dominance cut stops a point-query pass once its elapsed time proves
//!    the candidate can neither win nor change a screen demotion, and only
//!    screen-pair sides within the cut get a second, min-of-two pass;
//! 3. **picks the estimated winner**, except that a screen build keeps the
//!    plan over its own f64 build only when it is estimated clearly faster.
//!
//! The caller serves with the winner: the engine caches it in a
//! [`crate::engine::PreparedPlan`] per user range and `k`.
//!
//! Decisions rest on these sampled timings alone. The paper's offline
//! analytical FLOP model (§IV-A) predicts only BMM's multiply stage, not
//! the data-dependent top-k selection, so it is not implemented here.

pub mod oracle;

use crate::solver::{MipsSolver, PlanningGuard};
use mips_data::ModelView;
use mips_linalg::CacheConfig;
use mips_stats::{OneSampleTTest, TTestDecision};
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
    /// Enable early stopping: the t-test for point-query indexes and the
    /// dominance cut. Off, every candidate is timed on the full sample, and
    /// both sides of a screen pair twice (Fig. 7).
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

/// One input to [`Optimus::choose`]: a built solver and, when it is an
/// int8 screen build competing against its own f64 build, the index of
/// that base in the same candidate slice. The caller that builds the pair
/// supplies the pairing; display names play no part in it.
#[derive(Clone, Copy)]
pub struct Candidate<'a> {
    /// The built solver.
    pub solver: &'a dyn MipsSolver,
    /// For a screen build, the index of its f64 base among the candidates.
    pub screen_of: Option<usize>,
}

/// The outcome of [`Optimus::choose`]. `chosen` and `estimates` index the
/// candidates in their input order.
#[derive(Debug, Clone)]
pub struct PlannedChoice {
    /// Index of the winning candidate.
    pub chosen: usize,
    /// Per-candidate estimates, in input order; empty when a single
    /// candidate won without sampling.
    pub estimates: Vec<StrategyEstimate>,
    /// Users sampled for estimation (0 when sampling was skipped).
    pub sample_size: usize,
    /// Wall-clock seconds spent sampling and deciding.
    pub decision_seconds: f64,
}

/// A screen build displaces its own f64 build only when its sampled
/// estimate is at most this fraction of the base's — i.e. clearly faster,
/// not within sampling noise of a tie. See [`demote_marginal_screen_winner`]
/// for the asymmetry argument that justifies favouring the exact-direct
/// incumbent.
const SCREEN_ADOPTION_MARGIN: f64 = 0.85;

/// The screen must also be estimated to save at least this much absolute
/// wall-clock before it displaces its f64 base. Sub-millisecond requests
/// finish inside the sampling noise floor: a relative margin alone still
/// adopts on a "30 µs vs 40 µs" sample, where the decision is pure noise
/// and the upside — even when real — is microseconds. Seconds-scale
/// requests (where the screen genuinely pays) clear this floor by orders
/// of magnitude.
const SCREEN_ADOPTION_FLOOR_SECONDS: f64 = 500e-6;

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

    /// Draws `sample_size` distinct users out of `n`, deterministic per
    /// seed.
    fn sample_users(&self, n: usize, f: usize) -> Vec<usize> {
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
        sample
    }

    /// Chooses among already-built candidates by timing each on a user
    /// sample — the planning primitive behind
    /// [`crate::engine::PreparedPlan`]. A single candidate wins without
    /// sampling.
    ///
    /// Sampling and cost extrapolation are **sized to the view**: the
    /// sample is drawn from the view's user range (in the parent model's
    /// global id space, which is what the candidate solvers must speak),
    /// and each candidate's total is extrapolated to the view's user
    /// count.
    ///
    /// The first batch-capable candidate (BMM) is timed first, whatever its
    /// position, and is the reference for the early-stopping t-test applied
    /// to point-query candidates; without one, the first candidate is.
    /// Candidates the dominance cut stops are timed only until they are
    /// provably out of the running, so the choice equals the argmin over
    /// full measurements of the same passes. A screen build that wins the
    /// argmin is then demoted to its base (its [`Candidate::screen_of`])
    /// unless it is estimated clearly faster. Panics if `candidates` is
    /// empty; the engine guards that case with a typed error before
    /// calling.
    pub fn choose(
        &self,
        view: &ModelView,
        k: usize,
        candidates: &[Candidate<'_>],
    ) -> PlannedChoice {
        assert!(!candidates.is_empty(), "Optimus::choose: no candidates");
        if candidates.len() == 1 {
            return PlannedChoice {
                chosen: 0,
                estimates: Vec::new(),
                sample_size: 0,
                decision_seconds: 0.0,
            };
        }
        let overall = Instant::now();
        // Sampling is planning, not serving: keep it out of the
        // candidates' served screen counters.
        let _planning = PlanningGuard::enter();
        let n = view.num_users();
        let mut sample = self.sample_users(n, view.num_factors());
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

        // Timing order: the t-test reference first, then the rest in
        // input order.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        if let Some(batch) = candidates.iter().position(|c| c.solver.batches_users()) {
            order.remove(batch);
            order.insert(0, batch);
        }

        // The demotion below compares a screen's estimate with its base's.
        // The t-test early stop can halt the two sides at *different*
        // user counts, and on backends with heterogeneous per-user cost
        // (LEMP's scan length tracks the user's norm) that makes the
        // pair's estimates averages over different user mixes — enough
        // to mis-rank a pair whose true costs are within ~20%. So the
        // t-test never stops a screen pair's side; unpaired candidates
        // keep the cheap early-stopped sampling.
        let screen_paired: Vec<bool> = (0..candidates.len())
            .map(|i| {
                candidates[i].screen_of.is_some()
                    || candidates.iter().any(|c| c.screen_of == Some(i))
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
        let mut timed = Vec::with_capacity(candidates.len());
        for &idx in &order {
            let solver = candidates[idx].solver;
            let _ = solver.query_subset(k, warm);
            let ttest = ref_per_user.filter(|_| early && !screen_paired[idx]);
            let estimate = self.estimate_index(solver, k, &sample, n, ttest, cut_seconds(best));
            ref_per_user.get_or_insert(estimate.sample_seconds / estimate.sampled_users as f64);
            best = best.min(estimate.estimated_total_seconds);
            timed.push(estimate);
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
        for (&idx, e) in order.iter().zip(&mut timed) {
            let first = e.sample_seconds;
            if !screen_paired[idx] || first > cut_seconds(best) {
                continue;
            }
            let stop_after = if early { first } else { f64::INFINITY };
            let (used, second) = timed_pass(candidates[idx].solver, k, &sample, None, stop_after);
            if used == sample.len() && second < first {
                e.sample_seconds = second;
                e.estimated_total_seconds = second / sample.len() as f64 * n as f64;
                best = best.min(e.estimated_total_seconds);
            }
        }

        let mut by_input: Vec<(usize, StrategyEstimate)> =
            order.iter().copied().zip(timed).collect();
        by_input.sort_unstable_by_key(|&(idx, _)| idx);
        let estimates: Vec<StrategyEstimate> = by_input.into_iter().map(|(_, e)| e).collect();
        // Ties go to the candidate timed first.
        let winner = *order
            .iter()
            .min_by(|&&a, &&b| {
                estimates[a]
                    .estimated_total_seconds
                    .total_cmp(&estimates[b].estimated_total_seconds)
            })
            .expect("at least two candidates");
        PlannedChoice {
            chosen: demote_marginal_screen_winner(&estimates, winner, candidates[winner].screen_of),
            estimates,
            sample_size: sample.len(),
            decision_seconds: overall.elapsed().as_secs_f64(),
        }
    }

    /// Times one candidate on the sample and extrapolates its total over
    /// `n` users. Point-query candidates may stop early (see
    /// [`timed_pass`]): under the one-sample t-test against `ttest_mean`,
    /// the reference's mean per-user seconds, when given; and once their
    /// elapsed time exceeds `stop_after` seconds.
    fn estimate_index(
        &self,
        solver: &dyn MipsSolver,
        k: usize,
        sample: &[usize],
        n: usize,
        ttest_mean: Option<f64>,
        stop_after: f64,
    ) -> StrategyEstimate {
        let ttest = ttest_mean
            .map(|mean| OneSampleTTest::new(mean, self.config.alpha, self.config.min_t_samples));
        let (used, sample_seconds) = timed_pass(solver, k, sample, ttest, stop_after);
        StrategyEstimate {
            name: solver.name().to_string(),
            build_seconds: solver.build_seconds(),
            sampled_users: used,
            sample_seconds,
            estimated_total_seconds: sample_seconds / used as f64 * n as f64,
        }
    }
}

/// One timed pass of `solver` over `sample`. Batch solvers are timed on
/// the whole sample at once: their per-user cost is only meaningful with
/// work sharing. So is a pass with no stopping rule. A point-query pass
/// otherwise runs user by user and stops after the first user that
/// settles `ttest` or takes its elapsed time past `stop_after` seconds.
///
/// Returns the users done and their elapsed seconds.
fn timed_pass(
    solver: &dyn MipsSolver,
    k: usize,
    sample: &[usize],
    mut ttest: Option<OneSampleTTest>,
    stop_after: f64,
) -> (usize, f64) {
    if solver.batches_users() || (ttest.is_none() && stop_after.is_infinite()) {
        // The answers drop after the clock is read: freeing them is not
        // serving work.
        let t0 = Instant::now();
        let _lists = solver.query_subset(k, sample);
        return (sample.len(), t0.elapsed().as_secs_f64());
    }
    let mut used = 0;
    let mut elapsed = 0.0;
    for &u in sample {
        let t0 = Instant::now();
        let _list = solver.query_subset(k, &[u]);
        let dt = t0.elapsed().as_secs_f64();
        used += 1;
        elapsed += dt;
        let settled = ttest
            .as_mut()
            .is_some_and(|t| t.push(dt) != TTestDecision::Continue);
        if settled || elapsed > stop_after {
            break;
        }
    }
    (used, elapsed)
}

/// The estimate above which a candidate is dominated by one estimated at
/// `best` seconds: it loses the argmin, and as the f64 base of a screen
/// winner it cannot demote that winner, since the screen is then below
/// [`SCREEN_ADOPTION_MARGIN`] of it and saves more than
/// [`SCREEN_ADOPTION_FLOOR_SECONDS`].
fn dominance_cut(best: f64) -> f64 {
    (best / SCREEN_ADOPTION_MARGIN).max(best + SCREEN_ADOPTION_FLOOR_SECONDS)
}

/// Screen adoption: a screen build competes against its own f64 build,
/// and the two run the identical access pattern — their sampled estimates
/// differ by the screen's true advantage plus sampling noise. Adopting the
/// screen on a hair's-breadth estimate trades bounded upside for an
/// unbounded noise regression, so the exact-direct incumbent keeps the
/// plan unless the screen is estimated clearly faster — below
/// [`SCREEN_ADOPTION_MARGIN`] of the base's time *and* saving at least
/// [`SCREEN_ADOPTION_FLOOR_SECONDS`] of absolute wall-clock. A wrongly
/// kept incumbent forgoes at most the margin; a wrongly adopted screen
/// can serve arbitrarily slower than the committed f64 baseline.
///
/// `winner` indexes the argmin of `estimates` and `base` its f64 build,
/// when it is a screen build paired with one (a screen forced by
/// `I8Rescore` has none). Returns the index the plan settles on.
fn demote_marginal_screen_winner(
    estimates: &[StrategyEstimate],
    winner: usize,
    base: Option<usize>,
) -> usize {
    let screen = estimates[winner].estimated_total_seconds;
    match base {
        Some(b)
            if screen > SCREEN_ADOPTION_MARGIN * estimates[b].estimated_total_seconds
                || estimates[b].estimated_total_seconds - screen
                    < SCREEN_ADOPTION_FLOOR_SECONDS =>
        {
            b
        }
        _ => winner,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::engine::registry::{
        BmmFactory, FexiproFactory, LempFactory, MaximusFactory, SolverFactory,
    };
    use crate::engine::{Engine, EngineBuilder, PreparedPlan, QueryRequest};
    use crate::maximus::MaximusConfig;
    use crate::precision::{Precision, ScanTier};
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_data::MfModel;
    use mips_lemp::LempConfig;
    use mips_topk::TopKList;
    use std::time::Duration;

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

    /// An engine planning under [`tiny_config`] over `m`, with BMM
    /// registered first and then `indexes`.
    fn bmm_plus(m: &Arc<MfModel>, indexes: Vec<Arc<dyn SolverFactory>>) -> Engine {
        let mut builder = EngineBuilder::new()
            .model(Arc::clone(m))
            .register(BmmFactory)
            .optimus(tiny_config());
        for index in indexes {
            builder = builder.register_arc(index);
        }
        builder.build().unwrap()
    }

    fn small_maximus() -> Arc<dyn SolverFactory> {
        Arc::new(MaximusFactory::new(MaximusConfig {
            num_clusters: 4,
            block_size: 32,
            ..MaximusConfig::default()
        }))
    }

    #[test]
    fn results_are_exact_regardless_of_choice() {
        let m = model();
        let engine = bmm_plus(&m, vec![small_maximus()]);
        let started = Instant::now();
        let response = engine.execute(&QueryRequest::top_k(5)).unwrap();
        let total_seconds = started.elapsed().as_secs_f64();
        let plan = engine.prepare(5).unwrap();
        let want = BmmSolver::build(&ModelView::full(&m), ScanTier::F64).query_all(5);
        assert_eq!(response.results.len(), want.len());
        for (u, (got, expect)) in response.results.iter().zip(&want).enumerate() {
            assert_eq!(got.items, expect.items, "user {u}");
        }
        assert!(["Blocked MM", "Maximus"].contains(&plan.backend_name()));
        assert_eq!(plan.estimates().len(), 2);
        assert!(plan.decision_seconds() <= total_seconds);
    }

    #[test]
    fn three_way_optimization_works() {
        let m = model();
        let lemp: Arc<dyn SolverFactory> = Arc::new(LempFactory::new(LempConfig::default()));
        let engine = bmm_plus(&m, vec![small_maximus(), lemp]);
        let response = engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.prepare(3).unwrap().estimates().len(), 3);
        let want = BmmSolver::build(&ModelView::full(&m), ScanTier::F64).query_all(3);
        for u in (0..m.num_users()).step_by(37) {
            assert_eq!(response.results[u].items, want[u].items);
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
        let plan = bmm_plus(&model(), vec![Arc::new(FexiproFactory::si())])
            .prepare(1)
            .unwrap();
        assert_eq!(plan.estimates().len(), 2);
        for e in plan.estimates() {
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
        let plan = bmm_plus(&model(), vec![Arc::new(FexiproFactory::sir())])
            .prepare(1)
            .unwrap();
        let fex = estimate(&plan, "FEXIPRO-SIR");
        assert!(fex.sampled_users <= plan.sample_size());
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
        let candidates = [
            Candidate {
                solver: &bmm,
                screen_of: None,
            },
            Candidate {
                solver: &lemp,
                screen_of: None,
            },
            Candidate {
                solver: &lemp_screen,
                screen_of: Some(1),
            },
            Candidate {
                solver: &fex,
                screen_of: None,
            },
        ];
        let choice = optimus.choose(&view, 3, &candidates);
        let winner = argmin(&choice.estimates);
        assert_eq!(
            choice.chosen,
            demote_marginal_screen_winner(&choice.estimates, winner, candidates[winner].screen_of)
        );
        let best = choice.estimates[winner].estimated_total_seconds;
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
    /// and, when `screen` is set, a screen build costing that much and
    /// named `screen_name` (`"<key>+i8"` unless a test renames it).
    struct StubFactory {
        key: &'static str,
        batch: bool,
        per_user: Duration,
        screen: Option<Duration>,
        screen_name: String,
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
                screen_name: format!("{key}+i8"),
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
                name: if screen {
                    self.screen_name.clone()
                } else {
                    self.key.to_string()
                },
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
    ) -> Arc<PreparedPlan> {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users,
            num_items: 16,
            num_factors: 4,
            ..SynthConfig::default()
        }));
        let mut builder = EngineBuilder::new()
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

    fn estimate<'a>(plan: &'a PreparedPlan, name: &str) -> &'a StrategyEstimate {
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
    fn screen_pairs_come_from_the_engine_not_from_display_names() {
        // The screen's display name does not end in "+i8", so no name
        // match could pair it with its base; the engine pairs them. As a
        // pair, both sides are timed on the whole sample (the t-test,
        // which would settle against the slow reference after 8 users,
        // never stops a pair side) and get a second pass. Both are
        // near-free, so the screen saves less than the adoption floor
        // and is demoted to its base. The cut sits the floor above the
        // best estimate, as in `pair_sides_within_the_cut_get_their_second_pass`.
        let reference = Arc::new(StubFactory::new("ref", true, 30));
        let mut odd = StubFactory::new("odd", false, 0).with_screen(0);
        odd.screen_name = "screened odd".into();
        let odd = Arc::new(odd);
        let plan = plan_stubs(64, 1.0, true, &[reference, Arc::clone(&odd)]);
        let sample = plan.sample_size();
        for (name, users) in [("odd", &odd.users), ("screened odd", &odd.screen_users)] {
            assert_eq!(estimate(&plan, name).sampled_users, sample, "{name}");
            assert!(
                users.load(Ordering::SeqCst) > 4 + sample,
                "{name} must get its second pass"
            );
        }
        assert_eq!(plan.backend_key(), "odd", "{:?}", plan.estimates());
        assert_eq!(plan.precision(), Precision::F64);
    }

    #[test]
    fn screen_winner_within_margin_is_demoted_to_its_f64_base() {
        let estimate = |name: &str, secs: f64| StrategyEstimate {
            name: name.to_string(),
            build_seconds: 0.0,
            sampled_users: 8,
            sample_seconds: secs / 10.0,
            estimated_total_seconds: secs,
        };
        // Screen barely ahead of its base (within the noise margin): the
        // exact-direct incumbent keeps the plan.
        let noisy = [estimate("LEMP", 1.00), estimate("LEMP+i8", 0.95)];
        assert_eq!(demote_marginal_screen_winner(&noisy, 1, Some(0)), 0);
        // Screen clearly faster than the margin: adoption stands.
        let clear = [estimate("LEMP", 1.00), estimate("LEMP+i8", 0.60)];
        assert_eq!(demote_marginal_screen_winner(&clear, 1, Some(0)), 1);
        // Exactly at the margin boundary counts as clearly faster (the
        // demotion predicate is strict).
        let edge = [
            estimate("LEMP", 1.00),
            estimate("LEMP+i8", SCREEN_ADOPTION_MARGIN),
        ];
        assert_eq!(demote_marginal_screen_winner(&edge, 1, Some(0)), 1);
        // Sub-millisecond requests: even a clear relative win saves less
        // absolute time than the noise floor — the incumbent keeps it.
        let tiny = [estimate("LEMP", 900e-6), estimate("LEMP+i8", 500e-6)];
        assert_eq!(demote_marginal_screen_winner(&tiny, 1, Some(0)), 0);
        // Forced-i8 mode: screens are the only builds, so a screen winner
        // has no base — nothing to demote to, even where the names of
        // two candidates would match as a pair.
        let forced = [estimate("Maximus", 1.0), estimate("Maximus+i8", 0.99)];
        assert_eq!(demote_marginal_screen_winner(&forced, 1, None), 1);
        // Two candidates share the base's display name (a global winner
        // and a shard-local build, say): the screen is demoted to the
        // base it was paired with, not to the first name match, and its
        // own name need not carry the "+i8" suffix.
        let twins = [
            estimate("LEMP", 3.0),
            estimate("LEMP", 1.0),
            estimate("screened LEMP", 0.95),
        ];
        assert_eq!(demote_marginal_screen_winner(&twins, 2, Some(1)), 1);
    }
}
