//! The request/response serving engine: the crate's primary public API.
//!
//! The paper's thesis is that the choice of exact-MIPS strategy should be
//! made at serving time by an optimizer. The engine packages that thesis
//! behind one facade:
//!
//! * [`EngineBuilder`] assembles a model, a set of backends from an open
//!   [`registry`](BackendRegistry) (brute force, MAXIMUS, LEMP, FEXIPRO,
//!   or anything implementing [`SolverFactory`]), and
//!   [`EngineOptions`] — including the multi-core serving degree.
//! * [`QueryRequest`] describes one unit of work: `k`, a user selection
//!   (everyone / a range / an explicit id list), and optional per-user
//!   item exclusions for the recommender scenario.
//! * Every entry point returns `Result<_, MipsError>`: malformed requests
//!   (`k == 0`, `k > num_items`, out-of-range users, empty selections) are
//!   typed errors, never panics.
//! * [`Engine::prepare`] runs the OPTIMUS planner once and caches the
//!   winning backend in a [`PreparedPlan`]; [`Engine::execute`] does this
//!   transparently, so repeated requests at the same `k` never re-sample.
//! * [`Engine::swap_model`] installs a retrained model atomically while the
//!   engine keeps serving: each request snapshots one model *epoch* on
//!   entry and runs against it end to end, so in-flight requests finish
//!   bit-identically on the epoch they started under while new submissions
//!   see the new model. Every derived structure (built indexes, cached
//!   plans) is epoch-scoped and reclaimed when the last in-flight request
//!   of an old epoch completes.
//!
//! ```
//! use mips_core::engine::{EngineBuilder, QueryRequest};
//! use mips_data::synth::{synth_model, SynthConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 60,
//!     num_items: 120,
//!     num_factors: 8,
//!     ..SynthConfig::default()
//! }));
//! let engine = EngineBuilder::new()
//!     .model(model)
//!     .with_default_backends()
//!     .threads(2)
//!     .build()
//!     .unwrap();
//! let response = engine.execute(&QueryRequest::top_k(5)).unwrap();
//! assert_eq!(response.results.len(), 60);
//! assert!(engine.execute(&QueryRequest::top_k(0)).is_err()); // typed, no panic
//! ```

pub(crate) mod epoch;
pub mod error;
pub mod plan;
pub mod registry;
pub mod request;
pub(crate) mod scope;

pub use error::MipsError;
pub use plan::PreparedPlan;
pub use registry::{
    BackendRegistry, BmmFactory, FexiproFactory, FnFactory, LempFactory, MaximusFactory,
    SolverFactory, SparseFactory,
};
pub use request::{
    ExclusionSet, QueryRequest, QueryResponse, QueryVector, UserSelection, VectorQueryRequest,
};
pub use scope::IndexScope;

use crate::optimus::{Optimus, OptimusConfig};
use crate::parallel::{par_query_range, par_query_subset};
use crate::precision::Precision;
use crate::solver::MipsSolver;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use epoch::{get_or_build, ArcCell, ModelEpoch};
use mips_data::{MfModel, ModelView};
use mips_linalg::kernels::dot_gemm_ordered;
use mips_sparse::SparseConfig;
use mips_topk::{TopKHeap, TopKList};
use scope::{ShardBuildStats, ShardScopedSolver};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Engine-wide serving options: every [`EngineBuilder`] knob as one typed,
/// validated value. The per-knob builder methods are sugar over this
/// struct; [`EngineOptions::validate`] is the single place the invariants
/// live, so a hand-assembled options value and a builder-assembled one are
/// rejected identically.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads for serving (user-partitioned, Fig. 6). `1` serves
    /// sequentially; values above one route every request through the
    /// multi-core path.
    pub threads: usize,
    /// Planner configuration (sampling fraction, t-test, seed).
    pub optimus: OptimusConfig,
    /// Numeric execution mode for the scan backends: pure f64 (default),
    /// forced int8-screen + f64-rescore, or planner's choice per plan.
    /// Results are bit-identical across all three — see
    /// [`crate::precision::Precision`].
    pub precision: Precision,
    /// Sparse inverted-index knobs (postings pruning threshold, hybrid
    /// dense-column split) for the `sparse` backend registered by
    /// [`EngineBuilder::with_default_backends`]. Results are bit-identical
    /// under every valid setting — these tune work skipped, not answers.
    pub sparse: SparseConfig,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            threads: 1,
            optimus: OptimusConfig::default(),
            precision: Precision::F64,
            sparse: SparseConfig::default(),
        }
    }
}

impl EngineOptions {
    /// Checks every invariant the engine relies on. [`EngineBuilder::build`]
    /// calls this; standalone callers can validate early.
    pub fn validate(&self) -> Result<(), MipsError> {
        if self.threads == 0 {
            return Err(MipsError::InvalidConfig(
                "threads must be at least 1".into(),
            ));
        }
        let f = self.optimus.sample_fraction;
        if !(f > 0.0 && f <= 1.0) {
            return Err(MipsError::InvalidConfig(format!(
                "optimus.sample_fraction must be in (0, 1], got {f}"
            )));
        }
        self.sparse
            .validate()
            .map_err(|msg| MipsError::InvalidConfig(format!("sparse: {msg}")))?;
        Ok(())
    }
}

/// Step-by-step assembly of an [`Engine`].
#[derive(Default)]
pub struct EngineBuilder {
    model: Option<Arc<MfModel>>,
    registry: BackendRegistry,
    config: EngineOptions,
    defer_error: Option<MipsError>,
    /// Set by [`EngineBuilder::with_default_backends`]: the built-in
    /// factories are instantiated at [`EngineBuilder::build`] time so they
    /// honour options (notably [`EngineOptions::sparse`]) set in either
    /// order around the call.
    pending_defaults: bool,
}

impl EngineBuilder {
    /// An empty builder.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Sets the model to serve.
    pub fn model(mut self, model: Arc<MfModel>) -> EngineBuilder {
        self.model = Some(model);
        self
    }

    /// Registers one backend; duplicate keys surface as an error from
    /// [`EngineBuilder::build`].
    pub fn register(self, factory: impl SolverFactory + 'static) -> EngineBuilder {
        self.register_arc(Arc::new(factory))
    }

    /// Registers an already-shared backend factory.
    pub fn register_arc(mut self, factory: Arc<dyn SolverFactory>) -> EngineBuilder {
        if let Err(err) = self.registry.register(factory) {
            self.defer_error.get_or_insert(err);
        }
        self
    }

    /// Registers all built-in backends
    /// (`bmm`, `maximus`, `lemp`, `fexipro-si`, `fexipro-sir`, `sparse`).
    /// Registration is deferred to [`EngineBuilder::build`] so the sparse
    /// backend picks up [`EngineOptions::sparse`] however the calls are
    /// ordered; explicit [`EngineBuilder::register`] calls keep their keys
    /// ahead of the defaults.
    pub fn with_default_backends(mut self) -> EngineBuilder {
        self.pending_defaults = true;
        self
    }

    /// Replaces the registry wholesale, clearing any error deferred from
    /// earlier incremental registrations (they targeted the replaced
    /// registry) along with any pending
    /// [`EngineBuilder::with_default_backends`] request.
    pub fn registry(mut self, registry: BackendRegistry) -> EngineBuilder {
        self.registry = registry;
        self.defer_error = None;
        self.pending_defaults = false;
        self
    }

    /// Sets the serving thread count (must be at least 1).
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.config.threads = threads;
        self
    }

    /// Sets the planner configuration.
    pub fn optimus(mut self, optimus: OptimusConfig) -> EngineBuilder {
        self.config.optimus = optimus;
        self
    }

    /// Sets the numeric execution mode (f64-direct, int8-screen +
    /// f64-rescore, or per-plan [`Precision::Auto`]). Results are
    /// bit-identical under every setting.
    pub fn precision(mut self, precision: Precision) -> EngineBuilder {
        self.config.precision = precision;
        self
    }

    /// Sets the sparse inverted-index knobs the default `sparse` backend is
    /// built with (see [`EngineOptions::sparse`]).
    pub fn sparse(mut self, sparse: SparseConfig) -> EngineBuilder {
        self.config.sparse = sparse;
        self
    }

    /// Sets every engine option at once.
    pub fn options(mut self, options: EngineOptions) -> EngineBuilder {
        self.config = options;
        self
    }

    /// Validates the assembly and produces the engine.
    pub fn build(mut self) -> Result<Engine, MipsError> {
        if let Some(err) = self.defer_error {
            return Err(err);
        }
        self.config.validate()?;
        if self.pending_defaults {
            for factory in BackendRegistry::with_defaults_configured(self.config.sparse).factories()
            {
                self.registry.register(Arc::clone(factory))?;
            }
        }
        let model = self
            .model
            .ok_or_else(|| MipsError::InvalidConfig("a model is required".into()))?;
        if model.num_users() == 0 || model.num_items() == 0 {
            return Err(MipsError::EmptyModel);
        }
        if self.registry.is_empty() {
            return Err(MipsError::NoBackends);
        }
        ensure_well_formed(&model)?;
        Ok(Engine {
            state: ArcCell::new(Arc::new(ModelEpoch::new(0, model))),
            registry: self.registry,
            config: self.config,
            planner_runs: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        })
    }
}

/// Cache-key suffix for the int8 screen tier: the epoch's solver tier
/// stores the screen build of backend `"bmm"` under `"bmm+i8"`, and Auto
/// plans label screen candidates with the same suffixed key in their
/// estimates.
pub(crate) const SCREEN_I8_SUFFIX: &str = "+i8";

/// Planner candidates: backend keys (suffixed for Auto's screen variants),
/// each with the solver it dispatches to.
type PlanCandidates = Vec<(String, Arc<dyn MipsSolver>)>;

/// Under `Auto`, a `+i8` screen variant displaces its own f64 build only
/// when its sampled estimate is at most this fraction of the base's — i.e.
/// clearly faster, not within sampling noise of a tie. See
/// [`demote_marginal_screen_winner`] for the asymmetry argument that
/// justifies favouring the exact-direct incumbent.
pub(crate) const SCREEN_ADOPTION_MARGIN: f64 = 0.85;

/// The screen must also be estimated to save at least this much absolute
/// wall-clock before it displaces its f64 base. Sub-millisecond requests
/// finish inside the sampling noise floor: a relative margin alone still
/// adopts on a "30 µs vs 40 µs" sample, where the decision is pure noise
/// and the upside — even when real — is microseconds. Seconds-scale
/// requests (where the screen genuinely pays) clear this floor by orders
/// of magnitude.
pub(crate) const SCREEN_ADOPTION_FLOOR_SECONDS: f64 = 500e-6;

/// Screen-adoption margin: under `Auto` a screen variant competes against
/// its own f64 build, and the two run the identical access pattern — their
/// sampled estimates differ by the screen's true advantage plus sampling
/// noise. Adopting the screen on a hair's-breadth estimate trades bounded
/// upside for an unbounded noise regression, so the exact-direct incumbent
/// keeps the plan unless the screen is estimated clearly faster — below
/// [`SCREEN_ADOPTION_MARGIN`] of the base's time *and* saving at least
/// [`SCREEN_ADOPTION_FLOOR_SECONDS`] of absolute wall-clock. A wrongly
/// kept incumbent forgoes at most the margin; a wrongly adopted screen
/// can serve arbitrarily slower than the committed f64 baseline.
///
/// `chosen` must index a `+i8` estimate; returns the index of its f64
/// base when the winner should be demoted to it, `None` when the screen
/// keeps the plan (clearly faster, or no base twin competed — the forced
/// `I8Rescore` mode, where screens run under plain keys).
fn demote_marginal_screen_winner(
    estimates: &[crate::optimus::StrategyEstimate],
    chosen: usize,
) -> Option<usize> {
    let screen = &estimates[chosen];
    let base_name = screen.name.strip_suffix(SCREEN_I8_SUFFIX)?;
    estimates
        .iter()
        .position(|e| e.name == base_name)
        .filter(|&i| {
            let base = estimates[i].estimated_total_seconds;
            screen.estimated_total_seconds > SCREEN_ADOPTION_MARGIN * base
                || base - screen.estimated_total_seconds < SCREEN_ADOPTION_FLOOR_SECONDS
        })
}

/// Locks a cache mutex, recovering from poisoning: if a (custom) factory
/// panicked mid-build, the slot it was filling is still `None`, so the
/// sensible recovery is to let the next caller retry rather than poison the
/// engine forever.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> crate::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(crate::sync::PoisonError::into_inner)
}

/// Rejects malformed models — mismatched factor dimensions, or NaN and
/// infinite factors — with a typed error.
///
/// [`MfModel::new`] already validates all of this, but models can also
/// reach the engine through trusted zero-copy loaders
/// ([`MfModel::new_unvalidated`]); a factor-width mismatch would feed
/// unequal-length rows into the dot kernels, and a NaN that slips into a
/// norm-sorted index or a score comparison would poison results silently.
/// The engine therefore re-checks at its two model intake points —
/// [`EngineBuilder::build`] and [`Engine::swap_model`].
fn ensure_well_formed(model: &MfModel) -> Result<(), MipsError> {
    let (uf, itf) = (model.users().cols(), model.items().cols());
    if uf != itf {
        return Err(MipsError::InvalidConfig(format!(
            "model user matrix has {uf} factors but item matrix has {itf}"
        )));
    }
    if model.is_validated() {
        // Constructed through MfModel::new, which already scanned for
        // non-finite values — skip the O(n·f) re-scan so swap_model stays
        // cheap for the common (validated) retraining path.
        return Ok(());
    }
    for (what, matrix) in [("users", model.users()), ("items", model.items())] {
        for (row, values) in matrix.iter_rows().enumerate() {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(MipsError::InvalidConfig(format!(
                    "model {what} matrix has a non-finite factor in row {row}"
                )));
            }
        }
    }
    Ok(())
}

/// The serving engine: backends + planner + the current model epoch.
///
/// The registry and configuration are immutable after construction. The
/// model — and everything derived from it (built solvers, cached plans) —
/// lives in an epoch that [`Engine::swap_model`] replaces atomically, so an
/// engine can be shared across threads, queried concurrently, and re-pointed
/// at a retrained model without draining traffic.
pub struct Engine {
    state: ArcCell<ModelEpoch>,
    registry: BackendRegistry,
    config: EngineOptions,
    planner_runs: AtomicU64,
    swaps: AtomicU64,
}

impl Engine {
    /// Starts assembling an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// A snapshot of the currently served model. In-flight requests may
    /// still be finishing on an older epoch's model after a
    /// [`swap_model`](Engine::swap_model); this is always the newest.
    pub fn model(&self) -> Arc<MfModel> {
        Arc::clone(&self.state.load().model)
    }

    /// The current model epoch (0 at build, +1 per successful swap).
    pub fn epoch(&self) -> u64 {
        self.state.load().id
    }

    /// How many model swaps have been accepted.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// The current epoch state, for epoch-pinned serving (the concurrent
    /// runtime snapshots this once per request).
    pub(crate) fn snapshot(&self) -> Arc<ModelEpoch> {
        self.state.load()
    }

    /// Atomically installs a retrained model and returns the new epoch id.
    ///
    /// The swap is an atomic pointer replacement: requests already past
    /// their epoch snapshot finish bit-identically on the old model (and
    /// its cached plans/indexes), requests entering afterwards see the new
    /// one — there is no draining window and no half-swapped state. All
    /// derived caches are invalidated wholesale because they live inside
    /// the epoch; the old epoch (model, indexes, plans) is freed when its
    /// last in-flight request completes.
    ///
    /// The new model is validated like at build time (non-empty, finite
    /// factors); its shape may differ freely — user count, catalog size,
    /// and factor dimensionality are all per-epoch properties.
    pub fn swap_model(&self, model: Arc<MfModel>) -> Result<u64, MipsError> {
        if model.num_users() == 0 || model.num_items() == 0 {
            return Err(MipsError::EmptyModel);
        }
        ensure_well_formed(&model)?;
        let installed = self
            .state
            .swap_with(|old| Arc::new(ModelEpoch::new(old.id + 1, model)));
        self.swaps.fetch_add(1, Ordering::SeqCst);
        Ok(installed.id)
    }

    /// The backend registry.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The engine options in effect.
    pub fn options(&self) -> &EngineOptions {
        &self.config
    }

    /// The engine's configured numeric mode (see
    /// [`EngineBuilder::precision`]). Per-plan effective decisions are on
    /// [`PreparedPlan::precision`].
    pub fn precision(&self) -> Precision {
        self.config.precision
    }

    /// Registered backend keys, in registration order.
    pub fn backend_keys(&self) -> Vec<&str> {
        self.registry.keys()
    }

    /// How many times the OPTIMUS planner has actually run (used to verify
    /// that prepared plans are reused rather than re-sampled).
    pub fn planner_runs(&self) -> u64 {
        self.planner_runs.load(Ordering::SeqCst)
    }

    /// The built solver for `key` on the current epoch, constructing and
    /// caching it on first use. Construction happens under a per-key lock:
    /// concurrent requests for other backends proceed, concurrent requests
    /// for this one share the single build.
    pub fn solver(&self, key: &str) -> Result<Arc<dyn MipsSolver>, MipsError> {
        self.solver_on(&self.snapshot(), key)
    }

    /// [`Engine::solver`] pinned to one epoch snapshot.
    fn solver_on(&self, state: &ModelEpoch, key: &str) -> Result<Arc<dyn MipsSolver>, MipsError> {
        self.cached_solver(state, None, key, false, &mut ShardBuildStats::default())
            .map(|plain| plain.expect("every backend has a plain build"))
    }

    /// `key`'s solver on one epoch — its int8 screen build when `screen` is
    /// set — cached in the epoch's solver tier under `"<key>"` or
    /// `"<key>+i8"`. With `users` set, the solver is built over a
    /// [`ModelView`] of that contiguous range, cached in the per-shard tier
    /// under `(bounds, cache key)`, and speaks **global** user ids
    /// restricted to the range; real construction work (a cache miss) is
    /// then recorded into `stats` so the serving runtime can surface
    /// per-shard build counts and cost.
    ///
    /// `Ok(None)` when the backend has no screen path — determining that
    /// is free (such factories return before building anything), so the
    /// probe is repeated per call rather than cached. The build runs
    /// outside the cache lock and installs compare-and-swap style (see
    /// [`epoch::get_or_build`]), so a slow build never convoys concurrent
    /// first-touch builders of other state.
    fn cached_solver(
        &self,
        state: &ModelEpoch,
        users: Option<&Range<usize>>,
        key: &str,
        screen: bool,
        stats: &mut ShardBuildStats,
    ) -> Result<Option<Arc<dyn MipsSolver>>, MipsError> {
        let factory = Arc::clone(
            self.registry
                .get(key)
                .ok_or_else(|| MipsError::UnknownBackend { key: key.into() })?,
        );
        let cache_key = if screen {
            format!("{key}{SCREEN_I8_SUFFIX}")
        } else {
            key.to_string()
        };
        let cell = match users {
            None => {
                let mut map = lock_recovering(&state.solvers);
                Arc::clone(map.entry(cache_key.clone()).or_default())
            }
            Some(users) => {
                let mut map = lock_recovering(&state.shard_solvers);
                Arc::clone(
                    map.entry(((users.start, users.end), cache_key.clone()))
                        .or_default(),
                )
            }
        };
        // "No screen path" travels through `get_or_build` as a sentinel
        // error so the cell stays unfilled and no half-state is cached.
        match get_or_build(&cell, || {
            let started = Instant::now();
            let view = match users {
                None => ModelView::full(&state.model),
                Some(users) => ModelView::of_range(&state.model, users.clone()),
            };
            let built = if screen {
                factory.build_screen(&view)
            } else {
                Some(factory.build(&view))
            };
            let Some(built) = built else {
                return Err(MipsError::UnknownBackend {
                    key: cache_key.clone(),
                });
            };
            let solver: Arc<dyn MipsSolver> = match users {
                None => Arc::from(built?),
                Some(users) => {
                    let solver = Arc::new(ShardScopedSolver::new(built?, users.start));
                    stats.builds += 1;
                    stats.build_ns += started.elapsed().as_nanos() as u64;
                    solver
                }
            };
            Ok(solver)
        }) {
            Ok(solver) => Ok(Some(solver)),
            Err(MipsError::UnknownBackend { key: k }) if k == cache_key => Ok(None),
            Err(err) => Err(err),
        }
    }

    /// The candidates `key` contributes under the engine's precision mode,
    /// over the whole model or (with `users`) over a shard's view:
    /// [`Precision::F64`] gives the plain build; [`Precision::I8Rescore`]
    /// substitutes the screen build when the backend has one (labelled
    /// with the plain key — the mode is forced, not competed); and
    /// [`Precision::Auto`] adds the screen build as an **extra** candidate
    /// labelled `"<key>+i8"`, so OPTIMUS prices the two modes against each
    /// other.
    fn mode_candidates(
        &self,
        state: &ModelEpoch,
        users: Option<&Range<usize>>,
        key: &str,
        stats: &mut ShardBuildStats,
    ) -> Result<PlanCandidates, MipsError> {
        let mut build = |screen| self.cached_solver(state, users, key, screen, stats);
        let plain =
            |built: Option<Arc<dyn MipsSolver>>| built.expect("every backend has a plain build");
        Ok(match self.config.precision {
            Precision::F64 => vec![(key.to_string(), plain(build(false)?))],
            Precision::I8Rescore => {
                let solver = match build(true)? {
                    Some(screen) => screen,
                    None => plain(build(false)?),
                };
                vec![(key.to_string(), solver)]
            }
            Precision::Auto => {
                let mut out = vec![(key.to_string(), plain(build(false)?))];
                if let Some(screen) = build(true)? {
                    out.push((format!("{key}{SCREEN_I8_SUFFIX}"), screen));
                }
                out
            }
        })
    }

    /// Serves a request with an explicitly named backend — no planning.
    pub fn execute_with(
        &self,
        key: &str,
        request: &QueryRequest,
    ) -> Result<QueryResponse, MipsError> {
        let state = self.snapshot();
        request.validate(&state.model)?;
        // Named dispatch honors a forced I8Rescore (falling back to the
        // f64 build when the backend has no screen path); under Auto the
        // precision decision belongs to the planner, so unplanned named
        // requests serve f64-direct.
        let solver = if self.config.precision == Precision::Auto {
            self.solver_on(&state, key)?
        } else {
            let mut only =
                self.mode_candidates(&state, None, key, &mut ShardBuildStats::default())?;
            only.swap_remove(0).1
        };
        serve(
            &state.model,
            solver.as_ref(),
            self.config.threads,
            request,
            false,
            state.id,
        )
    }

    /// Serves an ad-hoc [`VectorQueryRequest`]: the exact top-`k` items
    /// for one factor-space vector, dense or sparse — the point-lookup
    /// face of the engine, with no user id involved, so it answers for
    /// "users" the model has never seen (fresh embeddings, composed
    /// queries, sparse bag-of-words vectors).
    ///
    /// A sparse payload is densified before serving, so both encodings of
    /// the same vector return bit-identical results. When the sparse
    /// inverted-index backend is registered, its point-lookup path serves
    /// the query (the index is built lazily and cached on the epoch, like
    /// every solver); otherwise the engine runs the canonical one-vector
    /// scan. The two paths are bit-identical by the backend exactness
    /// contract, so routing is invisible in the results.
    pub fn execute_vector(&self, request: &VectorQueryRequest) -> Result<QueryResponse, MipsError> {
        let state = self.snapshot();
        request.validate(&state.model)?;
        let query = request.vector.densify();
        let started = Instant::now();
        let served = if self.registry.get("sparse").is_some() {
            let solver = self.solver_on(&state, "sparse")?;
            solver
                .query_vector(&query, request.k)
                .map(|list| (list, solver.name().to_string()))
        } else {
            None
        };
        let (list, backend) = match served {
            Some(hit) => hit,
            None => (
                scan_vector_topk(&state.model, &query, request.k),
                // The fallback is the brute-force scan the backends are
                // all measured against; report it under that name.
                "Blocked MM".to_string(),
            ),
        };
        Ok(QueryResponse {
            results: vec![list],
            backend,
            precision: Precision::F64,
            planned: false,
            epoch: state.id,
            serve_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Runs the OPTIMUS planner for requests at `k` and caches the
    /// decision in the current epoch. Calling again with the same `k` (on
    /// the same epoch) returns the cached plan without re-sampling.
    /// Planning happens under a per-`k` lock, so a long sampling run for
    /// one `k` never stalls requests at another.
    pub fn prepare(&self, k: usize) -> Result<Arc<PreparedPlan>, MipsError> {
        self.prepare_on(&self.snapshot(), k)
    }

    /// [`Engine::prepare`] pinned to one epoch snapshot — the concurrent
    /// runtime uses this so a sub-request plans (and serves) on the epoch
    /// its request was admitted under, even if a swap lands in between.
    pub(crate) fn prepare_on(
        &self,
        state: &ModelEpoch,
        k: usize,
    ) -> Result<Arc<PreparedPlan>, MipsError> {
        if k == 0 || k > state.model.num_items() {
            return Err(MipsError::InvalidK {
                k,
                num_items: state.model.num_items(),
            });
        }
        let cell = {
            let mut map = lock_recovering(&state.plans);
            Arc::clone(map.entry(k).or_default())
        };
        get_or_build(&cell, || Ok(Arc::new(self.plan_for_k(state, k)?)))
    }

    /// The plan for requests at `k` restricted to the contiguous user
    /// range `users`, planned **per shard**: candidates are shard-local
    /// solvers built over a view of the range (plus, under
    /// [`IndexScope::Auto`], the global plan's winner), and OPTIMUS
    /// samples the shard's own users. Cached in the epoch's per-shard tier
    /// under `(bounds, k)`; reclaimed with the epoch exactly like the
    /// global tier.
    pub(crate) fn prepare_shard_on(
        &self,
        state: &ModelEpoch,
        users: &Range<usize>,
        k: usize,
        scope: IndexScope,
        stats: &mut ShardBuildStats,
    ) -> Result<Arc<PreparedPlan>, MipsError> {
        debug_assert!(scope.builds_local(), "global scope plans via prepare_on");
        if k == 0 || k > state.model.num_items() {
            return Err(MipsError::InvalidK {
                k,
                num_items: state.model.num_items(),
            });
        }
        let auto = scope == IndexScope::Auto;
        let cell = {
            let mut map = lock_recovering(&state.shard_plans);
            Arc::clone(map.entry(((users.start, users.end), k, auto)).or_default())
        };
        get_or_build(&cell, || {
            Ok(Arc::new(
                self.shard_plan_for_k(state, users, k, auto, stats)?,
            ))
        })
    }

    /// Serves a request through the plan cache: plans once per `k` per
    /// epoch, then dispatches to the cached winner.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, MipsError> {
        let state = self.snapshot();
        request.validate(&state.model)?;
        let plan = self.prepare_on(&state, request.k)?;
        plan.execute_prevalidated(request)
    }

    /// Assembles the planner's candidate list for one epoch under the
    /// engine's precision mode: every registry backend in order, with the
    /// screen variants [`Engine::mode_candidates`] adds.
    fn precision_candidates(&self, state: &ModelEpoch) -> Result<PlanCandidates, MipsError> {
        let mut candidates = Vec::new();
        for key in self.registry.keys() {
            candidates.extend(self.mode_candidates(
                state,
                None,
                key,
                &mut ShardBuildStats::default(),
            )?);
        }
        Ok(candidates)
    }

    /// The planning phase behind [`Engine::prepare`].
    fn plan_for_k(&self, state: &ModelEpoch, k: usize) -> Result<PreparedPlan, MipsError> {
        let (keys, solvers): (Vec<String>, Vec<Arc<dyn MipsSolver>>) =
            self.precision_candidates(state)?.into_iter().unzip();
        self.planner_runs.fetch_add(1, Ordering::SeqCst);

        if solvers.len() == 1 {
            // One candidate: nothing to sample.
            return Ok(PreparedPlan {
                model: Arc::clone(&state.model),
                precision: solvers[0].precision(),
                winner: Arc::clone(&solvers[0]),
                backend_key: keys[0].clone(),
                planned_k: k,
                threads: self.config.threads,
                epoch: state.id,
                estimates: Vec::new(),
                sample_size: 0,
                decision_seconds: 0.0,
                shard_users: None,
                local_index: false,
                analytical_bmm_seconds: 0.0,
                analytical_sparse_seconds: 0.0,
            });
        }

        let view = ModelView::full(&state.model);
        let (winner_idx, choice) = self.run_planner(&view, k, &solvers);
        Ok(PreparedPlan {
            model: Arc::clone(&state.model),
            precision: solvers[winner_idx].precision(),
            winner: Arc::clone(&solvers[winner_idx]),
            backend_key: keys[winner_idx].clone(),
            planned_k: k,
            threads: self.config.threads,
            epoch: state.id,
            estimates: choice.estimates,
            sample_size: choice.sample_size,
            decision_seconds: choice.decision_seconds,
            shard_users: None,
            local_index: false,
            analytical_bmm_seconds: self.analytical_bmm_seconds(&view),
            analytical_sparse_seconds: self.analytical_sparse_seconds(&view, &solvers),
        })
    }

    /// The planning phase behind [`Engine::prepare_shard_on`]: candidates
    /// are the shard-local solvers for every registered backend (built —
    /// or fetched from the epoch's per-shard tier — over a view of
    /// `users`), plus the global plan's winner when `auto` is set. OPTIMUS
    /// samples the shard's own users, so the decision reflects the slice's
    /// shape, not the whole model's.
    fn shard_plan_for_k(
        &self,
        state: &ModelEpoch,
        users: &Range<usize>,
        k: usize,
        auto: bool,
        stats: &mut ShardBuildStats,
    ) -> Result<PreparedPlan, MipsError> {
        // (key, is-shard-local, solver), sampled in this order below.
        let mut candidates: Vec<(String, bool, Arc<dyn MipsSolver>)> = Vec::new();
        if auto {
            let global = self.prepare_on(state, k)?;
            candidates.push((
                global.backend_key().to_string(),
                false,
                Arc::clone(&global.winner),
            ));
        }
        for key in self.registry.keys() {
            let local = self.mode_candidates(state, Some(users), key, stats)?;
            candidates.extend(local.into_iter().map(|(key, solver)| (key, true, solver)));
        }
        self.planner_runs.fetch_add(1, Ordering::SeqCst);

        if candidates.len() == 1 {
            // One candidate (PerShard scope, single backend): nothing to
            // sample — mirror the global single-candidate shortcut.
            let (backend_key, local_index, winner) = candidates.pop().expect("one candidate");
            return Ok(PreparedPlan {
                model: Arc::clone(&state.model),
                precision: winner.precision(),
                winner,
                backend_key,
                planned_k: k,
                threads: self.config.threads,
                epoch: state.id,
                estimates: Vec::new(),
                sample_size: 0,
                decision_seconds: 0.0,
                shard_users: Some(users.clone()),
                local_index,
                analytical_bmm_seconds: 0.0,
                analytical_sparse_seconds: 0.0,
            });
        }

        let view = ModelView::of_range(&state.model, users.clone());
        let solvers: Vec<Arc<dyn MipsSolver>> =
            candidates.iter().map(|(_, _, s)| Arc::clone(s)).collect();
        let (winner_idx, choice) = self.run_planner(&view, k, &solvers);
        let analytical_bmm_seconds = self.analytical_bmm_seconds(&view);
        let analytical_sparse_seconds = self.analytical_sparse_seconds(&view, &solvers);
        let (backend_key, local_index, winner) = candidates.swap_remove(winner_idx);
        Ok(PreparedPlan {
            model: Arc::clone(&state.model),
            precision: winner.precision(),
            winner,
            backend_key,
            planned_k: k,
            threads: self.config.threads,
            epoch: state.id,
            estimates: choice.estimates,
            sample_size: choice.sample_size,
            decision_seconds: choice.decision_seconds,
            shard_users: Some(users.clone()),
            local_index,
            analytical_bmm_seconds,
            analytical_sparse_seconds,
        })
    }

    /// Runs OPTIMUS over the candidate set, reordered so its t-test timing
    /// reference is the first batch-capable candidate (BMM-like) when one
    /// is present — regardless of input order. Returns the winner's index
    /// **in the input order** plus the planner's evidence.
    fn run_planner(
        &self,
        view: &ModelView,
        k: usize,
        solvers: &[Arc<dyn MipsSolver>],
    ) -> (usize, crate::optimus::PlannedChoice) {
        let mut order: Vec<usize> = (0..solvers.len()).collect();
        if let Some(batch) = solvers.iter().position(|s| s.batches_users()) {
            order.remove(batch);
            order.insert(0, batch);
        }
        let optimus = Optimus::new(self.config.optimus);
        let refs: Vec<&dyn MipsSolver> = order.iter().map(|&i| solvers[i].as_ref()).collect();
        let mut choice = optimus.choose(view, k, &refs);

        if refs[choice.chosen].precision() == Precision::I8Rescore {
            if let Some(base) = demote_marginal_screen_winner(&choice.estimates, choice.chosen) {
                choice.chosen = base;
            }
        }
        (order[choice.chosen], choice)
    }

    /// The §IV-A analytical prior recorded on sampled plans: predicted
    /// multiply-stage seconds for the view's users over the full catalog,
    /// using the registry's calibrated FLOP rate (measured once per SIMD
    /// kernel, cached across epochs and shards).
    fn analytical_bmm_seconds(&self, view: &ModelView) -> f64 {
        self.registry.analytical_bmm().predict_seconds(
            view.num_users(),
            view.num_items(),
            view.num_factors(),
        )
    }

    /// The analytical prior for the sparse inverted-index **accumulation
    /// stage**, recorded only when the sparse backend competed in this plan
    /// (so dense-only engines never pay the postings-walk calibration).
    /// Expected work is derived from sampled nnz/density statistics the
    /// same way the BMM prior derives FLOPs from the view's shape: each
    /// query touches one postings list per nonzero query factor, and each
    /// list holds `density × num_items` postings on average. Candidate
    /// selection and the exact rescore are data-dependent and covered by
    /// online sampling, like the top-k stage of the dense prior.
    fn analytical_sparse_seconds(&self, view: &ModelView, solvers: &[Arc<dyn MipsSolver>]) -> f64 {
        if solvers.iter().all(|s| s.name() != "Sparse-II") {
            return 0.0;
        }
        const SAMPLE_ROWS: usize = 256;
        let user_stats = mips_data::SparsityStats::sample(view.model().users(), SAMPLE_ROWS);
        let item_stats = mips_data::SparsityStats::sample(view.items(), SAMPLE_ROWS);
        let updates_per_query =
            user_stats.avg_nnz_per_row * item_stats.density * view.num_items() as f64;
        let updates = view.num_users() as f64 * updates_per_query;
        self.registry.analytical_sparse().predict_seconds(updates)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.snapshot();
        f.debug_struct("Engine")
            .field("model", &state.model.name())
            .field("epoch", &state.id)
            .field("backends", &self.registry.keys())
            .field("threads", &self.config.threads)
            .field("planner_runs", &self.planner_runs())
            .finish()
    }
}

/// Runs the request's user selection through the solver at the given `k`.
fn dispatch(
    model: &MfModel,
    solver: &dyn MipsSolver,
    threads: usize,
    users: &UserSelection,
    k: usize,
) -> Vec<TopKList> {
    match users {
        // All-users at one thread takes the solver's specialized query_all
        // path (MAXIMUS serves whole clusters in membership order there).
        UserSelection::All if threads == 1 => solver.query_all(k),
        UserSelection::All => par_query_range(solver, k, 0..model.num_users(), threads),
        UserSelection::Range(r) => par_query_range(solver, k, r.clone(), threads),
        UserSelection::Ids(ids) => par_query_subset(solver, k, ids, threads),
    }
}

/// Canonical one-vector scan: every item's [`dot_gemm_ordered`] score
/// pushed through a [`TopKHeap`] (ties to the smaller item id). This is
/// the reference every [`MipsSolver::query_vector`] implementation must
/// match bit for bit, and the fallback [`Engine::execute_vector`] serves
/// when no backend offers a point-lookup path.
fn scan_vector_topk(model: &MfModel, query: &[f64], k: usize) -> TopKList {
    let items = model.items();
    let mut heap = TopKHeap::new(k);
    for i in 0..items.rows() {
        heap.push(dot_gemm_ordered(query, items.row(i)), i as u32);
    }
    heap.into_sorted()
}

/// Serves one **already-validated** request with a concrete solver.
///
/// Shared by [`Engine::execute_with`], [`Engine::execute`], and
/// [`PreparedPlan::execute`], each of which validates exactly once before
/// calling in; both engine-level threading and exact exclusion handling
/// live here.
///
/// Exclusions are served exactly by widening `k`: a user's true top-k among
/// non-excluded items always sits within their top-(k + |exclusions|)
/// overall. The widening of the main batch is capped so one power user with
/// thousands of rated items cannot multiply the serve cost for everyone —
/// users whose exclusion count exceeds the cap are re-served individually
/// at their own width in a second, narrow pass.
pub(crate) fn serve(
    model: &MfModel,
    solver: &dyn MipsSolver,
    threads: usize,
    request: &QueryRequest,
    planned: bool,
    epoch: u64,
) -> Result<QueryResponse, MipsError> {
    debug_assert!(request.validate(model).is_ok(), "caller must validate");
    let start = Instant::now();
    let k = request.k;
    let num_items = model.num_items();

    let results = match request.exclude.as_ref().filter(|e| !e.is_empty()) {
        None => dispatch(model, solver, threads, &request.users, k),
        Some(e) => {
            let counts: Vec<usize> = request
                .selected_users_iter(model)
                .map(|u| e.count_for(u))
                .collect();
            let max_widen = counts.iter().copied().max().unwrap_or(0);
            // Cap the batch widening at max(k, 32): proportional to k so the
            // bulk pass does at most ~2x work, floored so moderate exclusion
            // lists never trigger the outlier pass.
            let bulk_widen = max_widen.min(k.max(32));
            let k_bulk = (k + bulk_widen).min(num_items);

            let raw = dispatch(model, solver, threads, &request.users, k_bulk);
            debug_assert_eq!(counts.len(), raw.len());
            let mut results: Vec<TopKList> = request
                .selected_users_iter(model)
                .zip(raw)
                .map(|(u, list)| filter_excluded(list, e.for_user(u), k))
                .collect();

            // Outlier pass: users whose exclusion list exceeds the bulk
            // widening need a wider query for exactness (unless the bulk
            // pass already ranked the whole catalog). Outliers are grouped
            // by the power-of-two ceiling of their needed width so each
            // user pays at most ~2x their own widening, never the widest
            // user's.
            if k_bulk < num_items {
                let mut groups: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
                for (pos, u) in request.selected_users_iter(model).enumerate() {
                    if counts[pos] > bulk_widen {
                        let k_user = (k + counts[pos]).min(num_items);
                        groups
                            .entry(k_user.next_power_of_two().min(num_items))
                            .or_default()
                            .push((pos, u));
                    }
                }
                for (k_out, members) in groups {
                    let ids: Vec<usize> = members.iter().map(|&(_, u)| u).collect();
                    let lists = par_query_subset(solver, k_out, &ids, threads);
                    for (&(pos, u), list) in members.iter().zip(lists) {
                        results[pos] = filter_excluded(list, e.for_user(u), k);
                    }
                }
            }
            results
        }
    };

    Ok(QueryResponse {
        results,
        backend: solver.name().to_string(),
        precision: solver.precision(),
        planned,
        epoch,
        serve_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Drops excluded items from a widened list and truncates to `k`.
fn filter_excluded(
    mut list: TopKList,
    excluded: &std::collections::HashSet<u32>,
    k: usize,
) -> TopKList {
    if excluded.is_empty() {
        // Exclusion-free users (the majority) keep their buffers: truncate
        // the widened list in place instead of rebuilding it.
        list.items.truncate(k);
        list.scores.truncate(k);
        return list;
    }
    let mut out = TopKList::empty();
    for (item, score) in list.iter() {
        if out.len() == k {
            break;
        }
        if !excluded.contains(&item) {
            out.items.push(item);
            out.scores.push(score);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::precision::ScanTier;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_linalg::CacheConfig;

    fn model(users: usize, items: usize) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: items,
            num_factors: 8,
            ..SynthConfig::default()
        }))
    }

    fn tiny_optimus() -> OptimusConfig {
        OptimusConfig {
            sample_fraction: 0.05,
            cache: CacheConfig {
                l1_bytes: 1024,
                l2_bytes: 2048,
                l3_bytes: 4096,
            },
            ..OptimusConfig::default()
        }
    }

    fn engine(users: usize, items: usize) -> Engine {
        EngineBuilder::new()
            .model(model(users, items))
            .with_default_backends()
            .optimus(tiny_optimus())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_each_bad_assembly() {
        assert!(matches!(
            EngineBuilder::new().with_default_backends().build(),
            Err(MipsError::InvalidConfig(_))
        ));
        assert_eq!(
            EngineBuilder::new().model(model(4, 6)).build().unwrap_err(),
            MipsError::NoBackends
        );
        assert!(matches!(
            EngineBuilder::new()
                .model(model(4, 6))
                .with_default_backends()
                .threads(0)
                .build(),
            Err(MipsError::InvalidConfig(_))
        ));
        assert_eq!(
            EngineBuilder::new()
                .model(model(4, 6))
                .register(BmmFactory)
                .register(BmmFactory)
                .build()
                .unwrap_err(),
            MipsError::DuplicateBackend { key: "bmm".into() }
        );
    }

    #[test]
    fn degenerate_backend_configs_are_typed_errors_not_panics() {
        use crate::maximus::MaximusConfig;
        let engine = EngineBuilder::new()
            .model(model(8, 12))
            .register(MaximusFactory::new(MaximusConfig {
                num_clusters: 0,
                ..MaximusConfig::default()
            }))
            .build()
            .expect("config errors surface at first use, not assembly");
        for _ in 0..2 {
            // Both attempts fail cleanly; the cache must not poison.
            let err = engine
                .execute(&QueryRequest::top_k(2))
                .expect_err("degenerate config cannot build");
            assert!(
                matches!(&err, MipsError::BackendBuild { key, .. } if key == "maximus"),
                "{err:?}"
            );
        }
        let lemp = LempFactory::new(mips_lemp::LempConfig {
            bucket_size: 0,
            ..mips_lemp::LempConfig::default()
        });
        assert!(matches!(
            lemp.build(&ModelView::full(&model(8, 12))),
            Err(MipsError::BackendBuild { .. })
        ));
    }

    #[test]
    fn panicking_custom_factory_does_not_poison_the_engine() {
        let engine = EngineBuilder::new()
            .model(model(8, 12))
            .register(FnFactory::new("boom", |_: &Arc<MfModel>| {
                panic!("factory exploded")
            }))
            .register(BmmFactory)
            .build()
            .unwrap();
        // The panic propagates to the first caller...
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_with("boom", &QueryRequest::top_k(2))
        }));
        assert!(first.is_err());
        // ...but the engine recovers: other backends serve, and retrying the
        // broken key panics with the factory's own message, not a poisoned
        // mutex.
        let ok = engine
            .execute_with("bmm", &QueryRequest::top_k(2))
            .expect("other backends unaffected");
        assert_eq!(ok.results.len(), 8);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_with("boom", &QueryRequest::top_k(2))
        }));
        let message = *second.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(message, "factory exploded");
    }

    #[test]
    fn replacing_the_registry_clears_earlier_registration_errors() {
        // A duplicate register() poisons the builder, but swapping in a
        // whole valid registry recovers it.
        let engine = EngineBuilder::new()
            .model(model(4, 6))
            .register(BmmFactory)
            .register(BmmFactory)
            .registry(BackendRegistry::with_defaults())
            .build()
            .expect("replaced registry is valid");
        assert_eq!(engine.backend_keys().len(), 6);
    }

    #[test]
    fn execute_with_matches_direct_solver_calls() {
        let m = model(40, 80);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let direct = BmmSolver::build(&ModelView::full(&m), ScanTier::F64).query_all(5);
        let via_engine = engine.execute_with("bmm", &QueryRequest::top_k(5)).unwrap();
        assert_eq!(via_engine.results, direct);
        assert_eq!(via_engine.backend, "Blocked MM");
        assert!(!via_engine.planned);
        // Every registered backend returns the same items.
        for key in engine.backend_keys() {
            let response = engine.execute_with(key, &QueryRequest::top_k(5)).unwrap();
            for (u, (got, want)) in response.results.iter().zip(&direct).enumerate() {
                assert_eq!(got.items, want.items, "{key} user {u}");
            }
        }
    }

    #[test]
    fn vector_queries_match_the_canonical_scan_on_both_routes() {
        let m = model(30, 70);
        // With the sparse backend registered, the inverted index serves.
        let with_sparse = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        // Without it, the engine falls back to the canonical scan.
        let without = EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(BmmFactory)
            .build()
            .unwrap();
        let direct = BmmSolver::build(&ModelView::full(&m), ScanTier::F64).query_all(5);
        for u in [0usize, 7, 29] {
            let request = VectorQueryRequest::dense(5, m.users().row(u).to_vec());
            let routed = with_sparse.execute_vector(&request).unwrap();
            let scanned = without.execute_vector(&request).unwrap();
            assert_eq!(routed.backend, "Sparse-II");
            assert_eq!(scanned.backend, "Blocked MM");
            assert!(!routed.planned && !scanned.planned);
            assert_eq!(routed.results.len(), 1);
            // Both routes are bit-identical to each other and to serving
            // the same vector as a stored user row.
            for response in [&routed, &scanned] {
                let got = &response.results[0];
                assert_eq!(got.items, direct[u].items, "user {u}");
                let gb: Vec<u64> = got.scores.iter().map(|s| s.to_bits()).collect();
                let wb: Vec<u64> = direct[u].scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(gb, wb, "score bits user {u}");
            }
        }
    }

    #[test]
    fn sparse_and_dense_vector_payloads_are_bit_identical() {
        use mips_data::sparse::SparseVec;
        let engine = engine(20, 50);
        // A mostly-zero query: the natural sparse-payload case.
        let mut dense = vec![0.0f64; 8];
        dense[1] = 0.75;
        dense[6] = -1.25;
        let via_dense = engine
            .execute_vector(&VectorQueryRequest::dense(4, dense.clone()))
            .unwrap();
        let via_sparse = engine
            .execute_vector(&VectorQueryRequest::sparse(
                4,
                SparseVec::from_dense(&dense),
            ))
            .unwrap();
        assert_eq!(via_dense.results, via_sparse.results);
        assert_eq!(via_dense.backend, via_sparse.backend);
    }

    #[test]
    fn vector_query_errors_are_typed() {
        let engine = engine(10, 20);
        assert_eq!(
            engine
                .execute_vector(&VectorQueryRequest::dense(0, vec![0.0; 8]))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: 20
            }
        );
        assert_eq!(
            engine
                .execute_vector(&VectorQueryRequest::dense(21, vec![0.0; 8]))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 21,
                num_items: 20
            }
        );
        assert!(matches!(
            engine
                .execute_vector(&VectorQueryRequest::dense(3, vec![0.0; 5]))
                .unwrap_err(),
            MipsError::InvalidVector(_)
        ));
        let mut bad = vec![0.0f64; 8];
        bad[2] = f64::NAN;
        let err = engine
            .execute_vector(&VectorQueryRequest::dense(3, bad))
            .unwrap_err();
        assert!(matches!(err, MipsError::InvalidVector(_)));
        assert_eq!(err.http_status(), 400);
    }

    #[test]
    fn selections_come_back_in_request_order() {
        let engine = engine(30, 50);
        let all = engine.execute_with("bmm", &QueryRequest::top_k(3)).unwrap();
        let range = engine
            .execute_with("bmm", &QueryRequest::top_k(3).users_range(10..20))
            .unwrap();
        assert_eq!(range.results.len(), 10);
        assert_eq!(range.results[0], all.results[10]);
        let ids = engine
            .execute_with("bmm", &QueryRequest::top_k(3).users(vec![7, 2, 7]))
            .unwrap();
        assert_eq!(ids.results.len(), 3);
        assert_eq!(ids.results[0], ids.results[2]);
        assert_eq!(ids.results[1], all.results[2]);
    }

    #[test]
    fn threads_are_invisible_to_results() {
        let m = model(61, 40);
        let sequential = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let threaded = EngineBuilder::new()
            .model(m)
            .with_default_backends()
            .threads(4)
            .build()
            .unwrap();
        for request in [
            QueryRequest::top_k(4),
            QueryRequest::top_k(4).users_range(3..49),
            QueryRequest::top_k(4).users(vec![0, 60, 17, 17, 33]),
        ] {
            let a = sequential.execute_with("maximus", &request).unwrap();
            let b = threaded.execute_with("maximus", &request).unwrap();
            assert_eq!(a.results, b.results);
        }
    }

    #[test]
    fn exclusions_remove_rated_items_exactly() {
        let m = model(12, 25);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let baseline = engine.execute_with("bmm", &QueryRequest::top_k(6)).unwrap();
        // Exclude user 3's top two items and user 5's top item.
        let mut exclusions = ExclusionSet::new();
        exclusions.insert(3, baseline.results[3].items[0]);
        exclusions.insert(3, baseline.results[3].items[1]);
        exclusions.insert(5, baseline.results[5].items[0]);
        let request = QueryRequest::top_k(6).exclude(exclusions.clone());
        for key in engine.backend_keys() {
            let response = engine.execute_with(key, &request).unwrap();
            // Excluded items are gone, results still k-long and sorted.
            for (u, list) in response.results.iter().enumerate() {
                assert_eq!(list.len(), 6, "{key} user {u}");
                assert!(list.is_sorted() || list.len() < 2);
                for item in &list.items {
                    assert!(
                        !exclusions.for_user(u).contains(item),
                        "{key} user {u} still sees excluded item {item}"
                    );
                }
            }
            // User 3's filtered top-6 = unfiltered ranks 3..=8.
            let widened = engine.execute_with("bmm", &QueryRequest::top_k(8)).unwrap();
            assert_eq!(response.results[3].items, widened.results[3].items[2..8]);
            assert_eq!(
                response.results[5].items[..5],
                baseline.results[5].items[1..6]
            );
            // Untouched users are unchanged.
            assert_eq!(response.results[0].items, baseline.results[0].items);
        }
    }

    #[test]
    fn power_user_exclusions_stay_exact_without_widening_the_batch() {
        // One user excludes far more items than the bulk-widening cap
        // (32 for small k): the engine must re-serve that user individually
        // and still return the exact filtered top-k for everyone.
        let m = model(10, 100);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let full = engine
            .execute_with("bmm", &QueryRequest::top_k(100))
            .unwrap();
        // User 4 excludes their top 50 items; user 6 excludes their top 2.
        let mut exclusions = ExclusionSet::new();
        for &item in &full.results[4].items[..50] {
            exclusions.insert(4, item);
        }
        exclusions.insert(6, full.results[6].items[0]);
        exclusions.insert(6, full.results[6].items[1]);
        let request = QueryRequest::top_k(4).exclude(exclusions);
        for key in engine.backend_keys() {
            let response = engine.execute_with(key, &request).unwrap();
            // Expected answers come straight off the full ranking.
            assert_eq!(
                response.results[4].items,
                full.results[4].items[50..54],
                "{key} power user"
            );
            assert_eq!(
                response.results[6].items,
                full.results[6].items[2..6],
                "{key} light user"
            );
            assert_eq!(
                response.results[0].items,
                full.results[0].items[..4],
                "{key} untouched user"
            );
        }
    }

    #[test]
    fn exclusions_near_catalog_size_shrink_results_without_error() {
        let m = model(4, 6);
        let engine = EngineBuilder::new()
            .model(m)
            .register(BmmFactory)
            .build()
            .unwrap();
        // Exclude all but one item for user 0 and ask for top-3: only one
        // item remains eligible.
        let exclusions = ExclusionSet::from_pairs((0..5u32).map(|i| (0usize, i)));
        let response = engine
            .execute_with("bmm", &QueryRequest::top_k(3).exclude(exclusions))
            .unwrap();
        assert_eq!(response.results[0].items, vec![5]);
        assert_eq!(response.results[1].len(), 3);
    }

    #[test]
    fn plans_are_cached_per_k_and_reused() {
        let engine = engine(120, 60);
        assert_eq!(engine.planner_runs(), 0);
        let first = engine.execute(&QueryRequest::top_k(5)).unwrap();
        assert!(first.planned);
        assert_eq!(engine.planner_runs(), 1);
        let second = engine
            .execute(&QueryRequest::top_k(5).users_range(0..40))
            .unwrap();
        assert_eq!(engine.planner_runs(), 1, "same k must not re-plan");
        assert_eq!(second.backend, first.backend);
        let _ = engine.execute(&QueryRequest::top_k(2)).unwrap();
        assert_eq!(engine.planner_runs(), 2, "new k plans once");
        let plan = engine.prepare(5).unwrap();
        assert_eq!(plan.planned_k(), 5);
        assert!(plan.estimates().len() == engine.backend_keys().len());
        assert!(plan.sample_size() >= 2);
    }

    #[test]
    fn planner_reference_is_the_batch_backend_regardless_of_registration_order() {
        // A point-query backend registered first must not become the
        // t-test timing reference: the planner samples the first
        // batch-capable backend first.
        let engine = EngineBuilder::new()
            .model(model(120, 60))
            .register(FexiproFactory::si())
            .register(BmmFactory)
            .optimus(tiny_optimus())
            .build()
            .unwrap();
        let plan = engine.prepare(3).unwrap();
        assert_eq!(plan.estimates()[0].name, "Blocked MM");
        assert_eq!(plan.estimates().len(), 2);
        assert!(["bmm", "fexipro-si"].contains(&plan.backend_key()));
    }

    #[test]
    fn single_backend_engine_skips_sampling() {
        let engine = EngineBuilder::new()
            .model(model(20, 30))
            .register(BmmFactory)
            .build()
            .unwrap();
        let plan = engine.prepare(4).unwrap();
        assert_eq!(plan.sample_size(), 0);
        assert_eq!(plan.backend_key(), "bmm");
        assert!(plan.estimates().is_empty());
        let response = plan.execute(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(response.results.len(), 20);
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        let engine = engine(10, 20);
        let bad = [
            QueryRequest::top_k(0),
            QueryRequest::top_k(21),
            QueryRequest::top_k(usize::MAX),
            QueryRequest::top_k(3).users(vec![10]),
            QueryRequest::top_k(3).users(vec![0, usize::MAX]),
            QueryRequest::top_k(3).users(Vec::new()),
            QueryRequest::top_k(3).users_range(7..7),
            QueryRequest::top_k(3).users_range(8..12),
        ];
        for request in &bad {
            assert!(engine.execute(request).is_err(), "{request:?}");
            assert!(engine.execute_with("bmm", request).is_err(), "{request:?}");
        }
        assert_eq!(
            engine
                .execute_with("nope", &QueryRequest::top_k(1))
                .unwrap_err(),
            MipsError::UnknownBackend { key: "nope".into() }
        );
        assert_eq!(
            engine.prepare(0).unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: 20
            }
        );
    }

    #[test]
    fn swap_model_installs_a_new_epoch_and_serves_it() {
        let a = model(30, 40);
        let b = Arc::new(synth_model(&SynthConfig {
            num_users: 30,
            num_items: 40,
            num_factors: 8,
            seed: 99,
            ..SynthConfig::default()
        }));
        let engine = EngineBuilder::new()
            .model(Arc::clone(&a))
            .register(BmmFactory)
            .build()
            .unwrap();
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.swap_count(), 0);
        let on_a = engine.execute(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(on_a.epoch, 0);

        let new_epoch = engine.swap_model(Arc::clone(&b)).unwrap();
        assert_eq!(new_epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.swap_count(), 1);
        let on_b = engine.execute(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(on_b.epoch, 1);

        // The swapped engine serves exactly what a fresh engine on the new
        // model serves.
        let reference = EngineBuilder::new()
            .model(b)
            .register(BmmFactory)
            .build()
            .unwrap();
        assert_eq!(
            on_b.results,
            reference.execute(&QueryRequest::top_k(4)).unwrap().results
        );
        assert_ne!(on_a.results, on_b.results, "distinct models must differ");
    }

    #[test]
    fn swap_resizes_the_model_and_requests_validate_against_the_new_shape() {
        let engine = EngineBuilder::new()
            .model(model(20, 30))
            .register(BmmFactory)
            .build()
            .unwrap();
        engine
            .execute(&QueryRequest::top_k(2).users(vec![19]))
            .unwrap();
        engine.swap_model(model(8, 12)).unwrap();
        // User 19 and k = 30 existed on epoch 0 but not on epoch 1.
        assert!(matches!(
            engine.execute(&QueryRequest::top_k(2).users(vec![19])),
            Err(MipsError::UserOutOfRange { user: 19, .. })
        ));
        assert!(matches!(
            engine.execute(&QueryRequest::top_k(30)),
            Err(MipsError::InvalidK { k: 30, .. })
        ));
        assert_eq!(
            engine
                .execute(&QueryRequest::top_k(12))
                .unwrap()
                .results
                .len(),
            8
        );
    }

    #[test]
    fn inflight_plans_keep_serving_their_epoch_bit_identically() {
        let a = model(40, 50);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&a))
            .register(BmmFactory)
            .build()
            .unwrap();
        let request = QueryRequest::top_k(5);
        let plan = engine.prepare(5).unwrap();
        let before = plan.execute(&request).unwrap();
        engine.swap_model(model(40, 50)).unwrap();
        // The held plan is pinned to epoch 0: same model, same results.
        assert_eq!(plan.epoch(), 0);
        let after = plan.execute(&request).unwrap();
        assert_eq!(after.results, before.results);
        assert_eq!(after.epoch, 0);
        // A fresh execute plans on the new epoch.
        assert_eq!(engine.execute(&request).unwrap().epoch, 1);
    }

    #[test]
    fn each_epoch_plans_once_and_old_epochs_are_reclaimed() {
        let engine = engine(60, 40);
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.planner_runs(), 1);
        let old_model = engine.model();
        let weak = Arc::downgrade(&old_model);
        drop(old_model);
        engine.swap_model(model(60, 40)).unwrap();
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.planner_runs(), 2, "the new epoch plans afresh");
        // Nothing still references epoch 0: its model, solvers, and plans
        // all dropped with the epoch.
        assert!(
            weak.upgrade().is_none(),
            "old epoch must be unreachable after the swap"
        );
    }

    #[test]
    fn non_finite_models_are_rejected_at_build_and_swap() {
        use mips_linalg::Matrix;
        let nan_users = Matrix::from_vec(2, 2, vec![1.0, f64::NAN, 0.0, 1.0]).unwrap();
        let items = Matrix::from_vec(3, 2, vec![1.0; 6]).unwrap();
        let bad = Arc::new(MfModel::new_unvalidated("nan", nan_users, items));
        assert!(matches!(
            EngineBuilder::new()
                .model(Arc::clone(&bad))
                .register(BmmFactory)
                .build(),
            Err(MipsError::InvalidConfig(msg)) if msg.contains("non-finite")
        ));
        let engine = engine(10, 10);
        assert!(matches!(
            engine.swap_model(bad),
            Err(MipsError::InvalidConfig(msg)) if msg.contains("non-finite")
        ));
        let inf_items = Matrix::from_vec(2, 2, vec![1.0, 2.0, f64::INFINITY, 0.5]).unwrap();
        let users = Matrix::from_vec(2, 2, vec![1.0; 4]).unwrap();
        let bad_items = Arc::new(MfModel::new_unvalidated("inf", users, inf_items));
        assert!(engine.swap_model(bad_items).is_err());
        // A failed swap leaves the serving epoch untouched.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.swap_count(), 0);
        assert!(engine.execute(&QueryRequest::top_k(2)).is_ok());
    }

    #[test]
    fn factor_width_mismatch_is_rejected_at_build_and_swap() {
        use mips_linalg::Matrix;
        // Users have 4 factors, items only 2: the dot kernels must never
        // see these rows, so both intake points reject with a typed error.
        let mismatched = Arc::new(MfModel::new_unvalidated(
            "ragged",
            Matrix::from_vec(2, 4, vec![0.5; 8]).unwrap(),
            Matrix::from_vec(3, 2, vec![0.5; 6]).unwrap(),
        ));
        assert!(matches!(
            EngineBuilder::new()
                .model(Arc::clone(&mismatched))
                .register(BmmFactory)
                .build(),
            Err(MipsError::InvalidConfig(msg)) if msg.contains("factors")
        ));
        let engine = engine(10, 10);
        assert!(matches!(
            engine.swap_model(mismatched),
            Err(MipsError::InvalidConfig(msg)) if msg.contains("factors")
        ));
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn swap_rejects_empty_models() {
        use mips_linalg::Matrix;
        let engine = engine(10, 10);
        let empty = Arc::new(MfModel::new_unvalidated(
            "empty",
            Matrix::<f64>::zeros(0, 2),
            Matrix::<f64>::zeros(3, 2),
        ));
        assert_eq!(engine.swap_model(empty).unwrap_err(), MipsError::EmptyModel);
    }

    #[test]
    fn shard_plans_cache_by_bounds_and_count_local_builds() {
        let engine = engine(60, 40);
        let state = engine.snapshot();
        let mut stats = ShardBuildStats::default();
        let plan = engine
            .prepare_shard_on(&state, &(0..30), 4, IndexScope::PerShard, &mut stats)
            .unwrap();
        assert_eq!(plan.shard_users(), Some(0..30));
        assert!(plan.uses_local_index());
        assert_eq!(plan.epoch(), 0);
        assert_eq!(stats.builds, 6, "six default backends built for the shard");
        assert!(stats.build_ns > 0);
        assert_eq!(plan.estimates().len(), 6);
        assert!(plan.analytical_bmm_seconds() > 0.0);

        // Same bounds + k: cache hit, no construction, same plan instance.
        let mut again_stats = ShardBuildStats::default();
        let again = engine
            .prepare_shard_on(&state, &(0..30), 4, IndexScope::PerShard, &mut again_stats)
            .unwrap();
        assert!(Arc::ptr_eq(&plan, &again));
        assert_eq!(again_stats.builds, 0);

        // Same bounds, new k: solvers reused, only planning happens.
        let mut new_k_stats = ShardBuildStats::default();
        let other_k = engine
            .prepare_shard_on(&state, &(0..30), 2, IndexScope::PerShard, &mut new_k_stats)
            .unwrap();
        assert_eq!(new_k_stats.builds, 0, "shard solvers are shared across k");
        assert_eq!(other_k.planned_k(), 2);

        // Different bounds: a separate tier entry with its own builds.
        let mut other_stats = ShardBuildStats::default();
        let other = engine
            .prepare_shard_on(&state, &(30..60), 4, IndexScope::PerShard, &mut other_stats)
            .unwrap();
        assert_eq!(other_stats.builds, 6);
        assert_eq!(other.shard_users(), Some(30..60));

        // Bad k surfaces as the same typed error as global planning.
        let mut err_stats = ShardBuildStats::default();
        assert!(matches!(
            engine.prepare_shard_on(&state, &(0..30), 0, IndexScope::PerShard, &mut err_stats),
            Err(MipsError::InvalidK { k: 0, .. })
        ));
    }

    #[test]
    fn auto_shard_plans_pit_the_global_winner_against_local_candidates() {
        let engine = engine(80, 40);
        let state = engine.snapshot();
        let mut stats = ShardBuildStats::default();
        let auto = engine
            .prepare_shard_on(&state, &(0..40), 3, IndexScope::Auto, &mut stats)
            .unwrap();
        // Candidates: the global plan's winner plus one local solver per
        // registered backend.
        assert_eq!(auto.estimates().len(), engine.backend_keys().len() + 1);
        assert_eq!(stats.builds, 6);
        // Auto planning forced the global plan into existence too.
        assert!(engine.prepare(3).unwrap().shard_users().is_none());
        // The recorded decision tells whether this shard went local.
        let _went_local = auto.uses_local_index();
    }

    #[test]
    fn analytical_prior_calibrates_once_across_epochs_and_shards() {
        let engine = engine(60, 40);
        assert_eq!(engine.registry().calibration_runs(), 0);
        let plan = engine.prepare(3).unwrap();
        assert!(plan.analytical_bmm_seconds() > 0.0);
        assert_eq!(engine.registry().calibration_runs(), 1);
        // Shard plans on the same engine reuse the rate...
        let state = engine.snapshot();
        let mut stats = ShardBuildStats::default();
        let shard_plan = engine
            .prepare_shard_on(&state, &(0..30), 3, IndexScope::PerShard, &mut stats)
            .unwrap();
        assert!(shard_plan.analytical_bmm_seconds() > 0.0);
        assert!(
            shard_plan.analytical_bmm_seconds() < plan.analytical_bmm_seconds(),
            "the prior is sized to the view (half the users)"
        );
        assert_eq!(engine.registry().calibration_runs(), 1);
        // ...and so does a fresh epoch: no per-epoch recalibration.
        engine.swap_model(model(60, 40)).unwrap();
        engine.prepare(3).unwrap();
        assert_eq!(engine.registry().calibration_runs(), 1);
    }

    #[test]
    fn forced_i8_rescore_on_screenless_backend_degrades_to_f64() {
        let engine = EngineBuilder::new()
            .model(model(20, 40))
            .register(FexiproFactory::si())
            .precision(Precision::I8Rescore)
            .build()
            .unwrap();
        let response = engine.execute(&QueryRequest::top_k(3)).unwrap();
        // FEXIPRO has no screen path: the request is served f64-direct
        // and the response says so.
        assert_eq!(response.precision, Precision::F64);
        assert_eq!(response.backend, "FEXIPRO-SI");
    }

    #[test]
    fn screen_winner_within_margin_is_demoted_to_its_f64_base() {
        let estimate = |name: &str, secs: f64| crate::optimus::StrategyEstimate {
            name: name.to_string(),
            build_seconds: 0.0,
            sampled_users: 8,
            sample_seconds: secs / 10.0,
            estimated_total_seconds: secs,
        };
        // Screen barely ahead of its base (within the noise margin): the
        // exact-direct incumbent keeps the plan.
        let noisy = [estimate("LEMP", 1.00), estimate("LEMP+i8", 0.95)];
        assert_eq!(demote_marginal_screen_winner(&noisy, 1), Some(0));
        // Screen clearly faster than the margin: adoption stands.
        let clear = [estimate("LEMP", 1.00), estimate("LEMP+i8", 0.60)];
        assert_eq!(demote_marginal_screen_winner(&clear, 1), None);
        // Exactly at the margin boundary counts as clearly faster (the
        // demotion predicate is strict).
        let edge = [
            estimate("LEMP", 1.00),
            estimate("LEMP+i8", SCREEN_ADOPTION_MARGIN),
        ];
        assert_eq!(demote_marginal_screen_winner(&edge, 1), None);
        // Sub-millisecond requests: even a clear relative win saves less
        // absolute time than the noise floor — the incumbent keeps it.
        let tiny = [estimate("LEMP", 900e-6), estimate("LEMP+i8", 500e-6)];
        assert_eq!(demote_marginal_screen_winner(&tiny, 1), Some(0));
        // Forced-i8 mode: screens run under plain keys, so a suffixed
        // winner has no base twin — nothing to demote to.
        let forced = [estimate("Blocked MM", 1.0), estimate("Maximus+i8", 0.99)];
        assert_eq!(demote_marginal_screen_winner(&forced, 1), None);
    }

    #[test]
    fn auto_mode_competes_screen_variants_as_extra_candidates() {
        let engine = EngineBuilder::new()
            .model(model(60, 80))
            .with_default_backends()
            .optimus(tiny_optimus())
            .precision(Precision::Auto)
            .build()
            .unwrap();
        let plan = engine.prepare(4).unwrap();
        // The registry backends + one screen variant per screening backend
        // (bmm, maximus, lemp).
        assert_eq!(plan.estimates().len(), engine.registry().keys().len() + 3);
        let names: Vec<&str> = plan.estimates().iter().map(|e| e.name.as_str()).collect();
        for screened in ["Blocked MM+i8", "Maximus+i8", "LEMP+i8"] {
            assert!(names.contains(&screened), "{screened} missing in {names:?}");
        }
        // Whatever Auto picked, results match the pure-f64 engine's winner
        // item-for-item (scores are backend-reduction-specific, so compare
        // membership here; bit-identity per backend is covered elsewhere).
        let request = QueryRequest::top_k(4);
        let auto = plan.execute(&request).unwrap();
        let f64_engine = EngineBuilder::new()
            .model(model(60, 80))
            .register(BmmFactory)
            .build()
            .unwrap();
        let want = f64_engine.execute(&request).unwrap();
        for (g, w) in auto.results.iter().zip(&want.results) {
            assert_eq!(g.items, w.items);
        }
        assert!(plan.analytical_bmm_seconds() > 0.0);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Arc::new(engine(50, 40));
        crate::sync::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let response = engine.execute(&QueryRequest::top_k(3)).unwrap();
                    assert_eq!(response.results.len(), 50);
                });
            }
        });
        // Concurrent first touches at one k may race the planner (builds
        // install compare-and-swap style rather than convoying behind one
        // lock), but the cache settles on a single plan...
        let racers = engine.planner_runs();
        assert!((1..=4).contains(&racers), "{racers} planner runs");
        // ...so a later execute at the same k never plans again.
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.planner_runs(), racers);
    }
}
