//! Prepared query plans: OPTIMUS as the engine's query planner.
//!
//! Planning (building candidate backends and timing them on a user sample)
//! is expensive relative to one request, so the engine runs it once per
//! `k` and caches the decision in a [`PreparedPlan`]. Subsequent requests
//! through the plan — or through [`super::Engine::execute`], which caches
//! plans internally — reuse the winning backend without re-sampling.

use super::error::MipsError;
use super::request::{QueryRequest, QueryResponse};
use crate::optimus::StrategyEstimate;
use crate::precision::Precision;
use crate::solver::MipsSolver;
use crate::sync::Arc;
use mips_data::MfModel;
use std::ops::Range;

/// A cached planning decision: the winning backend plus the evidence the
/// planner used to pick it.
///
/// A plan is either **global** (sampled over the whole model, the winner
/// serves any user) or **shard-scoped** ([`PreparedPlan::shard_users`] is
/// set): sampled over one contiguous user range, its winner serves exactly
/// that range — in global user ids — and may be a shard-local index built
/// over a [`ModelView`](mips_data::ModelView) of the range.
pub struct PreparedPlan {
    pub(super) model: Arc<MfModel>,
    pub(super) winner: Arc<dyn MipsSolver>,
    pub(super) backend_key: String,
    pub(super) planned_k: usize,
    pub(super) threads: usize,
    /// The model epoch this plan was sampled on. The plan pins that
    /// epoch's model and solver, so it keeps serving bit-identically after
    /// an [`Engine::swap_model`](super::Engine::swap_model) — new plans are
    /// prepared lazily on the new epoch.
    pub(super) epoch: u64,
    /// Per-candidate estimates, in registry order; empty when only one
    /// backend was registered and no sampling was needed.
    pub(super) estimates: Vec<StrategyEstimate>,
    pub(super) sample_size: usize,
    pub(super) decision_seconds: f64,
    /// The contiguous user range the plan was sampled for, when the plan
    /// is shard-scoped; `None` for whole-model plans.
    pub(super) shard_users: Option<Range<usize>>,
    /// Whether the winning solver is a shard-local index (built over the
    /// shard's view) rather than a shared global one. Always `false` for
    /// global plans; under `IndexScope::Auto` this records the per-shard
    /// decision.
    pub(super) local_index: bool,
    /// The §IV-A analytical prior: predicted seconds for the BMM multiply
    /// stage over the plan's users, from the registry's calibrated FLOP
    /// rate. `0.0` when planning skipped sampling (single candidate).
    pub(super) analytical_bmm_seconds: f64,
    /// The numeric mode the winning solver actually serves through. Under
    /// [`Precision::Auto`] this records the planner's per-plan decision;
    /// under a forced mode it records the effective value (a backend
    /// without a screen path reports [`Precision::F64`] even when
    /// `I8Rescore` was requested).
    pub(super) precision: Precision,
    /// The analytical prior for the sparse inverted-index accumulation
    /// stage: predicted seconds for serving every user the plan covers,
    /// from the calibrated postings-walk rate scaled by sampled nnz/density
    /// statistics. `0.0` when no sparse candidate competed.
    pub(super) analytical_sparse_seconds: f64,
}

impl PreparedPlan {
    /// Registry key of the backend the planner chose.
    pub fn backend_key(&self) -> &str {
        &self.backend_key
    }

    /// Display name of the chosen backend's solver.
    pub fn backend_name(&self) -> &str {
        self.winner.name()
    }

    /// The `k` the plan was sampled at. Requests with other `k` values are
    /// still served (the decision generalizes), but the estimates below
    /// were measured at this `k`.
    pub fn planned_k(&self) -> usize {
        self.planned_k
    }

    /// The planner's per-candidate timing estimates (empty when the
    /// registry held a single backend and sampling was skipped).
    pub fn estimates(&self) -> &[StrategyEstimate] {
        &self.estimates
    }

    /// Users sampled to reach the decision (0 when sampling was skipped).
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// The model epoch the plan was prepared on (and serves from).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wall-clock seconds the planning phase took.
    pub fn decision_seconds(&self) -> f64 {
        self.decision_seconds
    }

    /// The contiguous user range a shard-scoped plan covers (`None` for
    /// whole-model plans).
    pub fn shard_users(&self) -> Option<Range<usize>> {
        self.shard_users.clone()
    }

    /// `true` when the winning solver is a shard-local index built over
    /// the shard's user view (as opposed to the shared global solver).
    pub fn uses_local_index(&self) -> bool {
        self.local_index
    }

    /// The analytical BMM prior recorded at planning time: predicted
    /// multiply-stage seconds for serving every user the plan covers, from
    /// the registry's calibrated (per-kernel, cached) FLOP rate. `0.0`
    /// when planning skipped sampling.
    pub fn analytical_bmm_seconds(&self) -> f64 {
        self.analytical_bmm_seconds
    }

    /// The analytical prior for the sparse inverted-index accumulation
    /// stage, when a sparse candidate competed in this plan (`0.0`
    /// otherwise): calibrated postings-walk rate × expected touched
    /// postings from sampled nnz/density statistics.
    pub fn analytical_sparse_seconds(&self) -> f64 {
        self.analytical_sparse_seconds
    }

    /// The numeric mode the plan's winner serves through — the effective
    /// (per-plan, under `Auto`) precision decision. Results are
    /// bit-identical across modes; this is a performance annotation.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The chosen backend's solver, for direct (legacy-style) access.
    pub fn solver(&self) -> &dyn MipsSolver {
        self.winner.as_ref()
    }

    /// The model the plan serves (shared with the engine that prepared it).
    pub(crate) fn model(&self) -> &Arc<MfModel> {
        &self.model
    }

    /// Serves one request with the cached winning backend — no re-planning,
    /// no re-sampling.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, MipsError> {
        request.validate(&self.model)?;
        self.execute_prevalidated(request)
    }

    /// [`PreparedPlan::execute`] for callers that already validated the
    /// request against this plan's model (avoids a second validation scan).
    pub(super) fn execute_prevalidated(
        &self,
        request: &QueryRequest,
    ) -> Result<QueryResponse, MipsError> {
        super::serve(
            &self.model,
            self.winner.as_ref(),
            self.threads,
            request,
            true,
            self.epoch,
        )
    }
}

impl std::fmt::Debug for PreparedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedPlan")
            .field("backend_key", &self.backend_key)
            .field("planned_k", &self.planned_k)
            .field("epoch", &self.epoch)
            .field("sample_size", &self.sample_size)
            .field("decision_seconds", &self.decision_seconds)
            .field("shard_users", &self.shard_users)
            .field("local_index", &self.local_index)
            .field("precision", &self.precision)
            .finish()
    }
}
