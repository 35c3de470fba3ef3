//! The open backend registry.
//!
//! A backend is anything implementing [`SolverFactory`], registered under a
//! string key. The built-in solvers ship as factories ([`BmmFactory`],
//! [`MaximusFactory`], [`LempFactory`], [`FexiproFactory`]), and downstream
//! crates can register their own with [`FnFactory`] or a custom type — the
//! planner treats all of them alike.

use super::error::MipsError;
use crate::adapters::{FexiproSolver, LempSolver, SparseSolver};
use crate::bmm::BmmSolver;
use crate::maximus::{MaximusConfig, MaximusIndex};
use crate::precision::ScanTier;
use crate::solver::MipsSolver;
use crate::sync::Arc;
use mips_data::{MfModel, ModelView};
use mips_fexipro::FexiproConfig;
use mips_lemp::LempConfig;
use mips_sparse::SparseConfig;

/// Builds solvers for one backend family.
///
/// Factories are cheap, immutable descriptions; index construction happens
/// in [`SolverFactory::build`] and is timed by the produced solver
/// (`MipsSolver::build_seconds`).
pub trait SolverFactory: Send + Sync {
    /// Stable registry key (`"bmm"`, `"maximus"`, `"lemp"`, …).
    fn key(&self) -> &str;

    /// Constructs a solver over a contiguous user-range view of a model.
    /// The produced solver addresses users by **local** row
    /// (`0..view.num_users()`); a [`ModelView::full`] view serves the whole
    /// model. Factories whose solver only speaks [`MfModel`] call
    /// [`ModelView::to_model`], which hands a full view's model back with
    /// no copy and materializes a proper slice with one `memcpy` of the
    /// contiguous factor block.
    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError>;

    /// Constructs the int8-screen variant of this backend over `view` —
    /// scans run exact integer dots over symmetric int8 codes with a
    /// quantization envelope, survivors are rescored in f64, results stay
    /// bit-identical (see [`mips_topk::screen_i8`]). `None` (the default)
    /// means the backend has no screen path: the engine then serves it
    /// f64-direct under every [`Precision`](crate::precision::Precision)
    /// setting.
    fn build_screen(&self, _view: &ModelView) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        None
    }
}

/// Factory for the brute-force blocked matrix multiply.
#[derive(Debug, Clone, Default)]
pub struct BmmFactory;

impl SolverFactory for BmmFactory {
    fn key(&self) -> &str {
        "bmm"
    }

    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError> {
        // Zero-copy: the solver reads the parent factor matrix through the
        // view's offset, no sub-model is materialized.
        Ok(Box::new(BmmSolver::build(view, ScanTier::F64)))
    }

    fn build_screen(&self, view: &ModelView) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        // Zero-copy like `build`; the int8 mirror is shared with the parent
        // model, so sibling shards reuse one quantization pass.
        Some(Ok(Box::new(BmmSolver::build(view, ScanTier::I8))))
    }
}

/// Factory for the MAXIMUS index with a fixed configuration.
#[derive(Debug, Clone, Default)]
pub struct MaximusFactory {
    /// Index parameters used for every build.
    pub config: MaximusConfig,
}

impl MaximusFactory {
    /// A factory with the given parameters.
    pub fn new(config: MaximusConfig) -> MaximusFactory {
        MaximusFactory { config }
    }
}

impl MaximusFactory {
    /// Builds the index at `tier`, surfacing the config checks
    /// `MaximusIndex::build` would otherwise assert on as typed errors.
    fn build_tier(
        &self,
        view: &ModelView,
        tier: ScanTier,
    ) -> Result<Box<dyn MipsSolver>, MipsError> {
        for (value, name) in [
            (self.config.num_clusters, "num_clusters"),
            (self.config.kmeans_iters, "kmeans_iters"),
            (self.config.block_size, "block_size"),
        ] {
            if value == 0 {
                return Err(MipsError::BackendBuild {
                    key: "maximus".to_string(),
                    message: format!("MaximusConfig: {name} must be > 0"),
                });
            }
        }
        Ok(Box::new(MaximusIndex::build(
            view.to_model(),
            &self.config,
            tier,
        )))
    }
}

impl SolverFactory for MaximusFactory {
    fn key(&self) -> &str {
        "maximus"
    }

    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError> {
        self.build_tier(view, ScanTier::F64)
    }

    fn build_screen(&self, view: &ModelView) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        Some(self.build_tier(view, ScanTier::I8))
    }

    // Shard-local builds (over a proper view) keep `num_clusters` as
    // configured, so a view covering a fraction of the users gets
    // proportionally *finer* clustering — tighter θ_b, harder pruning on
    // norm-skewed catalogs, at the cost of some §III-D work-sharing on
    // flat ones. That diversity is deliberate: it gives `IndexScope::Auto`
    // a local candidate that is genuinely different from the global index,
    // and the per-shard OPTIMUS run decides from measurements which one a
    // shard keeps. (Scaling clusters down to the view's user fraction was
    // measured to flatten both the cost *and* the win to parity.)
}

/// Factory for the LEMP baseline with a fixed configuration.
#[derive(Debug, Clone, Default)]
pub struct LempFactory {
    /// Index parameters used for every build.
    pub config: LempConfig,
}

impl LempFactory {
    /// A factory with the given parameters.
    pub fn new(config: LempConfig) -> LempFactory {
        LempFactory { config }
    }
}

impl LempFactory {
    /// Builds the index at `tier`, surfacing the config checks
    /// `LempIndex::build` would otherwise assert on as typed errors.
    fn build_tier(
        &self,
        view: &ModelView,
        tier: ScanTier,
    ) -> Result<Box<dyn MipsSolver>, MipsError> {
        if self.config.bucket_size == 0 {
            return Err(MipsError::BackendBuild {
                key: "lemp".to_string(),
                message: "LempConfig: bucket_size must be > 0".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.config.checkpoint_fraction) {
            return Err(MipsError::BackendBuild {
                key: "lemp".to_string(),
                message: format!(
                    "LempConfig: checkpoint_fraction must be in [0, 1], got {}",
                    self.config.checkpoint_fraction
                ),
            });
        }
        Ok(Box::new(LempSolver::build(
            view.to_model(),
            &self.config,
            tier,
        )))
    }
}

impl SolverFactory for LempFactory {
    fn key(&self) -> &str {
        "lemp"
    }

    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError> {
        self.build_tier(view, ScanTier::F64)
    }

    fn build_screen(&self, view: &ModelView) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        Some(self.build_tier(view, ScanTier::I8))
    }
}

/// Factory for FEXIPRO; the key distinguishes the SI and SIR presets.
#[derive(Debug, Clone)]
pub struct FexiproFactory {
    key: &'static str,
    config: FexiproConfig,
}

impl FexiproFactory {
    /// SVD + integer pruning (the paper's FEXIPRO-SI).
    pub fn si() -> FexiproFactory {
        FexiproFactory {
            key: "fexipro-si",
            config: FexiproConfig::si(),
        }
    }

    /// All pruning stages (the paper's FEXIPRO-SIR).
    pub fn sir() -> FexiproFactory {
        FexiproFactory {
            key: "fexipro-sir",
            config: FexiproConfig::sir(),
        }
    }
}

impl SolverFactory for FexiproFactory {
    fn key(&self) -> &str {
        self.key
    }

    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError> {
        Ok(Box::new(FexiproSolver::build(
            view.to_model(),
            &self.config,
        )))
    }
}

/// Factory for the sparse inverted-index backend with a fixed
/// configuration — the registry's first non-scan access pattern.
#[derive(Debug, Clone, Default)]
pub struct SparseFactory {
    /// Index parameters used for every build (pruning threshold, hybrid
    /// dense/sparse column split).
    pub config: SparseConfig,
}

impl SparseFactory {
    /// A factory with the given parameters.
    pub fn new(config: SparseConfig) -> SparseFactory {
        SparseFactory { config }
    }

    /// The config checks `InvertedIndex::build` would otherwise panic on,
    /// surfaced as typed errors.
    fn validate_config(&self) -> Result<(), MipsError> {
        self.config
            .validate()
            .map_err(|message| MipsError::BackendBuild {
                key: "sparse".to_string(),
                message: format!("SparseConfig: {message}"),
            })
    }
}

impl SolverFactory for SparseFactory {
    fn key(&self) -> &str {
        "sparse"
    }

    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError> {
        self.validate_config()?;
        Ok(Box::new(SparseSolver::build(view.to_model(), &self.config)))
    }
}

/// Adapts a closure into a [`SolverFactory`] — the quickest way to register
/// a custom backend. The closure receives the model the view covers
/// ([`ModelView::to_model`]).
pub struct FnFactory<F> {
    key: String,
    build: F,
}

impl<F> FnFactory<F>
where
    F: Fn(&Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> + Send + Sync,
{
    /// A factory calling `build` under the given key.
    pub fn new(key: impl Into<String>, build: F) -> FnFactory<F> {
        FnFactory {
            key: key.into(),
            build,
        }
    }
}

impl<F> SolverFactory for FnFactory<F>
where
    F: Fn(&Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> + Send + Sync,
{
    fn key(&self) -> &str {
        &self.key
    }

    fn build(&self, view: &ModelView) -> Result<Box<dyn MipsSolver>, MipsError> {
        (self.build)(&view.to_model())
    }
}

/// An ordered, key-unique set of backends.
///
/// Order matters: the planner times candidates in registration order,
/// except that the first batch-capable backend (BMM) goes first as the
/// timing reference for its t-test, and reports their estimates in
/// registration order.
#[derive(Clone, Default)]
pub struct BackendRegistry {
    factories: Vec<Arc<dyn SolverFactory>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry::default()
    }

    /// The registry of all built-in backends with default parameters:
    /// `bmm`, `maximus`, `lemp`, `fexipro-si`, `fexipro-sir`, `sparse`.
    pub fn with_defaults() -> BackendRegistry {
        BackendRegistry::with_defaults_configured(SparseConfig::default())
    }

    /// [`BackendRegistry::with_defaults`] with the sparse backend's knobs
    /// taken from `sparse` — how `EngineOptions.sparse` reaches the default
    /// registration path.
    pub fn with_defaults_configured(sparse: SparseConfig) -> BackendRegistry {
        let mut registry = BackendRegistry::new();
        registry
            .register(Arc::new(BmmFactory))
            .and_then(|r| r.register(Arc::new(MaximusFactory::default())))
            .and_then(|r| r.register(Arc::new(LempFactory::default())))
            .and_then(|r| r.register(Arc::new(FexiproFactory::si())))
            .and_then(|r| r.register(Arc::new(FexiproFactory::sir())))
            .and_then(|r| r.register(Arc::new(SparseFactory::new(sparse))))
            .expect("default keys are unique");
        registry
    }

    /// Registers a backend; fails on a duplicate key.
    pub fn register(
        &mut self,
        factory: Arc<dyn SolverFactory>,
    ) -> Result<&mut BackendRegistry, MipsError> {
        if self.get(factory.key()).is_some() {
            return Err(MipsError::DuplicateBackend {
                key: factory.key().to_string(),
            });
        }
        self.factories.push(factory);
        Ok(self)
    }

    /// Looks a backend up by key.
    pub fn get(&self, key: &str) -> Option<&Arc<dyn SolverFactory>> {
        self.factories.iter().find(|f| f.key() == key)
    }

    /// Registered keys, in registration order.
    pub fn keys(&self) -> Vec<&str> {
        self.factories.iter().map(|f| f.key()).collect()
    }

    /// The factories, in registration order.
    pub fn factories(&self) -> &[Arc<dyn SolverFactory>] {
        &self.factories
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("keys", &self.keys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 12,
            num_items: 30,
            num_factors: 6,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn defaults_cover_all_builtins_in_order() {
        let registry = BackendRegistry::with_defaults();
        assert_eq!(
            registry.keys(),
            vec![
                "bmm",
                "maximus",
                "lemp",
                "fexipro-si",
                "fexipro-sir",
                "sparse"
            ]
        );
        let m = model();
        for factory in registry.factories() {
            let solver = factory.build(&ModelView::full(&m)).expect("builtin builds");
            assert_eq!(solver.num_users(), 12);
            assert_eq!(solver.query_all(2).len(), 12);
        }
    }

    #[test]
    fn every_builtin_builds_over_a_view_identically_to_the_sliced_model() {
        let registry = BackendRegistry::with_defaults();
        let m = model();
        let view = ModelView::of_range(&m, 3..9);
        for factory in registry.factories() {
            let over_view = factory.build(&view).expect("view build");
            let over_model = factory
                .build(&ModelView::full(&view.to_model()))
                .expect("model build");
            assert_eq!(over_view.num_users(), 6, "{}", factory.key());
            assert_eq!(
                over_view.query_all(3),
                over_model.query_all(3),
                "{} view build must match the materialized sub-model",
                factory.key()
            );
        }
    }

    #[test]
    fn screen_i8_builds_cover_the_scan_backends_and_stay_bit_identical() {
        let registry = BackendRegistry::with_defaults();
        let m = model();
        for factory in registry.factories() {
            let has_i8 = matches!(factory.key(), "bmm" | "maximus" | "lemp");
            match factory.build_screen(&ModelView::full(&m)) {
                None => assert!(!has_i8, "{} lost its i8 path", factory.key()),
                Some(built) => {
                    assert!(has_i8, "{} unexpectedly screens in i8", factory.key());
                    let screened = built.expect("i8 screen build");
                    assert_eq!(
                        screened.precision(),
                        crate::precision::Precision::I8Rescore,
                        "{}",
                        factory.key()
                    );
                    let plain = factory.build(&ModelView::full(&m)).expect("plain build");
                    let want = plain.query_all(3);
                    let got = screened.query_all(3);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.items, w.items, "{}", factory.key());
                        for (a, b) in g.scores.iter().zip(&w.scores) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{}", factory.key());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let mut registry = BackendRegistry::with_defaults();
        let err = registry.register(Arc::new(BmmFactory)).unwrap_err();
        assert_eq!(err, MipsError::DuplicateBackend { key: "bmm".into() });
    }

    #[test]
    fn fn_factory_registers_custom_backends() {
        let mut registry = BackendRegistry::new();
        registry
            .register(Arc::new(FnFactory::new(
                "custom-bmm",
                |m: &Arc<MfModel>| {
                    Ok(
                        Box::new(BmmSolver::build(&ModelView::full(m), ScanTier::F64))
                            as Box<dyn MipsSolver>,
                    )
                },
            )))
            .unwrap();
        assert_eq!(registry.keys(), vec!["custom-bmm"]);
        let solver = registry
            .get("custom-bmm")
            .unwrap()
            .build(&ModelView::full(&model()))
            .unwrap();
        assert_eq!(solver.name(), "Blocked MM");
    }
}
