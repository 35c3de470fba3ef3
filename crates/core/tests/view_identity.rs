//! Property: a [`ModelView`] covering the **full** user range is
//! indistinguishable from the un-viewed model — for every registered
//! backend, building over the view produces byte-identical solver
//! behaviour (same names, same user counts, bit-identical results at every
//! k), and planning over the full-range view reaches the same decisions
//! and serves bit-identically.

use mips_core::engine::{BackendRegistry, EngineBuilder, IndexScope, QueryRequest};
use mips_core::serve::ServerBuilder;
use mips_data::{MfModel, ModelView};
use mips_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

fn random_model(n_users: usize, n_items: usize, f: usize, seed: u64) -> Arc<MfModel> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    };
    let users = Matrix::from_fn(n_users, f, |_, _| next());
    let items = Matrix::from_fn(n_items, f, |_, _| next());
    Arc::new(MfModel::new("prop", users, items).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Solver state: a build over the full view ≡ a build over a full view
    /// of an equal, separately allocated model, for every registered
    /// backend, bit for bit — builds depend on the factors alone.
    #[test]
    fn full_view_builds_are_byte_identical_to_model_builds(
        n_users in 2usize..14,
        n_items in 2usize..50,
        f in 1usize..9,
        k in 1usize..7,
        seed in 0u64..300,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let view = ModelView::full(&model);
        prop_assert!(view.is_full());
        for factory in BackendRegistry::with_defaults().factories() {
            let viewed = factory.build(&view).expect("view build");
            let copy = Arc::new(MfModel::clone(&model));
            let direct = factory.build(&ModelView::full(&copy)).expect("model build");
            prop_assert_eq!(viewed.name(), direct.name());
            prop_assert_eq!(viewed.num_users(), direct.num_users());
            prop_assert_eq!(viewed.batches_users(), direct.batches_users());
            for k in [k.min(n_items), 1, n_items] {
                prop_assert_eq!(
                    viewed.query_all(k),
                    direct.query_all(k),
                    "{} diverged at k={}", factory.key(), k
                );
                let probe: Vec<usize> = vec![0, n_users - 1, 0];
                prop_assert_eq!(
                    viewed.query_subset(k, &probe),
                    direct.query_subset(k, &probe),
                    "{} subset diverged at k={}", factory.key(), k
                );
            }
        }
    }

    /// Plans: a one-shard `PerShard` server (whose single shard's view IS
    /// the full user range) picks the same backend and serves bit-identical
    /// results to the global engine, for every backend registered alone.
    #[test]
    fn full_range_shard_plans_match_global_plans(
        n_users in 4usize..20,
        n_items in 4usize..40,
        f in 1usize..6,
        seed in 0u64..200,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let k = (n_items / 2).max(1);
        for factory in BackendRegistry::with_defaults().factories() {
            let engine = Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&model))
                    .register_arc(Arc::clone(factory))
                    .build()
                    .unwrap(),
            );
            let global_plan = engine.prepare(k).unwrap();
            let expected = engine.execute(&QueryRequest::top_k(k)).unwrap();
            let server = ServerBuilder::new()
                .engine(Arc::clone(&engine))
                .shards(1)
                .workers(1)
                .index_scope(IndexScope::PerShard)
                .build()
                .unwrap();
            let served = server.execute(&QueryRequest::top_k(k)).unwrap();
            prop_assert_eq!(served.results, expected.results, "{}", factory.key());
            prop_assert_eq!(served.backend, expected.backend);
            // Single backend: the shard plan's decision trivially matches.
            prop_assert_eq!(global_plan.backend_key(), factory.key());
            server.shutdown().unwrap();
        }
    }
}
