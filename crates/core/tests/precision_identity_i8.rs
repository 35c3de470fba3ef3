//! Property: [`Precision::I8Rescore`] is an execution-strategy change,
//! never a results change. For every registered backend, forcing the int8
//! screen + exact f64 rescore path must reproduce the pure-f64 engine's
//! ids **and score bits** exactly — across named dispatch, planned
//! dispatch, `Auto` competition, per-shard serving, model swaps, and
//! adversarial corpora built to stress the quantization envelope
//! (near-ties far below int8 resolution, exact duplicates, magnitudes that
//! push the per-row scales to their extremes, and near-cancelling dots
//! where the L1-driven envelope dwarfs the score).
//!
//! The int8 screen is *kernel-invariant* — integer dots are exact in i32,
//! so the screen scores and candidate sets are identical across AVX2,
//! NEON, and scalar (pinned at the `mips-topk` layer); running this suite
//! under `MIPS_KERNEL=scalar` in CI therefore checks the same contract
//! over the portable kernels.

use mips_core::engine::{
    BackendRegistry, Engine, EngineBuilder, IndexScope, QueryRequest, QueryResponse,
};
use mips_core::precision::Precision;
use mips_core::serve::ServerBuilder;
use mips_data::MfModel;
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

fn engine_at(model: &Arc<MfModel>, precision: Precision) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(model))
            .with_default_backends()
            .precision(precision)
            .build()
            .unwrap(),
    )
}

/// Collapses a response to `(items, score bits)` rows — `f64` equality
/// would accept `-0.0 == 0.0` and reject `NaN == NaN`; bit equality is the
/// contract the mixed-precision path promises.
fn bits(response: &QueryResponse) -> Vec<(Vec<u32>, Vec<u64>)> {
    response
        .results
        .iter()
        .map(|list| {
            (
                list.items.clone(),
                list.scores.iter().map(|s| s.to_bits()).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Named dispatch: for every backend key, the forced-i8 engine's
    /// answer is bit-identical to the f64 engine's, at every k, while the
    /// screen-capable backends actually report the int8 path.
    #[test]
    fn forced_i8_rescore_is_bit_identical_per_backend(
        n_users in 2usize..14,
        n_items in 2usize..50,
        f in 1usize..9,
        seed in 0u64..300,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let f64_engine = engine_at(&model, Precision::F64);
        let i8_engine = engine_at(&model, Precision::I8Rescore);
        for key in f64_engine.backend_keys() {
            for k in [1, (n_items / 2).max(1), n_items] {
                let request = QueryRequest::top_k(k);
                let want = f64_engine.execute_with(key, &request).unwrap();
                let got = i8_engine.execute_with(key, &request).unwrap();
                prop_assert_eq!(
                    bits(&got), bits(&want),
                    "{} diverged at k={}", key, k
                );
                prop_assert_eq!(want.precision, Precision::F64);
                let screened = matches!(key, "bmm" | "lemp" | "maximus");
                prop_assert_eq!(
                    got.precision,
                    if screened { Precision::I8Rescore } else { Precision::F64 },
                    "{} must report its numeric path", key
                );
            }
        }
    }

    /// Planned dispatch under `Auto`: whichever candidate OPTIMUS picks —
    /// f64-direct or a `+i8` screen variant — the served bits match the
    /// **same backend's** pure-f64 path. (Different backends legitimately
    /// accumulate dots in different orders and may disagree in the last
    /// ulp, so the contract is per-backend, not cross-backend: `Auto` must
    /// never let the numeric *mode* change the bits the chosen backend
    /// would have served.)
    #[test]
    fn auto_planning_is_bit_identical_whatever_wins(
        n_users in 2usize..12,
        n_items in 2usize..40,
        f in 1usize..7,
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let request = QueryRequest::top_k(k.min(n_items));
        let f64_engine = engine_at(&model, Precision::F64);
        let got = engine_at(&model, Precision::Auto).execute(&request).unwrap();
        // Map the winner's display name ("LEMP+i8" → "LEMP") back to its
        // registry key to pin the f64 reference to the same backend.
        let base_name = got.backend.strip_suffix("+i8").unwrap_or(&got.backend);
        let key = f64_engine
            .backend_keys()
            .into_iter()
            .find(|key| f64_engine.solver(key).is_ok_and(|s| s.name() == base_name))
            .expect("auto winner maps to a registered backend");
        let want = f64_engine.execute_with(key, &request).unwrap();
        prop_assert_eq!(
            bits(&got), bits(&want),
            "auto winner {} diverged from its own f64 path", &got.backend
        );
    }

    /// Per-shard serving: each shard quantizes against its own view's int8
    /// mirror; reassembled responses still match the global f64 engine
    /// bit for bit, for every backend registered alone.
    #[test]
    fn sharded_i8_rescore_matches_the_global_f64_engine(
        n_users in 4usize..20,
        n_items in 4usize..40,
        f in 1usize..6,
        shards in 1usize..4,
        seed in 0u64..200,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let k = (n_items / 2).max(1);
        for factory in BackendRegistry::with_defaults().factories() {
            let want = Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&model))
                    .register_arc(Arc::clone(factory))
                    .build()
                    .unwrap(),
            )
            .execute(&QueryRequest::top_k(k))
            .unwrap();
            let i8_engine = Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&model))
                    .register_arc(Arc::clone(factory))
                    .precision(Precision::I8Rescore)
                    .build()
                    .unwrap(),
            );
            let server = ServerBuilder::new()
                .engine(i8_engine)
                .shards(shards)
                .workers(1)
                .index_scope(IndexScope::PerShard)
                .build()
                .unwrap();
            let served = server.execute(&QueryRequest::top_k(k)).unwrap();
            prop_assert_eq!(
                bits(&served), bits(&want),
                "{} diverged across {} shards", factory.key(), shards
            );
            server.shutdown().unwrap();
        }
    }
}

/// Named dispatch under forced i8 serves the screen variants by name; the
/// screenless backends still answer, f64-direct.
#[test]
fn named_dispatch_under_forced_i8_uses_the_screen_variant() {
    let model = random_model(30, 90, 8, 42);
    let engine = engine_at(&model, Precision::I8Rescore);
    let request = QueryRequest::top_k(3);
    for (key, name) in [
        ("bmm", "Blocked MM+i8"),
        ("lemp", "LEMP+i8"),
        ("maximus", "Maximus+i8"),
    ] {
        let response = engine.execute_with(key, &request).unwrap();
        assert_eq!(response.backend, name);
        assert_eq!(response.precision, Precision::I8Rescore, "{key}");
    }
    let fex = engine.execute_with("fexipro-si", &request).unwrap();
    assert_eq!(fex.precision, Precision::F64);
}

/// Model swaps rebuild the int8 mirrors for the new epoch: after each
/// swap, the forced-i8 engine must match a fresh f64 engine built directly
/// on that epoch's model — pinned to the **same backend** the i8 engine's
/// planner picked.
#[test]
fn i8_rescore_survives_model_swaps_bit_identically() {
    let generations = [
        random_model(30, 200, 8, 1),
        random_model(45, 150, 8, 2),
        random_model(20, 260, 8, 3),
    ];
    let engine = engine_at(&generations[0], Precision::I8Rescore);
    for (epoch, model) in generations.iter().enumerate() {
        if epoch > 0 {
            engine.swap_model(Arc::clone(model)).unwrap();
        }
        let want = engine_at(model, Precision::F64);
        for k in [1, 7, 40] {
            let request = QueryRequest::top_k(k);
            let got = engine.execute(&request).unwrap();
            let base_name = got.backend.strip_suffix("+i8").unwrap_or(&got.backend);
            let key = want
                .backend_keys()
                .into_iter()
                .find(|key| want.solver(key).is_ok_and(|s| s.name() == base_name))
                .expect("screen winner maps to a registered backend");
            assert_eq!(
                bits(&got),
                bits(&want.execute_with(key, &request).unwrap()),
                "epoch {epoch} diverged at k={k} on {}",
                &got.backend
            );
        }
    }
}

/// Builds a corpus designed to break an unsound int8 screen, with `n`
/// items per regime. The user rows mirror the regimes so every
/// (user, item) pairing crosses magnitudes.
fn adversarial_model(n: usize, f: usize) -> Arc<MfModel> {
    let mut state = 0xDEAD_BEEF_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    // A shared base direction, so regime 0/1 items are near-ties against
    // every user.
    let base: Vec<f64> = (0..f).map(|_| next()).collect();
    let items = Matrix::from_fn(5 * n, f, |r, c| {
        let (regime, jitter) = (r / n, next());
        match regime {
            // Near-ties: perturbations ~1e-13, orders of magnitude below
            // the ~1/254 int8 quantization step — every pairwise gap is
            // invisible to the codes; only the envelope keeps the true
            // winners alive for the f64 rescore.
            0 => base[c] + jitter * 1e-13,
            // Exact duplicates of one vector: ties broken by item id, a
            // decision the screen must not perturb.
            1 => base[c],
            // Large magnitude: the per-row scale shrinks to ~127/1e8, so
            // each reconstructed product carries an absolute error ~1e6 —
            // the envelope must absorb all of it.
            2 => jitter * 1e8,
            // Tiny magnitude: the per-row scale grows to ~127/1e-30 — the
            // scale inversions and the envelope's 1/s terms must stay
            // finite and conservative.
            3 => jitter * 1e-30,
            // Near-cancellation: huge alternating entries whose dot nearly
            // cancels — ‖i‖₁ is enormous relative to the score, so the
            // screen learns nothing and must rescore everything.
            _ => {
                if c % 2 == 0 {
                    1e6 + jitter
                } else {
                    -1e6 + jitter
                }
            }
        }
    });
    let users = Matrix::from_fn(8, f, |r, c| match r % 4 {
        0 => base[c] + next() * 1e-13,
        1 => next() * 1e8,
        2 => next() * 1e-30,
        _ => next(),
    });
    Arc::new(MfModel::new("adversarial", users, items).unwrap())
}

/// The adversarial corpus, end to end: every backend, forced i8, at ks
/// spanning "deep in the near-tie block" to "the whole corpus".
#[test]
fn adversarial_corpora_cannot_shake_bit_identity() {
    let model = adversarial_model(40, 8);
    let f64_engine = engine_at(&model, Precision::F64);
    let i8_engine = engine_at(&model, Precision::I8Rescore);
    for key in f64_engine.backend_keys() {
        for k in [1, 3, 35, 90, 200] {
            let request = QueryRequest::top_k(k);
            let want = f64_engine.execute_with(key, &request).unwrap();
            let got = i8_engine.execute_with(key, &request).unwrap();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{key} diverged on the adversarial corpus at k={k}"
            );
        }
    }
}

/// Serving under forced i8 surfaces the screen's work in the shard
/// counters: batches tally as `i8_batches` and candidate/survivor counts
/// accumulate in the int8 lanes, while an f64 engine leaves them
/// untouched. This is the screen observability `/metrics` exposes.
#[test]
fn serve_metrics_report_screen_candidates_and_survivors_per_mode() {
    let model = random_model(40, 300, 8, 7);
    let registry = BackendRegistry::with_defaults();
    let bmm = registry
        .factories()
        .iter()
        .find(|f| f.key() == "bmm")
        .expect("bmm is a default backend");
    for precision in [Precision::I8Rescore, Precision::F64] {
        let engine = Arc::new(
            EngineBuilder::new()
                .model(Arc::clone(&model))
                .register_arc(Arc::clone(bmm))
                .precision(precision)
                .build()
                .unwrap(),
        );
        let server = ServerBuilder::new()
            .engine(engine)
            .shards(2)
            .workers(1)
            .index_scope(IndexScope::PerShard)
            .build()
            .unwrap();
        for k in [1, 5, 20] {
            server.execute(&QueryRequest::top_k(k)).unwrap();
        }
        let metrics = server.metrics();
        server.shutdown().unwrap();
        assert!(metrics.completed > 0);
        let (candidates, survivors) = metrics.screen_i8();
        if precision == Precision::F64 {
            assert_eq!(metrics.i8_batches(), 0, "f64 engine ran screened batches");
            assert_eq!((candidates, survivors), (0, 0), "f64 engine screened");
            continue;
        }
        assert!(metrics.i8_batches() > 0, "no screened batches");
        // BMM screens every (user, item) score of every batch.
        assert!(candidates > 0, "screen evaluated nothing");
        assert!(survivors <= candidates, "survivors exceed candidates");
        // Per-shard counters carry the same lanes as the rollup.
        assert_eq!(
            metrics
                .shards
                .iter()
                .map(|s| s.screen_candidates_i8)
                .sum::<u64>(),
            candidates
        );
    }
}

/// A model whose factors quantize degenerately (subnormal rows) must
/// silently serve f64-direct under forced i8 — exactness before speed.
#[test]
fn degenerate_quantization_serves_f64_direct() {
    let users = Matrix::from_fn(6, 4, |r, c| ((r + c) as f64 + 1.0) * 1.0e-320);
    let items = Matrix::from_fn(12, 4, |r, c| ((r * c) as f64 + 1.0) * 1.0e-320);
    let model = Arc::new(MfModel::new("subnormal", users, items).unwrap());
    let f64_engine = engine_at(&model, Precision::F64);
    let i8_engine = engine_at(&model, Precision::I8Rescore);
    for key in f64_engine.backend_keys() {
        let request = QueryRequest::top_k(3);
        let want = f64_engine.execute_with(key, &request).unwrap();
        let got = i8_engine.execute_with(key, &request).unwrap();
        assert_eq!(bits(&got), bits(&want), "{key}");
        assert_eq!(
            got.precision,
            Precision::F64,
            "{key} must fall back to f64-direct on degenerate quantization"
        );
    }
}
