//! Cross-crate integration tests: the full pipeline from data generation
//! and training through the serving engine, every backend, and the planner.

use optimus_maximus::core::optimus::oracle::oracle_choice;
use optimus_maximus::core::parallel::par_query_all;
use optimus_maximus::data::sgd::{train_sgd, SgdConfig};
use optimus_maximus::prelude::*;
use std::sync::Arc;

/// Small versions of a few catalog models spanning all four dataset
/// families.
fn small_catalog() -> Vec<Arc<MfModel>> {
    reference_models()
        .into_iter()
        .filter(|s| {
            (s.dataset == "Netflix" && s.training == "DSGD" && s.f == 10)
                || (s.dataset == "R2" && s.training == "NOMAD" && s.f == 10)
                || (s.dataset == "KDD" && s.training == "REF")
                || (s.dataset == "GloVe" && s.f == 50)
        })
        .map(|s| Arc::new(s.build(0.05)))
        .collect()
}

fn engine_for(model: &Arc<MfModel>) -> Engine {
    EngineBuilder::new()
        .model(Arc::clone(model))
        .register(BmmFactory)
        .register(MaximusFactory::new(MaximusConfig {
            num_clusters: 4,
            block_size: 32,
            ..MaximusConfig::default()
        }))
        .register(LempFactory::default())
        .register(FexiproFactory::si())
        .register(FexiproFactory::sir())
        .build()
        .expect("engine assembles")
}

#[test]
fn all_backends_exact_on_all_dataset_families() {
    for model in small_catalog() {
        let engine = engine_for(&model);
        for key in engine.backend_keys() {
            for k in [1usize, 10] {
                let response = engine
                    .execute_with(key, &QueryRequest::top_k(k))
                    .expect("valid request");
                check_all_topk(&model, k, &response.results, 1e-9)
                    .unwrap_or_else(|msg| panic!("{key} on {}: {msg}", model.name()));
            }
        }
    }
}

#[test]
fn backends_agree_item_for_item() {
    let model = small_catalog().remove(0);
    let engine = engine_for(&model);
    let reference = engine
        .execute_with("bmm", &QueryRequest::top_k(5))
        .expect("valid request");
    for key in engine.backend_keys() {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(5))
            .expect("valid request");
        for u in (0..model.num_users()).step_by(13) {
            assert_eq!(
                response.results[u].items,
                reference.results[u].items,
                "{key} disagrees with BMM for user {u} on {}",
                model.name()
            );
        }
    }
}

#[test]
fn planner_serves_exact_results_and_reuses_the_decision() {
    let model = small_catalog().remove(1);
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(MaximusFactory::new(MaximusConfig {
            num_clusters: 4,
            block_size: 32,
            ..MaximusConfig::default()
        }))
        .register(LempFactory::default())
        .optimus(OptimusConfig {
            sample_fraction: 0.05,
            ..OptimusConfig::default()
        })
        .build()
        .expect("engine assembles");

    let first = engine
        .execute(&QueryRequest::top_k(5))
        .expect("valid request");
    assert!(first.planned);
    check_all_topk(&model, 5, &first.results, 1e-9).expect("planned serving is exact");

    // The plan carries an estimate per candidate, all finite.
    let plan = engine.prepare(5).expect("cached");
    assert_eq!(plan.estimates().len(), 3);
    for e in plan.estimates() {
        assert!(e.estimated_total_seconds.is_finite() && e.estimated_total_seconds > 0.0);
    }

    // Re-serving at the same k reuses the decision without re-sampling.
    let second = engine
        .execute(&QueryRequest::top_k(5).users_range(0..model.num_users() / 2))
        .expect("valid request");
    assert_eq!(engine.planner_runs(), 1);
    assert_eq!(second.backend, first.backend);
    for (u, list) in second.results.iter().enumerate() {
        assert_eq!(list.items, first.results[u].items, "user {u}");
    }
}

#[test]
fn engine_threads_match_sequential_everywhere() {
    let model = small_catalog().remove(2);
    let sequential = engine_for(&model);
    let threaded = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(MaximusFactory::new(MaximusConfig {
            num_clusters: 4,
            block_size: 32,
            ..MaximusConfig::default()
        }))
        .register(LempFactory::default())
        .register(FexiproFactory::si())
        .register(FexiproFactory::sir())
        .threads(4)
        .build()
        .expect("engine assembles");
    for key in sequential.backend_keys() {
        let seq = sequential
            .execute_with(key, &QueryRequest::top_k(4))
            .expect("valid request");
        let par = threaded
            .execute_with(key, &QueryRequest::top_k(4))
            .expect("valid request");
        assert_eq!(seq.results, par.results, "{key} parallel mismatch");
    }
}

#[test]
fn legacy_strategy_and_par_query_all_still_work() {
    // Direct solver access through the registry factories: the free
    // `par_query_all` must agree with each solver's own `query_all`.
    let model = small_catalog().remove(2);
    let engine = engine_for(&model);
    assert_eq!(engine.registry().len(), 5);
    for factory in engine.registry().factories() {
        let solver = factory
            .build(&ModelView::full(&model))
            .expect("backend builds");
        let seq = solver.query_all(4);
        let par = par_query_all(solver.as_ref(), 4, 4);
        assert_eq!(seq, par, "{} parallel mismatch", factory.key());
    }
}

#[test]
fn end_to_end_train_then_serve() {
    // Ratings → SGD training → exact serving, the full Fig. 1 pipeline.
    let truth = synth_model(&SynthConfig {
        num_users: 120,
        num_items: 90,
        num_factors: 6,
        seed: 3,
        ..SynthConfig::default()
    });
    let ratings = RatingsData::from_ground_truth(&truth, 25, 0.1, 5);
    let trained = train_sgd(
        &ratings,
        &SgdConfig {
            num_factors: 8,
            epochs: 15,
            ..SgdConfig::default()
        },
    );
    let model = Arc::new(
        MfModel::new("trained", trained.users().clone(), trained.items().clone()).unwrap(),
    );
    let engine = engine_for(&model);
    for key in engine.backend_keys() {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(3))
            .expect("valid request");
        check_all_topk(&model, 3, &response.results, 1e-9)
            .unwrap_or_else(|msg| panic!("{key}: {msg}"));
    }

    // The recommender path: exclude every rated item per user, then check
    // nothing rated comes back.
    let watched =
        ExclusionSet::from_pairs(ratings.triples.iter().map(|&(u, i, _)| (u as usize, i)));
    let filtered = engine
        .execute(&QueryRequest::top_k(3).exclude(watched.clone()))
        .expect("valid request");
    for (u, list) in filtered.results.iter().enumerate() {
        for (item, _) in list.iter() {
            assert!(
                !watched.for_user(u).contains(&item),
                "user {u} was served already-rated item {item}"
            );
        }
    }
}

#[test]
fn oracle_and_planner_usually_agree() {
    // Not a strict guarantee (timing noise on shared machines), but on a
    // model with a wide BMM-vs-index gap both should land on the same side.
    let spec = reference_models()
        .into_iter()
        .find(|s| s.dataset == "Netflix" && s.training == "BPR" && s.f == 25)
        .unwrap();
    let model = Arc::new(spec.build(0.15));
    let backends: [Arc<dyn SolverFactory>; 2] =
        [Arc::new(BmmFactory), Arc::new(FexiproFactory::sir())];
    let (best, runtimes) = oracle_choice(&model, 1, &backends);
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(FexiproFactory::sir())
        .optimus(OptimusConfig {
            sample_fraction: 0.05,
            ..OptimusConfig::default()
        })
        .build()
        .expect("engine assembles");
    let plan = engine.prepare(1).expect("planner runs");
    // BPR models are BMM-friendly by construction; a diffuse-user model with
    // flat norms gives indexes nothing to prune.
    assert_eq!(runtimes[best].name, "Blocked MM");
    assert_eq!(plan.backend_name(), "Blocked MM");
}

#[test]
fn model_validation_rejects_bad_input() {
    use optimus_maximus::linalg::Matrix;
    // NaN users.
    let mut users = Matrix::<f64>::zeros(2, 3);
    users.set(0, 0, f64::NAN);
    let items = Matrix::<f64>::from_fn(4, 3, |r, c| (r + c) as f64);
    assert!(matches!(
        MfModel::new("bad", users, items.clone()),
        Err(ModelError::InvalidMatrix(_))
    ));
    // Mismatched factor counts.
    let users = Matrix::<f64>::from_fn(2, 5, |r, c| (r * c) as f64);
    assert!(matches!(
        MfModel::new("bad", users, items.clone()),
        Err(ModelError::FactorMismatch { .. })
    ));
    // Empty matrices.
    let users = Matrix::<f64>::zeros(0, 3);
    assert!(MfModel::new("bad", users, items).is_err());
}

#[test]
fn malformed_requests_fail_with_typed_errors_on_every_backend() {
    let model = small_catalog().remove(0);
    let engine = engine_for(&model);
    let n_items = model.num_items();
    let n_users = model.num_users();
    for key in engine.backend_keys() {
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(0))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: n_items
            }
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(n_items + 1))
                .unwrap_err(),
            MipsError::InvalidK {
                k: n_items + 1,
                num_items: n_items
            }
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users(vec![n_users]))
                .unwrap_err(),
            MipsError::UserOutOfRange {
                user: n_users,
                num_users: n_users
            }
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users(Vec::new()))
                .unwrap_err(),
            MipsError::EmptyUserList
        );
    }
}

#[test]
fn duplicate_and_degenerate_vectors_are_served_exactly() {
    use optimus_maximus::linalg::Matrix;
    // Model with duplicate items, a zero item, a zero user, and duplicate
    // users — every degenerate case at once.
    let users = Matrix::from_rows(&[
        vec![1.0, 2.0, -1.0],
        vec![0.0, 0.0, 0.0],
        vec![1.0, 2.0, -1.0],
        vec![-3.0, 0.5, 2.0],
    ])
    .unwrap();
    let mut item_rows = vec![
        vec![0.0, 0.0, 0.0],
        vec![1.0, 1.0, 1.0],
        vec![1.0, 1.0, 1.0],
        vec![-2.0, 0.0, 1.0],
    ];
    for j in 0..20 {
        item_rows.push(vec![j as f64 * 0.1, 1.0 - j as f64 * 0.05, 0.5]);
    }
    let items = Matrix::from_rows(&item_rows).unwrap();
    let model = Arc::new(MfModel::new("degenerate", users, items).unwrap());
    let engine = engine_for(&model);
    let reference = engine
        .execute_with("bmm", &QueryRequest::top_k(6))
        .expect("valid request");
    for key in engine.backend_keys() {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(6))
            .expect("valid request");
        for u in 0..model.num_users() {
            assert_eq!(
                response.results[u].items, reference.results[u].items,
                "{key} user {u}"
            );
        }
    }
}
