//! End-to-end recommender: synthetic ratings → SGD matrix factorization →
//! exact top-K serving with MAXIMUS, including the §III-E dynamic-user path.
//!
//! This walks the full pipeline of the paper's Fig. 1: a ratings matrix is
//! factorized into user/item vectors, and serving top-K recommendations for
//! every user is an exact MIPS problem.
//!
//! ```sh
//! cargo run --release --example movie_recommender
//! ```

use optimus_maximus::data::als::{train_als, AlsConfig};
use optimus_maximus::data::bpr::{auc, train_bpr, BprConfig};
use optimus_maximus::data::sgd::{train_sgd, SgdConfig};
use optimus_maximus::prelude::*;
use std::sync::Arc;

fn main() {
    // --- 1. "Collect" ratings: sample from a hidden ground-truth model. ---
    let truth = synth_model(&SynthConfig {
        num_users: 600,
        num_items: 300,
        num_factors: 8,
        user_clusters: 6,
        user_spread: 0.3,
        seed: 2024,
        ..SynthConfig::default()
    });
    let ratings = RatingsData::from_ground_truth(&truth, 40, 0.15, 7);
    let (train, test) = ratings.split(0.2, 99);
    println!(
        "ratings: {} observed ({} train / {} test), {} users x {} movies",
        ratings.len(),
        train.len(),
        test.len(),
        ratings.num_users,
        ratings.num_items
    );

    // --- 2. Train an explicit-feedback MF model (the paper's *-NOMAD /
    //        *-DSGD models are trained exactly this way, distributed). ---
    let model = train_sgd(
        &train,
        &SgdConfig {
            num_factors: 12,
            epochs: 25,
            ..SgdConfig::default()
        },
    );
    println!(
        "SGD model: train RMSE {:.4}, test RMSE {:.4}",
        train.rmse(&model),
        test.rmse(&model)
    );

    // ALS on the same ratings (the KDD-REF lineage of the paper's models).
    let als_model = train_als(
        &train,
        &AlsConfig {
            num_factors: 12,
            sweeps: 8,
            regularization: 0.05,
            ..AlsConfig::default()
        },
    );
    println!(
        "ALS model: train RMSE {:.4}, test RMSE {:.4}",
        train.rmse(&als_model),
        test.rmse(&als_model)
    );

    // --- 3. Also train an implicit-feedback BPR model for comparison
    //        (the paper's Netflix-BPR family). ---
    let threshold = train.global_mean();
    let bpr_model = train_bpr(
        &train,
        &BprConfig {
            num_factors: 12,
            steps: 120_000,
            regularization: 0.05,
            positive_threshold: threshold,
            ..BprConfig::default()
        },
    );
    println!(
        "BPR model: held-out AUC {:.3}",
        auc(&bpr_model, &test, threshold, 1)
    );

    // --- 4. Serve exact top-10 recommendations through the engine, with
    //        already-rated movies excluded (a recommender never re-surfaces
    //        what the user has seen). ---
    let model =
        Arc::new(MfModel::new("movies-sgd", model.users().clone(), model.items().clone()).unwrap());
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(MaximusFactory::new(MaximusConfig {
            num_clusters: 8,
            block_size: 64,
            ..MaximusConfig::default()
        }))
        .build()
        .expect("engine assembles");

    let watched = ExclusionSet::from_pairs(train.triples.iter().map(|&(u, i, _)| (u as usize, i)));
    let response = engine
        .execute(&QueryRequest::top_k(10).exclude(watched.clone()))
        .expect("valid request");
    println!(
        "\nengine served {} users via {} (planner sampled once, {} watched movies withheld)",
        response.results.len(),
        response.backend,
        train.len(),
    );
    for user in [0usize, 1, 2] {
        let pretty: Vec<String> = response.results[user]
            .iter()
            .take(5)
            .map(|(m, s)| format!("movie {m} ({s:.2})"))
            .collect();
        println!("  user {user}: {}", pretty.join(", "));
        for (m, _) in response.results[user].iter() {
            assert!(
                !watched.for_user(user).contains(&m),
                "user {user} was re-recommended watched movie {m}"
            );
        }
    }

    // Unfiltered serving for the exactness check and the MAXIMUS stats.
    let unfiltered = engine
        .execute(&QueryRequest::top_k(10))
        .expect("valid request");
    check_all_topk(&model, 10, &unfiltered.results, 1e-9).expect("engine serving is exact");
    let maximus = MaximusIndex::build(
        Arc::clone(&model),
        &MaximusConfig {
            num_clusters: 8,
            block_size: 64,
            ..MaximusConfig::default()
        },
        ScanTier::F64,
    );
    let recs = maximus.query_all(10);
    check_all_topk(&model, 10, &recs, 1e-9).expect("MAXIMUS is exact");
    let stats = maximus.query_stats();
    println!(
        "\nMAXIMUS visits w̄ = {:.1} items per user (of {})",
        stats.avg_items_visited(),
        model.num_items()
    );

    // --- 5. A brand-new user arrives (§III-E): no re-clustering, just
    //        assignment to the nearest centroid and a bound-aware walk. ---
    let new_user: Vec<f64> = model.users().row(0).iter().map(|v| v * 0.9).collect();
    let new_recs = maximus.query_new_vector(&new_user, 5);
    let pretty: Vec<String> = new_recs
        .iter()
        .map(|(m, s)| format!("movie {m} ({s:.2})"))
        .collect();
    println!("\nnew user (no re-clustering): {}", pretty.join(", "));
}
