//! Ablation: MAXIMUS parameter robustness (§III-D).
//!
//! The paper claims MAXIMUS's runtime is robust across the blocking factor
//! `B`, the cluster count `|C|`, and the k-means iteration budget `i`, and
//! settles on `B = 4096, |C| = 8, i = 3`. We sweep each parameter around the
//! (scaled) defaults on one index-friendly and one BMM-friendly model.

use mips_bench::{build_model, fmt_secs, maximus_config, time_seconds, Table};
use mips_core::maximus::{MaximusConfig, MaximusIndex};
use mips_core::solver::MipsSolver;
use mips_core::ScanTier;
use mips_data::catalog::find;
use std::sync::Arc;

fn run(model: &Arc<mips_data::MfModel>, cfg: &MaximusConfig) -> (f64, f64) {
    let index = MaximusIndex::build(Arc::clone(model), cfg, ScanTier::F64);
    let (serve, _) = time_seconds(|| index.query_all(1));
    (
        index.build_seconds() + serve,
        index.query_stats().avg_items_visited(),
    )
}

fn main() {
    println!("== Ablation: MAXIMUS parameters (K = 1) ==\n");
    for (dataset, training) in [("R2", "NOMAD"), ("Netflix", "DSGD")] {
        let spec = find(dataset, training, 50).expect("catalog model");
        let model = build_model(&spec);
        let base = maximus_config(&spec, &model);
        println!(
            "{} (scaled defaults: B = {}, |C| = {}, i = {})",
            model.name(),
            base.block_size,
            base.num_clusters,
            base.kmeans_iters
        );

        let mut table = Table::new(&["parameter", "value", "end-to-end", "w̄"]);
        for b in [16usize, 64, 256, 1024, 4096] {
            let (t, w) = run(
                &model,
                &MaximusConfig {
                    block_size: b,
                    ..base
                },
            );
            table.row(vec![
                "B".into(),
                b.to_string(),
                fmt_secs(t),
                format!("{w:.0}"),
            ]);
        }
        for c in [1usize, 2, 4, 8, 16, 32] {
            let (t, w) = run(
                &model,
                &MaximusConfig {
                    num_clusters: c,
                    ..base
                },
            );
            table.row(vec![
                "|C|".into(),
                c.to_string(),
                fmt_secs(t),
                format!("{w:.0}"),
            ]);
        }
        for i in [1usize, 3, 10] {
            let (t, w) = run(
                &model,
                &MaximusConfig {
                    kmeans_iters: i,
                    ..base
                },
            );
            table.row(vec![
                "i".into(),
                i.to_string(),
                fmt_secs(t),
                format!("{w:.0}"),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "paper shape: runtime varies mildly across |C| and i; oversized B degrades \
         toward brute force on index-friendly models (wasted shared work)."
    );
}
