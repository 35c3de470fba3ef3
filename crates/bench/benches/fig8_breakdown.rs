//! Figure 8: MAXIMUS stage breakdown and the item-blocking lesion study.
//!
//! For Netflix-NOMAD f=50 and R2-NOMAD f=50 at K=1, break MAXIMUS's
//! wall-clock into the paper's four stages — clustering, index construction,
//! cost estimation (the OPTIMUS sampling step), and index traversal — with
//! item blocking disabled and enabled. The paper measures blocking speeding
//! traversal up by 2.4× (Netflix) and 1.4× (R2), with the first three
//! stages a small fraction of the total.

use mips_bench::{build_model, fmt_secs, maximus_config, time_seconds, Table};
use mips_core::engine::{MaximusFactory, SolverFactory};
use mips_core::maximus::{MaximusConfig, MaximusIndex};
use mips_core::optimus::{Optimus, OptimusConfig};
use mips_core::solver::MipsSolver;
use mips_core::ScanTier;
use mips_data::catalog::find;
use std::sync::Arc;

fn main() {
    println!("== Figure 8: MAXIMUS runtime breakdown, K = 1 ==\n");
    let mut table = Table::new(&[
        "configuration",
        "clustering",
        "construction",
        "cost estimation",
        "traversal",
        "w̄",
    ]);
    let mut lesion: Vec<(String, f64, f64)> = Vec::new();
    for (dataset, training) in [("Netflix", "NOMAD"), ("R2", "NOMAD")] {
        let spec = find(dataset, training, 50).expect("catalog model");
        let model = build_model(&spec);
        let base_cfg = maximus_config(&spec, &model);
        let mut traversal_by_blocking = [0.0f64; 2];
        for (slot, blocking) in [(0usize, false), (1usize, true)] {
            let cfg = MaximusConfig {
                item_blocking: blocking,
                ..base_cfg
            };
            let index = MaximusIndex::build(Arc::clone(&model), &cfg, ScanTier::F64);
            let build = index.build_stats();

            // Cost estimation: OPTIMUS's sampling phase for this index.
            let optimus = Optimus::new(OptimusConfig::default());
            let candidates: [Arc<dyn SolverFactory>; 1] = [Arc::new(MaximusFactory::new(cfg))];
            let (estimation, _) = time_seconds(|| optimus.estimate_only(&model, 1, &candidates));

            let (traversal, _) = time_seconds(|| index.query_all(1));
            traversal_by_blocking[slot] = traversal;
            table.row(vec![
                format!(
                    "{} ({} item blocking)",
                    model.name(),
                    if blocking { "with" } else { "w/o" }
                ),
                fmt_secs(build.clustering_seconds),
                fmt_secs(build.construction_seconds),
                fmt_secs(estimation),
                fmt_secs(traversal),
                format!("{:.0}", index.query_stats().avg_items_visited()),
            ]);
        }
        lesion.push((
            model.name().to_string(),
            traversal_by_blocking[0],
            traversal_by_blocking[1],
        ));
    }
    table.print();

    println!("\n-- item blocking lesion --");
    for (name, without, with) in lesion {
        println!(
            "{name}: traversal {} -> {} ({:.2}x)   (paper: 2.4x Netflix, 1.4x R2)",
            fmt_secs(without),
            fmt_secs(with),
            without / with
        );
    }
    println!(
        "\npaper shape: clustering + construction + estimation are a small share of \
         end-to-end time (1.8% average overhead)."
    );
}
