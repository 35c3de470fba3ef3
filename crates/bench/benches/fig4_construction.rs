//! Figure 4: index construction is orders of magnitude cheaper than
//! retrieval.
//!
//! For LEMP and FEXIPRO on Netflix f ∈ {10, 50, 100}, compare index
//! construction time against the end-to-end K = 1 retrieval time for all
//! users (the paper plots both on a log axis). This gap is what makes
//! OPTIMUS affordable: it can always build the full index just to test it.

use mips_bench::{build_model, fmt_secs, time_seconds, Table};
use mips_core::engine::{FexiproFactory, LempFactory, SolverFactory};
use mips_data::catalog::find;
use mips_lemp::LempConfig;
use std::sync::Arc;

fn main() {
    println!("== Figure 4: construction vs end-to-end retrieval (K = 1) ==\n");
    let mut table = Table::new(&[
        "model",
        "index",
        "construction",
        "end-to-end",
        "constr. share",
    ]);
    let mut worst_ratio = f64::INFINITY;
    for f in [10usize, 50, 100] {
        let spec = find("Netflix", "DSGD", f).expect("catalog model");
        let model = build_model(&spec);
        let factories: [Arc<dyn SolverFactory>; 3] = [
            Arc::new(LempFactory::new(LempConfig::default())),
            Arc::new(FexiproFactory::si()),
            Arc::new(FexiproFactory::sir()),
        ];
        for factory in factories {
            let solver = factory
                .build(&mips_data::ModelView::full(&model))
                .expect("bench index builds");
            let (serve, _) = time_seconds(|| solver.query_all(1));
            let total = solver.build_seconds() + serve;
            worst_ratio = worst_ratio.min(total / solver.build_seconds().max(1e-12));
            table.row(vec![
                model.name().to_string(),
                solver.name().to_string(),
                fmt_secs(solver.build_seconds()),
                fmt_secs(total),
                format!("{:.2}%", solver.build_seconds() / total * 100.0),
            ]);
        }
    }
    table.print();
    println!(
        "\nretrieval is at least {worst_ratio:.0}x construction; the paper reports \
         construction at 0.5% (LEMP) / 1.9% (FEXIPRO) of a K = 1 batch run."
    );
}
