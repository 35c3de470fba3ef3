//! Figure 7: OPTIMUS's runtime estimates vs user sample ratio.
//!
//! KDD-REF f=51, K=1: for a range of sample ratios, run the estimation
//! phase four times with different seeds and report the mean ± standard
//! deviation of each strategy's estimated total runtime next to its true
//! measured runtime. The paper's observations, reproduced here:
//!
//! * estimates for BMM, MAXIMUS and FEXIPRO are low-variance even at tiny
//!   samples;
//! * LEMP's estimates are high-variance because its per-bucket retrieval
//!   tuning is itself sample-dependent — two samples can pick different
//!   pruning strategies;
//! * despite the variance, the BMM-vs-index decision comes out right with
//!   well under 1 % of users.

use mips_bench::{build_model, figure5_backends, fmt_secs, mean, std_dev, BenchBackend, Table};
use mips_core::engine::{LempFactory, SolverFactory};
use mips_core::optimus::{Optimus, OptimusConfig};
use mips_data::catalog::find;
use mips_lemp::LempConfig;
use std::sync::Arc;

fn main() {
    println!("== Figure 7: estimate quality vs sample ratio (KDD-REF f=51, K=1) ==\n");
    let spec = find("KDD", "REF", 51).expect("catalog model");
    let model = build_model(&spec);
    let k = 1;

    // True serving runtimes (solid lines in the paper's plot; construction
    // excluded — the estimates extrapolate serving time).
    let backends = figure5_backends(&spec, &model);
    println!("true serving runtimes (construction excluded):");
    for backend in &backends {
        let solver = backend
            .factory
            .build(&mips_data::ModelView::full(&model))
            .expect("bench index builds");
        let (serve, _) = mips_bench::time_seconds(|| solver.query_all(k));
        println!("  {:<12} {}", backend.name, fmt_secs(serve));
    }
    println!();

    // Index candidates in Fig. 7's legend order (BMM is implicit).
    let indexes: Vec<BenchBackend> = backends
        .iter()
        .filter(|b| b.key != "bmm")
        .cloned()
        .collect();

    // The paper sweeps 0.01%..1% of 1M users; at our scaled-down user count
    // the same *absolute* sample sizes correspond to larger ratios.
    let ratios = [0.01, 0.02, 0.05, 0.10, 0.20];
    let runs_per_ratio = 4;
    let mut table = Table::new(&[
        "sample",
        "users",
        "Blocked MM",
        "Maximus",
        "LEMP",
        "FEXIPRO-SIR",
        "FEXIPRO-SI",
        "decision",
    ]);
    for &ratio in &ratios {
        // Per-strategy estimate collections across seeds.
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); indexes.len() + 1];
        let mut sampled_users = 0;
        let mut right_side = 0usize;
        for run in 0..runs_per_ratio {
            let optimus = Optimus::new(OptimusConfig {
                sample_fraction: ratio,
                // Tiny cache floor: let the ratio drive the sample size so
                // the sweep actually varies (the real floor would clamp the
                // small ratios at our scaled-down user counts).
                cache: mips_linalg::CacheConfig {
                    l1_bytes: 1024,
                    l2_bytes: 2048,
                    l3_bytes: 4096,
                },
                early_stopping: false, // full-sample estimates, as in Fig. 7
                seed: 0xF1607 + run as u64,
                ..OptimusConfig::default()
            });
            // Rebuild LEMP with a run-specific tuner seed: the original
            // system re-tunes per run, which is the variance source.
            let run_indexes: Vec<Arc<dyn SolverFactory>> = indexes
                .iter()
                .map(|b| -> Arc<dyn SolverFactory> {
                    if b.key == "lemp" {
                        let cfg = LempConfig::default();
                        Arc::new(LempFactory::new(LempConfig {
                            seed: cfg.seed + 7919 * run as u64,
                            ..cfg
                        }))
                    } else {
                        Arc::clone(&b.factory)
                    }
                })
                .collect();
            let estimates = optimus.estimate_only(&model, k, &run_indexes);
            sampled_users = estimates[0].sampled_users;
            for (i, e) in estimates.iter().enumerate() {
                series[i].push(e.estimated_total_seconds);
            }
            // Did this run pick an index over BMM (the correct side here)?
            let best = estimates
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.estimated_total_seconds
                        .total_cmp(&b.1.estimated_total_seconds)
                })
                .unwrap()
                .0;
            if best != 0 {
                right_side += 1;
            }
        }
        let mut cells = vec![format!("{:.1}%", ratio * 100.0), sampled_users.to_string()];
        for s in &series {
            cells.push(format!("{}±{}", fmt_secs(mean(s)), fmt_secs(std_dev(s))));
        }
        cells.push(format!("index {right_side}/{runs_per_ratio}"));
        table.row(cells);
    }
    table.print();
    println!(
        "\npaper shape: the index-vs-BMM decision is already right at the smallest \
         samples despite per-strategy estimate noise. BMM's huge spread at the \
         smallest samples (the floor is disabled for this sweep) is precisely why \
         §IV-A requires the sampled user block to occupy the L2 cache before \
         timing BMM."
    );
}
