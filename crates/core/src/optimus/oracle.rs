//! The oracle optimizer: ground truth for Table II.
//!
//! The oracle runs every candidate backend to completion and reports the
//! true fastest — zero decision overhead by definition, unobtainable in
//! practice, and exactly the baseline the paper compares OPTIMUS against
//! ("within 12 % of an oracle-based optimizer with no overhead").

use crate::engine::registry::SolverFactory;
use crate::sync::Arc;
use mips_data::{MfModel, ModelView};
use std::time::Instant;

/// Full measured runtime of one strategy.
#[derive(Debug, Clone)]
pub struct StrategyRuntime {
    /// Strategy display name.
    pub name: String,
    /// Index construction seconds.
    pub build_seconds: f64,
    /// Serving seconds for all users.
    pub serve_seconds: f64,
}

impl StrategyRuntime {
    /// End-to-end seconds (construction + serving), the quantity Fig. 5
    /// plots.
    pub fn total_seconds(&self) -> f64 {
        self.build_seconds + self.serve_seconds
    }
}

/// Runs every backend to completion and returns the measured runtimes plus
/// the index of the fastest (end-to-end).
pub fn oracle_choice(
    model: &Arc<MfModel>,
    k: usize,
    strategies: &[Arc<dyn SolverFactory>],
) -> (usize, Vec<StrategyRuntime>) {
    assert!(!strategies.is_empty(), "oracle_choice: no strategies");
    let runtimes: Vec<StrategyRuntime> = strategies
        .iter()
        .map(|f| {
            let solver = f
                .build(&ModelView::full(model))
                .unwrap_or_else(|err| panic!("oracle_choice: building {}: {err}", f.key()));
            let t0 = Instant::now();
            let results = solver.query_all(k);
            let serve_seconds = t0.elapsed().as_secs_f64();
            // Results are discarded; keep the length observable so the
            // query cannot be optimized away.
            assert_eq!(results.len(), model.num_users());
            StrategyRuntime {
                name: solver.name().to_string(),
                build_seconds: solver.build_seconds(),
                serve_seconds,
            }
        })
        .collect();
    let best = runtimes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_seconds().total_cmp(&b.1.total_seconds()))
        .expect("non-empty")
        .0;
    (best, runtimes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::registry::{BmmFactory, MaximusFactory};
    use crate::maximus::MaximusConfig;
    use mips_data::synth::{synth_model, SynthConfig};

    #[test]
    fn oracle_measures_all_strategies() {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 80,
            num_items: 100,
            num_factors: 8,
            ..SynthConfig::default()
        }));
        let strategies: [Arc<dyn SolverFactory>; 2] = [
            Arc::new(BmmFactory),
            Arc::new(MaximusFactory::new(MaximusConfig {
                num_clusters: 4,
                block_size: 16,
                ..MaximusConfig::default()
            })),
        ];
        let (best, runtimes) = oracle_choice(&model, 3, &strategies);
        assert_eq!(runtimes.len(), 2);
        assert!(best < 2);
        for rt in &runtimes {
            assert!(rt.serve_seconds > 0.0);
            assert!(rt.total_seconds() >= rt.serve_seconds);
        }
        // The chosen one is genuinely the minimum.
        let min = runtimes
            .iter()
            .map(StrategyRuntime::total_seconds)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(runtimes[best].total_seconds(), min);
    }

    #[test]
    #[should_panic(expected = "no strategies")]
    fn rejects_empty_strategy_list() {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 4,
            num_items: 4,
            num_factors: 2,
            ..SynthConfig::default()
        }));
        let _ = oracle_choice(&model, 1, &[]);
    }
}
