//! Semantic exactness checking for top-k results.
//!
//! Comparing two solvers' item lists bit-for-bit is brittle when scores sit
//! within floating-point rounding of each other at the k-th boundary. This
//! checker instead verifies what "exact MIPS" actually promises: every
//! returned item scores at least as high (within tolerance) as the true k-th
//! best rating, the reported scores are genuine, and the list is sorted.
//! It is used by the cross-crate integration tests and available to
//! downstream users who want to validate a custom solver.

use mips_data::MfModel;
use mips_linalg::kernels::dot;
use mips_topk::{TopKHeap, TopKList};

/// Verifies one user's result against a freshly computed reference.
///
/// Returns a description of the first violation, or `Ok(())`.
pub fn check_user_topk(
    model: &MfModel,
    user: usize,
    k: usize,
    result: &TopKList,
    tol: f64,
) -> Result<(), String> {
    let expected_len = k.min(model.num_items());
    if result.len() != expected_len {
        return Err(format!(
            "user {user}: expected {expected_len} results, got {}",
            result.len()
        ));
    }
    if !result.is_sorted() && result.len() >= 2 {
        return Err(format!("user {user}: result list is not sorted best-first"));
    }

    // Reference: the true k-th best score.
    let urow = model.users().row(user);
    let mut heap = TopKHeap::new(k);
    for i in 0..model.num_items() {
        heap.push(dot(urow, model.items().row(i)), i as u32);
    }
    let reference = heap.into_sorted();
    let kth_score = reference
        .scores
        .last()
        .copied()
        .unwrap_or(f64::NEG_INFINITY);

    let mut seen = std::collections::BTreeSet::new();
    for (item, score) in result.iter() {
        if item as usize >= model.num_items() {
            return Err(format!("user {user}: item id {item} out of range"));
        }
        if !seen.insert(item) {
            return Err(format!("user {user}: duplicate item {item}"));
        }
        let truth = dot(urow, model.items().row(item as usize));
        let scale = 1.0 + truth.abs().max(score.abs());
        if (truth - score).abs() > tol * scale {
            return Err(format!(
                "user {user}: reported score {score} for item {item}, true score {truth}"
            ));
        }
        if truth < kth_score - tol * (1.0 + kth_score.abs()) {
            return Err(format!(
                "user {user}: item {item} scores {truth}, below the true k-th best {kth_score}"
            ));
        }
    }
    Ok(())
}

/// Verifies all users' results; reports the first violation.
pub fn check_all_topk(
    model: &MfModel,
    k: usize,
    results: &[TopKList],
    tol: f64,
) -> Result<(), String> {
    if results.len() != model.num_users() {
        return Err(format!(
            "expected {} result lists, got {}",
            model.num_users(),
            results.len()
        ));
    }
    for (u, list) in results.iter().enumerate() {
        check_user_topk(model, u, k, list, tol)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::precision::ScanTier;
    use crate::solver::MipsSolver;
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_data::ModelView;

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 12,
            num_items: 30,
            num_factors: 6,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn accepts_correct_results() {
        let m = model();
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let results = solver.query_all(5);
        check_all_topk(&m, 5, &results, 1e-9).unwrap();
    }

    #[test]
    fn rejects_wrong_length() {
        let m = model();
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let mut results = solver.query_all(5);
        results[3].items.pop();
        results[3].scores.pop();
        let err = check_all_topk(&m, 5, &results, 1e-9).unwrap_err();
        assert!(err.contains("user 3"));
        assert!(err.contains("expected 5"));
    }

    #[test]
    fn rejects_fabricated_scores() {
        let m = model();
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let mut results = solver.query_all(2);
        results[0].scores[0] += 1.0;
        let err = check_all_topk(&m, 2, &results, 1e-9).unwrap_err();
        assert!(err.contains("reported score"));
    }

    #[test]
    fn rejects_suboptimal_items() {
        let m = model();
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let mut results = solver.query_all(1);
        // Replace user 0's best item with whatever its true worst item is.
        let urow = m.users().row(0);
        let worst = (0..m.num_items())
            .min_by(|&a, &b| dot(urow, m.items().row(a)).total_cmp(&dot(urow, m.items().row(b))))
            .unwrap();
        if worst as u32 != results[0].items[0] {
            results[0].items[0] = worst as u32;
            results[0].scores[0] = dot(urow, m.items().row(worst));
            let err = check_all_topk(&m, 1, &results, 1e-9).unwrap_err();
            assert!(err.contains("below the true k-th best"), "{err}");
        }
    }

    #[test]
    fn rejects_duplicates_and_bad_ids() {
        let m = model();
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let mut results = solver.query_all(3);
        results[1].items[2] = results[1].items[0];
        results[1].scores[2] = results[1].scores[0];
        let err = check_all_topk(&m, 3, &results, 1e-9).unwrap_err();
        assert!(err.contains("user 1"), "{err}");

        let mut results = solver.query_all(3);
        results[2].items[0] = 9999;
        let err = check_all_topk(&m, 3, &results, 1e-9).unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn rejects_wrong_result_count() {
        let m = model();
        let solver = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let results = solver.query_all(2);
        let err = check_all_topk(&m, 2, &results[..5], 1e-9).unwrap_err();
        assert!(err.contains("result lists"));
    }
}
