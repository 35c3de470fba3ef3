//! The matrix-factorization model type consumed by every MIPS solver, and
//! the zero-copy [`ModelView`] over a contiguous user range of it.

use mips_linalg::{dot, quantize_row_i8, LinalgError, Matrix, RowBlock, I8_DOT_MAX_LEN};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Errors raised when constructing a model from untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// User and item matrices disagree on the number of latent factors.
    FactorMismatch {
        /// Latent factors in the user matrix.
        user_factors: usize,
        /// Latent factors in the item matrix.
        item_factors: usize,
    },
    /// A matrix failed validation (empty or non-finite).
    InvalidMatrix(LinalgError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::FactorMismatch {
                user_factors,
                item_factors,
            } => write!(
                f,
                "user matrix has {user_factors} factors but item matrix has {item_factors}"
            ),
            ModelError::InvalidMatrix(e) => write!(f, "invalid factor matrix: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::InvalidMatrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ModelError {
    fn from(e: LinalgError) -> Self {
        ModelError::InvalidMatrix(e)
    }
}

/// A trained matrix-factorization model: one `f`-dimensional vector per user
/// and per item, with predicted rating `r̂_ui = uᵀi`.
///
/// Both matrices are validated (non-empty, finite, matching width) at
/// construction, so solvers can assume well-formed input. Models are shared
/// between solvers and the optimizer via [`Arc`].
#[derive(Debug, Clone)]
pub struct MfModel {
    name: String,
    users: Matrix<f64>,
    items: Matrix<f64>,
    /// Whether construction ran the full matrix validation; consumers that
    /// must defend against NaN (the serving engine's model intake) skip
    /// their re-scan when this is set.
    validated: bool,
    /// The lazily built int8 mirror (see [`MirrorI8`]), cached for the
    /// model's lifetime like solvers and plans are cached per epoch: a
    /// swapped-in model builds its mirror at most once, and every view or
    /// shard over the model shares it through the parent `Arc`. Cloning a
    /// model shares an already built mirror (the mirror is a pure function
    /// of the factor matrices, which clones share).
    mirror_i8: OnceLock<Arc<MirrorI8>>,
}

/// The int8 mirror of a model's factor matrices: every row quantized
/// symmetrically to `[-127, 127]` with its own scale
/// (`mips_linalg::quant::scale_for`), plus the exact (f64) L1 norms the int8
/// screen envelope is evaluated against.
///
/// This is the data side of the int8 screen tier: scan backends compute
/// the *exact* integer dot `D = q(u)·q(i)` (order-invariant, so
/// bit-identical across SIMD kernels), reconstruct `ŝ = D/(s_u·s_i)`,
/// widen by `mips_linalg::i8_screen_envelope_parts` — which needs `s_u`,
/// `‖u‖₁`, `1/s_i`, and `‖i‖₁` — and rescore the survivors on the parent
/// model's f64 matrices. The L1 norms are computed in f64 *before* rounding,
/// so the envelope refers to the true vectors.
///
/// A mirror is unusable ([`MirrorI8::is_usable`]) when any row's scale is
/// non-finite (a subnormal max-magnitude drives `127/max_abs` to infinity),
/// any L1 norm is non-finite (NaN-poisoned unvalidated input), or the factor
/// count exceeds the integer kernels' i32-overflow cap
/// (`mips_linalg::I8_DOT_MAX_LEN`); consumers then fall back to the pure-f64
/// path rather than screening against garbage.
#[derive(Debug)]
pub struct MirrorI8 {
    users_q: Vec<i8>,
    items_q: Vec<i8>,
    f: usize,
    user_scales: Vec<f64>,
    item_inv_scales: Vec<f64>,
    user_l1: Vec<f64>,
    item_l1: Vec<f64>,
    usable: bool,
}

impl MirrorI8 {
    fn build(users: &Matrix<f64>, items: &Matrix<f64>) -> MirrorI8 {
        let f = users.cols();
        let quantize = |m: &Matrix<f64>| {
            let mut q = vec![0i8; m.rows() * f];
            let mut scales = Vec::with_capacity(m.rows());
            let mut l1 = Vec::with_capacity(m.rows());
            for (r, row) in m.iter_rows().enumerate() {
                let (s, n1) = quantize_row_i8(row, &mut q[r * f..(r + 1) * f]);
                scales.push(s);
                l1.push(n1);
            }
            (q, scales, l1)
        };
        let (users_q, user_scales, user_l1) = quantize(users);
        let (items_q, item_scales, item_l1) = quantize(items);
        let usable = f <= I8_DOT_MAX_LEN
            && user_scales
                .iter()
                .chain(&item_scales)
                .all(|s| s.is_finite())
            && user_l1.iter().chain(&item_l1).all(|n| n.is_finite());
        MirrorI8 {
            users_q,
            items_q,
            f,
            user_scales,
            item_inv_scales: item_scales.iter().map(|&s| 1.0 / s).collect(),
            user_l1,
            item_l1,
            usable,
        }
    }

    /// Latent factors per row.
    pub fn factors(&self) -> usize {
        self.f
    }

    /// The quantized codes of user row `r`.
    pub fn user_row(&self, r: usize) -> &[i8] {
        &self.users_q[r * self.f..(r + 1) * self.f]
    }

    /// The quantized codes of item row `r`.
    pub fn item_row(&self, r: usize) -> &[i8] {
        &self.items_q[r * self.f..(r + 1) * self.f]
    }

    /// The full quantized user matrix, row-major (`|U| × f`).
    pub fn users_q(&self) -> &[i8] {
        &self.users_q
    }

    /// The full quantized item matrix, row-major (`|I| × f`).
    pub fn items_q(&self) -> &[i8] {
        &self.items_q
    }

    /// Per-user quantization scale `s_u` (codes = round(value · s_u)).
    pub fn user_scales(&self) -> &[f64] {
        &self.user_scales
    }

    /// Per-item *inverse* scale `1/s_i`, precomputed because every screened
    /// score multiplies by it.
    pub fn item_inv_scales(&self) -> &[f64] {
        &self.item_inv_scales
    }

    /// Exact (f64) L1 norm of each original user row.
    pub fn user_l1(&self) -> &[f64] {
        &self.user_l1
    }

    /// Exact (f64) L1 norm of each original item row.
    pub fn item_l1(&self) -> &[f64] {
        &self.item_l1
    }

    /// `false` when quantization degenerated (non-finite scale or L1) or the
    /// factor count exceeds the integer kernels' overflow cap; consumers
    /// must fall back to an unscreened path.
    pub fn is_usable(&self) -> bool {
        self.usable
    }
}

impl MfModel {
    /// Builds and validates a model.
    pub fn new(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> Result<Self, ModelError> {
        users.validate("MfModel users")?;
        items.validate("MfModel items")?;
        if users.cols() != items.cols() {
            return Err(ModelError::FactorMismatch {
                user_factors: users.cols(),
                item_factors: items.cols(),
            });
        }
        Ok(MfModel {
            name: name.into(),
            users,
            items,
            validated: true,
            mirror_i8: OnceLock::new(),
        })
    }

    /// Builds a model **without** validating the matrices.
    ///
    /// For trusted zero-copy loaders (and tests of downstream validation)
    /// where re-scanning every factor at construction is unwanted. The
    /// serving engine re-checks finiteness at its model intake points
    /// (`EngineBuilder::build` and `Engine::swap_model`), so a non-finite
    /// or shape-mismatched model built this way surfaces as a typed error
    /// there rather than as silent NaN-poisoned results.
    pub fn new_unvalidated(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> MfModel {
        MfModel {
            name: name.into(),
            users,
            items,
            validated: false,
            mirror_i8: OnceLock::new(),
        }
    }

    /// Whether this model was constructed through the validating path
    /// ([`MfModel::new`]/[`MfModel::new_shared`]). Models from
    /// [`MfModel::new_unvalidated`] report `false`, telling downstream
    /// intake checks (the engine's build/swap validation) to re-scan.
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// Builds a model and wraps it in an [`Arc`] for sharing across solvers.
    pub fn new_shared(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> Result<Arc<Self>, ModelError> {
        Ok(Arc::new(Self::new(name, users, items)?))
    }

    /// Human-readable model name (e.g. `"Netflix-DSGD, f = 50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The user factor matrix (`|U| × f`).
    pub fn users(&self) -> &Matrix<f64> {
        &self.users
    }

    /// The item factor matrix (`|I| × f`).
    pub fn items(&self) -> &Matrix<f64> {
        &self.items
    }

    /// Number of users `|U|`.
    pub fn num_users(&self) -> usize {
        self.users.rows()
    }

    /// Number of items `|I|`.
    pub fn num_items(&self) -> usize {
        self.items.rows()
    }

    /// Number of latent factors `f`.
    pub fn num_factors(&self) -> usize {
        self.users.cols()
    }

    /// The predicted rating `uᵀi` for one user–item pair.
    pub fn predict(&self, user: usize, item: usize) -> f64 {
        dot(self.users.row(user), self.items.row(item))
    }

    /// A copy restricted to the given users (used by OPTIMUS sampling tests).
    pub fn with_users(&self, indices: &[usize]) -> MfModel {
        MfModel {
            name: format!("{}[{} users]", self.name, indices.len()),
            users: self.users.gather_rows(indices),
            items: self.items.clone(),
            // Row-gathering validated matrices cannot introduce NaN.
            validated: self.validated,
            mirror_i8: OnceLock::new(),
        }
    }

    /// The int8 mirror, built on first use and cached for the model's
    /// lifetime (see [`MirrorI8`]). Thread-safe: concurrent first callers
    /// race to build and all observe one winner.
    pub fn mirror_i8(&self) -> &Arc<MirrorI8> {
        self.mirror_i8
            .get_or_init(|| Arc::new(MirrorI8::build(&self.users, &self.items)))
    }
}

/// A zero-copy view of a contiguous user range of a shared [`MfModel`].
///
/// Row-major storage makes a contiguous user range a contiguous factor
/// block, so the view is an `Arc` plus a range: [`ModelView::users_block`]
/// borrows the block straight out of the parent matrix without copying, and
/// the item matrix is shared untouched. This is the unit solver indexes and
/// serving plans can be built over — a shard of the serving runtime is
/// exactly such a view — while the parent model stays the single source of
/// truth for global user ids (`global id = view.user_range().start + local
/// row`).
#[derive(Debug, Clone)]
pub struct ModelView {
    model: Arc<MfModel>,
    users: Range<usize>,
}

impl ModelView {
    /// The view covering every user (the whole-model case; zero-copy in
    /// every operation including [`ModelView::to_model`]).
    pub fn full(model: &Arc<MfModel>) -> ModelView {
        ModelView {
            users: 0..model.num_users(),
            model: Arc::clone(model),
        }
    }

    /// The view over a contiguous user range.
    ///
    /// # Panics
    /// Panics when the range is empty or exceeds the model's user count;
    /// callers (the serving runtime's shard router) derive ranges from the
    /// model itself, so an out-of-range view is a logic error.
    pub fn of_range(model: &Arc<MfModel>, users: Range<usize>) -> ModelView {
        assert!(
            users.start < users.end && users.end <= model.num_users(),
            "ModelView: user range {users:?} invalid for {} users",
            model.num_users()
        );
        ModelView {
            users,
            model: Arc::clone(model),
        }
    }

    /// The parent model the view slices.
    pub fn model(&self) -> &Arc<MfModel> {
        &self.model
    }

    /// The global user ids the view covers.
    pub fn user_range(&self) -> Range<usize> {
        self.users.clone()
    }

    /// `true` when the view covers the whole model.
    pub fn is_full(&self) -> bool {
        self.users.start == 0 && self.users.end == self.model.num_users()
    }

    /// Users in the view.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Items of the (shared, un-sliced) catalog.
    pub fn num_items(&self) -> usize {
        self.model.num_items()
    }

    /// Latent factors `f`.
    pub fn num_factors(&self) -> usize {
        self.model.num_factors()
    }

    /// The view's user factor rows as one contiguous block — zero-copy:
    /// this borrows straight from the parent matrix.
    pub fn users_block(&self) -> RowBlock<'_, f64> {
        self.model
            .users()
            .row_block(self.users.start, self.users.end)
    }

    /// The shared item factor matrix (`|I| × f`).
    pub fn items(&self) -> &Matrix<f64> {
        self.model.items()
    }

    /// A model equivalent to the view, for consumers that only speak
    /// [`MfModel`]. A full view returns the parent `Arc` (zero-copy); a
    /// proper slice materializes a sub-model whose user matrix is one
    /// `memcpy` of the contiguous factor block. Built-in solver factories
    /// avoid even that copy by consuming the view natively.
    pub fn to_model(&self) -> Arc<MfModel> {
        if self.is_full() {
            return Arc::clone(&self.model);
        }
        let f = self.model.num_factors();
        let block = self.users_block();
        let users = Matrix::from_vec(self.users.len(), f, block.as_slice().to_vec())
            .expect("a slice of a well-formed matrix is well-formed");
        Arc::new(MfModel {
            name: format!(
                "{}[{}..{})",
                self.model.name, self.users.start, self.users.end
            ),
            users,
            items: self.model.items.clone(),
            // Slicing preserves the parent's validation status: no new
            // values are introduced.
            validated: self.model.validated,
            mirror_i8: OnceLock::new(),
        })
    }

    /// The parent model's int8 mirror (shared across every view of the
    /// model; local rows address it at `user_range().start + row`).
    pub fn mirror_i8(&self) -> &Arc<MirrorI8> {
        self.model.mirror_i8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users2x2() -> Matrix<f64> {
        Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap()
    }

    fn items3x2() -> Matrix<f64> {
        Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = MfModel::new("test", users2x2(), items3x2()).unwrap();
        assert_eq!(m.name(), "test");
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.num_items(), 3);
        assert_eq!(m.num_factors(), 2);
        assert_eq!(m.predict(0, 1), 3.0);
        assert_eq!(m.predict(1, 2), 6.0);
    }

    #[test]
    fn rejects_factor_mismatch() {
        let users = Matrix::from_vec(2, 3, vec![0.5; 6]).unwrap();
        let err = MfModel::new("bad", users, items3x2()).unwrap_err();
        assert!(matches!(err, ModelError::FactorMismatch { .. }));
        assert!(err.to_string().contains("3 factors"));
    }

    #[test]
    fn rejects_non_finite_factors() {
        let mut users = users2x2();
        users.set(0, 0, f64::NAN);
        let err = MfModel::new("nan", users, items3x2()).unwrap_err();
        assert!(matches!(err, ModelError::InvalidMatrix(_)));
    }

    #[test]
    fn rejects_empty_matrices() {
        let empty = Matrix::<f64>::zeros(0, 2);
        assert!(MfModel::new("e", empty, items3x2()).is_err());
    }

    #[test]
    fn with_users_subsets() {
        let m = MfModel::new("test", users2x2(), items3x2()).unwrap();
        let sub = m.with_users(&[1]);
        assert_eq!(sub.num_users(), 1);
        assert_eq!(sub.num_items(), 3);
        assert_eq!(sub.predict(0, 2), 6.0);
    }

    #[test]
    fn shared_constructor_returns_arc() {
        let m = MfModel::new_shared("s", users2x2(), items3x2()).unwrap();
        let m2 = m.clone();
        assert_eq!(m2.num_users(), 2);
    }

    #[test]
    fn full_view_is_the_model_itself_zero_copy() {
        let m = MfModel::new_shared("v", users2x2(), items3x2()).unwrap();
        let view = ModelView::full(&m);
        assert!(view.is_full());
        assert_eq!(view.num_users(), 2);
        assert_eq!(view.num_items(), 3);
        assert_eq!(view.num_factors(), 2);
        assert_eq!(view.users_block().as_slice(), m.users().as_slice());
        // to_model on a full view hands back the same allocation.
        assert!(Arc::ptr_eq(&view.to_model(), &m));
    }

    #[test]
    fn range_view_slices_the_factor_block_and_materializes_identically() {
        let users = Matrix::from_vec(4, 2, (0..8).map(|v| v as f64).collect()).unwrap();
        let m = MfModel::new_shared("v", users, items3x2()).unwrap();
        let view = ModelView::of_range(&m, 1..3);
        assert!(!view.is_full());
        assert_eq!(view.num_users(), 2);
        assert_eq!(view.user_range(), 1..3);
        // The block borrows rows 1 and 2 verbatim.
        assert_eq!(view.users_block().as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        let sub = view.to_model();
        assert_eq!(sub.num_users(), 2);
        assert_eq!(sub.users().as_slice(), view.users_block().as_slice());
        assert_eq!(sub.items().as_slice(), m.items().as_slice());
        assert!(sub.is_validated(), "slicing keeps the validation status");
        // Local row 0 of the view is global user 1.
        assert_eq!(sub.predict(0, 2), m.predict(1, 2));
    }

    #[test]
    fn mirror_i8_is_lazy_shared_and_quantizes_per_row() {
        let m = MfModel::new_shared("m", users2x2(), items3x2()).unwrap();
        let mirror = m.mirror_i8();
        assert!(mirror.is_usable());
        assert_eq!(mirror.factors(), 2);
        // User row 0 = [1, 0]: max-abs 1 → scale 127, codes [127, 0].
        assert_eq!(mirror.user_row(0), &[127, 0]);
        assert!((mirror.user_scales()[0] - 127.0).abs() < 1e-12);
        assert!((mirror.user_l1()[0] - 1.0).abs() < 1e-12);
        // Item row 2 = [5, 6]: max-abs 6 → scale 127/6, codes round(v·s).
        let s: f64 = 127.0 / 6.0;
        assert_eq!(mirror.item_row(2), &[(5.0 * s).round() as i8, 127]);
        assert!((mirror.item_inv_scales()[2] - 6.0 / 127.0).abs() < 1e-15);
        assert!((mirror.item_l1()[2] - 11.0).abs() < 1e-12);
        assert_eq!(mirror.items_q().len(), 6);
        // Repeated calls and views share one build.
        assert!(Arc::ptr_eq(m.mirror_i8(), mirror));
        let view = ModelView::of_range(&m, 0..1);
        assert!(Arc::ptr_eq(view.mirror_i8(), mirror));
    }

    #[test]
    fn mirror_i8_flags_subnormal_rows_as_unusable() {
        // A subnormal max-magnitude drives scale = 127/max_abs to infinity.
        let users = Matrix::from_vec(1, 2, vec![f64::MIN_POSITIVE / 4.0, 0.0]).unwrap();
        let m = MfModel::new("tiny", users, items3x2()).unwrap();
        assert!(!m.mirror_i8().is_usable());
    }

    #[test]
    fn mirror_i8_flags_nan_input_as_unusable() {
        // Unvalidated models may carry NaN; the L1 scan catches it.
        let mut users = users2x2();
        users.set(0, 0, f64::NAN);
        let m = MfModel::new_unvalidated("nan", users, items3x2());
        assert!(!m.mirror_i8().is_usable());
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn out_of_range_views_are_rejected() {
        let m = MfModel::new_shared("v", users2x2(), items3x2()).unwrap();
        let _ = ModelView::of_range(&m, 1..5);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn empty_views_are_rejected() {
        let m = MfModel::new_shared("v", users2x2(), items3x2()).unwrap();
        let _ = ModelView::of_range(&m, 1..1);
    }
}
