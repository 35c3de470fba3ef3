//! Exact inverted-index MIPS for sparse and hybrid dense–sparse catalogs.
//!
//! Every backend before this one scans items: BMM, MAXIMUS, LEMP, and
//! FEXIPRO all walk (some prefix of) every item vector per query. When the
//! catalog is sparse — bag-of-words features, learned sparse embeddings —
//! almost all of that work multiplies by zero. The inverted-index family
//! (SINDI and friends) transposes the loop: store, per *factor*, the
//! postings list of items with a nonzero coordinate there, and per query
//! touch only the postings of the query's own nonzero coordinates
//! (term-at-a-time accumulation). Work drops from `O(n·f)` to
//! `O(nnz(q) · avg postings)`.
//!
//! The catch is exactness. This repository's contract is that every backend
//! returns results **bit-identical** to the blocked-matrix-multiply
//! reference, whose scores are single sequential FMA chains over all `f`
//! coordinates ([`mips_linalg::kernels::dot_gemm_ordered`]). A postings
//! accumulator sums a different subset in a different order, so its floats
//! can differ from the canonical chain in the last ulps. [`InvertedIndex`]
//! therefore runs a *screen-then-rescore* pipeline, the same discipline the
//! int8 screen of the scan backends uses:
//!
//! 1. **Accumulate** approximate scores over the postings (plus dense
//!    column panels for the hybrid head — columns denser than
//!    [`SparseConfig::dense_column_cutoff`] are stored contiguously and
//!    accumulated with a dense AXPY-style loop).
//! 2. **Bound** each accumulated score by a conservative envelope
//!    ([`sparse_accum_envelope_parts`]) covering reassociation between the
//!    accumulation order and the canonical chain, plus the L2 mass of any
//!    pruned query terms (norm-based pruning, [`SparseConfig::prune_threshold`]).
//! 3. **Select** candidates whose upper bound clears the `k`-th best lower
//!    bound, and **rescore** exactly those with the canonical FMA chain.
//!    Untouched items — no overlap with the (unpruned) query support — have
//!    a canonical score of *exactly* `+0.0` (every chain step is
//!    `fma(x, ±0, acc)` or `fma(0, y, acc)`, which cannot move `acc` off
//!    `+0.0` in round-to-nearest), so they are admitted as literal zeros
//!    without rescoring when the threshold allows them at all.
//!
//! The top-k heap is push-order independent, so feeding it the canonical
//! scores of a candidate superset yields the same list, bit for bit, as
//! feeding it every item — the property the identity proptests pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mips_linalg::kernels::{dot_gemm_ordered, dot_gemm_ordered_x4};
use mips_linalg::{norm2, Matrix};
use mips_topk::{TopKHeap, TopKList};

/// Knobs of the inverted-index backend — the sparse entries of the engine's
/// options surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseConfig {
    /// Fraction of the query's L2 mass that norm-based pruning may skip, in
    /// `[0, 1)`. The smallest-magnitude query terms are dropped while their
    /// combined L2 norm stays within `prune_threshold · ‖q‖`; the skipped
    /// mass is folded into the rescore envelope (Cauchy–Schwarz), so
    /// results stay exact — pruning trades accumulation work for rescore
    /// work. `0` (the default) disables pruning.
    pub prune_threshold: f64,
    /// Column density above which a factor column is stored as a contiguous
    /// dense panel instead of a postings list, in `(0, 1]`. This is the
    /// hybrid split: dense-head coordinates of a hybrid catalog exceed the
    /// cutoff and get cache-friendly dense accumulation, the sparse tail
    /// stays on postings. `1.0` forces postings everywhere.
    pub dense_column_cutoff: f64,
}

impl Default for SparseConfig {
    fn default() -> SparseConfig {
        SparseConfig {
            prune_threshold: 0.0,
            dense_column_cutoff: 0.25,
        }
    }
}

impl SparseConfig {
    /// Validates knob ranges (mirrors the other backends' config checks).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.prune_threshold) {
            return Err(format!(
                "prune_threshold {} outside [0, 1)",
                self.prune_threshold
            ));
        }
        if !(self.dense_column_cutoff > 0.0 && self.dense_column_cutoff <= 1.0) {
            return Err(format!(
                "dense_column_cutoff {} outside (0, 1]",
                self.dense_column_cutoff
            ));
        }
        Ok(())
    }
}

/// Envelope parts `(rel, abs)` for the inverted-index accumulator: the
/// accumulated score of an item with norm `‖v‖` under a query with norm
/// `‖q‖` differs from the canonical GEMM-ordered chain by at most
/// `rel · ‖q‖ · ‖v‖ + abs` (before pruning, whose skipped mass is added
/// separately). Both the canonical chain (`f` terms) and the accumulation
/// chain (≤ `f` terms, any order) carry `γ_f ≈ f·2⁻⁵³` relative error
/// against the exact sum, so `2γ_f` separates them; the constants below
/// double that again and pad the norm rounding. The `abs` part covers
/// subnormal underflow in either chain.
pub fn sparse_accum_envelope_parts(num_factors: usize) -> (f64, f64) {
    let f = num_factors as f64;
    let rel = (4.0 * f + 16.0) * f64::EPSILON * 1.0001;
    let abs = (f + 8.0) * f64::MIN_POSITIVE;
    (rel, abs)
}

/// How one factor column is stored.
#[derive(Debug, Clone)]
enum Column {
    /// Postings span into the shared `post_items`/`post_values` arrays.
    Sparse { start: usize, end: usize },
    /// Index of a contiguous column in the dense panel.
    Dense { panel: usize },
}

/// Reusable per-query scratch: the dense accumulator, touch stamps, and
/// candidate buffers. One instance serves any number of sequential queries
/// against the same index; allocating it once per `query_range` keeps the
/// per-user cost at `O(touched)`, not `O(n)`.
#[derive(Debug)]
pub struct SparseScratch {
    acc: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
    candidates: Vec<u32>,
    terms: Vec<(u32, f64)>,
}

impl SparseScratch {
    /// Scratch sized for an index over `num_items` items.
    pub fn new(num_items: usize) -> SparseScratch {
        SparseScratch {
            acc: vec![0.0; num_items],
            stamp: vec![0; num_items],
            epoch: 0,
            touched: Vec::new(),
            candidates: Vec::new(),
            terms: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: stale stamps could collide with the fresh epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The inverted index over one item matrix: per-factor postings lists,
/// dense panels for hybrid-head columns, and exact per-item norms for the
/// envelope. The index never copies item rows — exact rescoring reads them
/// from the matrix the index was built over, which callers pass back in
/// (the solver adapter owns the model; the index owns only derived state).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    num_items: usize,
    num_factors: usize,
    columns: Vec<Column>,
    post_items: Vec<u32>,
    post_values: Vec<f64>,
    panels: Vec<f64>,
    item_norms: Vec<f64>,
    max_item_norm: f64,
    postings_nnz: usize,
    num_dense_cols: usize,
    config: SparseConfig,
}

impl InvertedIndex {
    /// Builds the index over `items` (one item vector per row).
    ///
    /// # Panics
    /// Panics if `config` fails validation, on non-finite entries, or if
    /// the item count exceeds `u32` index space.
    pub fn build(items: &Matrix<f64>, config: SparseConfig) -> InvertedIndex {
        config
            .validate()
            .unwrap_or_else(|err| panic!("InvertedIndex: invalid config: {err}"));
        let n = items.rows();
        let f = items.cols();
        assert!(
            n <= u32::MAX as usize,
            "InvertedIndex: {n} items exceed u32 index space"
        );

        // Pass 1: per-column nonzero counts decide sparse vs dense storage.
        let mut col_nnz = vec![0usize; f];
        for row in items.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                assert!(v.is_finite(), "InvertedIndex: non-finite entry");
                if v != 0.0 {
                    col_nnz[j] += 1;
                }
            }
        }
        let mut columns = Vec::with_capacity(f);
        let mut postings_nnz = 0usize;
        let mut num_dense_cols = 0usize;
        for &nnz in &col_nnz {
            let density = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
            if density > config.dense_column_cutoff {
                columns.push(Column::Dense {
                    panel: num_dense_cols,
                });
                num_dense_cols += 1;
            } else {
                // Span filled in pass 2; record the width for now.
                columns.push(Column::Sparse {
                    start: postings_nnz,
                    end: postings_nnz + nnz,
                });
                postings_nnz += nnz;
            }
        }

        // Pass 2: fill postings (item-ascending per column, by construction
        // of the row-major walk) and dense panels (column-major).
        let mut post_items = vec![0u32; postings_nnz];
        let mut post_values = vec![0.0f64; postings_nnz];
        let mut fill = vec![0usize; f];
        let mut panels = vec![0.0f64; num_dense_cols * n];
        for (i, row) in items.iter_rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                match columns[j] {
                    Column::Dense { panel } => panels[panel * n + i] = v,
                    Column::Sparse { start, .. } => {
                        if v != 0.0 {
                            let slot = start + fill[j];
                            post_items[slot] = i as u32;
                            post_values[slot] = v;
                            fill[j] += 1;
                        }
                    }
                }
            }
        }

        let item_norms: Vec<f64> = items.iter_rows().map(norm2).collect();
        let max_item_norm = item_norms.iter().copied().fold(0.0, f64::max);
        InvertedIndex {
            num_items: n,
            num_factors: f,
            columns,
            post_items,
            post_values,
            panels,
            item_norms,
            max_item_norm,
            postings_nnz,
            num_dense_cols,
            config,
        }
    }

    /// Items indexed.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Latent dimensionality `f`.
    pub fn num_factors(&self) -> usize {
        self.num_factors
    }

    /// Total postings entries across sparse columns.
    pub fn postings_nnz(&self) -> usize {
        self.postings_nnz
    }

    /// Columns stored as dense panels (the hybrid head).
    pub fn num_dense_cols(&self) -> usize {
        self.num_dense_cols
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SparseConfig {
        &self.config
    }

    /// Accumulation cost of a query touching *every* factor once: postings
    /// entries plus dense-panel cells. A query with `nnz(q)` uniformly
    /// placed nonzeros expects `nnz(q)/f` of this — the quantity OPTIMUS's
    /// analytical sparse model scales by sampled query-side nnz.
    pub fn total_scan_cost(&self) -> usize {
        self.postings_nnz + self.num_dense_cols * self.num_items
    }

    /// Exact top-`k` for a dense query vector, allocating fresh scratch.
    /// See [`InvertedIndex::query_with_scratch`].
    pub fn query(&self, query: &[f64], k: usize, items: &Matrix<f64>) -> TopKList {
        let mut scratch = SparseScratch::new(self.num_items);
        self.query_with_scratch(query, k, items, &mut scratch)
    }

    /// Exact top-`k` for a dense query vector, bit-identical to pushing
    /// every item's [`dot_gemm_ordered`] score into a [`TopKHeap`].
    ///
    /// `items` must be the matrix the index was built over (the caller —
    /// solver adapter or engine — owns it; the index stores only derived
    /// postings).
    ///
    /// # Panics
    /// Panics if dimensions disagree with the index or the query has
    /// non-finite entries.
    pub fn query_with_scratch(
        &self,
        query: &[f64],
        k: usize,
        items: &Matrix<f64>,
        scratch: &mut SparseScratch,
    ) -> TopKList {
        assert_eq!(
            query.len(),
            self.num_factors,
            "InvertedIndex: query dimension mismatch"
        );
        assert_eq!(
            (items.rows(), items.cols()),
            (self.num_items, self.num_factors),
            "InvertedIndex: items matrix does not match the indexed shape"
        );
        assert_eq!(scratch.acc.len(), self.num_items, "scratch size mismatch");
        for &v in query {
            assert!(v.is_finite(), "InvertedIndex: non-finite query entry");
        }

        let n = self.num_items;
        let query_norm = norm2(query);

        // --- Term selection and norm-based pruning. -----------------------
        scratch.terms.clear();
        for (j, &q) in query.iter().enumerate() {
            if q != 0.0 {
                scratch.terms.push((j as u32, q));
            }
        }
        let mut skipped_mass = 0.0f64;
        if self.config.prune_threshold > 0.0 && !scratch.terms.is_empty() {
            // Drop the smallest-|q_j| sparse-column terms while their joint
            // L2 mass stays within the budget. Dense panels are never
            // pruned: their per-term cost is the point of the panel, and
            // keeping them tightens the envelope for free.
            let budget = self.config.prune_threshold * query_norm;
            scratch
                .terms
                .sort_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
            let mut sumsq = 0.0f64;
            let mut keep_from = 0usize;
            for (idx, &(j, q)) in scratch.terms.iter().enumerate() {
                if matches!(self.columns[j as usize], Column::Dense { .. }) {
                    break;
                }
                let next = sumsq + q * q;
                if next.sqrt() <= budget {
                    sumsq = next;
                    keep_from = idx + 1;
                } else {
                    break;
                }
            }
            if keep_from > 0 {
                scratch.terms.drain(..keep_from);
                // 1.001 pads the rounding of the pruned-mass arithmetic
                // itself; the envelope proper is handled separately.
                skipped_mass = sumsq.sqrt() * 1.001;
            }
        }

        // --- Term-at-a-time accumulation. ---------------------------------
        let any_dense = scratch
            .terms
            .iter()
            .any(|&(j, _)| matches!(self.columns[j as usize], Column::Dense { .. }));
        let all_touched = any_dense;
        if all_touched {
            // A dense panel touches every item; skip stamp bookkeeping.
            scratch.acc.fill(0.0);
            for &(j, q) in &scratch.terms {
                match self.columns[j as usize] {
                    Column::Dense { panel } => {
                        let col = &self.panels[panel * n..(panel + 1) * n];
                        for (a, &v) in scratch.acc.iter_mut().zip(col) {
                            *a = q.mul_add(v, *a);
                        }
                    }
                    Column::Sparse { start, end } => {
                        for (slot, &i) in self.post_items[start..end].iter().enumerate() {
                            let v = self.post_values[start + slot];
                            scratch.acc[i as usize] = q.mul_add(v, scratch.acc[i as usize]);
                        }
                    }
                }
            }
        } else {
            let epoch = scratch.next_epoch();
            scratch.touched.clear();
            for &(j, q) in &scratch.terms {
                if let Column::Sparse { start, end } = self.columns[j as usize] {
                    for (slot, &i) in self.post_items[start..end].iter().enumerate() {
                        let v = self.post_values[start + slot];
                        let idx = i as usize;
                        if scratch.stamp[idx] != epoch {
                            scratch.stamp[idx] = epoch;
                            scratch.acc[idx] = 0.0;
                            scratch.touched.push(i);
                        }
                        scratch.acc[idx] = q.mul_add(v, scratch.acc[idx]);
                    }
                }
            }
        }

        // --- Envelope + candidate selection. ------------------------------
        let (rel, abs) = sparse_accum_envelope_parts(self.num_factors);
        let env_rel = rel * query_norm + skipped_mass;
        let envelope = |norm: f64| env_rel * norm + abs;

        let mut lower = TopKHeap::new(k);
        let push_lower = |lower: &mut TopKHeap, acc: f64, i: u32, norms: &[f64]| {
            lower.push(acc - envelope(norms[i as usize]), i);
        };
        if all_touched {
            for i in 0..n as u32 {
                push_lower(&mut lower, scratch.acc[i as usize], i, &self.item_norms);
            }
        } else {
            for &i in &scratch.touched {
                push_lower(&mut lower, scratch.acc[i as usize], i, &self.item_norms);
            }
        }
        let theta = lower.threshold();

        scratch.candidates.clear();
        if all_touched {
            for i in 0..n as u32 {
                if scratch.acc[i as usize] + envelope(self.item_norms[i as usize]) >= theta {
                    scratch.candidates.push(i);
                }
            }
        } else {
            for &i in &scratch.touched {
                if scratch.acc[i as usize] + envelope(self.item_norms[i as usize]) >= theta {
                    scratch.candidates.push(i);
                }
            }
        }

        // --- Exact canonical rescore of the candidate superset. -----------
        let mut heap = TopKHeap::new(k);
        let mut chunks = scratch.candidates.chunks_exact(4);
        for chunk in &mut chunks {
            let rows = [
                items.row(chunk[0] as usize),
                items.row(chunk[1] as usize),
                items.row(chunk[2] as usize),
                items.row(chunk[3] as usize),
            ];
            let scores = dot_gemm_ordered_x4(query, rows);
            for (&i, &s) in chunk.iter().zip(&scores) {
                heap.push(s, i);
            }
        }
        for &i in chunks.remainder() {
            heap.push(dot_gemm_ordered(query, items.row(i as usize)), i);
        }

        // --- Untouched items. ---------------------------------------------
        // Without pruning an untouched item's canonical score is exactly
        // +0.0 (see crate docs), so it enters as a literal zero. With
        // pruning its accumulator is an implicit 0 with the same envelope
        // as everyone else, so it must be rescored when the envelope
        // clears θ. Either way the global max-norm envelope lets the whole
        // pass be skipped once θ is safely above anything untouched.
        if !all_touched && theta <= envelope(self.max_item_norm) {
            let epoch = scratch.epoch;
            let prune_active = skipped_mass > 0.0;
            for i in 0..n as u32 {
                if scratch.stamp[i as usize] == epoch {
                    continue; // touched
                }
                if prune_active {
                    if envelope(self.item_norms[i as usize]) >= theta {
                        heap.push(dot_gemm_ordered(query, items.row(i as usize)), i);
                    }
                } else {
                    heap.push(0.0, i);
                }
            }
        }

        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_topk(query: &[f64], k: usize, items: &Matrix<f64>) -> TopKList {
        let mut heap = TopKHeap::new(k);
        for i in 0..items.rows() {
            heap.push(dot_gemm_ordered(query, items.row(i)), i as u32);
        }
        heap.into_sorted()
    }

    fn assert_bit_identical(a: &TopKList, b: &TopKList) {
        assert_eq!(a.items, b.items, "item order differs");
        let a_bits: Vec<u64> = a.scores.iter().map(|s| s.to_bits()).collect();
        let b_bits: Vec<u64> = b.scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "score bits differ");
    }

    fn toy_items() -> Matrix<f64> {
        // 6 items, 4 factors; column 0 dense, the rest sparse.
        Matrix::from_vec(
            6,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                -0.5, 1.5, 0.0, 0.0, //
                2.0, 0.0, 0.0, -1.0, //
                0.1, 0.0, 0.0, 0.0, //
                -1.0, 0.0, 3.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, // all-zero item
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_reference_on_toy_matrix_at_every_k() {
        let items = toy_items();
        let index = InvertedIndex::build(&items, SparseConfig::default());
        assert_eq!(
            index.num_dense_cols(),
            2,
            "columns 0 (5/6) and 2 (2/6) are dense"
        );
        for query in [
            vec![1.0, 0.0, 0.5, 0.0],
            vec![0.0, 2.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![-1.0, 1.0, 1.0, 1.0],
        ] {
            for k in 0..=7 {
                let got = index.query(&query, k, &items);
                let want = reference_topk(&query, k, &items);
                assert_bit_identical(&got, &want);
            }
        }
    }

    #[test]
    fn untouched_items_enter_as_exact_zeros() {
        // Query supported only on factor 1 → touches item 1 alone; with
        // k=3 the zero-scoring untouched items must fill the tail in id
        // order, exactly as the dense reference produces them.
        let items = toy_items();
        let index = InvertedIndex::build(
            &items,
            SparseConfig {
                dense_column_cutoff: 1.0, // force postings everywhere
                ..SparseConfig::default()
            },
        );
        assert_eq!(index.num_dense_cols(), 0);
        let query = vec![0.0, 1.0, 0.0, 0.0];
        let got = index.query(&query, 3, &items);
        let want = reference_topk(&query, 3, &items);
        assert_bit_identical(&got, &want);
        assert_eq!(got.items[0], 1);
        assert_eq!(got.scores[1], 0.0);
    }

    #[test]
    fn pruning_stays_exact() {
        let items = toy_items();
        let index = InvertedIndex::build(
            &items,
            SparseConfig {
                prune_threshold: 0.5,
                dense_column_cutoff: 1.0,
            },
        );
        // Tiny component on factor 3 gets pruned; results must not change.
        let query = vec![1.0, 0.4, 0.3, 1e-6];
        for k in 1..=6 {
            let got = index.query(&query, k, &items);
            let want = reference_topk(&query, k, &items);
            assert_bit_identical(&got, &want);
        }
    }

    #[test]
    fn scan_cost_counts_postings_and_panels() {
        let items = toy_items();
        let index = InvertedIndex::build(&items, SparseConfig::default());
        // Columns 0 (5/6) and 2 (2/6) exceed the 0.25 cutoff → dense panels
        // (cost 6 each). Columns 1 and 3 hold 1 posting apiece.
        assert_eq!(index.postings_nnz(), 2);
        assert_eq!(index.total_scan_cost(), 12 + 2);
    }

    #[test]
    #[should_panic(expected = "prune_threshold")]
    fn rejects_invalid_config() {
        let items = toy_items();
        let _ = InvertedIndex::build(
            &items,
            SparseConfig {
                prune_threshold: 1.5,
                ..SparseConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn rejects_query_dim_mismatch() {
        let items = toy_items();
        let index = InvertedIndex::build(&items, SparseConfig::default());
        let _ = index.query(&[1.0, 2.0], 1, &items);
    }
}
