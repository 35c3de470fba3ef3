//! Norm-sorted item buckets.
//!
//! Items are sorted by Euclidean norm, descending, then chopped into
//! fixed-size buckets. Each bucket stores the items' *unit directions*
//! (for the INCR cosine bounds), their norms, the original vectors (for
//! exact verification), and precomputed direction suffix norms at the INCR
//! checkpoint.

use mips_linalg::kernels::{norm2, suffix_norms};
use mips_linalg::{quantize_row_i8, Matrix, I8_DOT_MAX_LEN};

/// One bucket of norm-adjacent items.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Global item ids, in descending-norm order.
    pub ids: Vec<u32>,
    /// Original item vectors (row-aligned with `ids`), used for exact
    /// verification dots.
    pub vectors: Matrix<f64>,
    /// Unit directions of the items (zero rows stay zero).
    pub dirs: Matrix<f64>,
    /// Item norms, descending.
    pub norms: Vec<f64>,
    /// `‖dir[cp..]‖` per item: the Cauchy–Schwarz suffix factor at the INCR
    /// checkpoint.
    pub dir_suffix_at_cp: Vec<f64>,
    /// Largest norm in the bucket (`b₁` in the paper's notation).
    pub max_norm: f64,
    /// Symmetric int8 mirror of [`Bucket::vectors`], present only after a
    /// successful [`Bucket::build_screen_mirror_i8`]: the int8 screen
    /// scores items with exact integer dots before the exact verification
    /// dot (see [`crate::scan`]).
    pub vectors_i8: Option<BucketI8>,
}

/// One bucket's int8 screen data (row-aligned with [`Bucket::ids`]).
#[derive(Debug, Clone)]
pub struct BucketI8 {
    /// Item codes, row-major (`n × f`), quantized per row with the shared
    /// [`mips_linalg::quant`] policy.
    pub codes: Vec<i8>,
    /// `1 / s_i` per row (reconstruction multipliers).
    pub inv_scales: Vec<f64>,
    /// Exact L1 norm per row (envelope input).
    pub l1: Vec<f64>,
}

impl Bucket {
    /// Number of items in the bucket.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the bucket holds no items.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Fills [`Bucket::vectors_i8`] with the symmetric int8 codes of the
    /// item vectors, enabling the int8 screen in the scans. Returns `false`
    /// — leaving the bucket unmirrored — when quantization degenerates:
    /// the factor count exceeds the i32-overflow cap
    /// ([`mips_linalg::I8_DOT_MAX_LEN`]) or a row's scale or L1 norm is
    /// non-finite (subnormal magnitudes). Idempotent; `true` when the
    /// mirror already exists.
    pub fn build_screen_mirror_i8(&mut self) -> bool {
        if self.vectors_i8.is_some() {
            return true;
        }
        let (n, f) = (self.vectors.rows(), self.vectors.cols());
        if f > I8_DOT_MAX_LEN {
            return false;
        }
        let mut codes = vec![0i8; n * f];
        let mut inv_scales = Vec::with_capacity(n);
        let mut l1 = Vec::with_capacity(n);
        for r in 0..n {
            let (scale, row_l1) =
                quantize_row_i8(self.vectors.row(r), &mut codes[r * f..(r + 1) * f]);
            if !(scale.is_finite() && row_l1.is_finite()) {
                return false;
            }
            inv_scales.push(1.0 / scale);
            l1.push(row_l1);
        }
        self.vectors_i8 = Some(BucketI8 {
            codes,
            inv_scales,
            l1,
        });
        true
    }
}

/// Sorts items by norm (descending, ties toward smaller id) and partitions
/// them into buckets of `bucket_size` (the final bucket may be smaller).
///
/// `checkpoint` is the INCR coordinate split point, in `[1, f]`.
///
/// # Panics
/// Panics if `items` is empty, `bucket_size == 0`, or the checkpoint is out
/// of range.
pub fn build_buckets(items: &Matrix<f64>, bucket_size: usize, checkpoint: usize) -> Vec<Bucket> {
    assert!(items.rows() > 0, "build_buckets: no items");
    assert!(bucket_size > 0, "build_buckets: bucket_size must be > 0");
    let f = items.cols();
    assert!(
        checkpoint >= 1 && checkpoint <= f,
        "build_buckets: checkpoint {checkpoint} out of range [1, {f}]"
    );

    let mut order: Vec<(f64, u32)> = items
        .iter_rows()
        .enumerate()
        .map(|(i, row)| (norm2(row), i as u32))
        .collect();
    // `total_cmp` instead of `partial_cmp(..).expect(..)`: norms are
    // non-negative and validated finite upstream, but a serving-path sort
    // must never be able to panic on a stray NaN.
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    order
        .chunks(bucket_size)
        .map(|chunk| {
            let n = chunk.len();
            let mut ids = Vec::with_capacity(n);
            let mut vectors = Matrix::<f64>::zeros(n, f);
            let mut dirs = Matrix::<f64>::zeros(n, f);
            let mut norms = Vec::with_capacity(n);
            let mut dir_suffix_at_cp = Vec::with_capacity(n);
            for (r, &(norm, id)) in chunk.iter().enumerate() {
                ids.push(id);
                norms.push(norm);
                let src = items.row(id as usize);
                vectors.row_mut(r).copy_from_slice(src);
                let drow = dirs.row_mut(r);
                if norm > 0.0 {
                    let inv = 1.0 / norm;
                    for (d, &v) in drow.iter_mut().zip(src) {
                        *d = v * inv;
                    }
                }
                let sfx = suffix_norms(dirs.row(r));
                dir_suffix_at_cp.push(sfx[checkpoint]);
            }
            let max_norm = norms[0];
            Bucket {
                ids,
                vectors,
                dirs,
                norms,
                dir_suffix_at_cp,
                max_norm,
                vectors_i8: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items() -> Matrix<f64> {
        Matrix::from_rows(&[
            vec![3.0, 4.0], // norm 5
            vec![1.0, 0.0], // norm 1
            vec![0.0, 2.0], // norm 2
            vec![6.0, 8.0], // norm 10
            vec![0.0, 0.0], // norm 0
        ])
        .unwrap()
    }

    #[test]
    fn buckets_sorted_descending_by_norm() {
        let buckets = build_buckets(&items(), 2, 1);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].ids, vec![3, 0]);
        assert_eq!(buckets[1].ids, vec![2, 1]);
        assert_eq!(buckets[2].ids, vec![4]);
        assert_eq!(buckets[0].max_norm, 10.0);
        assert_eq!(buckets[1].max_norm, 2.0);
        // Norms within each bucket descend.
        for b in &buckets {
            for w in b.norms.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn directions_are_unit_or_zero() {
        let buckets = build_buckets(&items(), 10, 2);
        let b = &buckets[0];
        for r in 0..b.len() {
            let n = norm2(b.dirs.row(r));
            if b.norms[r] > 0.0 {
                assert!((n - 1.0).abs() < 1e-12);
            } else {
                assert_eq!(n, 0.0);
            }
        }
    }

    #[test]
    fn vectors_preserve_originals() {
        let m = items();
        let buckets = build_buckets(&m, 3, 1);
        for b in &buckets {
            for (r, &id) in b.ids.iter().enumerate() {
                assert_eq!(b.vectors.row(r), m.row(id as usize));
            }
        }
    }

    #[test]
    fn suffix_norms_match_direct() {
        let m = items();
        let cp = 1;
        let buckets = build_buckets(&m, 10, cp);
        let b = &buckets[0];
        for r in 0..b.len() {
            let direct = norm2(&b.dirs.row(r)[cp..]);
            assert!((b.dir_suffix_at_cp[r] - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn i8_mirror_quantizes_every_row_with_the_shared_policy() {
        let mut buckets = build_buckets(&items(), 3, 1);
        for b in &mut buckets {
            assert!(b.build_screen_mirror_i8());
            assert!(b.build_screen_mirror_i8(), "not idempotent");
            let q = b.vectors_i8.as_ref().unwrap();
            assert_eq!(q.codes.len(), b.len() * b.vectors.cols());
            for r in 0..b.len() {
                let row = b.vectors.row(r);
                let max_abs = row.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                let scale = mips_linalg::scale_for(max_abs, mips_linalg::I8_QUANT_LEVEL);
                assert!(
                    (q.inv_scales[r] - 1.0 / scale).abs() <= f64::EPSILON * q.inv_scales[r].abs()
                );
                let f = b.vectors.cols();
                for (c, &v) in row.iter().enumerate() {
                    let want = (v * scale).round().clamp(-127.0, 127.0) as i8;
                    assert_eq!(q.codes[r * f + c], want, "row {r} col {c}");
                }
                let l1: f64 = row.iter().map(|v| v.abs()).sum();
                assert_eq!(q.l1[r], l1);
            }
        }
    }

    #[test]
    fn i8_mirror_refuses_subnormal_rows() {
        let m = Matrix::from_rows(&[vec![1.0e-320, 0.0], vec![1.0, 2.0]]).unwrap();
        let mut buckets = build_buckets(&m, 10, 1);
        assert!(!buckets[0].build_screen_mirror_i8());
        assert!(buckets[0].vectors_i8.is_none());
    }

    #[test]
    fn norm_ties_break_by_id() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![-1.0, 0.0]]).unwrap();
        let buckets = build_buckets(&m, 3, 1);
        assert_eq!(buckets[0].ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "checkpoint")]
    fn rejects_out_of_range_checkpoint() {
        let _ = build_buckets(&items(), 2, 3);
    }

    #[test]
    #[should_panic(expected = "no items")]
    fn rejects_empty_items() {
        let empty = Matrix::<f64>::zeros(0, 2);
        let _ = build_buckets(&empty, 2, 1);
    }
}
