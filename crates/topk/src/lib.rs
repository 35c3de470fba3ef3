//! Top-K selection for exact MIPS.
//!
//! Every solver in the repository ends the same way the paper's C++
//! implementations do: ratings stream into a bounded min-heap whose root is
//! the *worst retained* rating — the pruning threshold that LEMP, FEXIPRO and
//! MAXIMUS compare their upper bounds against. This crate provides that heap
//! plus batched row-wise selection over dense score matrices.
//!
//! Determinism: ties are broken toward the smaller item id everywhere, so
//! independent solvers produce byte-identical results and cross-solver tests
//! can compare exactly.
//!
//! [`fused`] additionally provides the fused GEMM→top-k path: score panels
//! stream out of the blocked multiply straight into the heaps, so the dense
//! `batch × n` score buffer of the two-stage pipeline never exists.
//!
//! [`screen_i8`] is the quantized variant of that path: the scan runs on
//! symmetric int8 codes with exact integer dots and a quantization
//! envelope, and only the surviving candidates are rescored in f64 —
//! bit-identical output, an 8× smaller scan than f64.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fused;
pub mod heap;
pub mod list;
pub mod screen_i8;
pub mod select;

pub use fused::{gemm_nt_topk, gemm_nt_topk_with, stream_topk_into_heaps, ColumnIds};
pub use heap::TopKHeap;
pub use list::TopKList;
pub use screen_i8::{
    screen_i8_topk_into_heaps, screen_i8_topk_into_heaps_with, QuantItems, QuantUsers,
    ScreenI8Scratch, ScreenStats,
};
pub use select::{row_topk, rows_topk, topk_all_rows};
