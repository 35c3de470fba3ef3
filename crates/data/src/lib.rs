//! Matrix-factorization models, synthetic dataset stand-ins, and trainers.
//!
//! The paper evaluates MIPS solvers on factor matrices from 23 reference
//! models over four datasets (Netflix Prize, Yahoo Music KDD, Yahoo Music R2,
//! GloVe-Twitter; Table I). Those raw datasets are proprietary or multi-GB
//! downloads, but MIPS solver behaviour depends only on the *distribution of
//! the factor vectors*, so this crate provides:
//!
//! * [`model`] — the [`model::MfModel`] type every solver consumes,
//! * [`synth`] — generators with the four knobs that decide which solver wins
//!   (user clusteredness, item-norm skew, spectral decay, shape),
//! * [`catalog`] — one scaled stand-in per paper model
//!   (`Netflix-DSGD f=50`, `KDD-REF f=51`, …),
//! * [`ratings`] / [`sgd`] / [`bpr`] — an end-to-end training substrate
//!   (synthetic ratings → explicit-SGD or BPR MF → factor matrices), standing
//!   in for the paper's DSGD/NOMAD/BPR toolkits,
//! * [`sparse`] — sparse/hybrid vector and CSR block types plus sparse
//!   catalog generators for the inverted-index backend,
//! * [`stats`] — the dataset statistics printed by the Table I bench.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod als;
pub mod bpr;
pub mod catalog;
pub mod model;
pub mod ratings;
pub mod sgd;
pub mod sparse;
pub mod stats;
pub mod synth;

pub use catalog::{reference_models, ModelSpec};
pub use model::{MfModel, MirrorI8, ModelError, ModelView};
pub use ratings::RatingsData;
pub use sparse::{
    synth_sparse_model, SparseBlock, SparseError, SparseSynthConfig, SparseVec, SparsityStats,
};
pub use stats::DatasetStats;
pub use synth::{synth_model, SynthConfig};
