//! Binary matrix substrate for RBAC assignment data.
//!
//! The IAM Role Diet paper represents RBAC data as two binary assignment
//! matrices: the *Role-User Assignment Matrix* (RUAM) and the
//! *Role-Permission Assignment Matrix* (RPAM). Every detection algorithm in
//! the paper is a computation over rows of these matrices: row sums (degree
//! checks), row equality (duplicate roles) and row Hamming distance (similar
//! roles). This crate provides that substrate:
//!
//! * [`CsrMatrix`] — the one row store: a compressed sparse row binary
//!   matrix, sized for real-org data (density around 1e-4), with a
//!   transpose that doubles as the inverted index used by the
//!   co-occurrence algorithm.
//! * [`RowMatrix`] — the trait detectors are generic over, implemented by
//!   [`CsrMatrix`] and by the row-subset view the sharded engine builds
//!   its shards from.
//! * [`BitVec`] — a fixed-length bit vector packed into `u64` words, with
//!   `popcount`-based Hamming distance and set operations: the
//!   independent oracle the CSR row kernels are tested against, and the
//!   per-user state of the eager mining cover.
//! * [`signature`] — the exact-duplicate fast path: one width-independent
//!   row key over the ascending column indices and one bucket splitter.
//! * [`ops`] — sparse co-occurrence products (`A · Aᵀ` restricted to pairs
//!   that share at least one column) and column sums.
//! * [`packed`] — the batched bounded-distance engine ([`PackedRows`]):
//!   norm-band pruning plus early-exit Hamming kernels over density-keyed
//!   packed-word or sparse-merge row storage, feeding every exact O(n²)
//!   T4/T5 stage.
//! * [`shard`] — the one driver of the exact distance plane over
//!   [`PackedRows`] ([`PackedShards`]): rows planned once into
//!   norm-contiguous shard blocks under an optional byte budget (one
//!   block, in caller order, without one) and walked as shard×shard
//!   tiles whose pairs callers fold as they are found, bit-identical at
//!   every thread and shard count.
//! * [`setops`] — two-pointer set algebra over sorted index slices (the
//!   CSR row representation): intersection, containment and in-place
//!   difference without materializing dense bit rows — the CSR row dot
//!   product and the O(nnz) coverage-state kernels of the lazy-greedy
//!   mining engine.
//! * [`parallel`] — the deterministic chunked map-reduce substrate every
//!   parallel stage in the workspace is built on.
//!
//! # Examples
//!
//! ```
//! use rolediet_matrix::{CsrMatrix, RowMatrix};
//!
//! // Three roles over four users; roles 0 and 2 are identical.
//! let m = CsrMatrix::from_rows_of_indices(3, 4, &[
//!     vec![0, 2],
//!     vec![1],
//!     vec![0, 2],
//! ]).unwrap();
//! assert_eq!(m.row_norm(0), 2);
//! assert_eq!(m.row_hamming(0, 2), 0);
//! assert_eq!(m.row_hamming(0, 1), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitvec;
pub mod error;
pub mod ops;
pub mod packed;
pub mod parallel;
pub mod setops;
pub mod shard;
pub mod signature;
pub mod sparse;
mod traits;
mod validate;

pub use bitvec::BitVec;
pub use error::MatrixError;
pub use packed::PackedRows;
pub use shard::{PackedShards, RowSubsetView, ShardPlan, Tile};
pub use signature::{hash_indices, hash_words, split_buckets, RowSignature, SignatureIndex};
pub use sparse::CsrMatrix;
pub use traits::RowMatrix;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, MatrixError>;
