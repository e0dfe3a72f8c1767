//! Clustering substrate for the IAM Role Diet detectors.
//!
//! The paper evaluates three ways of finding groups of roles that share the
//! same or similar users/permissions. Two of them are classic algorithms it
//! takes from Python libraries; this crate implements both from scratch,
//! plus the supporting machinery:
//!
//! * [`dbscan`] — exact density-based clustering (the scikit-learn
//!   baseline): minPts, an integer eps, noise labelling.
//! * [`hnsw`] — Hierarchical Navigable Small World approximate
//!   nearest-neighbour search (the datasketch baseline): multi-layer
//!   greedy/beam search with `M`, `ef_construction`, `ef_search`.
//! * [`minhash`] — MinHash LSH, a second approximate baseline from the
//!   same library family as the paper's, used in our ablations.
//! * [`metric`] — the [`PointSet`] abstraction over binary rows under
//!   Hamming distance (≡ Manhattan on 0/1 data): the scalar oracle
//!   [`BinaryRows`] and the packed [`PackedPointSet`].
//! * [`neighbors`] — brute-force range, k-NN and pair queries (the
//!   oracles).
//! * [`unionfind`] — disjoint sets for turning pairs into groups.
//! * [`recall`] — precision/recall of approximate against exact results.
//!
//! # Examples
//!
//! ```
//! use rolediet_cluster::dbscan::{Dbscan, DbscanParams};
//! use rolediet_cluster::metric::BinaryRows;
//! use rolediet_matrix::CsrMatrix;
//!
//! // Roles 0 and 2 have identical user sets.
//! let ruam = CsrMatrix::from_rows_of_indices(3, 4, &[
//!     vec![0, 1], vec![2], vec![0, 1],
//! ]).unwrap();
//! let points = BinaryRows::new(&ruam);
//! let labels = Dbscan::new(DbscanParams::exact_duplicates()).fit(&points);
//! assert_eq!(labels.clusters(), vec![vec![0, 2]]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dbscan;
pub mod hnsw;
pub mod metric;
pub mod minhash;
pub mod neighbors;
pub mod recall;
pub mod unionfind;
mod validate;

pub use dbscan::{ClusterLabels, Dbscan, DbscanParams};
pub use hnsw::{Hnsw, HnswParams};
pub use metric::{BinaryRows, PackedPointSet, PointSet};
pub use minhash::{MinHashLsh, MinHashLshParams};
pub use unionfind::UnionFind;
