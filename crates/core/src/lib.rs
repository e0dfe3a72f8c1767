//! IAM Role Diet: detecting RBAC data inefficiencies.
//!
//! This crate is the paper's primary contribution: a taxonomy of five
//! inefficiency types that accumulate in manually managed RBAC data, a
//! detection framework covering all of them, and three interchangeable
//! strategies for the expensive types.
//!
//! # The taxonomy (Section III-A)
//!
//! | type | inefficiency | cost |
//! |---|---|---|
//! | T1 | standalone nodes (users/permissions/roles with no edges) | linear |
//! | T2 | roles not connected to users / to permissions | linear |
//! | T3 | roles connected to exactly one user / one permission | linear |
//! | T4 | roles sharing the *same* users / permissions | the hard part |
//! | T5 | roles sharing a *similar* set (within Hamming `t`) | the hard part |
//!
//! # The three strategies (Section III-C)
//!
//! * [`Strategy::Custom`] — the paper's co-occurrence algorithm
//!   ([`cooccur`]): exact, deterministic, and orders of magnitude faster
//!   than the baselines.
//! * [`Strategy::ExactDbscan`] — DBSCAN with Hamming distance, the exact
//!   clustering baseline.
//! * [`Strategy::ApproxHnsw`] — HNSW approximate nearest neighbours, the
//!   approximate clustering baseline (may miss pairs; converges over
//!   periodic runs).
//! * [`Strategy::MinHashLsh`] — a second approximate baseline used in the
//!   ablations.
//!
//! Findings are proposals for an administrator, never auto-applied
//! (Section III-A: a CEO-only role is legitimate); the
//! [`consolidate`] module turns *approved* duplicate groups into a
//! verified [`MergePlan`].
//!
//! # Examples
//!
//! ```
//! use rolediet_core::{DetectionConfig, Pipeline};
//! use rolediet_model::TripartiteGraph;
//!
//! let graph = TripartiteGraph::figure1_example();
//! let report = Pipeline::new(DetectionConfig::default()).run(&graph);
//! // R02 and R04 share the same users (ids 1 and 3)…
//! assert_eq!(report.same_user_groups, vec![vec![1, 3]]);
//! // …and R04, R05 share the same permissions.
//! assert_eq!(report.same_permission_groups, vec![vec![3, 4]]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod access;
pub mod audit;
pub mod config;
pub mod consolidate;
pub mod cooccur;
pub mod detector;
pub mod history;
pub mod incremental;
pub mod periodic;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod strategy;
pub mod suggest;
pub mod taxonomy;
pub mod validate;

pub use config::{DetectionConfig, Parallelism, SimilarityConfig, Strategy};
pub use consolidate::{ConsolidationOutcome, Merge, MergeBasis, MergePlan};
pub use incremental::{FindingDelta, IncrementalPipeline, ReportDelta};
pub use pipeline::Pipeline;
pub use report::{Report, SimilarPair, StageTimings};
pub use taxonomy::{InefficiencyKind, Side};
