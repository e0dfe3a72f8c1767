//! # rolediet — IAM Role Diet
//!
//! A Rust implementation of *"IAM Role Diet: A Scalable Approach to
//! Detecting RBAC Data Inefficiencies"* (DSN-S 2025): a taxonomy of five
//! RBAC data inefficiency types, linear-time detectors for the cheap ones,
//! and three interchangeable strategies — exact DBSCAN clustering,
//! approximate HNSW search, and the paper's co-occurrence algorithm — for
//! the expensive ones (roles sharing the same or similar users or
//! permissions).
//!
//! This umbrella crate re-exports the workspace so downstream users depend
//! on one crate:
//!
//! * [`model`] — tripartite user–role–permission graph, ids, I/O.
//! * [`matrix`] — RUAM/RPAM sparse-row substrate (CSR).
//! * [`cluster`] — DBSCAN, HNSW, MinHash LSH, metrics, union-find.
//! * [`synth`] — synthetic workload generators with planted ground truth.
//! * [`core`] — the detection framework: taxonomy, detectors, pipeline,
//!   reports and consolidation planning.
//! * [`mining`] — bottom-up role-mining baselines for contrasting
//!   regeneration against the role diet's refinement.
//!
//! # Quickstart
//!
//! ```
//! use rolediet::core::{DetectionConfig, Pipeline};
//! use rolediet::model::RbacDataset;
//!
//! // The worked example of Figure 1 of the paper.
//! let ds = RbacDataset::figure1_example();
//! let report = Pipeline::new(DetectionConfig::default()).run(ds.graph());
//! // R02/R04 share users, R04/R05 share permissions, …
//! assert!(report.total_findings() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use rolediet_cluster as cluster;
pub use rolediet_core as core;
pub use rolediet_matrix as matrix;
pub use rolediet_mining as mining;
pub use rolediet_model as model;
pub use rolediet_synth as synth;
