//! Synthetic RBAC workloads with planted ground truth.
//!
//! Two generators, matching the two evaluation settings of the paper:
//!
//! * [`matrix_gen`] — the synthetic RUAM/RPAM generator used for the
//!   execution-time experiments (Figures 2 and 3): a binary matrix with a
//!   configurable number of rows (roles) and columns (users), a fixed
//!   proportion of rows belonging to planted duplicate clusters, and a cap
//!   on cluster size. Ground truth (which rows are identical, which pairs
//!   are 1-bit-apart) is returned alongside the data.
//! * [`org_gen`] — an organization generator producing a full tripartite
//!   graph: departments with users, roles and permissions, plus an
//!   [`org_gen::InefficiencyPlan`] that plants each of
//!   the paper's five inefficiency types at exact counts. The
//!   [`profiles::ing_like`] preset reproduces the published shape of the
//!   real 60,000-employee organization of Section IV-B (see DESIGN.md for
//!   the substitution rationale).
//!
//! All randomness flows through seeded [`rand::rngs::StdRng`]; equal
//! configs produce identical datasets.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod churn;
pub mod matrix_gen;
pub mod org_gen;
pub mod profiles;

pub use matrix_gen::{generate_matrix, GeneratedMatrix, MatrixGenConfig, MatrixGroundTruth};
pub use org_gen::{generate_org, GeneratedOrg, InefficiencyPlan, OrgConfig, OrgGroundTruth};
