//! Bottom-up role mining: the organization-scale "regenerate" backend.
//!
//! The paper's related work (Section II) contrasts two philosophies for
//! fixing role bloat: *role mining* — throw the existing roles away and
//! regenerate a role set from the user–permission assignments (Vaidya et
//! al.'s RoleMiner, Molloy et al., Tripunitara's biclique formulation) —
//! and the paper's own *refinement* approach, which only combines
//! existing roles. Following D'Antoni et al., the paper claims refining
//! is better (or at least as effective) than regenerating.
//!
//! This crate implements the regeneration side so the claim can be
//! measured instead of cited — at the same realorg scale the rest of the
//! system reaches:
//!
//! * [`candidates`] — biclique-flavored candidate generation: every
//!   distinct user permission-set ("initial roles", never capped — they
//!   guarantee an exact cover exists) plus shared-core intersections of
//!   co-occurring rows enumerated through the inverted permission→row
//!   index. The walk visits rows longest first and stops at the floor
//!   the cap sets, fans out on the parallel substrate and is
//!   bit-identical at every thread count.
//! * [`cover`] — the lazy-greedy (CELF) cover engine: a max-heap of
//!   cached gain upper bounds (valid because greedy set cover is
//!   submodular, so gains only shrink), and flat coverage state in
//!   O(nnz) memory. A candidate's gain sums `|c ∩ uncovered(u)|`
//!   over its eligible users, and a commit changes only its assigned
//!   users' uncovered cells, so a user→candidate index (the inverse of
//!   eligibility) dirties the candidates of each user who lost a cell —
//!   a superset of those whose gain changed. This is the production
//!   path ([`mine_greedy_cover`] / [`mine_greedy_cover_with`]).
//! * [`greedy`] — the seed-era eager loop (dense state, full rescan per
//!   round), kept as the bit-identity oracle the lazy engine is
//!   proptested against.
//! * [`verify`] — sparse exact-cover checking: mined roles must
//!   reproduce every user's effective permissions bit-for-bit, never
//!   over-granting (the same safety bar the diet's consolidation is held
//!   to).
//!
//! The `mining_vs_diet` example and `repro mining` compare the mined role
//! count against the diet's consolidated count on the same (optionally
//! churned) organizations.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod candidates;
pub mod cover;
pub mod greedy;
pub mod verify;

pub use candidates::{
    generate_candidates, generate_candidates_with, CandidateConfig, CandidatePool,
};
pub use cover::{mine_greedy_cover, mine_greedy_cover_with, mine_lazy_from_pool};
pub use greedy::{mine_eager_cover, mine_eager_from_pool, MinedRole, MiningConfig, MiningResult};
pub use verify::{verify_exact_cover, CoverError};
