//! Detection configuration.

use serde::{Deserialize, Serialize};

use rolediet_cluster::hnsw::HnswParams;
use rolediet_cluster::minhash::MinHashLshParams;
use rolediet_mining::MiningConfig;

/// Which role-grouping strategy handles the expensive types T4/T5
/// (Section III-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// The paper's co-occurrence algorithm: exact and deterministic —
    /// "consistently identifies all clusters without fail" — and the
    /// fastest by orders of magnitude.
    #[default]
    Custom,
    /// Exact DBSCAN clustering with Hamming distance (`min_pts = 2`,
    /// `eps = 0 + ε` for T4, `eps = t + ε` for T5). Exact but O(n²).
    ExactDbscan,
    /// Approximate HNSW nearest-neighbour search (Manhattan ≡ Hamming on
    /// binary rows). May miss pairs; `probe_k` neighbours are retrieved
    /// per role and filtered by distance.
    ApproxHnsw {
        /// Index build/search parameters.
        params: HnswParams,
        /// Neighbours retrieved per role before distance filtering.
        probe_k: usize,
    },
    /// MinHash LSH candidate generation followed by exact verification —
    /// a second approximate baseline (ablation `abl-recall`).
    MinHashLsh {
        /// Sketching/banding parameters.
        params: MinHashLshParams,
    },
}

impl Strategy {
    /// Default HNSW strategy configuration.
    pub fn hnsw_default() -> Strategy {
        Strategy::ApproxHnsw {
            params: HnswParams::default(),
            probe_k: 16,
        }
    }

    /// Default MinHash LSH strategy configuration.
    pub fn minhash_default() -> Strategy {
        Strategy::MinHashLsh {
            params: MinHashLshParams::default(),
        }
    }

    /// Short stable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Custom => "custom",
            Strategy::ExactDbscan => "exact-dbscan",
            Strategy::ApproxHnsw { .. } => "approx-hnsw",
            Strategy::MinHashLsh { .. } => "minhash-lsh",
        }
    }

    /// Whether the strategy is guaranteed to find every group/pair.
    pub fn is_exact(&self) -> bool {
        matches!(self, Strategy::Custom | Strategy::ExactDbscan)
    }
}

/// Configuration of the T5 (similar roles) detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Maximum number of differing users/permissions for two roles to be
    /// reported as similar. The paper's real-data experiment uses `1`
    /// ("share all but one user or permission").
    pub threshold: usize,
    /// Also report role pairs with *disjoint* sets whose combined size is
    /// within the threshold (e.g. an empty role vs. a single-user role at
    /// `t = 1`).
    ///
    /// The paper's co-occurrence formulation only sees pairs sharing at
    /// least one user (`gⁱʲ ≥ 1`), so its reported counts exclude
    /// disjoint pairs; `false` reproduces that behaviour. Setting `true`
    /// adds a supplementary pass over low-norm rows — beware that on data
    /// with many empty roles this can produce quadratically many pairs.
    pub include_disjoint: bool,
    /// Cap on reported similar pairs per side (`usize::MAX` = unlimited).
    /// Applied after sorting by distance, so the closest pairs survive.
    pub max_pairs: usize,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            threshold: 1,
            include_disjoint: false,
            max_pairs: usize::MAX,
        }
    }
}

/// Thread configuration for the parallelizable stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Parallelism {
    /// Single-threaded (default; matches the paper's setup).
    #[default]
    Sequential,
    /// Use up to this many worker threads (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// Number of worker threads this setting resolves to.
    pub fn threads(&self) -> usize {
        match *self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// The most worker threads a command line may ask for. Every parallel
/// stage cuts its rows into `min(threads, rows)` ranges and spawns one
/// scoped OS thread per range, so an unbounded `--threads` would ask the
/// OS for one thread per role.
pub const MAX_THREADS: usize = 256;

/// Parses a command-line thread count: a whole number from 1 to
/// [`MAX_THREADS`]. The error message names `flag`.
pub fn parse_thread_count(flag: &str, raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if (1..=MAX_THREADS).contains(&n) => Ok(n),
        _ => Err(format!(
            "{flag} must be a whole number from 1 to {MAX_THREADS}, got {raw}"
        )),
    }
}

/// Default HNSW build generation size ([`DetectionConfig::hnsw_batch`]).
pub const DEFAULT_HNSW_BATCH: usize = 64;

fn default_hnsw_batch() -> usize {
    DEFAULT_HNSW_BATCH
}

/// Full configuration of a detection run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionConfig {
    /// Strategy for the expensive types (T4/T5).
    pub strategy: Strategy,
    /// Similar-roles (T5) settings.
    pub similarity: SimilarityConfig,
    /// Skip the T5 detector entirely (it dominates runtime on some
    /// datasets).
    pub skip_similarity: bool,
    /// Report roles with *empty* rows as duplicate groups too.
    ///
    /// All userless roles trivially share "the same users" (none), but
    /// they are already reported as T2 findings, and the paper's real-org
    /// counts (8,000 same-user roles vs. 12,000 userless roles) show T4
    /// excludes them. `false` (default) reproduces that semantics.
    pub include_empty_duplicates: bool,
    /// Thread configuration.
    pub parallelism: Parallelism,
    /// Memory budget (in bytes) for the exact-DBSCAN distance plane.
    ///
    /// Each side's one O(n²) walk of the T4/T5 distance plane
    /// ([`rolediet_matrix::PackedShards`]) is the same at every budget;
    /// the budget only sets how many norm-contiguous shard blocks it is
    /// cut into, sized so that the two blocks active in any tile fit it.
    /// `0` (default) means unbounded: one block, the whole packed matrix
    /// in the caller's row order. Every tile's pairs are split into T4
    /// and T5 as they are found. The budget bounds the packed row
    /// blocks, never the T5 pairs the walk keeps, which dominate the
    /// peak. Results are bit-identical at every budget and thread count.
    /// Only the exact-DBSCAN strategy consults this knob.
    #[serde(default)]
    pub memory_budget_bytes: usize,
    /// Generation size for the batch-parallel HNSW build.
    ///
    /// Each generation of this many pending nodes searches the frozen
    /// graph concurrently before a sequential commit pass; the built
    /// index is bit-identical at every value, so this is purely a
    /// performance knob. `0` selects the legacy one-node-at-a-time
    /// sequential insert (the test oracle), and one worker thread (the
    /// default [`Parallelism::Sequential`]) runs that insert at every
    /// value: there the speculative searches could only add work. Only
    /// the ApproxHnsw strategy consults this knob.
    #[serde(default = "default_hnsw_batch")]
    pub hnsw_batch: usize,
    /// Role-mining (regeneration) settings, used by the `mine` CLI
    /// command and the `repro mining` experiment that contrast
    /// regenerating a role set from scratch against the diet's
    /// refinement. Ignored by the detection pipeline itself.
    #[serde(default)]
    pub mining: MiningConfig,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            strategy: Strategy::default(),
            similarity: SimilarityConfig::default(),
            skip_similarity: false,
            include_empty_duplicates: false,
            parallelism: Parallelism::default(),
            memory_budget_bytes: 0,
            hnsw_batch: DEFAULT_HNSW_BATCH,
            mining: MiningConfig::default(),
        }
    }
}

impl DetectionConfig {
    /// Configuration using the given strategy, defaults elsewhere.
    pub fn with_strategy(strategy: Strategy) -> Self {
        DetectionConfig {
            strategy,
            ..DetectionConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = DetectionConfig::default();
        assert_eq!(cfg.strategy, Strategy::Custom);
        assert_eq!(cfg.similarity.threshold, 1);
        assert!(!cfg.similarity.include_disjoint);
        assert!(!cfg.skip_similarity);
        assert_eq!(cfg.parallelism.threads(), 1);
        assert_eq!(cfg.hnsw_batch, DEFAULT_HNSW_BATCH);
    }

    #[test]
    fn mining_defaults_when_absent_from_json() {
        // Configs serialized before the mining knob existed must
        // deserialize to the default mining configuration.
        let json = serde_json::to_string(&DetectionConfig::default()).unwrap();
        let mining = serde_json::to_string(&rolediet_mining::MiningConfig::default()).unwrap();
        let stripped = json.replace(&format!(",\"mining\":{mining}"), "");
        assert_ne!(json, stripped, "test must actually strip the field");
        let back: DetectionConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.mining, rolediet_mining::MiningConfig::default());
    }

    #[test]
    fn hnsw_batch_defaults_when_absent_from_json() {
        // Configs serialized before the knob existed must deserialize to
        // the batched default, not the legacy sequential insert.
        let json = serde_json::to_string(&DetectionConfig::default()).unwrap();
        let stripped = json.replace(&format!(",\"hnsw_batch\":{DEFAULT_HNSW_BATCH}"), "");
        assert_ne!(json, stripped, "test must actually strip the field");
        let back: DetectionConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.hnsw_batch, DEFAULT_HNSW_BATCH);
    }

    #[test]
    fn strategy_names_and_exactness() {
        assert_eq!(Strategy::Custom.name(), "custom");
        assert_eq!(Strategy::ExactDbscan.name(), "exact-dbscan");
        assert_eq!(Strategy::hnsw_default().name(), "approx-hnsw");
        assert_eq!(Strategy::minhash_default().name(), "minhash-lsh");
        assert!(Strategy::Custom.is_exact());
        assert!(Strategy::ExactDbscan.is_exact());
        assert!(!Strategy::hnsw_default().is_exact());
        assert!(!Strategy::minhash_default().is_exact());
    }

    #[test]
    fn parallelism_clamps() {
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(8).threads(), 8);
        assert_eq!(Parallelism::Sequential.threads(), 1);
    }

    #[test]
    fn configs_carrying_select_heuristic_still_load() {
        // Every config written before Algorithm 4 selection became
        // unconditional carries the knob in its HNSW params.
        let cfg = DetectionConfig::with_strategy(Strategy::hnsw_default());
        let json = serde_json::to_string(&cfg).unwrap();
        for knob in ["true", "false"] {
            let legacy = json.replacen(
                r#""ef_search":64,"#,
                &format!(r#""ef_search":64,"select_heuristic":{knob},"#),
                1,
            );
            assert!(
                legacy.contains("select_heuristic"),
                "fixture must splice in: {json}"
            );
            let back: DetectionConfig = serde_json::from_str(&legacy).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = DetectionConfig::with_strategy(Strategy::hnsw_default());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DetectionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
