//! The expensive detectors (T4/T5), one path per strategy.
//!
//! All three methods of Section III-C (plus the MinHash ablation) answer
//! the same two questions per matrix side: which rows are *identical*
//! (T4) and which pairs differ in at most `t` positions (T5). A
//! crate-private per-side engine builds the configured strategy's index
//! once and answers both from it (the HNSW strategy from one k-NN probe);
//! the pipeline runs one per side, and [`find_same_groups`] and
//! [`find_similar_pairs`] are thin calls into the same engine for callers
//! that time one method on one matrix.
//!
//! Exactness:
//!
//! * `Custom` and `ExactDbscan` return exactly the true groups/pairs
//!   (asserted against brute force in tests);
//! * `ApproxHnsw` and `MinHashLsh` may miss some (recall < 1) but never
//!   fabricate: every candidate is verified against the matrix before
//!   being reported.

use rolediet_cluster::dbscan::{Dbscan, DbscanParams};
use rolediet_cluster::hnsw::{Hnsw, HnswParams};
use rolediet_cluster::metric::{PackedPointSet, PointSet};
use rolediet_cluster::minhash::MinHashLsh;
use rolediet_cluster::neighbors::{all_range_queries_packed, all_range_queries_sharded};
use rolediet_cluster::UnionFind;
use rolediet_matrix::{CsrMatrix, PackedRows, RowMatrix};

use crate::config::{DetectionConfig, Parallelism, SimilarityConfig, Strategy};
use crate::cooccur::{self, finalize_pairs};
use crate::report::SimilarPair;

/// T4 — groups of roles with identical rows, using `strategy`.
///
/// Output is normalized: groups sorted by first member, members
/// ascending, only groups of two or more. Groups of *empty* rows (roles
/// with no users/permissions at all — already T2 findings) are excluded;
/// use [`find_same_groups_with_empty`] to keep them.
pub fn find_same_groups(
    matrix: &CsrMatrix,
    strategy: &Strategy,
    parallelism: Parallelism,
) -> Vec<Vec<usize>> {
    SideEngine::for_strategy(matrix, strategy, None, parallelism).same_groups(false)
}

/// [`find_same_groups`] without the empty-row filter: a group of roles
/// whose rows are all empty is reported like any other duplicate group.
pub fn find_same_groups_with_empty(
    matrix: &CsrMatrix,
    strategy: &Strategy,
    parallelism: Parallelism,
) -> Vec<Vec<usize>> {
    SideEngine::for_strategy(matrix, strategy, None, parallelism).same_groups(true)
}

/// T5 — role pairs within Hamming distance `cfg.threshold` (excluding
/// identical pairs), using `strategy`.
///
/// Every strategy verifies distances against the matrix, so reported
/// pairs are always true pairs; approximate strategies may return fewer.
/// The custom strategy probes the caller's `transpose`, its inverted
/// index; the others never read it.
pub fn find_similar_pairs(
    matrix: &CsrMatrix,
    transpose: &CsrMatrix,
    strategy: &Strategy,
    cfg: &SimilarityConfig,
    parallelism: Parallelism,
) -> Vec<SimilarPair> {
    if let Strategy::Custom = strategy {
        return cooccur::similar_pairs_parallel(matrix, transpose, cfg, parallelism.threads());
    }
    SideEngine::for_strategy(matrix, strategy, Some(cfg), parallelism).similar_pairs(cfg)
}

/// One matrix side under one strategy: its index, built once and asked
/// both the T4 and the T5 question. The T4 empty-row filter lives here,
/// for every strategy alike.
pub(crate) struct SideEngine<'m> {
    matrix: &'m CsrMatrix,
    index: SideIndex,
    threads: usize,
}

/// What each strategy builds per side.
enum SideIndex {
    /// Nothing: T5 builds the transpose it streams inside its own query.
    Custom,
    /// The distance plane; each query runs its own neighbourhood pass.
    Exact(DbscanEngine),
    /// The verified pairs one k-NN probe of the HNSW index found within
    /// the probe threshold, which T4 (`d = 0`) and T5 (`1 ≤ d ≤ t`) share;
    /// the index itself is dropped once probed.
    Approx {
        pairs: Vec<SimilarPair>,
        threshold: usize,
    },
    /// One sketch per row; each query verifies its band collisions.
    MinHash(MinHashLsh),
}

impl<'m> SideEngine<'m> {
    /// Builds `cfg.strategy`'s index over `matrix`. The HNSW strategy
    /// also probes it here, keeping the pairs within
    /// `cfg.similarity.threshold` (only the `d = 0` pairs when
    /// `cfg.skip_similarity` is set).
    pub(crate) fn build(matrix: &'m CsrMatrix, cfg: &DetectionConfig) -> Self {
        let threads = cfg.parallelism.threads();
        let index = match cfg.strategy {
            Strategy::Custom => SideIndex::Custom,
            Strategy::ExactDbscan => SideIndex::Exact(DbscanEngine::build_with_budget(
                matrix,
                cfg.memory_budget_bytes,
                threads,
            )),
            Strategy::ApproxHnsw { params, probe_k } => {
                let threshold = if cfg.skip_similarity {
                    0
                } else {
                    cfg.similarity.threshold
                };
                let engine = HnswEngine::build(matrix, params, cfg.hnsw_batch, threads);
                SideIndex::Approx {
                    pairs: hnsw_engine_pairs(&engine, probe_k, threshold, threads),
                    threshold,
                }
            }
            Strategy::MinHashLsh { params } => {
                let sets: Vec<Vec<u32>> = (0..matrix.n_rows())
                    .map(|i| matrix.row(i).to_vec())
                    .collect();
                SideIndex::MinHash(MinHashLsh::build_with(&sets, params, threads))
            }
        };
        SideEngine {
            matrix,
            index,
            threads,
        }
    }

    /// [`build`](Self::build) under the default configuration of
    /// `strategy` (no memory budget, the default HNSW batch) with the
    /// given T5 settings; `None` skips T5.
    fn for_strategy(
        matrix: &'m CsrMatrix,
        strategy: &Strategy,
        similarity: Option<&SimilarityConfig>,
        parallelism: Parallelism,
    ) -> Self {
        let cfg = DetectionConfig {
            parallelism,
            similarity: similarity.copied().unwrap_or_default(),
            skip_similarity: similarity.is_none(),
            ..DetectionConfig::with_strategy(*strategy)
        };
        SideEngine::build(matrix, &cfg)
    }

    /// Shard blocks the exact engine streams its distance plane over;
    /// `0` for every other strategy.
    pub(crate) fn shard_count(&self) -> usize {
        match &self.index {
            SideIndex::Exact(engine) => engine.shard_count(),
            _ => 0,
        }
    }

    /// T4 groups (see [`find_same_groups`]); `include_empty` keeps groups
    /// of empty rows.
    pub(crate) fn same_groups(&self, include_empty: bool) -> Vec<Vec<usize>> {
        let threads = self.threads;
        let mut groups = match &self.index {
            SideIndex::Custom => cooccur::same_groups_with(self.matrix, threads),
            SideIndex::Exact(engine) => {
                let neighborhoods = engine.duplicate_neighborhoods(threads);
                dbscan_same_groups_cached(engine, &neighborhoods, true, threads)
            }
            SideIndex::Approx { pairs, .. } => {
                let duplicates: Vec<SimilarPair> =
                    pairs.iter().filter(|p| p.distance == 0).copied().collect();
                groups_from_pairs_with(self.matrix.n_rows(), &duplicates, threads)
            }
            SideIndex::MinHash(lsh) => {
                let pairs = minhash_pairs(self.matrix, lsh, 0, threads);
                groups_from_pairs_with(self.matrix.n_rows(), &pairs, threads)
            }
        };
        if !include_empty {
            groups.retain(|g| self.matrix.row_norm(g[0]) > 0);
        }
        groups
    }

    /// T5 pairs (see [`find_similar_pairs`]).
    ///
    /// # Panics
    ///
    /// Panics under the HNSW strategy if `cfg.threshold` exceeds the
    /// threshold the engine was built to probe.
    pub(crate) fn similar_pairs(&self, cfg: &SimilarityConfig) -> Vec<SimilarPair> {
        let threads = self.threads;
        match &self.index {
            SideIndex::Custom => {
                let transpose = self.matrix.transpose_with(threads);
                cooccur::similar_pairs_parallel(self.matrix, &transpose, cfg, threads)
            }
            SideIndex::Exact(engine) => {
                let neighborhoods = engine.similar_neighborhoods(cfg.threshold, threads);
                dbscan_similar_pairs_cached(engine, &neighborhoods, cfg, threads)
            }
            SideIndex::Approx { pairs, threshold } => {
                assert!(
                    cfg.threshold <= *threshold,
                    "the HNSW probe kept pairs within {threshold}, not {}",
                    cfg.threshold
                );
                let similar = pairs
                    .iter()
                    .filter(|p| (1..=cfg.threshold).contains(&p.distance))
                    .copied()
                    .collect();
                finalize_pairs(similar, cfg.max_pairs)
            }
            SideIndex::MinHash(lsh) => {
                let mut pairs = minhash_pairs(self.matrix, lsh, cfg.threshold, threads);
                pairs.retain(|p| p.distance >= 1);
                finalize_pairs(pairs, cfg.max_pairs)
            }
        }
    }
}

/// The exact-DBSCAN strategy's packed bounded-distance engine: role rows
/// packed once ([`PackedRows`]), then shared by every O(n²) neighbourhood
/// precompute and the within-cluster pair verification. The pipeline
/// builds one per matrix side and asks it both the T4 and the T5
/// question.
///
/// Under a positive [`DetectionConfig::memory_budget_bytes`] the engine
/// keeps only the source matrix resident and streams each neighbourhood
/// precompute through the sharded driver
/// ([`PackedShards`](rolediet_matrix::PackedShards)), whose shard blocks
/// are sized to the budget — with output bit-identical to the resident
/// engine at every budget and thread count.
///
/// [`DetectionConfig::memory_budget_bytes`]: crate::DetectionConfig
pub struct DbscanEngine {
    backend: EngineBackend,
}

/// How the engine holds the distance plane.
enum EngineBackend {
    /// The whole packed matrix resident (the unbounded default).
    Resident(PackedRows),
    /// Norm-contiguous shard blocks built two at a time under a byte
    /// budget; the source matrix stays in its compact CSR form.
    Sharded {
        matrix: CsrMatrix,
        norms: Vec<u32>,
        budget: usize,
        shards: usize,
    },
}

impl DbscanEngine {
    /// Builds the engine under a memory budget. `0` is unbounded: the
    /// whole matrix is packed resident (representation chosen by
    /// density; see [`PackedRows::from_matrix`]). A positive budget keeps
    /// the CSR matrix and streams packed shard blocks per query instead.
    pub fn build_with_budget(
        matrix: &CsrMatrix,
        memory_budget_bytes: usize,
        threads: usize,
    ) -> Self {
        let threads = threads.max(1);
        if memory_budget_bytes == 0 {
            return DbscanEngine {
                backend: EngineBackend::Resident(PackedRows::from_matrix(matrix, threads)),
            };
        }
        let norms: Vec<u32> =
            rolediet_matrix::parallel::par_map_rows(matrix.n_rows(), threads, |range| {
                range.map(|i| matrix.row_norm(i) as u32).collect()
            });
        let shards = rolediet_matrix::ShardPlan::new(
            &norms,
            matrix.n_cols(),
            matrix.nnz(),
            memory_budget_bytes,
        )
        .n_shards();
        DbscanEngine {
            backend: EngineBackend::Sharded {
                matrix: matrix.clone(),
                norms,
                budget: memory_budget_bytes,
                shards,
            },
        }
    }

    /// Number of shard blocks the distance plane streams over (`1` for
    /// the resident engine).
    pub fn shard_count(&self) -> usize {
        match &self.backend {
            EngineBackend::Resident(_) => 1,
            EngineBackend::Sharded { shards, .. } => *shards,
        }
    }

    /// Norm (number of set bits) of row `i`.
    pub fn row_norm(&self, i: usize) -> usize {
        match &self.backend {
            EngineBackend::Resident(rows) => rows.row_norm(i),
            EngineBackend::Sharded { norms, .. } => norms[i] as usize,
        }
    }

    /// Hamming distance between rows `i` and `j` if it is `<= bound`,
    /// `None` otherwise (same contract as
    /// [`PackedRows::bounded_hamming`]).
    pub fn bounded_hamming(&self, i: usize, j: usize, bound: usize) -> Option<usize> {
        match &self.backend {
            EngineBackend::Resident(rows) => rows.bounded_hamming(i, j, bound),
            EngineBackend::Sharded { matrix, norms, .. } => {
                if (norms[i].abs_diff(norms[j])) as usize > bound {
                    return None;
                }
                let d = matrix.row_hamming(i, j);
                (d <= bound).then_some(d)
            }
        }
    }

    /// Neighbour lists for the T4 duplicate query (`eps` from
    /// [`DbscanParams::exact_duplicates`]).
    pub fn duplicate_neighborhoods(&self, threads: usize) -> Vec<Vec<usize>> {
        self.neighborhoods(DbscanParams::exact_duplicates().eps, threads)
    }

    /// Neighbour lists for the T5 similarity query (`eps` from
    /// [`DbscanParams::similar`]).
    pub fn similar_neighborhoods(&self, threshold: usize, threads: usize) -> Vec<Vec<usize>> {
        self.neighborhoods(DbscanParams::similar(threshold).eps, threads)
    }

    fn neighborhoods(&self, eps: f64, threads: usize) -> Vec<Vec<usize>> {
        match &self.backend {
            EngineBackend::Resident(rows) => all_range_queries_packed(rows, eps, threads.max(1)),
            EngineBackend::Sharded { matrix, budget, .. } => {
                all_range_queries_sharded(matrix, eps, *budget, threads.max(1))
            }
        }
    }
}

/// T4 groups from precomputed duplicate neighbourhoods (the grouping half
/// of the exact-DBSCAN strategy, with the distance plane already paid for
/// by [`DbscanEngine::duplicate_neighborhoods`]).
pub fn dbscan_same_groups_cached(
    engine: &DbscanEngine,
    neighborhoods: &[Vec<usize>],
    include_empty: bool,
    threads: usize,
) -> Vec<Vec<usize>> {
    let labels =
        Dbscan::new(DbscanParams::exact_duplicates()).group_cached_with(neighborhoods, threads);
    let mut groups = normalize_groups(labels.clusters());
    if !include_empty {
        groups.retain(|g| engine.row_norm(g[0]) > 0);
    }
    groups
}

/// T5 pairs from precomputed similarity neighbourhoods: cluster with
/// `eps = t`, then enumerate and verify the pairs inside each cluster.
///
/// DBSCAN with `min_pts = 2` never misses a true pair (both endpoints of
/// a `d ≤ t` pair are core points of the same cluster), but density
/// chaining can pull farther points into the cluster, so the
/// within-cluster pair enumeration re-checks every distance — through the
/// engine's [`PackedRows::bounded_hamming`] kernel, which prunes the
/// chained-in far pairs by norm band before touching row words.
pub fn dbscan_similar_pairs_cached(
    engine: &DbscanEngine,
    neighborhoods: &[Vec<usize>],
    cfg: &SimilarityConfig,
    threads: usize,
) -> Vec<SimilarPair> {
    let labels =
        Dbscan::new(DbscanParams::similar(cfg.threshold)).group_cached_with(neighborhoods, threads);
    let mut pairs = Vec::new();
    for cluster in labels.clusters() {
        for (x, &i) in cluster.iter().enumerate() {
            for &j in &cluster[x + 1..] {
                if let Some(d) = engine.bounded_hamming(i, j, cfg.threshold) {
                    if d >= 1 {
                        pairs.push(SimilarPair::new(i, j, d));
                    }
                }
            }
        }
    }
    finalize_pairs(pairs, cfg.max_pairs)
}

/// The ApproxHnsw strategy's engine: role rows packed once
/// ([`PackedPointSet`], sharing the exact plane's distance kernels), then
/// one HNSW index built over them with the batch-parallel two-phase
/// algorithm ([`Hnsw::build_batched`]).
///
/// The pipeline builds one per matrix side and probes it once, answering
/// T4 and T5 from the same verified pairs; [`hnsw_same_groups`] and
/// [`hnsw_similar_pairs`] probe it for one question each and return what
/// the pipeline reports. The built index is bit-identical at every
/// `batch` and `threads` value (`batch = 0` *is* the sequential oracle),
/// so results never depend on either knob.
pub struct HnswEngine {
    points: PackedPointSet,
    index: Hnsw,
}

impl HnswEngine {
    /// Packs `matrix` and builds the index with generations of `batch`
    /// nodes on `threads` workers.
    pub fn build(matrix: &CsrMatrix, params: HnswParams, batch: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let points = PackedPointSet::from_matrix(matrix, threads);
        let index = Hnsw::build_batched(&points, params, batch, threads);
        HnswEngine { points, index }
    }

    /// The packed rows the index measures distances against.
    pub fn points(&self) -> &PackedPointSet {
        &self.points
    }

    /// The built index.
    pub fn index(&self) -> &Hnsw {
        &self.index
    }

    /// Norm (number of set bits) of row `i`.
    pub fn row_norm(&self, i: usize) -> usize {
        self.points.row_norm(i)
    }
}

/// T4 groups over a built [`HnswEngine`]: probe every role for its
/// `probe_k` nearest neighbours, keep verified 0-distance pairs, and
/// union them into groups (empty-row groups included; the pipeline
/// filters those like every other strategy).
pub fn hnsw_same_groups(engine: &HnswEngine, probe_k: usize, threads: usize) -> Vec<Vec<usize>> {
    let pairs = hnsw_engine_pairs(engine, probe_k, 0, threads);
    groups_from_pairs_with(engine.points.len(), &pairs, threads)
}

/// T5 pairs over a built [`HnswEngine`]: probed like
/// [`hnsw_same_groups`] but keeping verified pairs with `1 ≤ distance ≤
/// cfg.threshold`.
pub fn hnsw_similar_pairs(
    engine: &HnswEngine,
    probe_k: usize,
    cfg: &SimilarityConfig,
    threads: usize,
) -> Vec<SimilarPair> {
    let mut pairs = hnsw_engine_pairs(engine, probe_k, cfg.threshold, threads);
    pairs.retain(|p| p.distance >= 1);
    finalize_pairs(pairs, cfg.max_pairs)
}

/// HNSW probe: query every role for its `probe_k` nearest neighbours and
/// keep verified pairs with distance ≤ `threshold`. The read-only probe
/// fans out over `threads` workers.
fn hnsw_engine_pairs(
    engine: &HnswEngine,
    probe_k: usize,
    threshold: usize,
    threads: usize,
) -> Vec<SimilarPair> {
    let ef_search = engine.index.params().ef_search;
    let mut pairs = Vec::new();
    for (q, hits) in engine
        .index
        .knn_batch(&engine.points, probe_k, ef_search, threads)
        .into_iter()
        .enumerate()
    {
        for (j, d) in hits {
            if j != q && d <= threshold as f64 {
                pairs.push(SimilarPair::new(q, j, d as usize));
            }
        }
    }
    pairs.sort_unstable_by_key(|p| (p.a, p.b));
    pairs.dedup();
    pairs
}

/// MinHash LSH probe: the sketch's band-collision candidates, verified by
/// true distance. Banding runs on the shared parallel substrate
/// (`threads` workers, deterministic join order).
fn minhash_pairs(
    matrix: &CsrMatrix,
    lsh: &MinHashLsh,
    threshold: usize,
    threads: usize,
) -> Vec<SimilarPair> {
    let mut pairs = Vec::new();
    for (i, j) in lsh.candidate_pairs_with(threads) {
        let d = matrix.row_hamming(i, j);
        if d <= threshold {
            pairs.push(SimilarPair::new(i, j, d));
        }
    }
    pairs
}

/// Builds groups from 0-distance pairs with the parallel grouping
/// kernel: the pair list is split over `threads` ranges, each range
/// unions into a local [`UnionFind`] forest, forests are joined in range
/// order ([`UnionFind::merge_from`]), and groups are assembled with the
/// parallel [`UnionFind::groups_min_size_with`]. Deterministic — the
/// sorted-groups contract makes the output independent of the thread
/// count and of the pair order.
fn groups_from_pairs_with(n: usize, pairs: &[SimilarPair], threads: usize) -> Vec<Vec<usize>> {
    let forest = rolediet_matrix::parallel::par_map_reduce_ranges(
        pairs.len(),
        threads,
        |range| {
            let mut local = UnionFind::new(n);
            for p in &pairs[range] {
                local.union(p.a, p.b);
            }
            local
        },
        |acc, part| acc.merge_from(&part),
    );
    match forest {
        Some(mut uf) => uf.groups_min_size_with(2, threads),
        None => Vec::new(),
    }
}

fn normalize_groups(mut groups: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.retain(|g| g.len() >= 2);
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolediet_synth::{generate_matrix, MatrixGenConfig};

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy::Custom,
            Strategy::ExactDbscan,
            Strategy::hnsw_default(),
            Strategy::minhash_default(),
        ]
    }

    #[test]
    fn exact_strategies_recover_planted_groups_exactly() {
        let gen = generate_matrix(MatrixGenConfig::paper(200, 100, 21));
        let m = gen.sparse();
        for strategy in [Strategy::Custom, Strategy::ExactDbscan] {
            let groups = find_same_groups_with_empty(&m, &strategy, Parallelism::Sequential);
            assert_eq!(
                groups,
                gen.truth.exact_duplicate_groups,
                "strategy {}",
                strategy.name()
            );
        }
    }

    #[test]
    fn approximate_strategies_never_fabricate_groups() {
        let gen = generate_matrix(MatrixGenConfig::paper(150, 80, 22));
        let m = gen.sparse();
        for strategy in [Strategy::hnsw_default(), Strategy::minhash_default()] {
            let groups = find_same_groups(&m, &strategy, Parallelism::Sequential);
            for g in &groups {
                for w in g.windows(2) {
                    assert!(
                        m.rows_equal(w[0], w[1]),
                        "strategy {} reported non-identical rows",
                        strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn minhash_has_perfect_recall_on_duplicates() {
        // Identical sets always collide in every band.
        let gen = generate_matrix(MatrixGenConfig::paper(150, 80, 23));
        let m = gen.sparse();
        let groups =
            find_same_groups_with_empty(&m, &Strategy::minhash_default(), Parallelism::Sequential);
        assert_eq!(groups, gen.truth.exact_duplicate_groups);
    }

    #[test]
    fn all_strategies_find_the_figure1_groups() {
        let g = rolediet_model::TripartiteGraph::figure1_example();
        let ruam = g.ruam_sparse();
        for strategy in strategies() {
            let groups = find_same_groups(&ruam, &strategy, Parallelism::Sequential);
            assert_eq!(groups, vec![vec![1, 3]], "strategy {}", strategy.name());
        }
    }

    #[test]
    fn similar_pairs_exact_strategies_agree_with_brute_force() {
        let gen = generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(120, 60, 24)
        });
        let m = gen.sparse();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 2,
            include_disjoint: false,
            ..SimilarityConfig::default()
        };
        // Brute force with the same semantics (g >= 1).
        let mut brute = Vec::new();
        for i in 0..m.n_rows() {
            for j in (i + 1)..m.n_rows() {
                let d = m.row_hamming(i, j);
                if (1..=2).contains(&d) && m.row_dot(i, j) >= 1 {
                    brute.push(SimilarPair::new(i, j, d));
                }
            }
        }
        let brute = finalize_pairs(brute, usize::MAX);
        let custom = find_similar_pairs(&m, &tr, &Strategy::Custom, &cfg, Parallelism::Sequential);
        assert_eq!(custom, brute);
        // DBSCAN sees disjoint low-norm pairs too, so compare on the
        // common semantics: full brute force including disjoint pairs.
        let cfg_dj = SimilarityConfig {
            include_disjoint: true,
            ..cfg
        };
        let custom_dj =
            find_similar_pairs(&m, &tr, &Strategy::Custom, &cfg_dj, Parallelism::Sequential);
        let dbscan = find_similar_pairs(
            &m,
            &tr,
            &Strategy::ExactDbscan,
            &cfg_dj,
            Parallelism::Sequential,
        );
        assert_eq!(custom_dj, dbscan);
    }

    #[test]
    fn similar_pairs_cover_planted_similar_pairs() {
        let gen = generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 2,
            ..MatrixGenConfig::paper(150, 100, 25)
        });
        let m = gen.sparse();
        let tr = m.transpose();
        let cfg = SimilarityConfig::default();
        let pairs: std::collections::HashSet<(usize, usize)> =
            find_similar_pairs(&m, &tr, &Strategy::Custom, &cfg, Parallelism::Sequential)
                .into_iter()
                .map(|p| (p.a, p.b))
                .collect();
        for &(a, b) in &gen.truth.planted_similar_pairs {
            // A planted perturbed member shares the template's other bits,
            // so g >= 1 unless the template row had norm <= 1; the default
            // density makes that practically impossible at 100 columns.
            assert!(pairs.contains(&(a, b)), "missing planted pair ({a},{b})");
        }
    }

    #[test]
    fn approximate_similar_pairs_are_verified_true() {
        let gen = generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(120, 60, 26)
        });
        let m = gen.sparse();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 2,
            ..SimilarityConfig::default()
        };
        for strategy in [Strategy::hnsw_default(), Strategy::minhash_default()] {
            let pairs = find_similar_pairs(&m, &tr, &strategy, &cfg, Parallelism::Sequential);
            for p in pairs {
                let d = m.row_hamming(p.a, p.b);
                assert_eq!(d, p.distance, "strategy {}", strategy.name());
                assert!((1..=2).contains(&d));
            }
        }
    }

    #[test]
    fn hnsw_engine_halves_match_the_dispatch_entry_points() {
        // The public engine halves (one engine, probed twice) must give
        // exactly what `find_*` give at the default batch, at every batch
        // size and thread count — the engine's build is bit-identical to
        // the batch-0 sequential oracle.
        let gen = generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(140, 70, 29)
        });
        let m = gen.sparse();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 2,
            ..SimilarityConfig::default()
        };
        let strategy = Strategy::hnsw_default();
        let Strategy::ApproxHnsw { params, probe_k } = strategy else {
            unreachable!()
        };
        let groups = find_same_groups_with_empty(&m, &strategy, Parallelism::Sequential);
        let pairs = find_similar_pairs(&m, &tr, &strategy, &cfg, Parallelism::Sequential);
        for batch in [0usize, 1, 64] {
            for threads in [1usize, 4] {
                let engine = HnswEngine::build(&m, params, batch, threads);
                assert_eq!(
                    hnsw_same_groups(&engine, probe_k, threads),
                    groups,
                    "batch={batch} threads={threads}"
                );
                assert_eq!(
                    hnsw_similar_pairs(&engine, probe_k, &cfg, threads),
                    pairs,
                    "batch={batch} threads={threads}"
                );
                assert_eq!(engine.row_norm(0), m.row_norm(0));
                assert_eq!(engine.points().len(), m.n_rows());
                assert_eq!(engine.index().len(), m.n_rows());
            }
        }
    }

    #[test]
    fn pipeline_approx_findings_equal_the_engine_halves() {
        // The pipeline probes each side once and splits the verified
        // pairs into T4 and T5; it must report exactly what the two
        // engine halves, each probing on its own, return.
        let side = |users, seed| {
            let m = generate_matrix(MatrixGenConfig {
                perturbed_per_cluster: 1,
                ..MatrixGenConfig::paper(160, users, seed)
            })
            .sparse();
            let mut rows: Vec<Vec<usize>> = (0..m.n_rows())
                .map(|i| m.row(i).iter().map(|&c| c as usize).collect())
                .collect();
            // Two empty rows: a duplicate group the pipeline filters out.
            rows.extend([Vec::new(), Vec::new()]);
            CsrMatrix::from_rows_of_indices(rows.len(), m.n_cols(), &rows).unwrap()
        };
        let (ruam, rpam) = (side(80, 31), side(70, 32));
        let strategy = Strategy::hnsw_default();
        let Strategy::ApproxHnsw { params, probe_k } = strategy else {
            unreachable!()
        };
        let halves = |m: &CsrMatrix, cfg: &SimilarityConfig| {
            let engine = HnswEngine::build(m, params, 0, 1);
            let mut groups = hnsw_same_groups(&engine, probe_k, 1);
            assert!(groups.iter().any(|g| m.row_norm(g[0]) == 0));
            groups.retain(|g| m.row_norm(g[0]) > 0);
            (groups, hnsw_similar_pairs(&engine, probe_k, cfg, 1))
        };
        let untruncated = SimilarityConfig {
            threshold: 2,
            ..SimilarityConfig::default()
        };
        let fewest = [&ruam, &rpam]
            .map(|m| halves(m, &untruncated).1.len())
            .into_iter()
            .min()
            .unwrap();
        assert!(fewest >= 2, "too few pairs to truncate");
        let similarity = SimilarityConfig {
            max_pairs: fewest / 2,
            ..untruncated
        };
        for skip_similarity in [false, true] {
            let cfg = DetectionConfig {
                similarity,
                skip_similarity,
                ..DetectionConfig::with_strategy(strategy)
            };
            let report = crate::pipeline::Pipeline::new(cfg).run_on_matrices(&ruam, &rpam);
            for (m, groups, pairs) in [
                (&ruam, &report.same_user_groups, &report.similar_user_pairs),
                (
                    &rpam,
                    &report.same_permission_groups,
                    &report.similar_permission_pairs,
                ),
            ] {
                let (want_groups, want_pairs) = halves(m, &similarity);
                assert!(!want_groups.is_empty());
                assert_eq!(want_pairs.len(), fewest / 2);
                assert_eq!(groups, &want_groups, "skip_similarity={skip_similarity}");
                if skip_similarity {
                    assert!(pairs.is_empty());
                } else {
                    assert_eq!(pairs, &want_pairs);
                }
            }
        }
    }

    #[test]
    fn parallelism_does_not_change_custom_results() {
        let gen = generate_matrix(MatrixGenConfig::paper(150, 80, 27));
        let m = gen.sparse();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 3,
            ..SimilarityConfig::default()
        };
        let seq = find_similar_pairs(&m, &tr, &Strategy::Custom, &cfg, Parallelism::Sequential);
        let par = find_similar_pairs(&m, &tr, &Strategy::Custom, &cfg, Parallelism::Threads(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn parallelism_does_not_change_any_strategy_results() {
        let gen = generate_matrix(MatrixGenConfig::paper(120, 60, 28));
        let m = gen.sparse();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 2,
            ..SimilarityConfig::default()
        };
        for strategy in strategies() {
            let seq_groups = find_same_groups_with_empty(&m, &strategy, Parallelism::Sequential);
            let seq_pairs = find_similar_pairs(&m, &tr, &strategy, &cfg, Parallelism::Sequential);
            for threads in [2, 4, 8] {
                let p = Parallelism::Threads(threads);
                assert_eq!(
                    find_same_groups_with_empty(&m, &strategy, p),
                    seq_groups,
                    "groups differ: strategy {}, threads {threads}",
                    strategy.name()
                );
                assert_eq!(
                    find_similar_pairs(&m, &tr, &strategy, &cfg, p),
                    seq_pairs,
                    "pairs differ: strategy {}, threads {threads}",
                    strategy.name()
                );
            }
        }
    }
}
