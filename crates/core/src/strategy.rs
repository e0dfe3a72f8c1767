//! The expensive detectors (T4/T5), one path per strategy.
//!
//! All three methods of Section III-C (plus the MinHash ablation) answer
//! the same two questions per matrix side: which rows are *identical*
//! (T4) and which pairs differ in at most `t` positions (T5). A
//! crate-private per-side engine builds the configured strategy's index
//! once and answers both from it; the pipeline runs one per side, and
//! [`find_same_groups`] and [`find_similar_pairs`] are thin calls into
//! the same engine for callers that time one method on one matrix.
//!
//! Every distance strategy finds one verified set of pairs within `t`
//! per side and splits it the one way: a `d = 0` pair is unioned into
//! the T4 groups, a `1 ≤ d ≤ t` pair is a T5 finding. Exact DBSCAN walks
//! its distance plane once, tile by tile
//! ([`PackedShards::for_each_tile`]), never storing a `d = 0` pair at
//! any memory budget; with `min_pts = 2` DBSCAN's clusters are exactly
//! the components of the eps-graph, so no DBSCAN labels and no
//! within-cluster re-check are needed. HNSW probes its index once, and
//! MinHash verifies its band candidates once.
//!
//! Exactness:
//!
//! * `Custom` and `ExactDbscan` return exactly the true groups/pairs
//!   (asserted against brute force in tests);
//! * `ApproxHnsw` and `MinHashLsh` may miss some (recall < 1) but never
//!   fabricate: every candidate is verified against the matrix before
//!   being reported.

use std::ops::Range;

use rolediet_cluster::hnsw::{Hnsw, HnswParams};
use rolediet_cluster::metric::{PackedPointSet, PointSet};
use rolediet_cluster::minhash::MinHashLsh;
use rolediet_cluster::UnionFind;
use rolediet_matrix::{CsrMatrix, PackedShards, RowMatrix};

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
    /// Shard blocks the exact walk streamed its distance plane over; `0`
    /// for every other strategy.
    shards: usize,
    threads: usize,
}

/// What each strategy builds per side.
enum SideIndex {
    /// Nothing: T5 builds the transpose it streams inside its own query.
    Custom,
    /// The split of one verified walk or probe of the side (exact,
    /// HNSW and MinHash alike): the T4 groups, empty-row group included,
    /// and the unsorted T5 pairs with `1 ≤ d ≤ threshold`.
    Split {
        groups: Vec<Vec<usize>>,
        pairs: Vec<SimilarPair>,
        threshold: usize,
    },
}

impl<'m> SideEngine<'m> {
    /// Builds `cfg.strategy`'s index over `matrix` and, for every
    /// distance strategy, finds and splits the side's verified pairs
    /// within `cfg.similarity.threshold` (only the `d = 0` pairs when
    /// `cfg.skip_similarity` is set).
    pub(crate) fn build(matrix: &'m CsrMatrix, cfg: &DetectionConfig) -> Self {
        let threads = cfg.parallelism.threads();
        let n = matrix.n_rows();
        let threshold = if cfg.skip_similarity {
            0
        } else {
            cfg.similarity.threshold
        };
        let mut shards = 0;
        let mut split = match cfg.strategy {
            Strategy::Custom => {
                return SideEngine {
                    matrix,
                    index: SideIndex::Custom,
                    shards,
                    threads,
                }
            }
            Strategy::ExactDbscan => {
                let engine =
                    DbscanEngine::build_with_budget(matrix, cfg.memory_budget_bytes, threads);
                shards = engine.shard_count();
                engine.split(threshold, threads)
            }
            Strategy::ApproxHnsw { params, probe_k } => {
                let engine = HnswEngine::build(matrix, params, cfg.hnsw_batch, threads);
                let pairs = hnsw_engine_pairs(&engine, probe_k, threshold, threads);
                PairSplit::of_pairs(n, &pairs, threads)
            }
            Strategy::MinHashLsh { params } => {
                let sets: Vec<Vec<u32>> = (0..n).map(|i| matrix.row(i).to_vec()).collect();
                let candidates =
                    MinHashLsh::build_with(&sets, params, threads).candidate_pairs_with(threads);
                PairSplit::fold(n, candidates.len(), threads, |range, split| {
                    for &(i, j) in &candidates[range] {
                        let d = matrix.row_hamming(i, j);
                        if d <= threshold {
                            split.push(i, j, d);
                        }
                    }
                })
            }
        };
        SideEngine {
            matrix,
            index: SideIndex::Split {
                groups: split.groups(threads),
                pairs: split.similar,
                threshold,
            },
            shards,
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

    /// Shard blocks the exact engine streamed its distance plane over;
    /// `0` for every other strategy.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards
    }

    /// T4 groups (see [`find_same_groups`]); `include_empty` keeps groups
    /// of empty rows.
    pub(crate) fn same_groups(&self, include_empty: bool) -> Vec<Vec<usize>> {
        let mut groups = match &self.index {
            SideIndex::Custom => cooccur::same_groups_with(self.matrix, self.threads),
            SideIndex::Split { groups, .. } => groups.clone(),
        };
        if !include_empty {
            groups.retain(|g| self.matrix.row_norm(g[0]) > 0);
        }
        groups
    }

    /// T5 pairs (see [`find_similar_pairs`]); the engine's last question,
    /// so it hands its pairs over instead of copying them.
    ///
    /// # Panics
    ///
    /// Panics under a distance strategy if `cfg.threshold` exceeds the
    /// threshold the engine was built to keep.
    pub(crate) fn similar_pairs(self, cfg: &SimilarityConfig) -> Vec<SimilarPair> {
        match self.index {
            SideIndex::Custom => {
                let transpose = self.matrix.transpose_with(self.threads);
                cooccur::similar_pairs_parallel(self.matrix, &transpose, cfg, self.threads)
            }
            SideIndex::Split {
                mut pairs,
                threshold,
                ..
            } => {
                assert!(
                    cfg.threshold <= threshold,
                    "the engine kept pairs within {threshold}, not {}",
                    cfg.threshold
                );
                pairs.retain(|p| p.distance <= cfg.threshold);
                finalize_pairs(pairs, cfg.max_pairs)
            }
        }
    }
}

/// One side's verified pairs within the threshold, split the one way
/// every distance strategy splits them: a `d = 0` pair is unioned into
/// the T4 forest and never stored, a `1 ≤ d ≤ t` pair is kept for T5.
struct PairSplit {
    forest: UnionFind,
    similar: Vec<SimilarPair>,
}

impl PairSplit {
    /// An empty split over `n` rows.
    fn new(n: usize) -> Self {
        PairSplit {
            forest: UnionFind::new(n),
            similar: Vec::new(),
        }
    }

    /// A split over `n` rows of what `visit` files over `0..len` (see
    /// [`fold_in`](Self::fold_in)).
    fn fold(
        n: usize,
        len: usize,
        threads: usize,
        visit: impl Fn(Range<usize>, &mut PairSplit) + Sync,
    ) -> Self {
        let mut split = PairSplit::new(n);
        split.fold_in(len, threads, visit);
        split
    }

    /// Files into `self` what `visit` finds over the ranges of `0..len`
    /// on `threads` workers. One range is visited inline on `self`;
    /// several each fill a split of their own, merged into `self` in
    /// range order ([`UnionFind::merge_from`], pairs appended). Either
    /// way the groups and the pair order are the same at every thread
    /// count.
    fn fold_in(
        &mut self,
        len: usize,
        threads: usize,
        visit: impl Fn(Range<usize>, &mut PairSplit) + Sync,
    ) {
        if threads <= 1 || len <= 1 {
            if len > 0 {
                visit(0..len, self);
            }
            return;
        }
        let n = self.forest.len();
        let parts = rolediet_matrix::parallel::par_map_ranges(len, threads, |range| {
            let mut part = PairSplit::new(n);
            visit(range, &mut part);
            part
        });
        for part in parts {
            self.forest.merge_from(&part.forest);
            // Take over the first pairs instead of copying them.
            if self.similar.is_empty() {
                self.similar = part.similar;
            } else {
                self.similar.extend(part.similar);
            }
        }
    }

    /// The split of an already verified pair list.
    fn of_pairs(n: usize, pairs: &[SimilarPair], threads: usize) -> Self {
        Self::fold(n, pairs.len(), threads, |range, split| {
            for p in &pairs[range] {
                split.push(p.a, p.b, p.distance);
            }
        })
    }

    /// Files the verified pair `(i, j)` at distance `d`.
    fn push(&mut self, i: usize, j: usize, d: usize) {
        if d == 0 {
            self.forest.union(i, j);
        } else {
            self.similar.push(SimilarPair::new(i, j, d));
        }
    }

    /// The T4 groups: components of two or more rows, members ascending,
    /// ordered by first member.
    fn groups(&mut self, threads: usize) -> Vec<Vec<usize>> {
        self.forest.groups_min_size_with(2, threads)
    }
}

/// The exact-DBSCAN strategy's bounded-distance engine: one walk of each
/// side's distance plane ([`PackedShards`]), every pair within `t`
/// measured once, from its smaller row. The pipeline builds one per
/// matrix side; the neighbour-list methods and
/// [`dbscan_same_groups_cached`] / [`dbscan_similar_pairs_cached`] take
/// the same plane apart for callers that time its layers, and return
/// what the pipeline reports.
///
/// The engine borrows its matrix and plans its shards once.
/// [`DetectionConfig::memory_budget_bytes`] only sets how many shard
/// blocks the walk builds (`0` plans one, walked in the caller's row
/// order); every tile's pairs are split per row range as they are found,
/// so no budget stores a `d = 0` pair or sorts the pair list. The budget
/// bounds the packed row blocks, never the T5 pairs the walk keeps.
/// Results are bit-identical at every budget and thread count.
///
/// [`DetectionConfig::memory_budget_bytes`]: crate::DetectionConfig
pub struct DbscanEngine<'m> {
    matrix: &'m CsrMatrix,
    shards: PackedShards<'m, CsrMatrix>,
}

impl<'m> DbscanEngine<'m> {
    /// Plans the walk of `matrix` under a memory budget (`0` is
    /// unbounded: one shard, the whole matrix packed at once, its
    /// representation chosen by density; see
    /// [`PackedRows::from_matrix`](rolediet_matrix::PackedRows::from_matrix)).
    pub fn build_with_budget(
        matrix: &'m CsrMatrix,
        memory_budget_bytes: usize,
        threads: usize,
    ) -> Self {
        DbscanEngine {
            matrix,
            shards: PackedShards::new(matrix, memory_budget_bytes, threads.max(1)),
        }
    }

    /// Number of shard blocks the distance plane is walked over.
    pub fn shard_count(&self) -> usize {
        self.shards.n_shards()
    }

    /// Norm (number of set bits) of row `i`.
    pub fn row_norm(&self, i: usize) -> usize {
        self.matrix.row_norm(i)
    }

    /// Hamming distance between rows `i` and `j` if it is `<= bound`,
    /// `None` otherwise (same contract as
    /// [`PackedRows::bounded_hamming`](rolediet_matrix::PackedRows::bounded_hamming)).
    pub fn bounded_hamming(&self, i: usize, j: usize, bound: usize) -> Option<usize> {
        if self.row_norm(i).abs_diff(self.row_norm(j)) > bound {
            return None;
        }
        let d = self.matrix.row_hamming(i, j);
        (d <= bound).then_some(d)
    }

    /// Neighbour lists for the T4 duplicate query: the region queries of
    /// DBSCAN at [`DbscanParams::exact_duplicates`].
    ///
    /// [`DbscanParams::exact_duplicates`]: rolediet_cluster::DbscanParams::exact_duplicates
    pub fn duplicate_neighborhoods(&self, threads: usize) -> Vec<Vec<usize>> {
        self.neighborhoods(0, threads)
    }

    /// Neighbour lists for the T5 similarity query: the region queries
    /// of DBSCAN at [`DbscanParams::similar`]`(threshold)`.
    ///
    /// [`DbscanParams::similar`]: rolediet_cluster::DbscanParams::similar
    pub fn similar_neighborhoods(&self, threshold: usize, threads: usize) -> Vec<Vec<usize>> {
        self.neighborhoods(threshold, threads)
    }

    /// `out[i]` lists every `j` (including `i`) with
    /// `Hamming(i, j) ≤ bound`, ascending.
    fn neighborhoods(&self, bound: usize, threads: usize) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = (0..self.matrix.n_rows()).map(|i| vec![i]).collect();
        self.shards.for_each_tile(bound, |tile| {
            for (i, j, _) in tile.pairs(threads) {
                out[i].push(j);
                out[j].push(i);
            }
        });
        for list in &mut out {
            list.sort_unstable();
        }
        out
    }

    /// The one walk of the plane: every tile's pairs within `threshold`,
    /// split per row range as they are found, in tile and range order.
    fn split(&self, threshold: usize, threads: usize) -> PairSplit {
        let mut split = PairSplit::new(self.matrix.n_rows());
        self.shards.for_each_tile(threshold, |tile| {
            split.fold_in(tile.rows(), threads, |range, part| {
                tile.for_each_pair_in(range, |i, j, d| part.push(i, j, d));
            });
        });
        split
    }
}

/// T4 groups from [`DbscanEngine::duplicate_neighborhoods`]: the lists'
/// edges go through the engine's split, and the groups are the
/// components of their `d = 0` edges — the pipeline's exact T4 groups.
/// Groups of empty rows are dropped unless `include_empty`.
pub fn dbscan_same_groups_cached(
    engine: &DbscanEngine,
    neighborhoods: &[Vec<usize>],
    include_empty: bool,
    threads: usize,
) -> Vec<Vec<usize>> {
    let mut groups = split_lists(engine, neighborhoods, 0, threads).groups(threads);
    if !include_empty {
        groups.retain(|g| engine.row_norm(g[0]) > 0);
    }
    groups
}

/// T5 pairs from [`DbscanEngine::similar_neighborhoods`]: the lists'
/// edges with `1 ≤ d ≤ cfg.threshold`, through the engine's split — the
/// pipeline's exact T5 pairs.
pub fn dbscan_similar_pairs_cached(
    engine: &DbscanEngine,
    neighborhoods: &[Vec<usize>],
    cfg: &SimilarityConfig,
    threads: usize,
) -> Vec<SimilarPair> {
    let split = split_lists(engine, neighborhoods, cfg.threshold, threads);
    finalize_pairs(split.similar, cfg.max_pairs)
}

/// The split of the neighbour lists' edges `p < q`, each measured by the
/// engine within `bound`.
fn split_lists(
    engine: &DbscanEngine,
    neighborhoods: &[Vec<usize>],
    bound: usize,
    threads: usize,
) -> PairSplit {
    let n = neighborhoods.len();
    PairSplit::fold(n, n, threads, |range, split| {
        for p in range {
            for &q in neighborhoods[p].iter().filter(|&&q| q > p) {
                if let Some(d) = engine.bounded_hamming(p, q, bound) {
                    split.push(p, q, d);
                }
            }
        }
    })
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
    PairSplit::of_pairs(engine.points.len(), &pairs, threads).groups(threads)
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
    // No distance exceeds u32::MAX, so a larger threshold admits the same pairs.
    let threshold = u32::try_from(threshold).unwrap_or(u32::MAX);
    let mut pairs = Vec::new();
    for (q, hits) in engine
        .index
        .knn_batch(&engine.points, probe_k, ef_search, threads)
        .into_iter()
        .enumerate()
    {
        for (j, d) in hits {
            if j != q && d <= threshold {
                pairs.push(SimilarPair::new(q, j, d as usize));
            }
        }
    }
    pairs.sort_unstable_by_key(|p| (p.a, p.b));
    pairs.dedup();
    pairs
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

    /// A generated RUAM and RPAM over the same 162 roles, the last two
    /// empty on both sides: a duplicate group the pipeline filters out.
    fn sides_with_empty_rows() -> (CsrMatrix, CsrMatrix) {
        let side = |users, seed| {
            let m = generate_matrix(MatrixGenConfig {
                perturbed_per_cluster: 1,
                ..MatrixGenConfig::paper(160, users, seed)
            })
            .sparse();
            let mut rows: Vec<Vec<usize>> = (0..m.n_rows())
                .map(|i| m.row(i).iter().map(|&c| c as usize).collect())
                .collect();
            rows.extend([Vec::new(), Vec::new()]);
            CsrMatrix::from_rows_of_indices(rows.len(), m.n_cols(), &rows).unwrap()
        };
        (side(80, 31), side(70, 32))
    }

    #[test]
    fn pipeline_approx_findings_equal_the_engine_halves() {
        // The pipeline probes each side once and splits the verified
        // pairs into T4 and T5; it must report exactly what the two
        // engine halves, each probing on its own, return.
        let (ruam, rpam) = sides_with_empty_rows();
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
    fn pipeline_exact_findings_equal_the_engine_halves() {
        // The pipeline walks each side's distance plane once and splits
        // its pairs into T4 and T5; the neighbour lists and the two
        // `dbscan_*_cached` halves take the same plane apart and must
        // return exactly what the pipeline reports, at every budget.
        let (ruam, rpam) = sides_with_empty_rows();
        let halves = |m: &CsrMatrix, budget: usize, cfg: &SimilarityConfig| {
            let engine = DbscanEngine::build_with_budget(m, budget, 1);
            let duplicates = engine.duplicate_neighborhoods(1);
            let with_empty = dbscan_same_groups_cached(&engine, &duplicates, true, 1);
            assert!(with_empty.iter().any(|g| m.row_norm(g[0]) == 0));
            let groups = dbscan_same_groups_cached(&engine, &duplicates, false, 1);
            let similar = engine.similar_neighborhoods(cfg.threshold, 1);
            (
                groups,
                dbscan_similar_pairs_cached(&engine, &similar, cfg, 1),
            )
        };
        let untruncated = SimilarityConfig {
            threshold: 2,
            ..SimilarityConfig::default()
        };
        let fewest = [&ruam, &rpam]
            .map(|m| halves(m, 0, &untruncated).1.len())
            .into_iter()
            .min()
            .unwrap();
        assert!(fewest >= 2, "too few pairs to truncate");
        let similarity = SimilarityConfig {
            max_pairs: fewest / 2,
            ..untruncated
        };
        for budget in [0usize, 1] {
            for skip_similarity in [false, true] {
                let cfg = DetectionConfig {
                    similarity,
                    skip_similarity,
                    memory_budget_bytes: budget,
                    ..DetectionConfig::with_strategy(Strategy::ExactDbscan)
                };
                let report = crate::pipeline::Pipeline::new(cfg).run_on_matrices(&ruam, &rpam);
                assert_eq!(report.timings.distance_shards > 1, budget == 1);
                for (m, groups, pairs) in [
                    (&ruam, &report.same_user_groups, &report.similar_user_pairs),
                    (
                        &rpam,
                        &report.same_permission_groups,
                        &report.similar_permission_pairs,
                    ),
                ] {
                    let (want_groups, want_pairs) = halves(m, budget, &similarity);
                    let at = format!("budget={budget} skip_similarity={skip_similarity}");
                    assert!(!want_groups.is_empty());
                    assert_eq!(want_pairs.len(), fewest / 2);
                    assert_eq!(groups, &want_groups, "{at}");
                    if skip_similarity {
                        assert!(pairs.is_empty());
                    } else {
                        assert_eq!(pairs, &want_pairs, "{at}");
                    }
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
